"""Shared test plumbing: collects the acceptance-gate verdict lines and
prints them in the terminal summary, where output capture can't hide them,
and counts the Python frames a call runs."""

import gc
import sys

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def python_frames(func, *args, **kwargs) -> list[str]:
    """The names of the Python functions `func(*args, **kwargs)` runs, func first; C calls are not counted."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    # a collection during the call would run `gc.callbacks` hooks (Hypothesis
    # installs one), whose frames are not the call's own
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        func(*args, **kwargs)
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return names
