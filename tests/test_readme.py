"""The README's examples run as written.

Each ```python block runs as a doctest.  Each `$ ydow ...` line of a ```sh
block runs through `cli.main` in-process and must exit 0; where lines
follow it before the next `$` line, they are its expected stdout.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from ydow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [
    (m.group(1), TEXT.count("\n", 0, m.start(2)) + 1, m.group(2))
    for m in re.finditer(r"^```(\w*)\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
]


def _commands():
    """(README line, argv, expected stdout or None) per `$ ydow` line."""
    found = []
    for lang, first, body in BLOCKS:
        if lang != "sh":
            continue
        command = None
        for i, line in enumerate(body.splitlines()):
            if line.startswith("$ "):
                argv = shlex.split(line[2:])
                assert argv[0] == "ydow", line
                command = [first + i, argv[1:], []]
                found.append(command)
            elif command is not None:
                command[2].append(line)
    return [(n, argv, "".join(f"{o}\n" for o in out) if out else None) for n, argv, out in found]


COMMANDS = _commands()
PYTHON_BLOCKS = [(first, body) for lang, first, body in BLOCKS if lang == "python"]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 1
    assert len(COMMANDS) >= 6
    assert any(out is not None for _, _, out in COMMANDS)


@pytest.mark.parametrize("first, body", PYTHON_BLOCKS, ids=[f"line{n}" for n, _ in PYTHON_BLOCKS])
def test_python_block_runs_as_a_doctest(first, body):
    test = doctest.DocTestParser().get_doctest(body, {}, f"README.md:{first}", str(README), first - 1)
    report = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(report)


@pytest.mark.parametrize("line, argv, expected", COMMANDS, ids=[f"line{n}" for n, _, _ in COMMANDS])
def test_shell_example_exits_0(capsys, line, argv, expected):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), f"README.md:{line}"
    if expected is not None:
        assert out == expected, f"README.md:{line}"
