"""Smoke tests for the scripts under tools/, each run as a user runs it, in a subprocess."""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import python_frames

from ydow.registry import METHODS

ROOT = Path(__file__).resolve().parent.parent


def run_count():
    return subprocess.run([sys.executable, "tools/count.py", "src"], cwd=ROOT, capture_output=True, text=True)


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="count.py counts only on 3.10 and 3.11")
def test_count_prints_one_row_per_probe_and_each_body_s_frames():
    proc = run_count()
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "tree 0: src"
    assert lines[1].split() == ["probe", "opcodes", "0", "frames", "0"]
    rows = {name: int(frames) for name, _, frames in (line.rsplit(maxsplit=2) for line in lines[2:-2])}
    bodies = [f"{mid} body" for mid in METHODS]
    assert list(rows) == ["sweep request", "parse_date", "daycount_weekday", "traced dow", "to_jsonable", *bodies,
                          "derive_divisor_formula", "derived block", "verify_all", "cost_report"]
    for mid, desc in METHODS.items():
        desc.func(59)  # as count.py does: a derived spec takes its kernel on its first evaluation
        assert rows[f"{mid} body"] == len(python_frames(desc.func, 59)), mid
    kept = dict(line.rsplit(maxsplit=1) for line in lines[-2:])
    assert list(kept) == ["kept sweep", "kept reports"]
    # the memos keep no result of a sweep or a report: about 0.07 MB each on 3.11, 1.37 MB when they kept 1,400
    assert all(0 < int(n) < 500_000 for n in kept.values()), kept


@pytest.mark.skipif(sys.version_info < (3, 12), reason="3.10 and 3.11 fire every opcode event")
def test_count_refuses_where_opcode_events_miss():
    proc = run_count()
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
