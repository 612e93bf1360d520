"""Smoke tests for the scripts under tools/, each run as a user runs it, in a subprocess."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import python_frames

from ydow.registry import METHODS

ROOT = Path(__file__).resolve().parent.parent


def run_tool(tool, *trees):
    return subprocess.run([sys.executable, f"tools/{tool}", *trees], cwd=ROOT, capture_output=True, text=True)


def count_rows(stdout):
    """count.py's table, {probe: [opcodes 0, frames 0, opcodes 1, ...]}, without its header or `kept` lines."""
    lines = stdout.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("probe "))
    return {line[:24].rstrip(): [int(n) for n in line[24:].split()] for line in lines[first + 1:-2]}


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="count.py counts only on 3.10 and 3.11")
def test_count_prints_one_row_per_probe_and_each_body_s_frames():
    proc = run_tool("count.py", "src")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "tree 0: src"
    assert lines[1].split() == ["probe", "opcodes", "0", "frames", "0"]
    rows = count_rows(proc.stdout)
    bodies = [f"{mid} body" for mid in METHODS]
    assert list(rows) == ["sweep request", "parse_date", "daycount_weekday", "traced dow", "to_jsonable",
                          "explain request", *bodies, "method block", "derive_divisor_formula", "derived block",
                          "verify_all", "cost_report", ".steps first read", ".steps re-read", "method to_jsonable",
                          "walkers after .steps"]
    for mid, desc in METHODS.items():
        desc.func(0)  # as count.py does: a derived spec takes its kernel on its first evaluation
        assert rows[f"{mid} body"][1] == len(python_frames(desc.func, 0)), mid
    kept = dict(line.rsplit(maxsplit=1) for line in lines[-2:])
    assert list(kept) == ["kept sweep", "kept reports"]
    # the memos keep no result of a sweep or a report: about 0.07 MB each on 3.11, 1.37 MB when they kept 1,400
    assert all(0 < int(n) < 500_000 for n in kept.values()), kept


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="count.py counts only on 3.10 and 3.11")
def test_count_counts_each_tree_s_own_ydow(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    special = copy / "ydow" / "special.py"
    head, odd11 = special.read_text().split("def odd11(", 1)
    special.write_text(head + "def odd11(" + odd11.replace("    ys = y\n", "    ys = y\n    ys = ys + 0\n", 1))
    proc = run_tool("count.py", "src", str(copy))
    assert proc.returncode == 0, proc.stderr
    rows = count_rows(proc.stdout)
    assert rows["odd11 body"][0] != rows["odd11 body"][2], rows["odd11 body"]
    assert rows["parity3 body"][0] == rows["parity3 body"][2], rows["parity3 body"]


@pytest.mark.parametrize("tool", ["ab.py", "count.py"])
def test_a_path_without_ydow_exits_2_with_the_usage_line(tool, tmp_path):
    proc = run_tool(tool, "src", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"Usage: python3 tools/{tool} "), proc.stderr


@pytest.mark.skipif(sys.version_info < (3, 12), reason="3.10 and 3.11 fire every opcode event")
def test_count_refuses_where_opcode_events_miss():
    proc = run_tool("count.py", "src")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
