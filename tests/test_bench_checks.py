"""The benchmark's own checks, run in tier-1, so their negative controls guard every change to src."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_bench_s_unittests_pass():
    # bench/test_bench.py: the shipped code answers every workload correctly, and a corrupted div11 is counted
    proc = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "bench", "-t", "bench"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
