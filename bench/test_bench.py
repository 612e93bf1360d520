"""The benchmark's output checks pass on shipped code and are not vacuous:
with a corrupted div11 installed in the registry they count failures.

    python3 -m unittest discover -s bench -t bench
"""

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

from ydow import METHODS, MethodDescriptor, SignConvention, Step, StepKind, StepTrace  # noqa: E402
from ydow.arith import normalize  # noqa: E402


def truncating_div11(y: int):
    """div11 with its inner floor truncated toward zero: wrong for 31 of 100 years."""
    q, r = divmod(y, 11)
    raw = r + int((r - q) / 4)
    return normalize(raw, SignConvention.POSITIVE, StepTrace((Step(StepKind.SET, f"value {raw}", (raw,), raw),)))


def failed_ratio(name: str, count: int, seed: int = 7) -> float:
    workload = workloads.WORKLOADS[name]
    with workload.serve() as run:
        loop = workloads.closed_loop(workload, run, workload.make(random.Random(seed)), count=count)
    return loop.failed / loop.attempted


class ShippedCode(unittest.TestCase):
    def test_in_process_workloads_answer_correctly(self):
        for name, count in (("sweep", 20), ("explain", 5), ("reports", 30)):
            with self.subTest(name):
                self.assertEqual(failed_ratio(name, count), 0)

    def test_cli_workload_answers_correctly(self):
        self.assertEqual(failed_ratio("cli", 20), 0)


class NegativeControl(unittest.TestCase):
    def setUp(self):
        shipped = METHODS["div11"]
        self.addCleanup(METHODS.__setitem__, "div11", shipped)
        METHODS["div11"] = MethodDescriptor(
            "div11", "Division by 11 (broken)", shipped.category, shipped.convention, "negative control",
            truncating_div11,
        )

    def test_sweep_counts_wrong_weekdays(self):
        self.assertGreater(failed_ratio("sweep", 20), 0)

    def test_reports_counts_wrong_shares(self):
        self.assertGreater(failed_ratio("reports", 30), 0)


if __name__ == "__main__":
    unittest.main()
