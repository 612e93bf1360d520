"""Per-layer probes of the traced run.

Each probe calls one public ydow function over a fixed input set, inside one
batch span per repeat, and reports the median time per call over the
repeats.  The inputs do not depend on the seed (they are exhaustive, or
spread evenly over a 400-year cycle), so call and step counts repeat exactly
between runs.  Layers are ydow's modules; `__init__` only re-exports.
"""

from __future__ import annotations

import contextlib
import io
import operator
import re
import statistics
import subprocess
import sys
from functools import partial

from spans import Tracer
from workloads import CHILD_ENV, DERIVABLE, FAMILY_MODULE, METHOD_IDS, PIPELINES

from ydow import (
    DEFAULT_COST_MODEL,
    METHODS,
    CivilDate,
    SignConvention,
    StepTrace,
    cost_report,
    daycount_weekday,
    derive_divisor_formula,
    dow,
    evaluate,
    floor_div,
    mod7,
    parse_date,
    verify_all,
    year_share,
)
from ydow.cli import build_parser, main as cli_main

REPEATS = 7
PROCESS_REPEATS = 5
# One date in each year-of-century, cycling through the four centuries of the
# Gregorian cycle and through every month.
YMDS = [(1600 + 100 * (k % 4) + k, k % 12 + 1, 1 + (7 * k) % 28) for k in range(100)]
CLI_MAIN_ARGV = {
    "dow": ["dow", "--date", "1969-07-20", "--method", "wang", "--explain"],
    "compute": ["compute", "--year", "59", "--method", "wang"],
    "explain": ["explain", "--year", "87", "--method", "digits-ab", "--json"],
    "table": ["table", "--method", "fong", "--format", "csv"],
    "verify": ["verify", "--all"],
    "cost": ["cost", "--all", "--format", "json"],
    "derive": ["derive", "--divisor", "17", "--sign", "pos", "--json"],
}
IMPORT_CODE = "import time; t = time.perf_counter(); import ydow.cli; print(time.perf_counter() - t)"
_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(ydow\S*)")


class Probes:
    """Runs the probes into one tracer and collects the named metrics."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def per_call_ns(self, span: str, fn, argsets: list, inner: int = 1) -> float:
        """Median over REPEATS of the time per call of fn over argsets, run `inner` times."""
        calls = inner * len(argsets)
        samples = []
        for _ in range(REPEATS):
            idx = self.tracer.open(span, calls)
            for _ in range(inner):
                for args in argsets:
                    fn(*args)
            samples.append(self.tracer.close(idx) / calls)
        return statistics.median(samples)

    def process_ms(self, span: str, argv: list) -> list:
        """Run a fresh interpreter PROCESS_REPEATS times; wall ms and output of each."""
        runs = []
        for _ in range(PROCESS_REPEATS):
            idx = self.tracer.open(span)
            proc = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV, timeout=120, check=True)
            runs.append((self.tracer.close(idx) / 1e6, proc))
        return runs

    def run(self) -> dict[str, float]:
        m = self.metrics
        ns = self.per_call_ns

        operands = [(p, q) for p in range(-200, 201) for q in (2, 4, 7, 10)]
        m["arith.floor_div.ns_per_call"] = ns("arith.floor_div", floor_div, operands, 10)
        m["arith.mod7.ns_per_call"] = ns("arith.mod7", mod7, [(p,) for p in range(-200, 201)], 30)
        m["arith.year_share.ns_per_call"] = ns("arith.year_share", year_share, [(y,) for y in range(100)], 50)

        texts = ["%04d-%02d-%02d" % ymd for ymd in YMDS]
        dates = [CivilDate(*ymd) for ymd in YMDS]
        m["dates.parse_date.ns_per_call"] = ns("dates.parse_date", parse_date, [(t,) for t in texts], 20)
        m["dates.CivilDate.ns_per_call"] = ns("dates.CivilDate", CivilDate, YMDS, 20)
        m["dates.daycount_weekday.ns_per_call"] = ns(
            "dates.daycount_weekday", daycount_weekday, [(d,) for d in dates], 20
        )

        answers = [(d, mid, pl) for d in dates for mid in METHOD_IDS for pl in PIPELINES]
        keys = [(mid, d.year % 100) for d, mid, _ in answers]
        value = ns("pipeline.dow.value", partial(dow, with_trace=False), answers)
        m["pipeline.dow.value_ns_per_call"] = value
        m["registry.evaluate.warm_ns_per_call"] = ns("registry.evaluate.warm", evaluate, keys, 5)
        m["pipeline.dow.assembly_ns_per_call"] = value - m["registry.evaluate.warm_ns_per_call"]
        m["pipeline.dow.traced_ns_per_call"] = ns("pipeline.dow.traced", partial(dow, with_trace=True), answers)

        traces = [(dow(*a, with_trace=True).trace,) for a in answers]
        m["trace.to_jsonable.ns_per_call"] = ns("trace.to_jsonable", StepTrace.to_jsonable, traces)
        m["trace.cost.ns_per_call"] = ns("trace.cost", DEFAULT_COST_MODEL.cost, traces, 5)
        m["trace.steps_per_answer"] = sum(len(t) for (t,) in traces) / len(traces)

        family: dict[str, list] = {module: [] for module in FAMILY_MODULE.values()}
        for mid in METHOD_IDS:
            desc = METHODS[mid]
            family[FAMILY_MODULE[desc.category.value]] += [(desc.func, y) for y in range(100)]
        for module, calls in family.items():
            inner = 2 if module == "special" else 1
            m[f"{module}.eval.ns_per_call"] = ns(f"{module}.eval", operator.call, calls, inner)
        results = [(METHODS[mid].func(y).trace,) for mid in METHOD_IDS for y in range(100)]
        m["trace.steps_per_eval"] = sum(len(t) for (t,) in results) / len(results)
        pairs = [(d, SignConvention(s)) for d, s in DERIVABLE]
        m["divisor.derive_divisor_formula.us_per_call"] = (
            ns("divisor.derive_divisor_formula", derive_divisor_formula, pairs, 10) / 1e3
        )
        m["trace.replay.ns_per_call"] = ns("trace.replay", StepTrace.replay, results)
        m["trace.max_magnitude.ns_per_call"] = ns("trace.max_magnitude", StepTrace.max_magnitude, results, 2)
        m["registry.verify_all.ms_per_call"] = ns("registry.verify_all", verify_all, [()], 5) / 1e6
        m["registry.cost_report.ms_per_call"] = ns("registry.cost_report", cost_report, [()]) / 1e6

        self.cli()
        return m

    def cli(self) -> None:
        m = self.metrics
        m["cli.build_parser.ms_per_call"] = self.per_call_ns("cli.build_parser", build_parser, [()], 3) / 1e6
        for cmd, argv in CLI_MAIN_ARGV.items():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                per_call_ns = self.per_call_ns(f"cli.main.{cmd}", self._main_ok, [(argv,)], 3)
                m[f"cli.main.{cmd}.ms_per_call"] = per_call_ns / 1e6

        floor = self.process_ms("cli.interpreter_floor", [sys.executable, "-c", "pass"])
        m["cli.interpreter_floor_ms"] = statistics.median(ms for ms, _ in floor)
        imports = self.process_ms("cli.import", [sys.executable, "-X", "importtime", "-c", IMPORT_CODE])
        m["cli.import_ms"] = statistics.median(float(proc.stdout) * 1e3 for _, proc in imports)
        self_us: dict[str, list[int]] = {}
        for _, proc in imports:
            for us, module in _IMPORTTIME.findall(proc.stderr):
                self_us.setdefault(module, []).append(int(us))
        for module, values in sorted(self_us.items()):
            m[f"cli.import.{module}.self_us"] = statistics.median(values)

    def _main_ok(self, argv: list) -> None:
        self.attempted += 1
        self.failed += cli_main(argv) != 0
