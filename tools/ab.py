"""Time two ydow source trees against each other in one process.

Usage: python3 tools/ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding a `ydow` package, such as a checkout's
`src`.  Both packages are copied into one temporary directory, as
`ydow_parent` and `ydow_change`; ydow's modules import each other
relatively, so each copy runs under its own name, and both are imported
side by side.  Each probe below is then timed in 7 rounds; the side that
runs first alternates between rounds, and a side's time in a round is the
best of 5 runs.  For each probe the script prints each side's median over
the rounds, in microseconds, and the median and range of the per-round
ratios change/parent (below 1, the change is faster).

The probes, each a fixed amount of work:

- `sweep`: 8 sweep requests, each parsing a date, counting its weekday and
  answering `dow` without a trace for every method and pipeline;
- `method blocks`: every method over y = 0..99, each result priced,
  replayed and measured, as a `reports` method block does;
- `derived blocks`: 12 derived formulas, each derived once and evaluated
  over y = 0..99;
- `explain`: a traced `dow` for 4 dates x every method and pipeline, each
  trace written by `to_jsonable` and priced;
- `.steps first read`, `.steps re-read`, `to_jsonable`: over 1,400 fresh
  method traces (every method, y = 0..99), built before the clock starts;
- `walkers after .steps`: replay, cost and max_magnitude over those traces
  once their `.steps` has been read.

Stdlib only.  It starts no thread or process, and writes nothing but its
temporary directory, which it removes.  The garbage collector is off while
a run is timed.
"""

from __future__ import annotations

import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROUNDS = 7
REPEATS = 5
SIDES = ("parent", "change")
DATES = ("1583-01-01", "1777-07-04", "1900-02-28", "2000-02-29", "2024-12-31", "2263-05-17",
         "2451-10-09", "2599-12-31")
DERIVED = ((3, "pos"), (5, "neg"), (7, "pos"), (9, "neg"), (11, "pos"), (13, "neg"),
           (15, "pos"), (17, "neg"), (19, "pos"), (21, "neg"), (23, "pos"), (27, "neg"))


def fresh_traces(ydow) -> list:
    return [desc.func(y).trace for desc in ydow.METHODS.values() for y in range(100)]


def sweep(ydow) -> float:
    pipelines, ids = tuple(ydow.PipelineId), ydow.method_ids()
    start = perf_counter()
    for text in DATES:
        date = ydow.parse_date(text)
        ydow.daycount_weekday(date)
        for mid in ids:
            for pl in pipelines:
                ydow.dow(date, mid, pl, with_trace=False)
    return perf_counter() - start


def method_blocks(ydow) -> float:
    funcs, share, cost = [d.func for d in ydow.METHODS.values()], ydow.year_share, ydow.DEFAULT_COST_MODEL.cost
    start = perf_counter()
    for func in funcs:
        for y in range(100):
            res = func(y)
            trace = res.trace
            share(y) == res.residue, cost(trace), trace.replay(), trace.max_magnitude()
    return perf_counter() - start


def derived_blocks(ydow) -> float:
    derive, evaluate = ydow.derive_divisor_formula, ydow.divisor.eval_divisor
    start = perf_counter()
    for d, sign in DERIVED:
        spec = derive(d, sign)
        for y in range(100):
            evaluate(spec, y)
    return perf_counter() - start


def explain(ydow) -> float:
    pipelines, ids, cost = tuple(ydow.PipelineId), ydow.method_ids(), ydow.DEFAULT_COST_MODEL.cost
    dates = [ydow.parse_date(text) for text in DATES[:4]]
    start = perf_counter()
    for date in dates:
        for mid in ids:
            for pl in pipelines:
                trace = ydow.dow(date, mid, pl).trace
                trace.to_jsonable(), cost(trace)
    return perf_counter() - start


def first_read(ydow) -> float:
    traces = fresh_traces(ydow)
    start = perf_counter()
    for trace in traces:
        trace.steps
    return perf_counter() - start


def re_read(ydow) -> float:
    traces = fresh_traces(ydow)
    for trace in traces:
        trace.steps
    start = perf_counter()
    for trace in traces:
        trace.steps
    return perf_counter() - start


def to_jsonable(ydow) -> float:
    traces = fresh_traces(ydow)
    start = perf_counter()
    for trace in traces:
        trace.to_jsonable()
    return perf_counter() - start


def walkers_after_read(ydow) -> float:
    traces, cost = fresh_traces(ydow), ydow.DEFAULT_COST_MODEL.cost
    for trace in traces:
        trace.steps
    start = perf_counter()
    for trace in traces:
        trace.replay(), cost(trace), trace.max_magnitude()
    return perf_counter() - start


PROBES = {
    "sweep": sweep,
    "method blocks": method_blocks,
    "derived blocks": derived_blocks,
    "explain": explain,
    ".steps first read": first_read,
    ".steps re-read": re_read,
    "to_jsonable": to_jsonable,
    "walkers after .steps": walkers_after_read,
}


def best_of(probe, ydow) -> float:
    times = []
    for _ in range(REPEATS):
        gc.collect()
        gc.disable()
        try:
            times.append(probe(ydow))
        finally:
            gc.enable()
    return min(times)


def load(sources: list[Path], tmp: Path) -> dict:
    """Copy each source tree's `ydow` into tmp under its side's name, and import it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tmp))
    packages = {}
    for side, src in zip(SIDES, sources):
        shutil.copytree(src / "ydow", tmp / f"ydow_{side}", ignore=shutil.ignore_patterns("__pycache__"))
        packages[side] = importlib.import_module(f"ydow_{side}")
        importlib.import_module(f"ydow_{side}.divisor")
    return packages


def main(argv: list[str]) -> int:
    sources = [Path(arg) for arg in argv]
    if len(sources) != 2 or not all((src / "ydow" / "__init__.py").is_file() for src in sources):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each path must hold a ydow package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ydow-ab-") as tmp:
        packages = load(sources, Path(tmp))
        for ydow in packages.values():  # warm the memos and compile every kernel before any timing
            for probe in PROBES.values():
                probe(ydow)
        print(f"{'probe':22} {'parent us':>10} {'change us':>10}  change/parent: median [min, max]")
        for name, probe in PROBES.items():
            times = {side: [] for side in SIDES}
            ratios = []
            for i in range(ROUNDS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    times[side].append(best_of(probe, packages[side]))
                ratios.append(times["change"][-1] / times["parent"][-1])
            parent, change = (statistics.median(times[side]) * 1e6 for side in SIDES)
            print(f"{name:22} {parent:10.1f} {change:10.1f}  {statistics.median(ratios):.3f} "
                  f"[{min(ratios):.3f}, {max(ratios):.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
