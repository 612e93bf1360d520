"""Time two ydow source trees against each other: set-up in fresh interpreters, the rest in one process.

Usage: python3 tools/ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding a `ydow` package, such as a checkout's
`src`.  Each package is copied into one temporary directory, as
`ydow_parent`, `ydow_change` and so on; ydow's modules import each other
relatively, so each copy runs under its own name.

Each row is timed in rounds, the side that runs first alternating between
rounds.  For each row the script prints each side's median over the
rounds, in microseconds, and the median and range of the per-round ratios
change/parent, `c/p` (below 1, the change is faster).

The first row, `cold import`, times `import ydow` in 15 rounds, each one
fresh interpreter per side, started one at a time.  Each inherits the
caller's environment, so with PYTHONDONTWRITEBYTECODE=1 every one compiles
ydow from source, as a benchmark worker started in that environment does.

Then each tree is imported twice into this process, in the order parent,
change, change, parent, as two pairs: in the first the parent was loaded
first, in the second the change was.  A probe can favour the tree loaded
first (a `.steps re-read` row once read about 1.08 against whichever tree
was loaded second), so each row prints the ratios of both pairs, and a
claim holds only if it holds in both.  Each probe below is timed in 7
rounds per pair; a side's time in a round is the best of 5 runs.  The two
sides' medians are over both pairs' rounds.

The probes, each a fixed amount of work:

- `sweep`: 256 sweep requests, each parsing a date, counting its weekday
  and answering `dow` without a trace for every method and pipeline.  The
  dates are drawn as `bench/workloads.py` draws them, from a seeded
  generator: a year in 1583-2599, a month, then a day of that month;
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

Stdlib only.  It starts no thread, and its child interpreters run one at a
time.  It writes nothing but its temporary directory, which it removes.
The garbage collector is off while an in-process run is timed.
"""

from __future__ import annotations

import calendar
import gc
import importlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

ROUNDS = 7
REPEATS = 5
COLD_IMPORTS = 15
SIDES = ("parent", "change")
SEED = 1


def draw_dates(rng: random.Random, n: int) -> tuple[str, ...]:
    """n ISO dates drawn in the order bench/workloads.py's `random_date` draws them."""
    dates = []
    for _ in range(n):
        y = rng.randint(1583, 2599)
        m = rng.randint(1, 12)
        dates.append(f"{y:04d}-{m:02d}-{rng.randint(1, calendar.monthrange(y, m)[1]):02d}")
    return tuple(dates)


DATES = draw_dates(random.Random(SEED), 256)
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


def cold_import(tmp: Path, side: str) -> float:
    """Seconds a fresh interpreter takes to import the side's package, timed inside it."""
    code = f"import time; t = time.perf_counter(); import ydow_{side}; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp, capture_output=True, text=True, check=True)
    return float(done.stdout)


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


def load(named: list[tuple[str, Path]], tmp: Path) -> dict:
    """Copy each named source tree's `ydow` into tmp as `ydow_<name>`, and import them in order."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tmp))
    packages = {}
    for name, src in named:
        shutil.copytree(src / "ydow", tmp / f"ydow_{name}", ignore=shutil.ignore_patterns("__pycache__"))
        packages[name] = importlib.import_module(f"ydow_{name}")
        importlib.import_module(f"ydow_{name}.divisor")
    return packages


def time_rounds(rounds: int, time_side) -> dict:
    """Each side's `time_side(side)` per round, the side that runs first alternating between rounds."""
    times = {side: [] for side in SIDES}
    for i in range(rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            times[side].append(time_side(side))
    return times


def report(name: str, *runs: dict) -> None:
    """Print one row: each side's median over every run's rounds, then each run's change/parent ratios."""
    parent, change = (statistics.median([t for run in runs for t in run[side]]) * 1e6 for side in SIDES)
    cells = []
    for run in runs:
        ratios = [c / p for p, c in zip(run["parent"], run["change"])]
        cells.append(f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]")
    print(f"{name:22} {parent:10.1f} {change:10.1f}  " + "  ".join(f"{cell:22}" for cell in cells).rstrip())


def main(argv: list[str]) -> int:
    sources = [Path(arg) for arg in argv]
    if len(sources) != 2 or not all((src / "ydow" / "__init__.py").is_file() for src in sources):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each path must hold a ydow package", file=sys.stderr)
        return 2
    parent, change = sources
    with tempfile.TemporaryDirectory(prefix="ydow-ab-") as tmp:
        # the pairs: (parent, change) loaded parent first, then change first
        packages = load([("parent", parent), ("change", change), ("change2", change), ("parent2", parent)], Path(tmp))
        pairs = ({"parent": packages["parent"], "change": packages["change"]},
                 {"parent": packages["parent2"], "change": packages["change2"]})
        print(f"{'probe':22} {'parent us':>10} {'change us':>10}  {'c/p, parent first':22}  c/p, change first")
        report("cold import", time_rounds(COLD_IMPORTS, partial(cold_import, Path(tmp))))
        for ydow in packages.values():  # warm the memos and compile every kernel before any timing
            for probe in PROBES.values():
                probe(ydow)
        for name, probe in PROBES.items():
            report(name, *[time_rounds(ROUNDS, lambda side: best_of(probe, pair[side])) for pair in pairs])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
