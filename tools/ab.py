"""Time two ydow source trees against each other, each in fresh interpreters.

Usage: python3 tools/ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding a `ydow` package, such as a checkout's
`src`.

Each tree runs in child interpreters of its own, one at a time: the tree
first on `sys.path`, PYTHONDONTWRITEBYTECODE=1, and PYTHONPYCACHEPREFIX
pointing at an empty temporary directory, so every child compiles ydow from
source, as a benchmark worker does in a fresh checkout.  The script runs 15
rounds of one child per side, the side that runs first alternating between
rounds.  A child times `import ydow` before it imports any module of this
script's, runs every probe below once to warm the memos and compile every
kernel, then runs the probes in turn 5 times over, the garbage collector off
in each run, and prints each probe's best run as one JSON line.  A probe's
5 runs so span the child's whole life, and a slowdown of the host shorter
than that spoils only some of them.

For each row, `cold import` first, then each probe, the script prints each
side's median over the rounds, in microseconds, and the median and range of
the per-round ratios change/parent, `c/p` (below 1, the change is faster).

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
  method traces (every method, y = 0..99), built before the clock starts.
  `.steps re-read` reads each trace's `.steps` 20 times once it has been
  read: one re-read of the 1,400 (about 110 us on 2 vCPUs) spread about
  6 % between runs;
- `walkers after .steps`: replay, cost and max_magnitude over those traces
  once their `.steps` has been read.

Stdlib only.  It starts no thread, and its child interpreters run one at a
time.  It writes nothing but temporary directories, which it removes.
"""

from __future__ import annotations

import calendar
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROUNDS = 15
REPEATS = 5
RE_READS = 20
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
    for _ in range(RE_READS):
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


def best_of(ydow) -> dict:
    """Each probe's best of REPEATS runs, the runs of every probe interleaved, the garbage collector off in each."""
    best = dict.fromkeys(PROBES, float("inf"))
    for _ in range(REPEATS):
        for name, probe in PROBES.items():
            gc.collect()
            gc.disable()
            try:
                best[name] = min(best[name], probe(ydow))
            finally:
                gc.enable()
    return best


def run_tree(src: Path, code: str) -> dict:
    """The JSON line `code` prints in a fresh interpreter, src then this script's directory first on sys.path.

    The child compiles ydow from source: it writes no bytecode, and looks
    for bytecode only in an empty directory.
    """
    with tempfile.TemporaryDirectory(prefix="ydow-pycache-") as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        argv = [sys.executable, "-c", code, str(src.resolve()), str(Path(__file__).resolve().parent)]
        done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def child(cold_import: float) -> None:
    """In a tree's child interpreter: print the seconds `import ydow` took and each probe's best of REPEATS runs."""
    import ydow

    for probe in PROBES.values():  # warm the memos and compile every kernel before any timing
        probe(ydow)
    print(json.dumps({"cold import": cold_import, **best_of(ydow)}))


def report(name: str, parent: list[float], change: list[float]) -> None:
    """Print one row: each side's median over the rounds, then the median and range of the per-round change/parent."""
    ratios = [c / p for p, c in zip(parent, change)]
    print(f"{name:22} {statistics.median(parent) * 1e6:10.1f} {statistics.median(change) * 1e6:10.1f}  "
          f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]")


def main(argv: list[str]) -> int:
    sources = [Path(arg) for arg in argv]
    if len(sources) != 2 or not all((src / "ydow" / "__init__.py").is_file() for src in sources):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each path must hold a ydow package", file=sys.stderr)
        return 2
    # the child times `import ydow` before it imports anything of this script's
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); import ydow; t = time.perf_counter() - t; import ab; ab.child(t)")
    trees, runs = dict(zip(SIDES, sources)), {side: [] for side in SIDES}
    for i in range(ROUNDS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_tree(trees[side], code))
    print(f"{'probe':22} {'parent us':>10} {'change us':>10}  c/p")
    for name in runs["parent"][0]:
        report(name, *([run[name] for run in runs[side]] for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
