"""Time two ydow source trees against each other, each in fresh interpreters.

Usage: python3 tools/ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding a `ydow` package, such as a checkout's
`src`.

Each tree runs in child interpreters of its own, one at a time: the tree
first on `sys.path`, PYTHONDONTWRITEBYTECODE=1, and PYTHONPYCACHEPREFIX
pointing at an empty temporary directory, so every child compiles ydow from
source, as a benchmark worker does in a fresh checkout.  The script runs 15
rounds of one child per side, the side that runs first alternating between
rounds.  A child imports ydow, runs every row of the probe table below once
to warm the memos and compile every kernel, then times the rows in turn 5
times over, the garbage collector off in each run, and prints each row's
best run as one JSON line.  A row's 5 runs so span the child's whole life,
and a slowdown of the host shorter than that spoils only some of them.

Every printed number is a probe row's.  For each row the script prints each
side's median over the rounds, in microseconds, and the median and range of
the per-round ratios change/parent, `c/p` (below 1, the change is faster).
No row times `import ydow`: the bench's `setup_s` measures that.

The probe table, `probes(ydow)`, is shared with `tools/count.py`, so a count
and a clock name the same call.  Each row is a `prepare()` function: it does
the row's set-up, untimed, and returns a function and its argument sets.  A
row's clock holds one call of the function per argument set, in one loop
whose own cost is the same for both trees; `count.py` counts the call on the
first set.  The short rows repeat their sets, so that each row's clock runs
for about 0.3 ms or more.  The rows call `bench/workloads.py`, imported
after `ydow` so that it binds the tree's package, and draw their dates as
the bench's `--seed 1` does:

- `sweep request`, `parse_date`, `daycount_weekday`: the first 256 requests
  of the `sweep` workload, each served by `run_sweep`, then their dates
  parsed, then their weekdays counted, 4 times over;
- `traced dow`, `to_jsonable`, `explain request`: a traced `dow` for the
  first 4 dates x every method and pipeline, each answer's trace written by
  `to_jsonable`, and those 4 dates served by `run_explain`;
- `<id> body`: each method's function over y = 0..99, 10 times over;
- `method block`, `derive_divisor_formula`, `derived block`: `run_reports`
  over every method's block, then every derivable (divisor, sign) pair
  derived, and served as a derived block;
- `verify_all`, `cost_report`: each warm, as a `reports` round ends, 100
  times;
- `.steps first read`, `.steps re-read`, `method to_jsonable`,
  `walkers after .steps`: over 1,400 fresh method traces (every method,
  y = 0..99), built in set-up.  `.steps re-read` reads each trace's `.steps`
  20 times once it has been read (one re-read of the 1,400 spread about 6 %
  between runs); the walkers are replay, cost and max_magnitude, once
  `.steps` has been read.

Stdlib only.  It starts no thread, and its child interpreters run one at a
time.  It writes nothing but temporary directories, which it removes.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from operator import attrgetter
from pathlib import Path
from time import perf_counter

ROUNDS = 15
REPEATS = 5
RE_READS = 20
SIDES = ("parent", "change")
SEED = 1
BENCH = Path(__file__).resolve().parent.parent / "bench"


def trees(argv: list[str], doc: str, counts: tuple[int, ...]) -> list[Path]:
    """The source trees argv names; exit 2 with doc's usage line on stderr unless they hold ydow and number `counts`."""
    sources = [Path(arg) for arg in argv]
    if len(sources) not in counts or not all((src / "ydow" / "__init__.py").is_file() for src in sources):
        print(doc.split("\n\n")[1], file=sys.stderr)
        print("each path must hold a ydow package", file=sys.stderr)
        raise SystemExit(2)
    return sources


def load_workloads(ydow):
    """bench/workloads.py, imported after `ydow`, so bound to the tree under test; exit 1 if it is not.

    In a child of run_tree's, the tree under test is sys.argv[1].
    """
    sys.path.append(str(BENCH))
    import workloads

    if workloads.dow is not ydow.dow or Path(ydow.__file__).resolve().parent.parent != Path(sys.argv[1]):
        sys.exit(f"bench/workloads.py bound the ydow in {Path(ydow.__file__).parent}, not the tree {sys.argv[1]}")
    return workloads


def probes(ydow) -> dict:
    """The probe table: each row's name and its prepare(), which returns a function and its argument sets."""
    w = load_workloads(ydow)
    texts = w.date_requests(random.Random(SEED), 256)
    requests = [(text,) for text in texts]
    answers = [(w.parse_date(text), mid, pl) for text in texts[:4] for mid in w.METHOD_IDS for pl in w.PIPELINES]

    def fixed(func, sets):
        return lambda: (func, sets)

    def fresh_traces():
        return [(w.method_func(mid)(y).trace,) for mid in w.METHOD_IDS for y in range(100)]

    def read_traces():
        traces = fresh_traces()
        for (trace,) in traces:
            trace.steps
        return traces

    def walk(trace):
        return w.replay(trace), w.price(trace), w.max_magnitude(trace)

    steps = attrgetter("steps")
    return {
        "sweep request": fixed(w.run_sweep, requests),
        "parse_date": fixed(w.parse_date, requests),
        "daycount_weekday": fixed(w.daycount_weekday, [(w.parse_date(text),) for text in texts] * 4),
        "traced dow": fixed(w.dow, answers),
        "to_jsonable": fixed(w.to_jsonable, [(w.dow(*args).trace,) for args in answers]),
        "explain request": fixed(w.run_explain, requests[:4]),
        **{f"{mid} body": fixed(w.method_func(mid), [(y,) for y in range(100)] * 10) for mid in w.METHOD_IDS},
        "method block": fixed(w.run_reports, [(["method", mid],) for mid in w.METHOD_IDS]),
        "derive_divisor_formula": fixed(w.derive_divisor_formula, w.DERIVABLE),
        "derived block": fixed(w.run_reports, [(["derived", d, s],) for d, s in w.DERIVABLE]),
        "verify_all": fixed(w.verify_all, [()] * 100),
        "cost_report": fixed(w.cost_report, [()] * 100),
        ".steps first read": lambda: (steps, fresh_traces()),
        ".steps re-read": lambda: (steps, read_traces() * RE_READS),
        "method to_jsonable": lambda: (w.to_jsonable, fresh_traces()),
        "walkers after .steps": lambda: (walk, read_traces()),
    }


def clock(func, sets) -> float:
    """The seconds of one call of func per argument set, the garbage collector off."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        for args in sets:
            func(*args)
        return perf_counter() - start
    finally:
        gc.enable()


def run_tree(src: Path, call: str) -> dict:
    """The JSON line `call` prints in a fresh interpreter, src then this script's directory first on sys.path.

    `call` calls into a module of this directory, such as
    "count.kept_child('kept sweep')"; the child imports that module, then
    makes the call.  The child compiles ydow from source: it writes no
    bytecode, and looks for bytecode only in an empty directory.
    """
    code = f"import sys; sys.path[:0] = sys.argv[1:]; import {call.partition('.')[0]}; {call}"
    with tempfile.TemporaryDirectory(prefix="ydow-pycache-") as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        argv = [sys.executable, "-c", code, str(src.resolve()), str(Path(__file__).resolve().parent)]
        done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def child() -> None:
    """In a tree's child interpreter: print each row's best of REPEATS runs, in seconds, as one JSON line."""
    import ydow

    rows = probes(ydow)
    for prepare in rows.values():  # warm the memos and compile every kernel before any timing
        clock(*prepare())
    best = dict.fromkeys(rows, float("inf"))
    for _ in range(REPEATS):
        for name, prepare in rows.items():
            best[name] = min(best[name], clock(*prepare()))
    print(json.dumps(best))


def report(name: str, parent: list[float], change: list[float]) -> None:
    """Print one row: each side's median over the rounds, then the median and range of the per-round change/parent."""
    ratios = [c / p for p, c in zip(parent, change)]
    print(f"{name:22} {statistics.median(parent) * 1e6:10.1f} {statistics.median(change) * 1e6:10.1f}  "
          f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]")


def main(argv: list[str]) -> int:
    sources = trees(argv, __doc__, (2,))
    sides, runs = dict(zip(SIDES, sources)), {side: [] for side in SIDES}
    for i in range(ROUNDS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_tree(sides[side], "ab.child()"))
    print(f"{'probe':22} {'parent us':>10} {'change us':>10}  c/p")
    for name in runs["parent"][0]:
        report(name, *([run[name] for run in runs[side]] for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
