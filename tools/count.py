"""Count what a call runs: opcodes and Python frames, for one ydow source tree or two side by side.

Usage: python3 tools/count.py SRC [OTHER_SRC]

Each argument is a directory holding a `ydow` package, such as a checkout's
`src`.  Each tree is counted in a child interpreter of its own, started one
at a time, as `tools/ab.py` runs one: the tree first on `sys.path` and an
empty bytecode cache, so the child compiles ydow from source.

The opcode column rests on `sys.settrace` opcode events, which miss
instructions on CPython 3.12 and later (3.12.1 counted 0 for
`sweep request`, 3.13.0 0 for most probes).  There the script counts
nothing: it exits 2 with one line on stderr.

In the child, each probe is run once untraced, which fills the memos and
compiles any divisor kernel it needs, then once under `sys.settrace`, with
`f_trace_opcodes` set on every Python frame it enters.  The script prints,
per tree, the bytecode instructions run in Python frames and the Python
frames entered (a generator's resumption is an entry; a C function is
neither).  The counts do not depend on the host's speed: two runs of one
tree print the same numbers.  A probe that is one call counts that call
alone; a probe that is several calls (`sweep request`, `derived block`)
counts the function here that makes them too, which is the same for
every tree.

The probes:

- `sweep request`: one request of the bench's `sweep` workload for the
  date 1987-06-15: parse it, count its weekday, and answer `dow` without a
  trace for every method and pipeline;
- `parse_date`, `daycount_weekday`: the request's first two layers alone,
  that date parsed and its weekday counted;
- `traced dow`: `dow` of that date with `fong` on the doomsday pipeline;
- `to_jsonable`: that answer's trace written by `to_jsonable`;
- `<id> body`: each registered method's function at y = 59;
- `derive_divisor_formula`: the formula for divisor 11, positive share;
- `derived block`: that formula derived and evaluated over y = 0..99, as a
  `reports` derived block does;
- `verify_all`, `cost_report`: each warm, as a `reports` round ends.

After the table, one `kept` line per measurement gives, per tree, the bytes
a cold workload leaves allocated: what `tracemalloc` still counts once the
workload has returned and `gc.collect()` has run, so what ydow's memos and
tables keep.  Each measurement runs in a child interpreter of its own, so
its memos start empty.  Like the counts, the bytes do not depend on the
host's speed.  The measurements:

- `kept sweep`: `dow` without a trace for one date per year mod 400
  (June 15 of 2000-2399) x every method and pipeline;
- `kept reports`: `verify_all()`, then `cost_report()`.

Stdlib only.  It starts no thread, and its child interpreters run one at a
time.  It writes nothing but temporary directories, which it removes.
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from pathlib import Path

from ab import run_tree

DATE = "1987-06-15"
DERIVED = (11, "pos")


def sweep_request(ydow, text: str, ids: tuple, pipelines: tuple) -> list:
    date = ydow.parse_date(text)
    ydow.daycount_weekday(date)
    return [ydow.dow(date, mid, pl, with_trace=False) for mid in ids for pl in pipelines]


def derived_block(ydow, d: int, sign: str) -> list:
    spec = ydow.derive_divisor_formula(d, sign)
    return [ydow.divisor.eval_divisor(spec, y) for y in range(100)]


def probes(ydow) -> dict:
    """Each probe's name and its call, as a function and its arguments."""
    date = ydow.parse_date(DATE)
    traced = ydow.dow(date, "fong", ydow.PipelineId.DOOMSDAY)
    calls = {
        "sweep request": (sweep_request, ydow, DATE, tuple(ydow.METHODS), tuple(ydow.PipelineId)),
        "parse_date": (ydow.parse_date, DATE),
        "daycount_weekday": (ydow.daycount_weekday, date),
        "traced dow": (ydow.dow, date, "fong", ydow.PipelineId.DOOMSDAY),
        "to_jsonable": (traced.trace.to_jsonable,),
    }
    calls.update({f"{mid} body": (desc.func, 59) for mid, desc in ydow.METHODS.items()})
    calls.update({
        "derive_divisor_formula": (ydow.derive_divisor_formula, *DERIVED),
        "derived block": (derived_block, ydow, *DERIVED),
        "verify_all": (ydow.verify_all,),
        "cost_report": (ydow.cost_report,),
    })
    return calls


def count(func, *args) -> tuple[int, int]:
    """The opcodes run and the Python frames entered by `func(*args)`."""
    opcodes = frames = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def enter(frame, event, arg):
        nonlocal frames
        frames += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(enter)
    try:
        func(*args)
    finally:
        sys.settrace(None)
    return opcodes, frames


def child() -> None:
    """In a tree's child interpreter: print each probe's opcodes and frames as one JSON line."""
    import ydow

    table = {}
    for name, (func, *args) in probes(ydow).items():
        func(*args)
        table[name] = count(func, *args)
    print(json.dumps(table))


def kept_sweep(ydow) -> None:
    for year in range(2000, 2400):
        date = ydow.CivilDate(year, 6, 15)
        for mid in ydow.METHODS:
            for pl in ydow.PipelineId:
                ydow.dow(date, mid, pl, with_trace=False)


def kept_reports(ydow) -> None:
    ydow.verify_all(), ydow.cost_report()


KEPT = {"kept sweep": kept_sweep, "kept reports": kept_reports}


def kept_child(name: str) -> None:
    """In a fresh child interpreter: print the bytes one KEPT measurement leaves allocated as one JSON line."""
    import ydow

    gc.collect()
    tracemalloc.start()
    KEPT[name](ydow)
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(json.dumps({name: kept}))


def main(argv: list[str]) -> int:
    if sys.version_info >= (3, 12):
        print(f"count.py: opcode counts hold only on CPython 3.10 and 3.11, not on {sys.version.split()[0]} "
              f"({sys.executable})", file=sys.stderr)
        return 2
    sources = [Path(arg) for arg in argv]
    if len(sources) not in (1, 2) or not all((src / "ydow" / "__init__.py").is_file() for src in sources):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each path must hold a ydow package", file=sys.stderr)
        return 2
    code = "import sys; sys.path[:0] = sys.argv[1:]; import count; count.child()"
    tables = [run_tree(src, code) for src in sources]
    kept = {name: [run_tree(src, f"import sys; sys.path[:0] = sys.argv[1:]; import count; count.kept_child({name!r})")
                   for src in sources] for name in KEPT}
    for i, src in enumerate(sources):
        print(f"tree {i}: {src}")
    print(f"{'probe':24}" + "".join(f" {f'opcodes {i}':>10} {f'frames {i}':>9}" for i in range(len(sources))))
    for name in tables[0]:
        print(f"{name:24}" + "".join(f" {table[name][0]:10d} {table[name][1]:9d}" for table in tables))
    for name, lines in kept.items():
        print(f"{name:24}" + "".join(f" {line[name]:20d}" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
