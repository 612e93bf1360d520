"""Count what a call runs: opcodes and Python frames, for one ydow source tree or two side by side.

Usage: python3 tools/count.py SRC [OTHER_SRC]

Each argument is a directory holding a `ydow` package, such as a checkout's
`src`.  Each package is copied into one temporary directory and imported
under its own name, as `tools/ab.py` does.

Each probe is run once untraced, which fills the memos and compiles any
divisor kernel it needs, then once under `sys.settrace`, with
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
- `traced dow`: `dow` of that date with `fong` on the doomsday pipeline;
- `to_jsonable`: that answer's trace written by `to_jsonable`;
- `<id> body`: each registered method's function at y = 59;
- `derive_divisor_formula`: the formula for divisor 11, positive share;
- `derived block`: that formula derived and evaluated over y = 0..99, as a
  `reports` derived block does;
- `verify_all`, `cost_report`: each warm, as a `reports` round ends.

Stdlib only.  It runs in one process and starts no thread.  It writes
nothing but its temporary directory, which it removes.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from ab import load

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


def main(argv: list[str]) -> int:
    sources = [Path(arg) for arg in argv]
    if len(sources) not in (1, 2) or not all((src / "ydow" / "__init__.py").is_file() for src in sources):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each path must hold a ydow package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ydow-count-") as tmp:
        tables = []
        for ydow in load([(f"tree{i}", src) for i, src in enumerate(sources)], Path(tmp)).values():
            table = {}
            for name, (func, *args) in probes(ydow).items():
                func(*args)
                table[name] = count(func, *args)
            tables.append(table)
    for i, src in enumerate(sources):
        print(f"tree {i}: {src}")
    print(f"{'probe':24}" + "".join(f" {f'opcodes {i}':>10} {f'frames {i}':>9}" for i in range(len(sources))))
    for name in tables[0]:
        print(f"{name:24}" + "".join(f" {table[name][0]:10d} {table[name][1]:9d}" for table in tables))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
