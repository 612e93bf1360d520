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

Every number in the table is a probe row's: the rows are `tools/ab.py`'s
probe table, `ab.probes`, so a count and a clock name the same call.  In the
child, each row's `prepare()` is run and its function called once untraced
on the first argument set, which fills the memos and compiles any divisor
kernel it needs.  Then `prepare()` runs again, so a row that reads fresh
traces reads fresh ones, and that call is made once more under
`sys.settrace`, with `f_trace_opcodes` set on every Python frame it enters.
The script prints, per tree, the bytecode instructions run in Python frames
and the Python frames entered (a generator's resumption is an entry; a C
function is neither).  The counts do not depend on the host's speed: two
runs of one tree print the same numbers.  A row whose function is the
bench's own (`sweep request`, `method block`) or a helper of `ab.py`'s
(`walkers after .steps`) counts that function too, which is the same for
every tree.

After the table, each `kept` line is a run of bench requests: it gives, per
tree, the bytes the requests leave allocated when they start cold: what
`tracemalloc` still counts once they have returned and `gc.collect()` has
run, so what ydow's memos and tables keep.  Each line runs in a child
interpreter of its own, so its memos start empty, and calls
`bench/workloads.py` as the probe rows do, bound to the tree under test.
Like the counts, the bytes do not depend on the host's speed.  The lines:

- `kept sweep`: one `sweep` request (`run_sweep`) per year mod 400, the
  dates June 15 of 2000-2399;
- `kept reports`: a `reports` round's last two requests,
  `run_reports(["verify_all"])`, then `run_reports(["cost_report"])`.

Stdlib only.  It starts no thread, and its child interpreters run one at a
time.  It writes nothing but temporary directories, which it removes.
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc

from ab import load_workloads, probes, run_tree, trees


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
    for name, prepare in probes(ydow).items():
        func, sets = prepare()
        func(*sets[0])
        func, sets = prepare()
        table[name] = count(func, *sets[0])
    print(json.dumps(table))


KEPT = {
    "kept sweep": lambda w: [w.run_sweep(f"{year}-06-15") for year in range(2000, 2400)],
    "kept reports": lambda w: (w.run_reports(["verify_all"]), w.run_reports(["cost_report"])),
}


def kept_child(name: str) -> None:
    """In a fresh child interpreter: print the bytes one KEPT line's requests leave allocated as one JSON line."""
    import ydow

    workloads = load_workloads(ydow)
    gc.collect()
    tracemalloc.start()
    KEPT[name](workloads)
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(json.dumps({name: kept}))


def main(argv: list[str]) -> int:
    sources = trees(argv, __doc__, (1, 2))
    if sys.version_info >= (3, 12):
        print(f"count.py: opcode counts hold only on CPython 3.10 and 3.11, not on {sys.version.split()[0]} "
              f"({sys.executable})", file=sys.stderr)
        return 2
    tables = [run_tree(src, "count.child()") for src in sources]
    kept = {name: [run_tree(src, f"count.kept_child({name!r})") for src in sources] for name in KEPT}
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
