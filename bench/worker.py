"""One worker of an end-to-end run: set-up, warm-up and a slice of the timed
closed loop, in a fresh interpreter.

    python bench/worker.py <workload> <seed> <seconds>

Prints one JSON line:
- setup_s: the time to import ydow (ydow.cli for the cli workload) and serve
  the workload's first request;
- hwm_kib: the peak resident memory after the rest of the warm-up block,
  read before the timed loop keeps its samples;
- best: for each distinct request of the timed loop, by its JSON text, how
  often it ran and its best time in seconds;
- as_measured: throughput_per_s, latency_p50_ms and latency_p90_ms of the
  timed loop, each request counted with its own time;
- child_kib: the peak resident memory of the CLI processes, or 0;
- the operations attempted and failed, over set-up and timed loop.

The cli workload serves its set-up requests in-process, through
ydow.cli.main, and starts a CLI process for each request of the timed loop.
"""

import sys
import time

# Modules only the harness needs load before the clock starts.  Modules ydow
# itself imports do not, so their cost counts as ydow's.
import contextlib
import datetime  # noqa: F401
import io
import subprocess  # noqa: F401

name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
start = time.perf_counter()
import workloads  # noqa: E402  (imports ydow)

if name == "cli":
    from ydow.cli import main
imported = time.perf_counter()

import dataclasses  # noqa: E402  (already loaded by ydow)
import json  # noqa: E402  (already loaded by ydow)
import random  # noqa: E402  (already loaded by workloads)
import statistics  # noqa: E402  (already loaded by ydow)

workload = workloads.WORKLOADS[name]
requests = workload.make(random.Random(seed))
warm = requests[: workload.warmup]
set_up = workload
if name == "cli":

    def run_in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue(), 0

    set_up = dataclasses.replace(workload, serve=lambda: contextlib.nullcontext(run_in_process), child_kib=None)

with set_up.serve() as run:
    first = time.perf_counter()
    head = workloads.closed_loop(set_up, run, warm, count=1)
    setup_s = imported - start + time.perf_counter() - first
    rest = workloads.closed_loop(set_up, run, warm[1:], count=len(warm) - 1)
# VmHWM is this process's own peak; ru_maxrss would include its parent's,
# which exec carries over.
with open("/proc/self/status", encoding="ascii") as status:
    hwm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

with workload.serve() as run:
    loop = workloads.closed_loop(workload, run, requests, seconds=seconds)
latencies = loop.latencies
if len(latencies) < 2:
    sys.exit(f"bench: {seconds} s per worker timed {len(latencies)} request, too few for a percentile")

# The requests cycle, so each distinct one runs many times; the harness
# keeps the best time of each (see run.py).
key_of = [json.dumps(req) for req in requests]
best = {}
for i, t in enumerate(latencies):
    key = key_of[i % len(requests)]
    count, fastest = best.get(key, (0, t))
    best[key] = (count + 1, min(t, fastest))
p50, p90 = statistics.quantiles(latencies, n=10)[4::4]

print(
    json.dumps(
        {
            "setup_s": setup_s,
            "hwm_kib": hwm_kib,
            "best": best,
            "as_measured": {
                "throughput_per_s": loop.attempted / sum(latencies),
                "latency_p50_ms": p50 * 1e3,
                "latency_p90_ms": p90 * 1e3,
            },
            "child_kib": loop.child_kib,
            "attempted": head.attempted + rest.attempted + loop.attempted,
            "failed": head.failed + rest.failed + loop.failed,
        }
    )
)
