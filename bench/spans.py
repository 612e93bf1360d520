"""Spans for the traced run.

A span is one timed interval around calls the benchmark makes into ydow:
its name, its parent span, the request it belongs to, start and end in
nanoseconds, and how many calls it covers (a batch span covers many).
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

FIELDS = ("name", "parent", "request", "start_ns", "end_ns", "calls")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # one list per span, laid out as FIELDS
        self.request = -1  # id shared by the spans of one request; -1 outside requests
        self._open: list[int] = []

    def open(self, name: str, calls: int = 1) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        span = [name, parent, self.request, 0, 0, calls]
        self.spans.append(span)
        span[3] = perf_counter_ns()
        return idx

    def close(self, idx: int) -> int:
        """End span idx; returns its duration in ns."""
        end = perf_counter_ns()
        span = self.spans[idx]
        span[4] = end
        self._open.pop()
        return end - span[3]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def totals(self) -> dict[str, tuple[int, int]]:
        """Calls and self time in ns per span name.  Self time is a span's
        duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, tuple[int, int]] = {}
        for i, (name, _, _, start, end, calls) in enumerate(self.spans):
            n, self_ns = out.get(name, (0, 0))
            out[name] = (n + calls, self_ns + end - start - child_ns[i])
        return out

    def to_jsonable(self) -> dict:
        return {"fields": FIELDS, "spans": self.spans}


def write_spans(path, **tracers: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({name: t.to_jsonable() for name, t in tracers.items()}, f)
