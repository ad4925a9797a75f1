"""In-memory spans and counters recorded by the benchmark around public calls.

A span is ``(parent, name, start_ns, end_ns)``; its id is its index in
``Tracer.spans``.  Spans of one operation share the operation span as
their parent.  Nothing is written until the run ends.  Spans are tuples
of atomic values, which the garbage collector stops tracking, so a long
traced run does not slow itself down with ever longer collections.
"""

from __future__ import annotations

import json
import time
from collections import Counter

clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()

    def open(self, name: str, parent: int | None = None) -> int:
        self.spans.append((parent, name, clock(), None))
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        parent, name, start, _ = self.spans[span]
        self.spans[span] = (parent, name, start, clock())

    def call(self, parent: int, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name`` under ``parent``."""
        start = clock()
        out = fn(*args)
        self.spans.append((parent, name, start, clock()))
        return out

    def durations(self, name: str) -> list:
        return [end - start for _, n, start, end in self.spans if n == name]

    def self_time(self) -> dict:
        """``{name: (calls, total self ns)}``; self time excludes child spans."""
        covered = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = {}
        for i, (_, name, start, end) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0))
            out[name] = (calls + 1, total + (end - start) - covered[i])
        return out

    def write(self, path, max_spans: int = 20_000) -> None:
        """Write the first ``max_spans`` spans plus the per-name self time."""
        record = {
            "fields": ["parent", "name", "start_ns", "end_ns"],
            "spans": self.spans[:max_spans],
            "spans_total": len(self.spans),
            "self_time_ns": {k: {"calls": c, "self_ns": s} for k, (c, s) in self.self_time().items()},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(record, fh)
