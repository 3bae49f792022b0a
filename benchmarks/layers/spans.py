"""The benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's files, around calls into the
program (spans inside ``src/`` are a later issue).  Each span has a name,
start, end, the span that caused it (``parent``) and an optional
operation id shared by the spans of one repeat or request.  Spans stay in
memory and are written once, at exit.

Every measuring process drives the program from one thread, so spans
nest and never overlap: a span's self time is its duration minus its
children's, and all self times telescope to the root span's duration —
the workload's wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

clock = time.perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Record ``name`` around the block."""
        record = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = clock()
        try:
            yield
        finally:
            record["end"] = clock()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds by span name (duration minus children)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time[span["id"]]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def balance_error(spans: list[dict]) -> float:
    """Relative difference between the sum of all self times and the root
    spans' wall time (must stay below 1 %)."""
    wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return abs(sum(self_times(spans).values()) - wall) / wall if wall else 0.0
