"""Trace events and per-context event buffers.

The observability pipeline's first invariant is that *recording must not
distort the run being observed*.  Each context therefore appends one
plain tuple per op to its own :class:`ContextTraceBuffer` — a Python list
touched only by the thread of control driving that context — so the
threaded executor can trace without any per-event locking (the append is
the lock-free fast path; CPython list appends are atomic under the GIL,
and no other thread reads the list until the run has ended).  The rows
are the stored form; :class:`TraceEvent` objects are built only for
whoever reads ``events``.

The second invariant is *determinism of the merged view*: an event is
keyed by ``(time, context, seq)`` where ``seq`` is the context's own op
counter.  Because channel semantics are pure functions of simulated state,
each context performs the same ops at the same simulated times under every
executor and scheduling policy; sorting the union of buffers by that key
therefore yields an identical total order for sequential and threaded
runs (asserted by the obs test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple

from ..core.time import Time


@dataclass(frozen=True)
class TraceEvent:
    """One completed operation.

    ``seq`` is the position of the event in its context's own event
    stream — the deterministic tiebreaker for merging buffers.
    """

    context: str
    kind: str            # "enqueue" | "dequeue" | "peek" | "advance" | "finish"
    channel: str | None  # channel name for channel ops, else None
    time: Time           # the context's simulated time after the op
    payload: Any = None  # data moved, when applicable
    seq: int = 0         # per-context event index


#: The stored form of one event: ``(kind, channel, time, payload)``.  The
#: event's ``seq`` is its index in the owning buffer's ``rows`` and its
#: ``context`` is the buffer's, so neither is stored per event.
Row = Tuple[str, Optional[str], Time, Any]


class ContextTraceBuffer:
    """Append-only row list owned by exactly one context.

    Executors obtain one buffer per context *before* starting the run and
    append from the context's own thread of control only; this is what
    makes tracing executor-agnostic without distorting the schedule.

    Recording stores plain :data:`Row` tuples; :class:`TraceEvent`
    objects exist only once somebody reads :attr:`events`.
    """

    __slots__ = ("context", "rows", "capture_payloads")

    def __init__(self, context: str, capture_payloads: bool = False):
        self.context = context
        self.rows: list[Row] = []
        self.capture_payloads = capture_payloads

    def append(
        self,
        kind: str,
        channel: str | None,
        time: Time,
        payload: Any = None,
    ) -> None:
        self.rows.append(
            (kind, channel, time, payload if self.capture_payloads else None)
        )

    def extend(self, rows: Iterable[Row]) -> None:
        """Append rows recorded elsewhere (a worker process's harvest);
        their ``seq`` continues this buffer's count."""
        self.rows.extend(rows)

    @property
    def events(self) -> list[TraceEvent]:
        """The rows materialised as :class:`TraceEvent` objects (a fresh
        list per read; ``events[i].seq == i``)."""
        context = self.context
        return [
            TraceEvent(context, kind, channel, time, payload, seq)
            for seq, (kind, channel, time, payload) in enumerate(self.rows)
        ]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ContextTraceBuffer({self.context}, {len(self.rows)} events)"
