"""Trace events and per-context event buffers.

The observability pipeline's first invariant is that *recording must not
distort the run being observed*.  A context's history is its timed
sequence of port events, so each context records into its own
:class:`ContextTraceBuffer`: plain lists of the ops' kinds, channel names
and completion times (and, under ``capture_payloads``, the data moved),
one entry per op in each.  Recording an op appends objects that already
exist — an interned kind literal, the channel's name, the clock's value —
and allocates nothing the cycle collector tracks.  The lists are touched
only by the thread of control driving that context, so the threaded
executor can trace without any per-event locking (CPython list appends
are atomic under the GIL, and no other thread reads the lists until the
run has ended).  Row tuples and :class:`TraceEvent` objects are built
only for whoever reads ``rows`` or ``events``.

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
from itertools import repeat
from typing import Any, Optional, Tuple

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


#: One event read back as a tuple: ``(kind, channel, time, payload)``.  The
#: event's ``seq`` is its index in the owning buffer and its ``context``
#: is the buffer's, so neither is stored per event.
Row = Tuple[str, Optional[str], Time, Any]


class ContextTraceBuffer:
    """Append-only port history owned by exactly one context.

    Executors obtain one buffer per context *before* starting the run and
    append from the context's own thread of control only; this is what
    makes tracing executor-agnostic without distorting the schedule.

    The stored form is columns: ``kinds``, ``channels`` and ``times``,
    index ``i`` of each describing the context's ``i``-th op, plus
    ``payloads`` when the buffer captures them (``None`` otherwise).
    Times stay a plain list: they are ints (or ``inf``), and a float
    array would turn an exported ``5`` into ``5.0``.  :attr:`rows` and :attr:`events` are views built on read.
    """

    __slots__ = ("context", "kinds", "channels", "times", "payloads")

    def __init__(self, context: str, capture_payloads: bool = False):
        self.context = context
        self.kinds: list[str] = []
        self.channels: list[str | None] = []
        self.times: list[Time] = []
        self.payloads: list[Any] | None = [] if capture_payloads else None

    @property
    def capture_payloads(self) -> bool:
        return self.payloads is not None

    def append(
        self,
        kind: str,
        channel: str | None,
        time: Time,
        payload: Any = None,
    ) -> None:
        self.kinds.append(kind)
        self.channels.append(channel)
        self.times.append(time)
        if self.payloads is not None:
            self.payloads.append(payload)

    def extend(self, other: "ContextTraceBuffer") -> None:
        """Append the history recorded in ``other`` (a later context of
        the same name, or a worker process's harvest); its ``seq`` values
        continue this buffer's count."""
        self.kinds += other.kinds
        self.channels += other.channels
        self.times += other.times
        if self.payloads is not None:
            self.payloads += other.payloads

    @property
    def rows(self) -> list[Row]:
        """The history as :data:`Row` tuples (a fresh list per read)."""
        payloads = self.payloads if self.payloads is not None else repeat(None)
        return list(zip(self.kinds, self.channels, self.times, payloads))

    @property
    def events(self) -> list[TraceEvent]:
        """The history materialised as :class:`TraceEvent` objects (a
        fresh list per read; ``events[i].seq == i``)."""
        context = self.context
        return [
            TraceEvent(context, kind, channel, time, payload, seq)
            for seq, (kind, channel, time, payload) in enumerate(self.rows)
        ]

    def __len__(self) -> int:
        return len(self.kinds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ContextTraceBuffer({self.context}, {len(self)} events)"
