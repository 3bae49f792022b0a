"""Trace events, port tables and per-context event buffers.

The observability pipeline's first invariant is that *recording must not
distort the run being observed*.  A context's history is its timed
sequence of port events, so each context records into its own
:class:`ContextTraceBuffer`: one op is one entry in a ``ports`` column and
one in a ``times`` column (and, under ``capture_payloads``, one in a
``payloads`` column).  A port is an ``(kind, channel)`` pair — an
enqueue, dequeue or peek on one channel, or a context's own advance or
finish — and its entry is an int id into the run's :class:`PortTable`.
Recording an op appends objects that already exist — the port id the
channel carries, the clock's value — and allocates nothing the cycle
collector tracks.  The lists are touched only by the thread of control
driving that context, so the threaded executor can trace without any
per-event locking (CPython list appends are atomic under the GIL, and no
other thread reads the lists until the run has ended).  Row tuples and
:class:`TraceEvent` objects are decoded through the table only for
whoever reads ``rows`` or ``events``.

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


#: One event read back as a tuple: ``(kind, channel, time, payload)``.  The
#: event's ``seq`` is its index in the owning buffer and its ``context``
#: is the buffer's, so neither is stored per event.
Row = Tuple[str, Optional[str], Time, Any]

#: The ports every table numbers first: a context's advance and finish.
ADVANCE, FINISH = 0, 1

#: A channel's ports, in the order a table numbers them.
CHANNEL_KINDS = ("enqueue", "dequeue", "peek")


class PortTable:
    """The ports of one run, by id: ``kinds[i]`` and ``channels[i]``.

    A run's table is numbered by program slot — :data:`ADVANCE` and
    :data:`FINISH`, then each channel's :data:`CHANNEL_KINDS` in
    ``program.channels`` order (:meth:`channel_ports`) — so every host of
    the run (the parent, forked workers) assigns the same ids without
    exchanging a table.  A port outside that numbering (a
    hand-built row, a ``migrate`` or supervisor marker) is interned on
    demand.  Channel names may repeat across replicated pipelines; such
    channels keep their own ids, which decode alike.
    """

    __slots__ = ("kinds", "channels", "_ids")

    def __init__(self, channels: Iterable[str] = ()):
        self.kinds: list[str] = ["advance", "finish"]
        self.channels: list[str | None] = [None, None]
        for name in channels:
            self.kinds += CHANNEL_KINDS
            self.channels += (name, name, name)
        self._ids: dict[tuple[str, str | None], int] = {}
        for port, key in enumerate(zip(self.kinds, self.channels)):
            self._ids.setdefault(key, port)

    @staticmethod
    def channel_ports(slot: int) -> range:
        """The enqueue, dequeue and peek ids of the channel at ``slot``."""
        first = 2 + len(CHANNEL_KINDS) * slot
        return range(first, first + len(CHANNEL_KINDS))

    def intern(self, kind: str, channel: str | None = None) -> int:
        """The id of port ``(kind, channel)``, numbering it if new."""
        port = self._ids.get((kind, channel))
        if port is None:
            port = self._ids[kind, channel] = len(self.kinds)
            self.kinds.append(kind)
            self.channels.append(channel)
        return port


class ContextTraceBuffer:
    """Append-only port history owned by exactly one context.

    Executors obtain one buffer per context *before* starting the run and
    append from the context's own thread of control only; this is what
    makes tracing executor-agnostic without distorting the schedule.

    The stored form is columns: ``ports`` (ids into ``table``) and
    ``times``, index ``i`` of each describing the context's ``i``-th op,
    plus ``payloads`` when the buffer captures them (``None`` otherwise).
    Both are plain lists: a port id is an int the channel already holds,
    and times are ints (or ``inf``), which a float array would turn from
    an exported ``5`` into ``5.0``.  :attr:`rows` and :attr:`events` are
    views decoded through the table on read.
    """

    __slots__ = ("context", "table", "ports", "times", "payloads")

    def __init__(
        self,
        context: str,
        capture_payloads: bool = False,
        table: PortTable | None = None,
    ):
        self.context = context
        self.table = table if table is not None else PortTable()
        self.ports: list[int] = []
        self.times: list[Time] = []
        self.payloads: list[Any] | None = [] if capture_payloads else None

    @property
    def capture_payloads(self) -> bool:
        return self.payloads is not None

    def add(self, port: int, time: Time, payload: Any = None) -> None:
        """Record one op on the port with id ``port``."""
        self.ports.append(port)
        self.times.append(time)
        if self.payloads is not None:
            self.payloads.append(payload)

    def append(
        self,
        kind: str,
        channel: str | None,
        time: Time,
        payload: Any = None,
    ) -> None:
        """Record one op by its ``(kind, channel)``, interning the port."""
        self.add(self.table.intern(kind, channel), time, payload)

    def extend(self, other: "ContextTraceBuffer") -> None:
        """Append the history recorded in ``other`` (a later context of
        the same name, or a worker process's harvest); its ``seq`` values
        continue this buffer's count.  A buffer of another table is
        remapped into this one's."""
        if other.table is self.table:
            self.ports += other.ports
        else:
            intern = self.table.intern
            ids = [
                intern(kind, channel)
                for kind, channel in zip(other.table.kinds, other.table.channels)
            ]
            self.ports += map(ids.__getitem__, other.ports)
        self.times += other.times
        if self.payloads is not None:
            self.payloads += other.payloads

    @property
    def rows(self) -> list[Row]:
        """The history as :data:`Row` tuples (a fresh list per read)."""
        table = self.table
        payloads = self.payloads if self.payloads is not None else repeat(None)
        return list(
            zip(
                map(table.kinds.__getitem__, self.ports),
                map(table.channels.__getitem__, self.ports),
                self.times,
                payloads,
            )
        )

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
        return len(self.ports)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ContextTraceBuffer({self.context}, {len(self)} events)"
