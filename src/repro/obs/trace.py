"""Executor-agnostic trace collection.

A run numbers its ports (:meth:`TraceCollector.start_run`), hands each
context it hosts its own :class:`~repro.obs.events.ContextTraceBuffer`
and, when it ends, folds them into the :class:`TraceCollector`'s
name-keyed buffers in program slot order.  The per-name columns are what
the profiler and the Chrome exporter read; rows and the single
``(time, context, seq)`` timeline are derived views, decoded through the
port table and sorted only when somebody asks for them.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from ..core.time import Time
from .events import ContextTraceBuffer, PortTable, Row, TraceEvent


class TraceCollector:
    """Collects trace events from any executor; filterable by context
    and channel.

    ``capture_payloads=False`` (default) keeps traces light; enable it to
    record the data values moved by channel operations.  Note that with
    payload capture on, ``ViewTime``-dependent payloads may differ across
    executors (a peer clock read is a lower bound, not an exact value);
    channel payloads are always deterministic.
    """

    def __init__(self, capture_payloads: bool = False):
        self.capture_payloads = capture_payloads
        self._buffers: dict[str, ContextTraceBuffer] = {}
        self._merged: list[TraceEvent] | None = None
        #: The port table of the latest run (:meth:`start_run`); buffers
        #: made here decode through it.
        self.table = PortTable()

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def start_run(self, channels: Iterable[Any]) -> None:
        """Number the ports of a run over ``channels`` (its program's, in
        slot order): a fresh :class:`PortTable`, and each channel's
        ``_enq_port`` / ``_deq_port`` / ``_peek_port``, the ids its ops
        record.  The run's hosts read the ids off the channels (a forked
        worker inherits them, a cut channel's clone copies them), so none
        renumbers."""
        channels = list(channels)
        self.table = PortTable(channel.name for channel in channels)
        for slot, channel in enumerate(channels):
            ports = PortTable.channel_ports(slot)
            channel._enq_port, channel._deq_port, channel._peek_port = ports

    def buffer(self, context: str) -> ContextTraceBuffer:
        """Return (creating if needed) the collector's buffer for the
        context name ``context``: what readers see, and what
        :meth:`fold` and pseudo rows append to."""
        buf = self._buffers.get(context)
        if buf is None:
            buf = ContextTraceBuffer(context, self.capture_payloads, self.table)
            self._buffers[context] = buf
        return buf

    def context_buffer(self, context: str) -> ContextTraceBuffer:
        """A fresh buffer for one context of a run, outside the collector.

        Each context records into its own — by program slot, not name,
        because replicated pipelines repeat names — from its own thread
        of control only (the lock-free discipline); the run hands the
        buffers to :meth:`fold` when it ends.  It records the run's port
        ids (:meth:`start_run`).
        """
        return ContextTraceBuffer(context, self.capture_payloads, self.table)

    def fold(self, buffers: Iterable[ContextTraceBuffer]) -> None:
        """File each run buffer under its context's name, in the order
        given.  Runs pass their contexts in program slot order, so
        contexts that share a name land one after another in slot order,
        whatever the schedule interleaved.  The first buffer folded under
        a name is adopted as is, not copied (the run is over and nothing
        appends to it any more); later ones are concatenated onto it,
        remapped if they come from another run's table."""
        for buf in buffers:
            if buf.table is None:
                # Shipped by a forked worker, which recorded this run's
                # port ids (``start_run``) and left the table home.
                buf.table = self.table
            mine = self._buffers.get(buf.context)
            if mine is None:
                self._buffers[buf.context] = buf
            else:
                mine.extend(buf)

    def clear(self) -> None:
        """Drop every recorded event and buffer.

        The retry ladder calls this between attempts so a failed run's
        partial events cannot pollute the retried run's merge; executors
        re-create their buffers at run start, so clearing is always safe
        between runs.
        """
        self._buffers.clear()
        self._merged = None

    # ------------------------------------------------------------------
    # The merged view.
    # ------------------------------------------------------------------

    def merged_rows(self) -> list[tuple[Time, str, int, Row]]:
        """Every row as ``(time, context, seq, row)``, in the
        deterministic ``(time, context, seq)`` order.

        Each buffer is already in key order (a context's clock is
        monotone and seq is the row index), so the concatenation is a
        handful of pre-sorted runs, which ``sorted`` merges cheaply; the
        key is unique, so the rows themselves are never compared.
        """
        decorated: list[tuple[Time, str, int, Row]] = []
        for name in sorted(self._buffers):
            decorated.extend(
                (row[2], name, seq, row)
                for seq, row in enumerate(self._buffers[name].rows)
            )
        decorated.sort()
        return decorated

    @property
    def events(self) -> list[TraceEvent]:
        """All events in the merged order.  Cached; rebuilt when new
        rows have arrived."""
        if self._merged is None or len(self._merged) != len(self):
            self._merged = [
                TraceEvent(context, row[0], row[1], time, row[3], seq)
                for time, context, seq, row in self.merged_rows()
            ]
        return self._merged

    def buffers(self) -> dict[str, ContextTraceBuffer]:
        """The raw per-context buffers (exporters iterate these)."""
        return self._buffers

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def for_context(self, name: str) -> list[TraceEvent]:
        buf = self._buffers.get(name)
        return buf.events if buf is not None else []

    def for_channel(self, name: str) -> list[TraceEvent]:
        return [event for event in self.events if event.channel == name]

    def kinds(self, kind: str) -> Iterator[TraceEvent]:
        return (event for event in self.events if event.kind == kind)

    def completion_times(self, channel: str) -> list[Time]:
        """Dequeue times on a channel: the per-stream timeline that the
        calibration study matches against reference traces."""
        return [
            event.time
            for event in self.events
            if event.channel == channel and event.kind == "dequeue"
        ]

    def __len__(self) -> int:
        return sum(map(len, self._buffers.values()))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


def occupancy_log(trace: TraceCollector, channel: Any) -> list[tuple[Time, Time]]:
    """``(visibility stamp, dequeue time)`` of every element the traced
    run dequeued from ``channel``, the input of
    :func:`~repro.core.channel.peak_simulated_occupancy`.

    A channel is FIFO, so its k-th traced dequeue took its k-th traced
    enqueue, whose stamp is the sender's time at that enqueue plus the
    channel's latency (0 on a real channel).  Enqueues no dequeue took —
    void ones after the receiver finished among them — are not paired.
    The ops are found by the port ids the run stamped on ``channel``
    (:meth:`TraceCollector.start_run`), in its endpoints' buffers.
    """

    def times(owner: Any, port: int) -> list[Time]:
        buf = trace.buffers().get(owner.name) if owner is not None else None
        if buf is None:
            return []
        return [time for p, time in zip(buf.ports, buf.times) if p == port]

    real, latency = channel.real, channel.latency
    return [
        (0 if real else sent + latency, taken)
        for sent, taken in zip(
            times(channel.sender_owner, channel._enq_port),
            times(channel.receiver_owner, channel._deq_port),
        )
    ]
