"""Post-run performance attribution: critical path, blocked time, epochs.

The trace already answers *what happened*; this module answers *why the
run took as long as it did*.  Numpy passes over each context's columns
index the channel ops and do the whole-run accounting; a backward walk
over that index finds the critical path.  Three artifacts come out:

* **Critical path** — the longest dependency chain of
  ``(context op -> channel delivery -> context op)`` edges bounding
  ``finish_time``.  The walk starts at the context that determines the
  makespan and moves backwards through simulated time: a dequeue that
  advanced the local clock jumps to the enqueue that produced the value
  (stamp = sender time + latency), a backpressured enqueue jumps to the
  dequeue that freed the slot (response = dequeue time + resp latency),
  and everything else charges the segment to the context's own compute.
  The segments tile ``[0, finish_time]`` exactly — each iteration emits
  the interval between the new and old cursor — so their durations sum
  to the makespan by construction (the telescoping invariant the CLI
  asserts).

* **Blocked-time accounting** — each interval between a context's
  consecutive rows is charged to the op that ended it: ``compute``
  (advance / non-waiting ops), ``blocked_on_dequeue`` (starvation: the
  stamp of the value consumed was later than the local clock — includes
  channel delivery latency), ``blocked_on_enqueue`` (backpressure: a
  bounded channel's response advanced the sender), or ``overhead``
  (residual the path walk could not attribute; zero in well-formed
  traces).  Reported per context and per channel.  The categories tile
  each context's time, but they do not name every cause: ``WaitUntil``
  is not traced and does not advance the waiter's own clock, so time
  spent waiting on a peer clock is charged to the *next* op (usually
  ``compute``), not to a category of its own.

* **Utilization timeline** — activity binned into fixed-width epochs:
  per epoch, the simulated time all contexts spent computing vs blocked,
  and the resulting utilization fraction.  Feeds the Perfetto counter
  track in :mod:`repro.obs.export`.

Because each context's history is executor-independent, and a run
folds the histories of contexts that share a name in program slot
order, everything computed here is too: sequential, threaded and
process runs of the same program produce bit-identical profiles.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from typing import Any, Iterable, Mapping, NamedTuple

from ..core.time import INFINITY, Time
from .events import PortTable, TraceEvent
from .metrics import sorted_quantile
from .trace import TraceCollector

COMPUTE = "compute"
BLOCKED_ON_DEQUEUE = "blocked_on_dequeue"
BLOCKED_ON_ENQUEUE = "blocked_on_enqueue"
OVERHEAD = "overhead"
CATEGORIES = (COMPUTE, BLOCKED_ON_DEQUEUE, BLOCKED_ON_ENQUEUE, OVERHEAD)

#: Event kinds the analyzer understands; anything else (supervisor crash
#: markers, future kinds) is ignored rather than misattributed.
_KINDS = {"enqueue", "dequeue", "peek", "advance", "finish"}

DEFAULT_EPOCHS = 32
SCHEMA_VERSION = 1


def channel_meta_for(channels: Iterable[Any]) -> dict[str, dict[str, Any]]:
    """Capacity/latency metadata the analyzer uses for precise pairing.

    Executors attach this to the run's :class:`~repro.obs.Observability`
    and the exporter embeds it under ``otherData.channels`` so a profile
    recomputed from an exported trace file pairs ops exactly the same
    way as one computed in-process.
    """
    meta: dict[str, dict[str, Any]] = {}
    for channel in channels:
        meta[channel.name] = {
            "capacity": getattr(channel, "capacity", None),
            "latency": getattr(channel, "latency", None),
            "resp_latency": getattr(channel, "resp_latency", None),
        }
    return meta


class PathSegment(NamedTuple):
    """One interval of the critical path: ``[start, end]`` attributed to
    ``category`` on ``context`` (and ``channel`` for blocked segments).

    A named tuple rather than a frozen dataclass: a long walk builds
    thousands, and a tuple is the cheaper object to build."""

    category: str
    context: str
    channel: str | None
    start: Time
    end: Time

    @property
    def duration(self) -> Time:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "category": self.category,
            "context": self.context,
            "channel": self.channel,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PathSegment":
        return cls(
            category=data["category"],
            context=data["context"],
            channel=data.get("channel"),
            start=data["start"],
            end=data["end"],
        )


@dataclass
class ProfileReport:
    """The full attribution artifact; ``to_dict`` is what lands in
    ``RunSummary.profile`` and in exported/benchmark JSON."""

    finish_time: Time
    segments: list[PathSegment] = field(default_factory=list)
    attribution: dict[str, Any] = field(default_factory=dict)
    timeline: dict[str, Any] = field(default_factory=dict)
    segment_quantiles: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------

    def path_total(self) -> Time:
        return self._critical_path_dict()["total"]

    def by_category(self) -> dict[str, Time]:
        return self._critical_path_dict()["by_category"]

    def by_context(self) -> dict[str, Time]:
        return self._critical_path_dict()["by_context"]

    def by_channel(self) -> dict[str, Time]:
        return self._critical_path_dict()["by_channel"]

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------

    def _critical_path_dict(self) -> dict[str, Any]:
        """The ``critical_path`` section: each segment as a dict and the
        path's totals, from one pass over the segments."""
        segments: list[dict[str, Any]] = []
        durations: list[Time] = []
        by_category: dict[str, Time] = {cat: 0 for cat in CATEGORIES}
        by_context: dict[str, Time] = {}
        by_channel: dict[str, Time] = {}
        for category, context, channel, start, end in self.segments:
            # ``PathSegment.to_dict``, inline.
            duration = end - start
            segments.append({
                "category": category,
                "context": context,
                "channel": channel,
                "start": start,
                "end": end,
                "duration": duration,
            })
            durations.append(duration)
            by_category[category] = by_category.get(category, 0) + duration
            by_context[context] = by_context.get(context, 0) + duration
            if channel is not None:
                by_channel[channel] = by_channel.get(channel, 0) + duration
        return {
            "segments": segments,
            # ``sum`` rather than a running ``+=``: it compensates on
            # Python 3.12+, and ``total`` has always been its result.
            "total": sum(durations),
            "by_category": by_category,
            "by_context": by_context,
            "by_channel": by_channel,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "finish_time": self.finish_time,
            "critical_path": self._critical_path_dict(),
            "attribution": self.attribution,
            "timeline": self.timeline,
            "segment_quantiles": self.segment_quantiles,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProfileReport":
        path = data.get("critical_path", {})
        return cls(
            finish_time=data.get("finish_time", 0),
            segments=[
                PathSegment.from_dict(seg) for seg in path.get("segments", [])
            ],
            attribution=dict(data.get("attribution", {})),
            timeline=dict(data.get("timeline", {})),
            segment_quantiles=dict(data.get("segment_quantiles", {})),
        )

    # ------------------------------------------------------------------
    # Human rendering.
    # ------------------------------------------------------------------

    def describe(self, max_segments: int = 40) -> str:
        lines = [
            f"critical path: {len(self.segments)} segment(s), "
            f"finish_time={self.finish_time}"
        ]
        shown = self.segments[:max_segments]
        for seg in shown:
            where = f" via {seg.channel}" if seg.channel is not None else ""
            lines.append(
                f"  [{seg.start} .. {seg.end}] {seg.category:<19} "
                f"{seg.context}{where} (dur={seg.duration})"
            )
        if len(self.segments) > len(shown):
            lines.append(f"  ... {len(self.segments) - len(shown)} more segment(s)")
        cats = self.by_category()
        lines.append(
            "by category: "
            + ", ".join(f"{cat}={cats.get(cat, 0)}" for cat in CATEGORIES)
        )
        lines.append(
            f"path sum={self.path_total()} finish_time={self.finish_time}"
        )
        if self.segment_quantiles:
            quant = self.segment_quantiles
            lines.append(
                "segment durations: "
                + ", ".join(f"{k}={v:.6g}" for k, v in sorted(quant.items()))
            )
        epochs = self.timeline.get("epochs") or []
        if epochs:
            utils = [e["utilization"] for e in epochs]
            lines.append(
                f"utilization over {len(epochs)} epoch(s): "
                f"mean={sum(utils) / len(utils):.3f}, "
                f"min={min(utils):.3f}, max={max(utils):.3f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace indexing.
# ----------------------------------------------------------------------

#: One context's history as the profile reads it: its ``(ports, times)``
#: columns, index ``i`` of each describing op ``i``, and the table the
#: port ids index.
Stream = tuple[list[int], list[Time], PortTable]


def _streams(
    trace: "TraceCollector | Iterable[TraceEvent]",
) -> dict[str, Stream]:
    """The trace as per-context columns in ``seq`` order.

    A collector's buffers already hold exactly that; a bare event
    iterable (a re-imported Chrome trace) is grouped into the same form,
    its ports interned into one fresh table.
    """
    if isinstance(trace, TraceCollector):
        return {
            name: (buf.ports, buf.times, buf.table)
            for name, buf in trace.buffers().items()
        }
    grouped: dict[str, list[TraceEvent]] = {}
    for event in trace:
        grouped.setdefault(event.context, []).append(event)
    table = PortTable()
    streams: dict[str, Stream] = {}
    for name, events in grouped.items():
        events.sort(key=attrgetter("seq"))
        streams[name] = (
            [table.intern(e.kind, e.channel) for e in events],
            [e.time for e in events],
            table,
        )
    return streams


#: What time spent completing an op *on a channel* is charged to, by
#: kind (every kind in ``_KINDS``); an op without a channel is compute.
_CHANNEL_CATEGORY = {
    "enqueue": BLOCKED_ON_ENQUEUE,
    "dequeue": BLOCKED_ON_DEQUEUE,
    "peek": BLOCKED_ON_DEQUEUE,
    "advance": COMPUTE,
    "finish": COMPUTE,
}

#: Where the passes keep each category's running total.
_SLOTS = {COMPUTE: 0, BLOCKED_ON_DEQUEUE: 1, BLOCKED_ON_ENQUEUE: 2}

#: The FIFO position index an op of a kind joins (enqueues or dequeues).
_SIDES = {"enqueue": 0, "dequeue": 1}


def _category_of(kind: str, channel: str | None) -> str:
    return COMPUTE if channel is None else _CHANNEL_CATEGORY[kind]


class _Ports:
    """What the profile reads off one port table, by port id, as arrays
    the passes gather through: the category slot an op charges; the
    channel total it charges (``charge``: three times the channel's index
    into the profile's channel names, plus the slot; -1 for none); and
    the FIFO index it joins (``key``: twice the channel index for its
    enqueues, plus one for its dequeues; -1 for neither).  Also the ids
    of unknown kinds, whose rows are dropped, and ``(kind, channel,
    category)`` per id for the walk."""

    __slots__ = ("slot", "charge", "key", "unknown", "walk")

    def __init__(self, table: PortTable, channel_ids: dict[str, int]):
        import numpy as np

        slot, charge, key, walk = [], [], [], []
        self.unknown: set[int] = set()
        for port, (kind, channel) in enumerate(zip(table.kinds, table.channels)):
            category = _category_of(kind, channel) if kind in _KINDS else None
            charged = _SLOTS.get(category, 0)
            if category is None:
                self.unknown.add(port)
            index = channel_ids.setdefault(channel, len(channel_ids)) if charged else -1
            side = _SIDES.get(kind) if charged else None
            slot.append(charged)
            charge.append(3 * index + charged if charged else -1)
            key.append(-1 if side is None else 2 * index + side)
            walk.append((kind, channel, category))
        self.slot = np.array(slot, dtype=np.int8)
        self.charge = np.array(charge, dtype=np.intp)
        self.key = np.array(key, dtype=np.intp)
        self.walk = walk


def _time_columns(streams: list[list[Time]]) -> list:
    """Each stream's times as an array: ``int64`` when every time of
    every stream is an int (``array`` refuses a float, and an int past 64
    bits) and no sum of intervals can wrap (each interval is at most
    twice the largest time, and there are fewer intervals than rows),
    else ``object`` for all of them."""
    import numpy as np

    try:
        columns = [np.frombuffer(array("q", times), np.int64) for times in streams]
    except (TypeError, OverflowError):
        columns = []
    else:
        largest = max((max(-int(c.min()), int(c.max())) for c in columns), default=0)
        if 2 * largest * sum(map(len, columns)) < 2**63:
            return columns
    columns = []
    for times in streams:
        column = np.empty(len(times), dtype=object)
        column[:] = times
        columns.append(column)
    return columns


def _bin(bins, start, end, blocked, edges, width: float) -> None:
    """Add each interval ``[start, end]`` to the epoch bins it overlaps —
    ``bins[k]`` computing, ``bins[epochs + k]`` blocked — as the plain
    loop does: over epochs ``int(start / width)`` to ``int(end / width)``
    (clamped to the last), the piece between ``max(start, edge k)`` and
    ``min(end, edge k + 1)`` when it is not empty, in row order, so the
    float sums are the loop's bit for bit (for times below 2**53, which
    a float holds exactly)."""
    import numpy as np

    epochs = len(edges) - 1
    lo, hi = start.astype(np.float64), end.astype(np.float64)
    first = np.minimum((lo / width).astype(np.intp), epochs - 1)
    spans = np.minimum((hi / width).astype(np.intp), epochs - 1) - first + 1
    # One entry per (interval, epoch it overlaps), in row order.
    at = np.repeat(np.arange(len(lo)), spans)
    epoch = first[at] + np.arange(len(at)) - (np.cumsum(spans) - spans)[at]
    piece = np.minimum(edges[epoch + 1], hi[at]) - np.maximum(edges[epoch], lo[at])
    into = piece > 0
    np.add.at(bins, (blocked[at] * epochs + epoch)[into], piece[into])


def _bisectable(column):
    """A column as the walk bisects it: an int column read through a
    memoryview (items come back as ints), any other as its objects."""
    return memoryview(column) if column.dtype != object else column.tolist()


class _Index:
    """Everything the profile reads from the trace: per-channel FIFO op
    positions, and the whole-run attribution.

    An op is addressed by its *global position*: its index in the
    concatenation of the streams in context-name order.  A channel keeps
    only the (ascending) global positions and times of its enqueues and
    of its dequeues — channels have one sender and one receiver, so each
    side's stream order *is* the channel order — and an op's FIFO
    ordinal is found by bisection when the critical-path walk asks for
    it, which it does for a small fraction of the events.

    Both come from numpy passes over one context's columns at a time
    (:meth:`_scan`): the port ids gather each op's category, channel and
    index side through the table's :class:`_Ports`; the times are an
    ``int64`` array when every time in the trace is an int (and no sum
    of intervals can wrap), and an ``object`` array otherwise, whose
    arithmetic and comparisons are
    Python's own (floats, NaN, ``INFINITY``) — the same operations either
    way.
    """

    def __init__(self, streams: Mapping[str, Stream], epochs: int):
        import numpy as np

        #: Kept streams as the walk reads them: ``(ports, times, walk)``,
        #: ``walk`` the table's ``_Ports.walk``.
        self.streams: dict[str, tuple[list[int], list[Time], list]] = {}
        #: Context names in order, and the global position each stream
        #: starts at (``starts`` is parallel to ``names``).
        self.names: list[str] = []
        self.starts: list[int] = []
        #: channel -> (global positions, times) of its enqueues/dequeues.
        self.enq: dict[str, tuple[Any, Any]] = {}
        self.deq: dict[str, tuple[Any, Any]] = {}
        self._channels: dict[str, int] = {}
        ports_of: dict[int, _Ports] = {}
        names = [name for name in sorted(streams) if streams[name][0]]
        columns = _time_columns([streams[name][1] for name in names])
        self._dtype = columns[0].dtype if columns else object
        #: name -> (time column, the table's ``_Ports``) for :meth:`_scan`.
        self._columns: dict[str, tuple[Any, _Ports]] = {}
        for name, column in zip(names, columns):
            ports, times, table = streams[name]
            lut = ports_of.get(id(table))
            if lut is None:
                lut = ports_of[id(table)] = _Ports(table, self._channels)
            # Pseudo-buffers (``<worker-N>`` migrate, ``<supervisor>``)
            # and INFINITY finishes carry no simulated time to attribute.
            # A context's own columns have neither and are read in place;
            # only a stream that has one pays for a filtered copy.  (Every
            # time is looked at, not just the last: a buffer shared by
            # replicated context names is not monotone.)
            keep = column != INFINITY
            if lut.unknown and not lut.unknown.isdisjoint(ports):
                keep &= ~np.isin(ports, list(lut.unknown))
            if not keep.all():
                if not keep.any():
                    continue
                mask = keep.tolist()
                ports = list(compress(ports, mask))
                times = list(compress(times, mask))
                column = column[keep]
            self.streams[name] = (ports, times, lut.walk)
            self._columns[name] = (column, lut)
            self.names.append(name)
        #: (context, last index, finish time) of the makespan context.
        self.makespan: tuple[str, int, Time] | None = None
        for name, (ports, times, _) in self.streams.items():
            last = times[-1]
            if self.makespan is None or last > self.makespan[2]:
                self.makespan = (name, len(ports) - 1, last)
        finish_time = self.makespan[2] if self.makespan is not None else 0
        # A NaN time compares False, as in Python; numpy would also warn.
        with np.errstate(invalid="ignore"):
            self.attribution, self.timeline = self._scan(finish_time, epochs)
        self.start_of = dict(zip(self.names, self.starts))

    def _scan(
        self, finish_time: Time, epochs: int
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """The passes, one context at a time in name order (so every
        running total and bin adds in row order): fills ``starts``,
        ``enq``, ``deq`` and ``total_events`` and returns the attribution
        and the timeline.

        Each interval between a context's consecutive rows that advanced
        its clock is charged to the op ending it — to the context's
        category total, the channel's (a blocked op) and the epoch bins
        it overlaps, split there with the clamped edges of a per-epoch
        loop — all by ``np.add.at``, which adds in index order."""
        import numpy as np

        width = finish_time / epochs if finish_time > 0 and epochs > 0 else 0
        edges = np.arange(epochs + 1) * width
        #: Simulated time spent computing (first half) / blocked, by epoch.
        bins = np.zeros(2 * epochs if width else 0)
        per_context: dict[str, dict[str, Any]] = {}
        dtype = self._dtype
        #: ``_Ports.charge`` -> total.
        charged = np.zeros(3 * len(self._channels), dtype=dtype)
        #: ``_Ports.key`` -> [(global positions, times)], by stream.
        sides: dict[int, list] = {}
        total = 0
        for name in self.names:
            ports, times, _ = self.streams[name]
            column, lut = self._columns.pop(name)
            self.starts.append(total)
            port = np.fromiter(ports, np.intp, len(ports))
            prev = np.empty_like(column)
            prev[0] = 0
            prev[1:] = column[:-1]
            # Unconditional: a buffer shared by replicated context names
            # is not monotone, and the next interval starts at every row.
            rows = (column > prev).nonzero()[0]
            start, end = prev[rows], column[rows]
            delta = end - start
            ended = port[rows]
            slot = lut.slot[ended]
            totals = np.zeros(3, dtype=dtype)
            np.add.at(totals, slot, delta)
            blocked = slot != 0
            np.add.at(charged, lut.charge[ended[blocked]], delta[blocked])
            if width:
                _bin(bins, start, end, blocked, edges, width)
            keys = lut.key[port]
            for key in np.bincount(keys + 1)[1:].nonzero()[0].tolist():
                at = (keys == key).nonzero()[0]
                sides.setdefault(key, []).append((at + total, column[at]))
            sums = totals.tolist()
            per_context[name] = {
                COMPUTE: sums[0],
                BLOCKED_ON_DEQUEUE: sums[1],
                BLOCKED_ON_ENQUEUE: sums[2],
                OVERHEAD: 0,
                "finish_time": times[-1],
                "idle": finish_time - times[-1],
            }
            total += len(ports)
        self.total_events = total

        channel_names = list(self._channels)
        while sides:
            # Popped as joined, so the parts and their join never all
            # coexist; a side recorded by one stream (the usual) is its
            # part as is.
            key, parts = sides.popitem()
            positions, stamps = (
                arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
                for arrays in zip(*parts)
            )
            index = self.deq if key % 2 else self.enq
            index[channel_names[key // 2]] = (
                _bisectable(positions), _bisectable(stamps)
            )
        timeline: dict[str, Any] = {"epoch_width": width, "epochs": []}
        if width:
            active = bins[:epochs].tolist()
            blocked_bins = bins[epochs:].tolist()
            denominator = width * max(len(self.names), 1)
            timeline["epochs"] = [
                {
                    "start": pos * width,
                    "active": active[pos],
                    "blocked": blocked_bins[pos],
                    "utilization": round(active[pos] / denominator, 6),
                }
                for pos in range(epochs)
            ]
        sums = charged.tolist()
        attribution = {
            "per_context": per_context,
            # Every charge is positive, so a channel whose totals are
            # both zero never blocked anybody: leave it out.
            "per_channel": {
                name: {
                    BLOCKED_ON_DEQUEUE: sums[3 * index + 1],
                    BLOCKED_ON_ENQUEUE: sums[3 * index + 2],
                }
                for name, index in sorted(self._channels.items())
                if sums[3 * index + 1] or sums[3 * index + 2]
            },
        }
        return attribution, timeline

    def locate(self, pos: int) -> tuple[str, int]:
        """(context, stream index) of the op at global position ``pos``."""
        slot = bisect_right(self.starts, pos) - 1
        return self.names[slot], pos - self.starts[slot]

    def dequeues_before(self, channel: str, pos: int) -> int:
        """Dequeues on ``channel`` at global positions below ``pos``."""
        ops = self.deq.get(channel)
        return bisect_left(ops[0], pos) if ops is not None else 0


# ----------------------------------------------------------------------
# The backward walk.
# ----------------------------------------------------------------------


def _producer_of(
    index: _Index,
    kind: str,
    channel: str,
    time: Time,
    context: str,
    pos: int,
    channel_meta: Mapping[str, Mapping[str, Any]],
) -> int | None:
    """Global position of the enqueue whose value the dequeue/peek
    ``kind`` on ``channel`` (completing at ``time``, at ``pos``, on
    ``context``) consumed."""
    ops = index.enq.get(channel)
    if ops is None:
        return None
    enqueues, times = ops
    latency = (channel_meta.get(channel) or {}).get("latency")
    if latency is not None:
        # stamp = sender_time + latency; exact match wins (rightmost, so
        # zero-latency self-loops resolve deterministically).
        target = time - latency
        at = bisect_right(times, target) - 1
        if at >= 0 and times[at] == target:
            return enqueues[at]
    # FIFO: the k-th dequeue takes the k-th enqueue; a peek sees what
    # the context's next dequeue will take.
    ordinal = index.dequeues_before(channel, pos)
    if kind == "peek":
        ordinal -= index.dequeues_before(channel, index.start_of[context])
    if ordinal < len(enqueues):
        return enqueues[ordinal]
    at = bisect_right(times, time) - 1
    return enqueues[at] if at >= 0 else None


def _unblocker_of(
    index: _Index,
    channel: str,
    time: Time,
    pos: int,
    channel_meta: Mapping[str, Mapping[str, Any]],
) -> int | None:
    """Global position of the dequeue whose response freed the slot the
    enqueue on ``channel`` (completing at ``time``, at ``pos``) waited
    on."""
    ops = index.deq.get(channel)
    if ops is None:
        return None
    dequeues, times = ops
    meta = channel_meta.get(channel) or {}
    resp_latency = meta.get("resp_latency")
    if resp_latency is not None:
        target = time - resp_latency
        at = bisect_right(times, target) - 1
        if at >= 0 and times[at] == target:
            return dequeues[at]
    capacity = meta.get("capacity")
    if capacity is not None:
        at = bisect_left(index.enq[channel][0], pos) - capacity
        if 0 <= at < len(dequeues):
            return dequeues[at]
    at = bisect_right(times, time) - 1
    return dequeues[at] if at >= 0 else None


#: ``PathSegment`` from a tuple of its fields, skipping the named tuple's
#: Python-level ``__new__``: the walk makes one per segment, thousands.
_segment = tuple.__new__


def _critical_path(
    index: _Index,
    finish_time: Time,
    start: tuple[str, int],
    channel_meta: Mapping[str, Mapping[str, Any]],
) -> list[PathSegment]:
    """Walk backwards from the makespan event, tiling ``[0, finish_time]``.

    Invariant: the current event's time equals ``cursor`` (both jumps and
    step-backs preserve it), and every iteration appends exactly the
    segment ``[new_cursor, cursor]`` — so the result telescopes to the
    makespan.
    """
    segments: list[PathSegment] = []
    #: One flag per global position: has the walk been at that op?
    visited = bytearray(index.total_events)
    ctx, idx = start
    ports, times, walk = index.streams[ctx]
    base = index.start_of[ctx]
    cursor = finish_time

    # At most 4 steps per event: the guard against a pathological cycle.
    for _ in range(4 * index.total_events + 16):
        if not (cursor > 0 and idx >= 0):
            break
        prev_time = times[idx - 1] if idx > 0 else 0
        pos = base + idx
        if not cursor > prev_time:
            # The op took no time (more than half of all steps): nothing
            # to attribute and no edge to follow, so step back without
            # looking at the op.  It still counts as walked.  (``not >``
            # rather than ``<=``: a re-imported malformed trace can hold
            # a NaN time, which must keep stepping back.)
            visited[pos] = 1
            idx -= 1
            continue
        first_visit = not visited[pos]
        visited[pos] = 1
        kind, channel, category = walk[ports[idx]]
        target: int | None = None
        if first_visit and channel is not None:
            if kind in ("dequeue", "peek"):
                target = _producer_of(
                    index, kind, channel, times[idx], ctx, pos, channel_meta
                )
            elif kind == "enqueue":
                target = _unblocker_of(
                    index, channel, times[idx], pos, channel_meta
                )
        if target is not None and not visited[target]:
            t_ctx, t_idx = index.locate(target)
            t_stream = index.streams[t_ctx]
            t_time = t_stream[1][t_idx]
            # Only jump when it makes progress toward t=0 (a zero-latency
            # edge is followed without emitting a segment); a malformed
            # or already-walked target degrades to a step-back instead.
            if t_time <= cursor:
                if t_time < cursor:
                    segments.append(
                        _segment(PathSegment, (category, ctx, channel, t_time, cursor))
                    )
                ctx, idx, cursor = t_ctx, t_idx, t_time
                ports, times, walk = t_stream
                base = index.start_of[t_ctx]
                continue
        # Step back within this context, charging the wait to it.
        segments.append(
            _segment(PathSegment, (category, ctx, channel, prev_time, cursor))
        )
        cursor = prev_time
        idx -= 1
    if cursor > 0:
        # Residual the walk could not attribute (malformed trace or the
        # step guard tripping on a pathological cycle).
        segments.append(PathSegment(OVERHEAD, ctx, None, 0, cursor))
    segments.reverse()
    return segments


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------


def profile_trace(
    trace: "TraceCollector | Iterable[TraceEvent]",
    channel_meta: Mapping[str, Mapping[str, Any]] | None = None,
    epochs: int = DEFAULT_EPOCHS,
) -> ProfileReport:
    """Analyze a trace (collector or bare event iterable) into a
    :class:`ProfileReport`."""
    index = _Index(_streams(trace), epochs)
    if index.makespan is None:
        return ProfileReport(finish_time=0)
    ctx, idx, finish_time = index.makespan
    segments = (
        _critical_path(index, finish_time, (ctx, idx), channel_meta or {})
        if finish_time > 0
        else []
    )
    durations = [end - start for _, _, _, start, end in segments]
    ordered = sorted(durations)
    quantiles = (
        {
            "p50": sorted_quantile(ordered, 0.5),
            "p90": sorted_quantile(ordered, 0.9),
            # The first of equal maxima, as a histogram keeps it.
            "max": max(durations) or 0.0,
        }
        if durations
        else {}
    )
    return ProfileReport(
        finish_time=finish_time,
        segments=segments,
        attribution=index.attribution,
        timeline=index.timeline,
        segment_quantiles=quantiles,
    )


def events_from_chrome_trace(
    document: Mapping[str, Any],
) -> tuple[list[TraceEvent], dict[str, dict[str, Any]]]:
    """Rebuild trace events (and channel metadata, when embedded) from an
    exported Chrome trace-event JSON document."""
    tid_names: dict[Any, str] = {}
    for raw in document.get("traceEvents", []):
        if raw.get("ph") == "M" and raw.get("name") == "thread_name":
            tid_names[raw.get("tid")] = raw.get("args", {}).get("name", "")
    events: list[TraceEvent] = []
    for raw in document.get("traceEvents", []):
        if raw.get("ph") != "X":
            continue
        args = raw.get("args", {})
        context = tid_names.get(raw.get("tid"), str(raw.get("tid")))
        kind = str(raw.get("name", "")).split(" ", 1)[0]
        time = raw.get("ts", 0) + raw.get("dur", 0)
        events.append(
            TraceEvent(
                context=context,
                kind=kind,
                channel=args.get("channel"),
                time=time,
                payload=args.get("payload"),
                seq=args.get("seq", 0),
            )
        )
    channels = (document.get("otherData") or {}).get("channels") or {}
    return events, channels


def resolve_profile(document: Mapping[str, Any]) -> dict[str, Any] | None:
    """Extract (or recompute) a profile dict from any known JSON shape:
    a Chrome trace export, a bare profile dict, or a BENCH payload with a
    ``profile`` section."""
    if "traceEvents" in document:
        events, channels = events_from_chrome_trace(document)
        if events:
            return profile_trace(events, channel_meta=channels).to_dict()
        stored = (document.get("otherData") or {}).get("profile")
        return stored
    if "critical_path" in document:
        return dict(document)
    profile = document.get("profile")
    if isinstance(profile, Mapping):
        return dict(profile)
    return None


# ----------------------------------------------------------------------
# Run diffing.
# ----------------------------------------------------------------------


def diff_profiles(
    base: Mapping[str, Any],
    other: Mapping[str, Any],
    tolerance: float = 3.0,
    abs_floor: float = 1.0,
) -> dict[str, Any]:
    """Compare two profile dicts; a metric regresses when the new value
    exceeds ``tolerance`` times the baseline *and* grew by more than
    ``abs_floor`` simulated cycles (so zero/noise baselines don't trip).
    """
    rows: list[dict[str, Any]] = []

    def compare(metric: str, base_value: Any, other_value: Any) -> None:
        base_value = float(base_value or 0)
        other_value = float(other_value or 0)
        regression = (
            other_value > base_value * tolerance
            and other_value - base_value > abs_floor
        )
        if base_value:
            ratio = other_value / base_value
        else:
            ratio = 1.0 if not other_value else None  # None = new vs zero base
        rows.append(
            {
                "metric": metric,
                "base": base_value,
                "other": other_value,
                "ratio": ratio,
                "regression": regression,
            }
        )

    compare("finish_time", base.get("finish_time"), other.get("finish_time"))
    base_cats = (base.get("critical_path") or {}).get("by_category") or {}
    other_cats = (other.get("critical_path") or {}).get("by_category") or {}
    for category in CATEGORIES:
        compare(
            f"critical_path.{category}",
            base_cats.get(category),
            other_cats.get(category),
        )
    base_chans = (base.get("critical_path") or {}).get("by_channel") or {}
    other_chans = (other.get("critical_path") or {}).get("by_channel") or {}
    for channel in sorted(set(base_chans) | set(other_chans)):
        compare(
            f"critical_path.channel.{channel}",
            base_chans.get(channel),
            other_chans.get(channel),
        )
    regressions = [row for row in rows if row["regression"]]
    return {
        "tolerance": tolerance,
        "rows": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def describe_diff(diff: Mapping[str, Any]) -> str:
    lines = [
        f"profile diff (tolerance {diff.get('tolerance', 0):g}x): "
        + ("OK" if diff.get("ok") else "REGRESSIONS")
    ]
    for row in diff.get("rows", []):
        ratio = row.get("ratio")
        ratio_text = f"{ratio:.3f}x" if ratio is not None else "new"
        flag = "  !! " if row.get("regression") else "     "
        lines.append(
            f"{flag}{row['metric']}: {row['base']:g} -> {row['other']:g} "
            f"({ratio_text})"
        )
    regressions = diff.get("regressions") or []
    if regressions:
        names = ", ".join(row["metric"] for row in regressions)
        lines.append(f"regressed section(s): {names}")
    return "\n".join(lines)
