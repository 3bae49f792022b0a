"""Post-run performance attribution: critical path, blocked time, epochs.

The trace already answers *what happened*; this module answers *why the
run took as long as it did*.  One pass over each context's columns
indexes the channel ops and does the whole-run accounting; a backward
walk over that index finds the critical path.  Three artifacts come out:

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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress, count
from math import nextafter
from operator import attrgetter
from typing import Any, Iterable, Mapping, NamedTuple

from ..core.time import INFINITY, Time
from .events import TraceEvent
from .metrics import Histogram
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
        for seg in self.segments:
            as_dict = seg.to_dict()
            segments.append(as_dict)
            duration = as_dict["duration"]
            durations.append(duration)
            category, context, channel = seg.category, seg.context, seg.channel
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

#: One context's history as the profile reads it: its ``(kinds,
#: channels, times)`` columns, index ``i`` of each describing op ``i``.
Stream = tuple[list[str], list["str | None"], list[Time]]


def _streams(
    trace: "TraceCollector | Iterable[TraceEvent]",
) -> dict[str, Stream]:
    """The trace as per-context columns in ``seq`` order.

    A collector's buffers already hold exactly that; a bare event
    iterable (a re-imported Chrome trace) is grouped into the same form.
    """
    if isinstance(trace, TraceCollector):
        return {
            name: (buf.kinds, buf.channels, buf.times)
            for name, buf in trace.buffers().items()
        }
    grouped: dict[str, list[TraceEvent]] = {}
    for event in trace:
        grouped.setdefault(event.context, []).append(event)
    streams: dict[str, Stream] = {}
    for name, events in grouped.items():
        events.sort(key=attrgetter("seq"))
        streams[name] = (
            [e.kind for e in events],
            [e.channel for e in events],
            [e.time for e in events],
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

#: Where the row pass keeps each category's running total.
_SLOTS = {COMPUTE: 0, BLOCKED_ON_DEQUEUE: 1, BLOCKED_ON_ENQUEUE: 2}


def _epoch_windows(
    width: float, edges: list[float], last_epoch: int
) -> list[tuple[float, float]]:
    """Per epoch ``k``, the widest ``[lo, hi]`` inside ``[edges[k],
    edges[k + 1]]`` on which the clamped ``int(x / width)`` is ``k``.

    :func:`_bin_across` adds an interval inside that window to bin ``k``
    whole, so the row pass may do the same without dividing.  Rounding
    can put a point a few ulps from an edge in the neighbouring epoch;
    the ends step inward until the division agrees (an epoch where it
    never does gets an empty window, and its intervals take the loop).
    """

    def epoch(x: float) -> int:
        return min(int(x / width), last_epoch)

    windows = []
    for k in range(last_epoch + 1):
        lo, hi = edges[k], edges[k + 1]
        for _ in range(4):
            if epoch(lo) >= k:
                break
            lo = nextafter(lo, INFINITY)
        for _ in range(4):
            if epoch(hi) <= k:
                break
            hi = nextafter(hi, -INFINITY)
        ok = lo <= hi and epoch(lo) == k == epoch(hi)
        windows.append((lo, hi) if ok else (INFINITY, -INFINITY))
    return windows


def _bin_across(
    bins: list[float],
    prev: Time,
    time: Time,
    width: float,
    edges: list[float],
    last_epoch: int,
) -> int:
    """Add ``[prev, time]`` to every epoch bin it overlaps, clamped to
    the edges; returns the epoch ``time`` falls in."""
    first = int(prev / width)
    if first > last_epoch:
        first = last_epoch
    last = int(time / width)
    if last > last_epoch:
        last = last_epoch
    for pos in range(first, last + 1):
        left = max(prev, edges[pos])
        right = min(time, edges[pos + 1])
        if right > left:
            bins[pos] += right - left
    return last if last > 0 else 0


class _Index:
    """Everything the profile reads from the trace, from one pass over
    its columns: per-channel FIFO op positions, and the whole-run
    attribution.

    An op is addressed by its *global position*: its index in the
    concatenation of the streams in context-name order.  A channel keeps
    only the (ascending) global positions and times of its enqueues and
    of its dequeues — channels have one sender and one receiver, so each
    side's stream order *is* the channel order — and an op's FIFO
    ordinal is found by bisection when the critical-path walk asks for
    it, which it does for a small fraction of the events.

    The same loop charges the time each op advanced its context's clock
    to the context's category total, to the channel's (for a blocked op)
    and to the epoch bins it overlaps.  Per row that costs two dict
    lookups for the row's ``(channel, kind)`` recorder — category slot,
    bins, channel totals and the bound ``append`` methods of the
    channel's position and time lists — and the two appends for an
    enqueue or dequeue.  An op that advanced the clock adds to at most
    three totals; only one whose interval leaves the current epoch's
    window pays for the divisions and the clamped per-epoch loop.
    """

    def __init__(self, streams: Mapping[str, Stream], epochs: int):
        self.streams: dict[str, Stream] = {}
        #: Context names in order, and the global position each stream
        #: starts at (``starts`` is parallel to ``names``).
        self.names: list[str] = []
        self.starts: list[int] = []
        #: channel -> (global positions, times) of its enqueues/dequeues.
        self.enq: dict[str, tuple[list[int], list[Time]]] = {}
        self.deq: dict[str, tuple[list[int], list[Time]]] = {}
        for name in sorted(streams):
            stream = streams[name]
            kinds, _, times = stream
            # Pseudo-buffers (``<worker-N>`` migrate, ``<supervisor>``)
            # and INFINITY finishes carry no simulated time to attribute.
            # A context's own columns have neither and are read in place;
            # only a stream that has one pays for a filtered copy.  (Every
            # time is looked at, not just the last: a buffer shared by
            # replicated context names is not monotone.)
            if not kinds:
                continue
            if not _KINDS.issuperset(kinds) or INFINITY in times:
                keep = [
                    kind in _KINDS and time != INFINITY
                    for kind, time in zip(kinds, times)
                ]
                if not any(keep):
                    continue
                stream = tuple(list(compress(col, keep)) for col in stream)
            self.streams[name] = stream
            self.names.append(name)
        #: (context, last index, finish time) of the makespan context.
        self.makespan: tuple[str, int, Time] | None = None
        for name, (kinds, _, times) in self.streams.items():
            last = times[-1]
            if self.makespan is None or last > self.makespan[2]:
                self.makespan = (name, len(kinds) - 1, last)
        finish_time = self.makespan[2] if self.makespan is not None else 0
        self.attribution, self.timeline = self._scan(finish_time, epochs)
        self.start_of = dict(zip(self.names, self.starts))

    def _scan(
        self, finish_time: Time, epochs: int
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """The row pass: fills ``starts``, ``enq``, ``deq`` and
        ``total_events`` and returns the attribution and the timeline."""
        width = finish_time / epochs if finish_time > 0 and epochs > 0 else 0
        last_epoch = epochs - 1
        if width:
            edges = [pos * width for pos in range(epochs + 1)]
            windows = _epoch_windows(width, edges, last_epoch)
            #: Simulated time spent computing / blocked, per epoch.
            active = [0.0] * epochs
            blocked = [0.0] * epochs
        else:
            # No timeline: one window holding every time, over throwaway
            # bins nobody reads.
            edges = []
            windows = [(-INFINITY, INFINITY)]
            active, blocked = [0.0], [0.0]
        per_context: dict[str, dict[str, Any]] = {}
        #: channel -> totals, indexed like a context's (``_SLOTS``).
        per_channel: dict[str, list[Time]] = {}
        compute = (0, active, None, None, None)

        def recorder(channel: str | None, kind: str) -> tuple:
            """What a ``kind`` row on ``channel`` charges and appends to:
            ``(slot, bins, add_position, add_time, channel totals)``."""
            slot = 0 if channel is None else _SLOTS[_CHANNEL_CATEGORY[kind]]
            if not slot:
                return compute
            chan = per_channel.setdefault(channel, [0, 0, 0])
            side = {"enqueue": self.enq, "dequeue": self.deq}.get(kind)
            if side is None:
                return (slot, blocked, None, None, chan)
            positions, times = side.setdefault(channel, ([], []))
            return (slot, blocked, positions.append, times.append, chan)

        #: channel -> kind -> recorder (two lookups, no key tuple per row).
        recorders: dict[str | None, dict[str, tuple]] = {}
        cur = 0
        lo, hi = windows[cur]
        total = 0
        for name in self.names:
            kinds, channels, times = self.streams[name]
            self.starts.append(total)
            totals: list[Time] = [0, 0, 0]
            prev = 0
            for pos, kind, channel, time in zip(
                count(total), kinds, channels, times
            ):
                try:
                    slot, bins, add_pos, add_time, chan = recorders[channel][kind]
                except KeyError:
                    slot, bins, add_pos, add_time, chan = recorders.setdefault(
                        channel, {}
                    )[kind] = recorder(channel, kind)
                if add_pos is not None:
                    add_pos(pos)
                    add_time(time)
                if time > prev:
                    delta = time - prev
                    totals[slot] += delta
                    if chan is not None:
                        chan[slot] += delta
                    if lo <= prev and time <= hi:
                        bins[cur] += delta
                    else:
                        cur = _bin_across(
                            bins, prev, time, width, edges, last_epoch
                        )
                        lo, hi = windows[cur]
                # Unconditional: a buffer shared by replicated context
                # names is not monotone, and the next interval starts here.
                prev = time
            per_context[name] = {
                COMPUTE: totals[0],
                BLOCKED_ON_DEQUEUE: totals[1],
                BLOCKED_ON_ENQUEUE: totals[2],
                OVERHEAD: 0,
                "finish_time": prev,
                "idle": finish_time - prev,
            }
            total += len(kinds)
        self.total_events = total

        timeline: dict[str, Any] = {"epoch_width": width, "epochs": []}
        if width:
            denominator = width * max(len(self.names), 1)
            timeline["epochs"] = [
                {
                    "start": pos * width,
                    "active": active[pos],
                    "blocked": blocked[pos],
                    "utilization": round(active[pos] / denominator, 6),
                }
                for pos in range(epochs)
            ]
        attribution = {
            "per_context": per_context,
            # Every charge is positive, so a channel whose totals are
            # both zero never blocked anybody: leave it out.
            "per_channel": {
                name: {
                    BLOCKED_ON_DEQUEUE: per_channel[name][1],
                    BLOCKED_ON_ENQUEUE: per_channel[name][2],
                }
                for name in sorted(per_channel)
                if per_channel[name][1] or per_channel[name][2]
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


def _category_of(kind: str, channel: str | None) -> str:
    return COMPUTE if channel is None else _CHANNEL_CATEGORY[kind]


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
    visited: set[int] = set()
    ctx, idx = start
    kinds, channels, times = index.streams[ctx]
    base = index.start_of[ctx]
    cursor = finish_time
    limit = 4 * index.total_events + 16

    steps = 0
    while cursor > 0 and idx >= 0 and steps < limit:
        steps += 1
        prev_time = times[idx - 1] if idx > 0 else 0
        pos = base + idx
        if not cursor > prev_time:
            # The op took no time (more than half of all steps): nothing
            # to attribute and no edge to follow, so step back without
            # looking at the op.  It still counts as walked.  (``not >``
            # rather than ``<=``: a re-imported malformed trace can hold
            # a NaN time, which must keep stepping back.)
            visited.add(pos)
            idx -= 1
            continue
        first_visit = pos not in visited
        visited.add(pos)
        kind, channel = kinds[idx], channels[idx]
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
        if target is not None and target not in visited:
            t_ctx, t_idx = index.locate(target)
            t_stream = index.streams[t_ctx]
            t_time = t_stream[2][t_idx]
            # Only jump when it makes progress toward t=0 (a zero-latency
            # edge is followed without emitting a segment); a malformed
            # or already-walked target degrades to a step-back instead.
            if t_time <= cursor:
                if t_time < cursor:
                    segments.append(
                        PathSegment(
                            _category_of(kind, channel),
                            ctx, channel, t_time, cursor,
                        )
                    )
                ctx, idx, cursor = t_ctx, t_idx, t_time
                kinds, channels, times = t_stream
                base = index.start_of[t_ctx]
                continue
        # Step back within this context, charging the wait to it.
        segments.append(
            PathSegment(
                _category_of(kind, channel), ctx, channel, prev_time, cursor
            )
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
    histogram = Histogram()
    for seg in segments:
        histogram.observe(seg.duration)
    quantiles = (
        {
            "p50": histogram.quantile(0.5),
            "p90": histogram.quantile(0.9),
            "max": histogram.max or 0.0,
        }
        if histogram.count
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
