"""Time-bridging channels (paper Section V).

A channel is a directed, statically-connected link between a sender context
and a receiver context.  It is *time-bridging*: the two endpoints may sit at
wildly different simulated times (asynchronous distributed time), and the
channel reconciles them using only timestamps:

* The **data queue** carries ``(stamp, data)`` tuples, stamped with the
  earliest simulated time the receiver may observe them (sender time at
  enqueue + channel ``latency``).

* The **response queue** carries, for every dequeue, the simulated time at
  which the sender should *see* the freed slot (receiver dequeue time +
  ``resp_latency``).  A sender that finds the channel full drains responses
  in FIFO order, advancing its own clock to each response time — this is
  how backpressure advances simulated time (local time acceleration on the
  send side).

* The receiver's clock jumps to ``max(now, stamp)`` on dequeue —
  local time acceleration on the receive side; starvation costs simulated
  time without any polling.

Every state transition is a function of *simulated* state only (the FIFO
contents and the endpoint clocks), never of the real schedule.  That is the
determinism argument: the cooperative and threaded executors drive the same
transitions in the same per-channel order, so simulated results are
identical (asserted by the cross-executor test suite).

Termination semantics mirror DAM-RS:

* When the **sender** finishes, the channel *closes*: the receiver may drain
  remaining data, after which dequeue/peek raise
  :class:`~repro.core.errors.ChannelClosed`.

* When the **receiver** finishes, the channel becomes *void*: enqueues
  succeed immediately and the data is discarded.  Responses already in
  flight are still drained first so the sender's clock advances identically
  regardless of when the receiver's finish became visible.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, NoReturn, Optional

from .errors import GraphConstructionError
from .time import Time, TimeCell

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context

from . import ops as _ops

_channel_ids = itertools.count()

#: Sentinel returned by ``fast_dequeue`` when no element is ready.  A
#: private object so it can never collide with queued payloads.
_EMPTY = object()


def _refuse_pickle(endpoint: Any) -> NoReturn:
    """``__reduce__`` of :class:`Sender` and :class:`Receiver`: an
    endpoint is wiring, not data.

    Refusing *here* — before the pickler walks handle -> channel ->
    queues -> owning context -> its handles ... only to die on the
    channel's ``threading.Condition`` — is what keeps "ship whatever
    pickles" (the process executor's harvest, a cut-channel record, a
    checkpointed attribute) proportional to the data: a handle nested
    anywhere in a list, dict or object fails in microseconds, with a
    sentence instead of ``cannot pickle '_thread.RLock' object``.
    """
    raise TypeError(
        f"{endpoint!r} is a channel endpoint and does not pickle: "
        "endpoints stay in the process that built the program"
    )


class ChannelStats:
    """Lightweight per-channel counters.

    ``enqueues``/``dequeues``/``peeks``/``max_real_occupancy`` are always
    maintained, by :class:`Channel`'s reference methods and by the
    runners' open-coded flavor codes alike (a length check per enqueue is
    cheap enough for the hot path; a runner latches this object, so it is
    reset in place, never replaced), and surfaced through the
    observability metrics registry as
    ``channel_enqueues``/``channel_dequeues``/``channel_peeks``/
    ``channel_max_occupancy``.  Occupancy in *simulated* time is read
    from a run's trace (:func:`repro.obs.occupancy_log`).

    The traffic counters (``enqueues``/``dequeues``/``peeks``) are pure
    functions of simulated state, identical across executors; only
    ``max_real_occupancy`` depends on the real schedule.
    """

    __slots__ = ("enqueues", "dequeues", "peeks", "max_real_occupancy")

    def __init__(self) -> None:
        self.enqueues = 0
        self.dequeues = 0
        self.peeks = 0
        self.max_real_occupancy = 0

    def __repr__(self) -> str:
        return (
            f"ChannelStats(enqueues={self.enqueues}, dequeues={self.dequeues}, "
            f"peeks={self.peeks}, "
            f"max_real_occupancy={self.max_real_occupancy})"
        )


class Channel:
    """The shared state of a sender/receiver pair.

    Users normally create channels through
    :meth:`repro.core.program.ProgramBuilder.bounded` /
    :meth:`~repro.core.program.ProgramBuilder.unbounded`, which return the
    ``(Sender, Receiver)`` handle pair; the :class:`Channel` itself is an
    implementation detail.

    Parameters
    ----------
    capacity:
        Maximum number of in-flight elements from the sender's perspective,
        or ``None`` for an unbounded channel (no backpressure simulation,
        which is why unbounded channels simulate faster — Fig. 11).
    latency:
        Simulated cycles between an enqueue and the element becoming
        visible to the receiver.
    resp_latency:
        Simulated cycles between a dequeue and the sender observing the
        freed slot.
    """

    __slots__ = (
        "id",
        "name",
        "capacity",
        "latency",
        "resp_latency",
        "real",
        "sender_owner",
        "receiver_owner",
        "_data",
        "_resps",
        "_delta",
        "_sender_finished",
        "_receiver_finished",
        "stats",
        "cond",
        "waiting_sender",
        "waiting_receiver",
        # Flavor codes, re-derived once per state transition by
        # ``_select_codes``: they tell the sequential executor's runners
        # which transitions they may open-code (DESIGN.md §11).
        "_enq_code",
        "_deq_code",
        # Trace port ids of the channel's enqueue / dequeue / peek, set
        # when a traced run numbers its ports (DESIGN.md §9).
        "_enq_port",
        "_deq_port",
        "_peek_port",
    )

    def __init__(
        self,
        capacity: Optional[int] = None,
        latency: Time = 1,
        resp_latency: Time = 1,
        name: str | None = None,
        real: bool = False,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"channel capacity must be >= 1, got {capacity}")
        if latency < 0 or resp_latency < 0:
            raise ValueError("channel latencies must be nonnegative")
        if real and capacity is not None:
            raise ValueError("real channels are unbounded (no backpressure)")
        self.real = real
        self.id = next(_channel_ids)
        self.name = name or f"channel{self.id}"
        self._enq_port = self._deq_port = self._peek_port = None
        self.capacity = capacity
        self.latency = latency
        self.resp_latency = resp_latency
        self.sender_owner: "Context | None" = None
        self.receiver_owner: "Context | None" = None
        self._data: deque[tuple[Time, Any]] = deque()
        self._resps: deque[Time] = deque()
        self._delta = 0  # sender's view of in-flight element count
        self._sender_finished = False
        self._receiver_finished = False
        self.stats = ChannelStats()
        # Used only by the threaded executor; harmless elsewhere.
        self.cond = threading.Condition()
        # Used only by the sequential executor (at most one waiter per side).
        self.waiting_sender: Any = None
        self.waiting_receiver: Any = None
        self._select_codes()

    # ------------------------------------------------------------------
    # Flavor codes.  The sequential executor's runners open-code the two
    # hot transitions (DESIGN.md §11): they read these small ints to know
    # which form applies to the channel's current state, and call
    # ``try_enqueue`` for an enqueue they do not open-code.  The codes
    # are re-derived once per state *transition* (construction,
    # close_sender, close_receiver, reset, restore_state), so the
    # per-op path pays zero flavor branches.
    # ------------------------------------------------------------------

    def _select_codes(self) -> None:
        # Enqueue codes: 0 = unbounded, 1 = bounded (open-coded by the
        # runners); 2 = everything else (real/void: call the method).
        if self._receiver_finished:
            self._enq_code = 2
        elif self.capacity is not None:
            self._enq_code = 1
        else:
            self._enq_code = 2 if self.real else 0
        # Dequeue codes: 0 = plain, 1 = responding; both open-coded.
        self._deq_code = int(self.capacity is not None and not self._sender_finished)

    def try_enqueue(self, clock: TimeCell, data: Any) -> bool:
        """Reserve and enqueue in one call; ``False`` = would block."""
        if not self.sender_try_reserve(clock):
            return False
        self.do_enqueue(clock, data)
        return True

    def fast_dequeue(self, clock: TimeCell) -> Any:
        """Dequeue, or return ``_EMPTY`` when nothing is queued."""
        return self.do_dequeue(clock) if self._data else _EMPTY

    # ------------------------------------------------------------------
    # Pure semantics (generic reference surface).  These methods never
    # block; executors orchestrate blocking around them.  All mutate only
    # under the caller's exclusion discipline (channel lock in threaded
    # mode, single thread otherwise).  They are the one written form of
    # the transitions; the runners' open-coded codes 0 and 1 are checked
    # against them by the differential tests.
    # ------------------------------------------------------------------

    def sender_try_reserve(self, clock: TimeCell) -> bool:
        """Try to secure a slot for one enqueue from the sender's view.

        Drains available responses first (each advances the sender's clock
        to the response time), so that slot observations — and therefore
        the sender's simulated timeline — are schedule-independent.
        Returns ``True`` if an enqueue may proceed now.
        """
        if self.capacity is None:
            return True
        while self._delta >= self.capacity and self._resps:
            release_time = self._resps.popleft()
            clock.advance(release_time)
            self._delta -= 1
        if self._delta < self.capacity:
            return True
        # Full with no responses left: only a finished receiver unblocks us.
        return self._receiver_finished

    def do_enqueue(self, clock: TimeCell, data: Any) -> None:
        """Append ``data`` stamped at ``sender_now + latency``.

        Caller must have obtained ``True`` from :meth:`sender_try_reserve`.
        If the receiver has finished the element is discarded (void); it
        still takes its slot of the sender's window, as it would have had
        the finish become visible a moment later.
        """
        self.stats.enqueues += 1
        if self.capacity is not None:
            self._delta += 1
        if self._receiver_finished:
            # Void enqueue: nothing is queued, the data is discarded.
            return
        stamp = 0 if self.real else clock._time + self.latency
        self._data.append((stamp, data))
        occupancy = len(self._data)
        if occupancy > self.stats.max_real_occupancy:
            self.stats.max_real_occupancy = occupancy

    def sender_ready(self) -> bool:
        """Could a sender parked on a full window retry successfully?"""
        return bool(self._resps) or self._receiver_finished

    def receiver_ready(self) -> bool:
        """Could a parked receiver's retried dequeue/peek make progress
        (take an element, or see the channel closed)?"""
        return bool(self._data) or self._sender_finished

    def can_dequeue(self) -> bool:
        return bool(self._data)

    @property
    def closed_for_receiver(self) -> bool:
        """True once the sender finished and all data has been drained."""
        return self._sender_finished and not self._data

    def do_dequeue(self, clock: TimeCell) -> Any:
        """Pop the front element, advance the receiver clock, respond.

        Real channels (the Section IX mechanism) carry data without any
        time coupling: the receiver's clock is untouched.
        """
        stamp, data = self._data.popleft()
        clock.advance(stamp)
        self.stats.dequeues += 1
        if self.capacity is not None and not self._sender_finished:
            self._resps.append(clock._time + self.resp_latency)
        return data

    def do_peek(self, clock: TimeCell) -> Any:
        """Observe the front element (advancing the clock) without removal."""
        stamp, data = self._data[0]
        clock.advance(stamp)
        self.stats.peeks += 1
        return data

    # ------------------------------------------------------------------
    # Termination transitions.
    # ------------------------------------------------------------------

    def close_sender(self) -> None:
        """The sender context finished: no further data will arrive."""
        self._sender_finished = True
        self._resps.clear()  # the sender will never drain them
        self._select_codes()  # remaining dequeues stop responding

    def close_receiver(self) -> None:
        """The receiver context finished: the channel becomes void."""
        self._receiver_finished = True
        self._data.clear()
        self._select_codes()  # enqueues become void: no longer open-coded

    def reset(self) -> None:
        """Restore pristine pre-run state (wiring and parameters kept).

        The retry ladder (``RunConfig(fallback=...)``) calls this through
        :meth:`~repro.core.program.Program.reset` before re-running a
        program whose previous attempt crashed or timed out, so the retry
        observes exactly the state a fresh build would.  Occupancy,
        response queues, finished flags, stats and parked waiters are all
        cleared; the flavor codes are re-derived for the restored state.

        The queues and the stats object are cleared in place, never
        replaced: a runner bound to the channel (DESIGN.md §11) holds
        them, and a context may keep its ops — and so their runners —
        across runs.
        """
        self._data.clear()
        self._resps.clear()
        self._delta = 0
        self._sender_finished = False
        self._receiver_finished = False
        self.stats.__init__()
        self.waiting_sender = None
        self.waiting_receiver = None
        self._select_codes()

    # ------------------------------------------------------------------
    # Checkpointing (DESIGN.md §17).
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> dict[str, Any]:
        """Capture the channel's full run state as a picklable dict.

        Everything :meth:`reset` clears is captured: queued data and
        responses, the sender's in-flight count, the finished flags and the
        stats counters.  Parked-waiter fields are
        *not* captured — at a quiescent cut every context's suspension is
        recorded on the context side, and :meth:`restore_state` re-arms
        waiters empty.
        """
        stats = self.stats
        return {
            "data": list(self._data),
            "resps": list(self._resps),
            "delta": self._delta,
            "sender_finished": self._sender_finished,
            "receiver_finished": self._receiver_finished,
            "stats": {
                "enqueues": stats.enqueues,
                "dequeues": stats.dequeues,
                "peeks": stats.peeks,
                "max_real_occupancy": stats.max_real_occupancy,
            },
        }

    def restore_state(self, record: dict[str, Any]) -> None:
        """Install a state dict produced by :meth:`checkpoint_state`.

        The flavor codes are re-derived for the restored state, exactly
        as :meth:`reset` does for pristine state, and, as there, the
        queues and stats are refilled in place.
        """
        self._data.clear()
        self._data.extend(tuple(item) for item in record["data"])
        self._resps.clear()
        self._resps.extend(record["resps"])
        self._delta = record["delta"]
        self._sender_finished = record["sender_finished"]
        self._receiver_finished = record["receiver_finished"]
        for field in ChannelStats.__slots__:
            setattr(self.stats, field, record["stats"][field])
        self.waiting_sender = None
        self.waiting_receiver = None
        self._select_codes()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def sender_finished(self) -> bool:
        return self._sender_finished

    @property
    def receiver_finished(self) -> bool:
        return self._receiver_finished

    def real_occupancy(self) -> int:
        """Number of elements physically queued right now (debug metric)."""
        return len(self._data)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"Channel({self.name}, cap={cap}, len={len(self._data)})"


def peak_simulated_occupancy(log: list[tuple[Time, Time]]) -> int:
    """Compute peak occupancy in simulated time from ``(visibility stamp,
    dequeue time)`` pairs, as :func:`repro.obs.occupancy_log` reads them
    off a run's trace.

    An element occupies the channel from its visibility stamp until it is
    dequeued.  (Elements enqueued but never dequeued are not in the log;
    run-to-completion graphs drain everything.)
    """
    events: list[tuple[Time, int]] = []
    for stamp, dequeue_time in log:
        events.append((stamp, 1))
        events.append((dequeue_time, -1))
    # Process departures before arrivals at the same instant: an element
    # dequeued at exactly time t frees its slot "at" t.
    events.sort(key=lambda pair: (pair[0], pair[1]))
    peak = 0
    occupancy = 0
    for _, delta in events:
        occupancy += delta
        if occupancy > peak:
            peak = occupancy
    return peak


class Sender:
    """The send endpoint handle given to the producing context."""

    __slots__ = ("channel", "owner")

    def __init__(self, channel: Channel):
        self.channel = channel
        self.owner: "Context | None" = None

    def attach(self, context: "Context") -> None:
        if self.owner is not None:
            raise GraphConstructionError(
                f"sender of {self.channel.name} already owned by "
                f"{self.owner.name}, cannot attach to {context.name}"
            )
        self.owner = context
        self.channel.sender_owner = context

    def enqueue(self, data: Any) -> "_ops.Enqueue":
        """Build an enqueue op for ``yield``-ing."""
        return _ops.Enqueue(self, data)

    __reduce__ = _refuse_pickle

    def __repr__(self) -> str:
        return f"Sender({self.channel.name})"


class Receiver:
    """The receive endpoint handle given to the consuming context."""

    __slots__ = ("channel", "owner")

    def __init__(self, channel: Channel):
        self.channel = channel
        self.owner: "Context | None" = None

    def attach(self, context: "Context") -> None:
        if self.owner is not None:
            raise GraphConstructionError(
                f"receiver of {self.channel.name} already owned by "
                f"{self.owner.name}, cannot attach to {context.name}"
            )
        self.owner = context
        self.channel.receiver_owner = context

    def dequeue(self) -> "_ops.Dequeue":
        """Build a dequeue op for ``yield``-ing."""
        return _ops.Dequeue(self)

    def peek(self) -> "_ops.Peek":
        """Build a peek op for ``yield``-ing."""
        return _ops.Peek(self)

    __reduce__ = _refuse_pickle

    def __repr__(self) -> str:
        return f"Receiver({self.channel.name})"


def make_channel(
    capacity: Optional[int] = None,
    latency: Time = 1,
    resp_latency: Time = 1,
    name: str | None = None,
    real: bool = False,
) -> tuple[Sender, Receiver]:
    """Create a channel and return its ``(Sender, Receiver)`` handle pair."""
    channel = Channel(
        capacity=capacity,
        latency=latency,
        resp_latency=resp_latency,
        name=name,
        real=real,
    )
    return Sender(channel), Receiver(channel)
