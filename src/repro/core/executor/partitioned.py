"""Process-parallel executor: partitioned graphs bridged by shuttles.

The GIL caps the threaded executor at one core; this executor recovers
DAM's wall-clock scaling by partitioning ``program.contexts`` across
**forked worker processes** (:mod:`repro.core.executor.partition`), running
each partition under the existing cooperative scheduler, and bridging the
*cut* channels — those whose endpoints land in different workers — with
cross-process shuttles (:mod:`repro.core.executor.shm`).

Why the simulated results stay bit-identical
--------------------------------------------

Channel semantics are pure functions of simulated state (the FIFO contents
and the endpoint clocks — see :mod:`repro.core.channel`).  A shuttle
carries exactly the records an in-process channel would queue, over two
FIFO lanes:

* **data lane** (sender partition → receiver partition): the ``(stamp,
  data)`` tuples, followed by a ``SENDER_DONE`` sentinel when the sending
  context finishes (the channel-close transition);
* **response lane** (receiver → sender): the dequeue-time responses that
  drive backpressure, followed by ``RECEIVER_DONE`` when the receiving
  context finishes (the channel-void transition).

Both lanes preserve order, so every state transition observes the same
sequence it would in-process, and the sender clock advances through the
same response times.  The only records whose *real-time* visibility can
differ from an in-process run are ones the semantics already make dead:
responses generated after the sender finished are never drained (in
process, ``close_sender`` clears them), and data enqueued after the
receiver finished is discarded (void channel) — so the lag of the done
sentinels cannot change any simulated outcome.  ``ViewTime``/``WaitUntil``
reads of a remote clock go through a shared float64 slot
(:class:`~repro.core.executor.shm.SharedTimeView`) that the owning worker
refreshes from its plain local cell at every slice boundary — at most one
timeslice stale and always a lower bound, the same contract SVA gives the
threaded executor.

Work stealing
-------------

Workers do not start with their partition materialized.  The partition is
refined into **clusters** (:func:`~repro.core.executor.partition.plan_clusters`)
— connected components of a worker's group under its internal channels —
and every worker begins empty, *activating* clusters lazily: when its run
queue drains it claims its next own cold cluster from a shared
:class:`~repro.core.executor.shm.ClaimBoard`, and when it has none left it
steals another worker's cold cluster (largest first).  Because every
channel leaving a cluster is a planned-cut channel already bridged by a
shuttle, activation by *any* worker creates no new communication paths:
the adopter installs the same shuttle proxies and publishes into the same
clock slots the planned owner would have, and since a cluster is claimed
exactly once (one inherited lock guards the board) the SPSC property of
every shuttle lane is preserved.  Simulated results cannot change —
cluster activation moves *where* the same pure state transitions execute,
never what they compute.  ``steal=False`` restores strict planned
placement (pins keep their separation guarantee); with stealing on, pins
bind the *initial* plan only.

Deadlock detection is one exact verdict, the parent's.  Every wake-up a
worker can need — a lane push or pop, a clock publication at a slice
boundary, a checkpoint command, an abort — rings its
:class:`~repro.core.executor.shm.Doorbell`, and a worker sleeps on its
doorbell only after draining it and finding nothing to do, whether its
blocked contexts wait on a peer or on each other.  So a round in which
two reads of the status board agree that every live worker is asleep, no
cold cluster is left to claim, and no doorbell holds a ring *is* a
deadlock: nothing is left that could wake anyone.  The parent then
aborts the workers and merges their stall reports — every context
stopped where it really blocked — into one
:class:`~repro.core.errors.DeadlockError`.

The parent merges per-worker results back onto the original program
object: context finish times (and picklable result attributes), channel
stats, per-context trace buffers (keyed by slot and folded in slot order,
so the observability layer's streams are executor-independent), and the
metrics registry.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import time as _wallclock
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mpconn
from typing import Any, Optional

from ...obs import Observability, fold_channel_metrics, fold_context_metrics
from ...obs.stall import StallReport
from .. import checkpoint as _ckpt
from ..channel import _EMPTY, Channel, ChannelStats
from ..errors import (
    CheckpointError,
    DamError,
    DeadlockError,
    RunTimeoutError,
    SimulationError,
    WorkerCrashError,
    pack_exception,
    unpack_exception,
)
from ..faults import StalledLane
from ..program import Program
from ..time import INFINITY, TimeCell
from .base import Executor, RunSummary
from .partition import ClusterSpec, PartitionPlan, plan_clusters, plan_partition
from .policies import SchedulingPolicy, make_policy
from .registry import register_executor
from .sequential import _BLOCKED, _DONE, SequentialExecutor, _ContextState
from .sequential import traced_fast_loop
from .shm import (
    CKPT_DUMP,
    CKPT_PAUSE,
    CKPT_RUN,
    DATA,
    RECEIVER_DONE,
    RESPONSE,
    SENDER_DONE,
    WORKER_BLOCKED,
    WORKER_DONE,
    WORKER_RUNNING,
    ArenaLayout,
    ChannelShuttle,
    CheckpointBoard,
    ClaimBoard,
    Doorbell,
    SharedArena,
    SharedClockArray,
    SharedTimeView,
    ShmRing,
    StatusBoard,
)


class _WorkerAborted(BaseException):
    """Internal: the parent pulled the abort switch (peer failure, the
    deadline, or its global deadlock verdict).  BaseException so
    user-level handlers inside context generators cannot swallow it."""


#: How long the parent waits for aborted workers to hand in a payload,
#: and for each process to exit, before force-recording / killing it.
_JOIN_TIMEOUT = 5.0


@dataclass
class _RunShared:
    """What one run's parent and its workers share, built once before
    the fork: a worker reads run *settings* off the forked-in
    :class:`ProcessExecutor` and everything else off this record, and
    recomputes neither."""

    program: Program
    clusters: list[ClusterSpec]
    #: Context start times by slot, as the parent pre-published them.
    starts: list
    arena: SharedArena
    clocks: SharedClockArray
    status: StatusBoard
    claim: ClaimBoard
    claim_lock: Any
    shuttles: dict[int, ChannelShuttle]
    abort: Any
    #: One doorbell per worker, by worker index, and the parent's.
    bells: list[Doorbell]
    bell: Doorbell
    #: None unless the run checkpoints (``checkpoint_path`` set).
    ckpt_board: Optional[CheckpointBoard]
    #: The fault plan with every victim resolved (None without one).
    faults: Any
    #: Slot-keyed resume records of a restored program, else None.
    resume_records: Optional[dict]


#: Context attributes that are framework state, never harvested results.
_FRAMEWORK_ATTRS = frozenset(
    {"id", "name", "time", "senders", "receivers", "finish_time",
     "_body", "_pass_context"}
)


# ----------------------------------------------------------------------
# Cut-channel proxies.
#
# After fork, each worker swaps the ``.channel`` of every cut-channel
# handle owned by a local context for one of these.  They mirror the
# pure-semantics surface of :class:`Channel` that the sequential
# executor's dispatch/finish/stall paths touch, but route records over
# the shuttle lanes instead of shared deques.  Pushes never block the
# scheduling loop: records that do not fit in the ring queue locally in
# ``_pending`` and are flushed by ``poll()``.
# ----------------------------------------------------------------------


class _ShuttleProxy:
    """What both sides of a cut channel share: the channel's parameters
    and finished flags, and an outbound lane whose overflow waits in
    ``_pending`` until :meth:`poll` flushes it."""

    # Flavor codes the sequential fast path would inline on; shuttles
    # always need their method implementations (lane bookkeeping).
    _enq_code = 2
    _deq_code = 2

    __slots__ = (
        "id", "name", "capacity", "latency", "resp_latency", "real",
        "sender_owner", "receiver_owner", "stats", "profile_log",
        "waiting_sender", "waiting_receiver",
        "_sender_finished", "_receiver_finished",
        "_lane_out", "_lane_in", "_pending",
        "_park_enq_msg", "_park_deq_msg",
    )

    def __init__(self, channel: Channel, lane_out, lane_in):
        self.id = channel.id
        self.name = channel.name
        self._park_enq_msg = f"enqueue on full {self.name}"
        self._park_deq_msg = f"dequeue on empty {self.name}"
        self.capacity = channel.capacity
        self.latency = channel.latency
        self.resp_latency = channel.resp_latency
        self.real = channel.real
        self.sender_owner = channel.sender_owner
        self.receiver_owner = channel.receiver_owner
        #: Each side counts its own half; the parent adds them up.
        self.stats = ChannelStats()
        self.profile_log = None
        self.waiting_sender: Any = None
        self.waiting_receiver: Any = None
        # Seed from the wrapped channel: pristine (all empty/False) on a
        # fresh run, the restored state when the program was resumed
        # from a checkpoint.
        self._sender_finished = channel.sender_finished
        self._receiver_finished = channel.receiver_finished
        self._lane_out = lane_out
        self._lane_in = lane_in
        self._pending: deque = deque()

    def _push(self, record) -> None:
        if self._pending or not self._lane_out.try_push(record):
            self._pending.append(record)

    def poll(self, flush: bool = True) -> int:
        """Flush the outbound backlog (unless ``flush`` is off: a
        checkpoint dump takes what is inbound and pushes nothing) and
        drain the inbound lane; returns the number of records moved
        (truthy iff progress)."""
        moved = 0
        while (
            self._pending
            and flush
            and self._lane_out.try_push(self._pending[0])
        ):
            self._pending.popleft()
            moved += 1
        while True:
            ok, record = self._lane_in.try_pop()
            if not ok:
                return moved
            moved += 1
            self._take(record)

    def outstanding(self) -> bool:
        return bool(self._pending)


class _ShuttleSender(_ShuttleProxy):
    """Sender-partition stand-in for a cut channel."""

    __slots__ = ("_delta", "_resps")

    def __init__(self, channel: Channel, shuttle: ChannelShuttle):
        super().__init__(channel, shuttle.data, shuttle.resp)
        # The sender-side state of a restored channel: in-flight count
        # and undrained responses.  The queued data itself seeds the
        # *receiver* proxy in whichever worker activates that side.
        self._delta = channel._delta
        self._resps: deque = deque(channel._resps)

    # -- Channel surface used by the sender-side dispatch --------------

    def sender_try_reserve(self, clock) -> bool:
        if self.capacity is None:
            return True
        while self._delta >= self.capacity and self._resps:
            clock.advance(self._resps.popleft())
            self._delta -= 1
        if self._delta < self.capacity:
            return True
        return self._receiver_finished

    def do_enqueue(self, clock, data) -> None:
        self.stats.enqueues += 1
        if self._receiver_finished:
            return  # void channel: data is discarded
        stamp = 0 if self.real else clock._time + self.latency
        if self.capacity is not None:
            self._delta += 1
        self._push((DATA, stamp, data))

    def try_enqueue(self, clock, data) -> bool:
        """Single-call fast-path surface (reserve + enqueue).  Shuttle
        lanes dominate the cost here, so this composes the reference
        methods rather than specializing per flavor."""
        if self.sender_try_reserve(clock):
            self.do_enqueue(clock, data)
            return True
        return False

    def close_sender(self) -> None:
        self._sender_finished = True
        self._resps.clear()
        if not self._receiver_finished:
            self._push((SENDER_DONE,))

    def real_occupancy(self) -> int:
        return len(self._pending)

    def _take(self, record) -> None:
        if record[0] == RESPONSE:
            self._resps.append(record[1])
        else:  # RECEIVER_DONE: channel voids, the backlog is dead letters
            self._receiver_finished = True
            self._pending.clear()

    def sender_ready(self) -> bool:
        """Could a parked sender's retried reserve make progress now?"""
        return bool(self._resps) or self._receiver_finished

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ShuttleSender({self.name}, pending={len(self._pending)})"


class _ShuttleReceiver(_ShuttleProxy):
    """Receiver-partition stand-in for a cut channel."""

    __slots__ = ("_data",)

    def __init__(self, channel: Channel, shuttle: ChannelShuttle):
        super().__init__(channel, shuttle.resp, shuttle.data)
        #: Receiver side counts dequeues/peeks/occupancy and the profile log.
        self.profile_log = [] if channel.profile_log is not None else None
        # Restored queue contents become the proxy's local queue; lane
        # records pushed since the fork append after them, preserving
        # FIFO order across a checkpoint resume.
        self._data: deque = deque(tuple(item) for item in channel._data)

    # -- Channel surface used by the receiver-side dispatch ------------

    def can_dequeue(self) -> bool:
        return bool(self._data)

    @property
    def closed_for_receiver(self) -> bool:
        return self._sender_finished and not self._data

    def do_dequeue(self, clock):
        stamp, data = self._data.popleft()
        clock.advance(stamp)
        self.stats.dequeues += 1
        if self.capacity is not None and not self._sender_finished:
            self._push((RESPONSE, clock._time + self.resp_latency))
        if self.profile_log is not None:
            self.profile_log.append((stamp, clock._time))
        return data

    def do_peek(self, clock):
        stamp, data = self._data[0]
        clock.advance(stamp)
        self.stats.peeks += 1
        return data

    def fast_dequeue(self, clock):
        """Single-call fast-path surface: ``_EMPTY`` when nothing is
        visible yet (the worker loop then parks or polls the lane)."""
        if not self._data:
            return _EMPTY
        return self.do_dequeue(clock)

    def close_receiver(self) -> None:
        self._receiver_finished = True
        self._data.clear()
        # In-flight responses still flush first (FIFO lane): the remote
        # sender drains them before it observes the void transition,
        # exactly as in-process semantics require.
        if not self._sender_finished:
            self._push((RECEIVER_DONE,))

    def real_occupancy(self) -> int:
        return len(self._data)

    def _take(self, record) -> None:
        if record[0] == DATA:
            if not self._receiver_finished:
                self._data.append((record[1], record[2]))
                if len(self._data) > self.stats.max_real_occupancy:
                    self.stats.max_real_occupancy = len(self._data)
        else:  # SENDER_DONE: responses the sender will never drain die here
            self._sender_finished = True
            self._pending.clear()

    def receiver_ready(self) -> bool:
        """Could a parked receiver's retried dequeue/peek make progress?"""
        return bool(self._data) or self._sender_finished

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ShuttleReceiver({self.name}, queued={len(self._data)})"


# ----------------------------------------------------------------------
# The per-worker executor.
# ----------------------------------------------------------------------


class _WorkerExecutor(SequentialExecutor):
    """The cooperative scheduler, extended with shuttle servicing and
    lazy cluster activation (work stealing).

    Differences from the plain sequential executor:

    * the worker starts with an *empty* program and pulls work from the
      shared claim board: its own cold clusters first, then — when
      ``steal`` is on — other workers' (largest first).  Activating a
      cluster gives its contexts plain local time cells, swaps every
      cut-channel handle for a shuttle proxy, and pushes the fresh
      context states onto the ready queue;
    * a finite timeslice is forced even under run-to-block policies, so
      at bounded intervals the owned clocks are published to their
      shared slots, the shuttles are serviced (outbound flushed,
      inbound drained, parked endpoints woken) and the peers' doorbells
      rung;
    * :meth:`_idle` — reached when the local ready queue empties —
      services shuttles and remote-clock waiters, claims more work when
      the board has any, and otherwise sleeps on its doorbell, published
      as blocked — a purely local cycle included, since the deadlock
      verdict is the parent's; it returns ``False`` only when every
      activated context has finished, nothing is claimable and the
      outbound backlog is flushed;
    * metrics folding is disabled: the parent folds the merged run.
    """

    name = "process-worker"

    def __init__(self, parent: "ProcessExecutor", run: _RunShared, worker: int):
        obs = None
        if parent.obs is not None:
            # Fresh collectors of the parent's kinds: the parent merges
            # what this worker ships back.
            trace = parent.obs.trace
            obs = Observability(
                trace=trace is not None,
                metrics=parent.obs.metrics is not None,
                capture_payloads=trace is not None and trace.capture_payloads,
            )
        # ``parent.policy`` is this process's forked copy; the parent
        # itself never queues on it.
        super().__init__(
            policy=parent.policy,
            max_ops=parent.max_ops,
            obs=obs,
            faults=run.faults,
        )
        #: Run settings (``steal``, ``timeslice``, ``checkpoint_path``)
        #: are read off the parent, shared objects off the run record —
        #: one hop each.
        self._parent = parent
        self._run = run
        self._worker = worker
        self._bell = run.bells[worker]
        #: Chaos hook: a WorkerKill aimed at *this* worker — the process
        #: SIGKILLs itself the first time its published progress counter
        #: reaches the trigger (see :meth:`_publish`).
        self._kill = (
            run.faults.kill_for(worker) if run.faults is not None else None
        )
        if self.policy.timeslice is None:
            # Run-to-block would starve the shuttles on long-running
            # contexts; preemption changes only real order, never
            # simulated results (the determinism invariant).
            self.policy.timeslice = parent.timeslice
        # ... and the run-to-block FIFO branch would additionally make the
        # worker deaf to the parent's abort flag: bounded slices, always.
        # The parent also folds the trace and metrics and profiles the run.
        self._embedded = True
        self._shuttle_moves = 0
        self._send_proxies: list[_ShuttleSender] = []
        self._recv_proxies: list[_ShuttleReceiver] = []
        #: Contexts this worker activated (own or stolen), in claim order.
        self._activated: list = []
        #: ``id(ctx) -> (cell, slot)`` for every activated context: the
        #: plain clocks this worker owns and the shared slots it
        #: publishes them to at each slice boundary.
        self._owned_clocks: dict[int, tuple[TimeCell, int]] = {}
        #: Cluster-internal Channel objects of the activated clusters.
        self._active_channels: list[Channel] = []
        self.steal_count = 0
        self.migrations: list[dict] = []
        #: Checkpoint coordination (parent-driven rounds).
        self._ckpt_seen = 0  # last epoch this worker acknowledged
        #: Progress published at the last cut this worker joined (0 at
        #: the start, as on the status board), or None once it has rung
        #: the parent about moving past it — and always None when the
        #: run takes no checkpoints.
        self._ckpt_cut = 0 if run.ckpt_board is not None else None
        self._ckpt_rounds_done = 0
        #: Stats already on an internal channel at activation time of a
        #: *resumed* run: harvest ships deltas past these so the parent's
        #: merge (which adds onto the restored base) never double-counts.
        self._ship_base: dict[int, dict] = {}

    # -- lazy cluster activation ---------------------------------------

    def _activate_cluster(
        self, spec: ClusterSpec, stolen_from: Optional[int] = None
    ) -> None:
        """Materialize ``spec`` in this worker: plain time cells on its
        contexts (their slots hold the start times the parent pre-wrote
        until the first slice boundary refreshes them), shuttle proxies
        on its cut-channel handles, fresh context states on the ready
        queue.  The caller has already won the claim, so exactly one
        worker ever runs this for a given cluster — which is what keeps
        every shuttle lane single-producer single-consumer (a fresh
        adopter's cached ring counters start at the same zeros the
        planned owner's would)."""
        run = self._run
        contexts = run.program.contexts
        channels = run.program.channels
        shuttles = run.shuttles
        resume = run.resume_records
        for slot in spec.contexts:
            ctx = contexts[slot]
            ctx.time = cell = TimeCell(run.starts[slot])
            self._owned_clocks[id(ctx)] = (cell, slot)
            for handle in ctx.senders:
                shuttle = shuttles.get(handle.channel.id)
                if shuttle is not None:
                    proxy = _ShuttleSender(handle.channel, shuttle)
                    handle.channel = proxy
                    self._send_proxies.append(proxy)
            for handle in ctx.receivers:
                shuttle = shuttles.get(handle.channel.id)
                if shuttle is not None:
                    proxy = _ShuttleReceiver(handle.channel, shuttle)
                    handle.channel = proxy
                    self._recv_proxies.append(proxy)
        if resume is not None:
            for index in spec.channels:
                channel = channels[index]
                stats = channel.stats
                self._ship_base[channel.id] = {
                    "enqueues": stats.enqueues,
                    "dequeues": stats.dequeues,
                    "peeks": stats.peeks,
                    "log_len": (
                        len(channel.profile_log)
                        if channel.profile_log is not None
                        else 0
                    ),
                }
        self._active_channels.extend(channels[i] for i in spec.channels)
        for slot in spec.contexts:
            ctx = contexts[slot]
            state = _ContextState(ctx, self.tracer)
            self._states[id(ctx)] = state
            record = resume.get(slot) if resume is not None else None
            if record is not None:
                self._apply_one_resume_record(ctx, state, record)
            if state.status != _DONE:
                self.policy.push(state, woken=False)
            self._activated.append(ctx)
        if stolen_from is not None:
            self.steal_count += 1
            record = {
                "cluster": spec.index,
                "from": stolen_from,
                "to": self._worker,
                "contexts": [contexts[slot].name for slot in spec.contexts],
            }
            self.migrations.append(record)

    def _claim_next(self, steal: bool = True) -> bool:
        """Claim and activate one cold cluster; False when none is
        claimable by this worker (own clusters exhausted and stealing is
        off — for the run, or by ``steal`` — or nothing foreign is
        cold)."""
        run = self._run
        claim = run.claim
        if claim.cold_count() == 0:
            return False
        pick: Optional[ClusterSpec] = None
        stolen_from: Optional[int] = None
        with run.claim_lock:
            if claim.cold_count() != 0:
                own = [
                    spec for spec in run.clusters
                    if spec.owner == self._worker and claim.is_cold(spec.index)
                ]
                if own:
                    pick = own[0]
                elif steal and self._parent.steal:
                    foreign = [
                        spec for spec in run.clusters
                        if spec.owner != self._worker
                        and claim.is_cold(spec.index)
                    ]
                    if foreign:
                        # Largest first: the most remaining work amortizes
                        # the activation; index breaks ties.
                        pick = max(
                            foreign, key=lambda s: (s.size, -s.index)
                        )
                        stolen_from = pick.owner
            if pick is not None:
                claim.claim(pick.index, self._worker)
        if pick is None:
            return False
        self._activate_cluster(pick, stolen_from=stolen_from)
        # A claim is progress the parent's deadlock verdict must see.
        self._shuttle_moves += 1
        self._publish(WORKER_RUNNING)
        return True

    def _publish(self, state: int) -> int:
        """Publish this worker's progress and ``state``; return the
        progress."""
        progress = self.ops_executed + self._shuttle_moves
        self._run.status.publish(self._worker, progress, state)
        if (
            self._kill is not None
            and self._kill.after_ops is not None
            and progress >= self._kill.after_ops
        ):
            # Injected crash: die exactly as an external SIGKILL would —
            # no cleanup, no payload, pipe slammed shut.
            os.kill(os.getpid(), self._kill.signal)
        return progress

    def _run_slice(self, state, timeslice) -> None:
        run = self._run
        if run.abort.is_set():
            raise _WorkerAborted()
        if self._ckpt_pending():
            self._ckpt_participate()
        # Publishing at every slice keeps the verdict honest: a worker
        # crunching local work always shows RUNNING with rising progress.
        self._publish(WORKER_RUNNING)
        super()._run_slice(state, timeslice)
        run.clocks.publish(self._owned_clocks.values())
        self._service_shuttles()
        self._ring_peers()
        cut = self._ckpt_cut
        if cut is not None and self.ops_executed + self._shuttle_moves != cut:
            # Once per round: this worker moved past the last cut it
            # joined, so the parent's next round would not cut the same
            # state again.
            self._ckpt_cut = None
            self._publish(WORKER_RUNNING)
            run.bell.ring()

    def _ring_peers(self) -> None:
        """Wake every peer that has not retired: a lane or a published
        clock of this worker moved.  Unconditional, because a peer's
        "blocked" flag read here could predate the re-check that would
        have seen the change; a ring is one non-blocking write."""
        status = self._run.status
        for peer, bell in enumerate(self._run.bells):
            if peer != self._worker and status.state(peer) != WORKER_DONE:
                bell.ring()

    def _finish(self, state) -> None:
        super()._finish(state)
        # INFINITY is the one value a peer may be waiting on for good,
        # so it is published at once instead of at the slice boundary.
        _cell, slot = self._owned_clocks[id(state.context)]
        self._run.clocks.write(slot, INFINITY)

    def _service_shuttles(self) -> int:
        moved = 0
        for proxy in self._send_proxies:
            moved += proxy.poll()
            waiter = proxy.waiting_sender
            if waiter is not None and proxy.sender_ready():
                proxy.waiting_sender = None
                self._wake(waiter)
        for proxy in self._recv_proxies:
            moved += proxy.poll()
            waiter = proxy.waiting_receiver
            if waiter is not None and proxy.receiver_ready():
                proxy.waiting_receiver = None
                self._wake(waiter)
        if moved:
            self._shuttle_moves += 1
        return moved

    # -- checkpoint participation (parent-driven rounds) ---------------

    def _ckpt_pending(self) -> bool:
        """Has the parent opened a pause round this worker has not
        joined yet?"""
        board = self._run.ckpt_board
        return board is not None and board.epoch() > self._ckpt_seen

    def _claim_own_cold(self) -> None:
        """Claim and activate every cold cluster this worker owns.

        Called at the start of a pause round: a lane whose receiving
        cluster nobody activated has no consumer to take it at the
        dump, and a cold context has no record.  Claiming through the
        board keeps the claimed-exactly-once invariant even against a
        concurrent steal.
        """
        while self._claim_next(steal=False):
            pass

    def _ckpt_participate(self) -> None:
        """One worker's side of a pause/dump round.

        Entered only at safe points (between slices or in the idle
        loop), so every local context is between ops.  From the ack on
        this worker moves nothing — no context runs, no lane is pushed
        or popped — until the parent ends the round; ``CKPT_DUMP``
        arrives once every live worker has acked, so what the inbound
        lanes hold then is final and is taken exactly once before the
        dump.  Each step rings the parent, and each command the parent
        writes rings this worker, so the round costs the dumps plus a
        few wake-ups.
        """
        run = self._run
        board = run.ckpt_board
        epoch = board.epoch()
        if epoch <= self._ckpt_seen:
            return
        self._ckpt_seen = epoch
        self._claim_own_cold()
        worker = self._worker
        dumped = False
        # Published before the ack: the parent records every live
        # worker's progress at the cut and opens the next round only
        # once it has moved.
        self._ckpt_cut = self._publish(WORKER_RUNNING)
        board.ack(worker, epoch)
        run.bell.ring()
        while True:
            self._bell.drain()
            if run.abort.is_set():
                raise _WorkerAborted()
            command = board.command()
            if board.epoch() != epoch or command == CKPT_RUN:
                return  # the round ended, or the parent abandoned it
            if command != CKPT_DUMP or dumped:
                self._bell.wait()
                continue
            for proxy in self._send_proxies + self._recv_proxies:
                proxy.poll(flush=False)
            self._dump_partition(epoch)
            board.mark_dumped(worker, epoch)
            run.bell.ring()
            dumped = True
            self._ckpt_rounds_done += 1
            kill = self._kill
            if (
                kill is not None
                and getattr(kill, "after_checkpoints", None) is not None
                and self._ckpt_rounds_done >= kill.after_checkpoints
            ):
                # Chaos hook: die right after publishing the dump —
                # the worst moment for the parent's stitch.
                os.kill(os.getpid(), kill.signal)

    def _dump_partition(self, epoch: int) -> None:
        """Write this worker's slice of the cut (tmp + rename).

        Context records cover exactly what this worker activated;
        channel entries carry internal channels whole and cut channels
        by side (the parent stitches ``send``/``recv`` halves — queued
        data lives receiver-side, credits sender-side, and each side's
        ``pending`` is what it produced that had not fit in its lane —
        into one partition-independent state).
        """
        slot_of = {
            id(ctx): slot
            for slot, ctx in enumerate(self._run.program.contexts)
        }
        records = {
            slot_of[id(ctx)]: self._context_record(self._states[id(ctx)])
            for ctx in self._activated
        }
        channels: dict[int, dict] = {}
        for channel in self._active_channels:
            channels[channel.id] = {"chan": channel.checkpoint_state()}
        for proxy in self._send_proxies:
            entry = channels.setdefault(proxy.id, {})
            entry["send"] = {
                "delta": proxy._delta,
                "resps": list(proxy._resps),
                "sender_finished": proxy._sender_finished,
                "receiver_finished": proxy._receiver_finished,
                "enqueues": proxy.stats.enqueues,
                "pending": [
                    (record[1], record[2])
                    for record in proxy._pending
                    if record[0] == DATA
                ],
            }
        for proxy in self._recv_proxies:
            entry = channels.setdefault(proxy.id, {})
            entry["recv"] = {
                "data": list(proxy._data),
                "sender_finished": proxy._sender_finished,
                "receiver_finished": proxy._receiver_finished,
                "dequeues": proxy.stats.dequeues,
                "peeks": proxy.stats.peeks,
                "max_real_occupancy": proxy.stats.max_real_occupancy,
                "profile_log": (
                    None if proxy.profile_log is None
                    else list(proxy.profile_log)
                ),
                "pending": [
                    record[1]
                    for record in proxy._pending
                    if record[0] == RESPONSE
                ],
            }
        _ckpt.save_part(
            self._parent.checkpoint_path, epoch, self._worker,
            {"records": records, "channels": channels},
        )

    def _idle(self) -> bool:
        run = self._run
        while True:
            # Drained before any flag or lane is looked at: an abort, a
            # command or a record set after this rings again, so the wait
            # at the bottom wakes at once.
            self._bell.drain()
            if run.abort.is_set():
                raise _WorkerAborted()
            if self._ckpt_pending():
                self._ckpt_participate()
                continue  # activation during the round may have queued work
            # Every slice already published on its way out; repeating it
            # here makes "a parked or retiring worker has shown its peers
            # everything" hold without that argument.
            run.clocks.publish(self._owned_clocks.values())
            moved = self._service_shuttles()
            if moved:
                self._ring_peers()
            self._poll_foreign_waiters()
            if self.policy:
                self._publish(WORKER_RUNNING)
                return True
            # The queue is dry: pull more work off the claim board before
            # retiring or sleeping — blocked contexts may be waiting on a
            # cluster nobody activated yet.
            if self._claim_next():
                return True
            if not any(
                st.status == _BLOCKED for st in self._states.values()
            ) and not any(
                proxy.outstanding()
                for proxy in self._send_proxies + self._recv_proxies
            ):
                # All activated contexts finished, nothing is claimable,
                # and every outbound record (done sentinels included) is
                # flushed: retire.
                if self._ckpt_pending():
                    # A pause round began while we were deciding to
                    # retire: participate first (the parent counts this
                    # worker as live until its payload lands).
                    continue
                self._publish(WORKER_DONE)
                return False
            if moved:
                continue
            # Blocked contexts or an outbound backlog: sleep until a ring.
            # Even a purely local cycle sleeps — the deadlock verdict is
            # the parent's, over every worker at once, so each reports
            # its contexts where they really stopped.
            self._publish(WORKER_BLOCKED)
            run.bell.ring()
            self._bell.wait()
            # Shown awake before the drain: the parent must not read a
            # worker that may act on this ring as still blocked.
            self._publish(WORKER_RUNNING)


# ----------------------------------------------------------------------
# Worker process entry point (fork target: everything arrives by
# inheritance, nothing is pickled — context generators included).
# ----------------------------------------------------------------------


def _shippable_rows(buf):
    """A buffer as it can cross the pipe: its columns, with the payload
    column blanked if a payload refuses to pickle.  The other columns
    are strings and numbers, so only a capturing buffer needs the
    probe.  Harvest is the worker's last act, so the buffer is changed
    in place."""
    if buf.payloads is not None:
        try:
            pickle.dumps(buf.payloads)
        except Exception:  # noqa: BLE001 - any payload may refuse
            buf.payloads = [None] * len(buf.payloads)
    return buf


def _harvest(executor: _WorkerExecutor) -> dict:
    """Everything the parent merges back onto the original program.

    Per-context results — trace buffers included — are keyed by the
    context's *slot* (its index in ``program.contexts``, identical in
    parent and forked child): names may legitimately repeat across
    replicated pipelines.  What a worker harvests is exactly what it
    *activated* — own and stolen clusters alike — so stolen work reports
    from its adopter, never its planned owner.
    """
    local = executor._activated
    local_channels = executor._active_channels
    send_proxies = executor._send_proxies
    recv_proxies = executor._recv_proxies
    slot_of = {
        id(ctx): slot
        for slot, ctx in enumerate(executor._run.program.contexts)
    }
    finish_times: dict[int, Any] = {}
    context_attrs: dict[int, dict] = {}
    context_stats: dict[int, dict] = {}
    trace_buffers: dict[int, Any] = {}
    for ctx in local:
        slot = slot_of[id(ctx)]
        finish_times[slot] = ctx.finish_time
        attrs = {}
        for key, value in vars(ctx).items():
            if key in _FRAMEWORK_ATTRS:
                continue
            try:
                pickle.dumps(value)
            except Exception:  # noqa: BLE001 - the one rule: ship what pickles
                continue
            attrs[key] = value
        if attrs:
            context_attrs[slot] = attrs
        # Activation registers the state before it lists the context.
        state = executor._states[id(ctx)]
        context_stats[slot] = {"ops": state.ops, "wall": state.wall_seconds}
        if state.buffer is not None:
            trace_buffers[slot] = _shippable_rows(state.buffer)

    channel_stats: dict[int, dict] = {}

    def ship(channel_id: int, stats: ChannelStats, log) -> None:
        # Accumulate, never overwrite: after a steal one worker may hold
        # *both* proxies of a cut channel (sender-side enqueues and
        # receiver-side dequeues land in separate ChannelStats).
        entry = channel_stats.setdefault(
            channel_id,
            {
                "enqueues": 0, "dequeues": 0, "peeks": 0,
                "max_real_occupancy": 0, "profile_log": None,
            },
        )
        entry["enqueues"] += stats.enqueues
        entry["dequeues"] += stats.dequeues
        entry["peeks"] += stats.peeks
        if stats.max_real_occupancy > entry["max_real_occupancy"]:
            entry["max_real_occupancy"] = stats.max_real_occupancy
        if log:
            entry["profile_log"] = log

    ship_base = executor._ship_base
    for channel in local_channels:
        stats = channel.stats
        log = channel.profile_log
        base = ship_base.get(channel.id)
        if base is not None:
            # Resumed run: the restored channel state carries the
            # pre-checkpoint totals, but the parent *also* restored them
            # (RunSummary.merge adds shipped stats onto its own) — ship
            # only what happened after activation.
            delta = ChannelStats()
            delta.enqueues = stats.enqueues - base["enqueues"]
            delta.dequeues = stats.dequeues - base["dequeues"]
            delta.peeks = stats.peeks - base["peeks"]
            delta.max_real_occupancy = stats.max_real_occupancy
            stats = delta
            if log is not None:
                log = log[base["log_len"]:]
        ship(channel.id, stats, log)
    for proxy in send_proxies:
        ship(proxy.id, proxy.stats, None)
    for proxy in recv_proxies:
        ship(proxy.id, proxy.stats, proxy.profile_log)

    return {
        "finish_times": finish_times,
        "context_attrs": context_attrs,
        "context_stats": context_stats,
        "channel_stats": channel_stats,
        "trace": trace_buffers,
        "migrations": executor.migrations,
        "counters": {
            "context_switches": executor.context_switches,
            "wakeups": executor.wakeups,
            "preemptions": executor.preemptions,
            "ops_executed": executor.ops_executed,
            "steals": executor.steal_count,
        },
    }


def _worker_main(
    parent: "ProcessExecutor", run: _RunShared, worker_index: int, conn
) -> None:
    # The inherited heap (program graph, inputs, numpy, modules) moves to
    # the permanent generation: a full collection would otherwise write
    # ``gc_refs`` into every inherited object's header, copy-on-writing
    # those pages, to find nothing.  Never unfrozen — the worker exits
    # after this one run — and fork-only: freezing zeroes the generation
    # counters, so a long-lived process that froze per run would never
    # reach a full pass (DESIGN.md §10).
    gc.freeze()
    payload: dict[str, Any] = {
        "worker": worker_index, "status": "ok", "error": None, "stalls": None,
    }
    try:
        # Every context starts as a read-only view of its published clock
        # slot (the parent pre-wrote the start times); activating a
        # cluster gives its contexts plain cells this worker publishes.
        # Until then ViewTime/WaitUntil/stall reads of *any* context —
        # cold, local, or remote — go through the shared slot.
        for slot, ctx in enumerate(run.program.contexts):
            ctx.time = SharedTimeView(run.clocks, slot)

        executor = _WorkerExecutor(parent, run, worker_index)
        try:
            # The worker starts empty; its first _idle() claims work.  It
            # returns only once every context it activated has finished:
            # a deadlock is the parent's verdict, and reaches it as an
            # abort.
            executor.execute(Program([], []))
        except _WorkerAborted:
            payload["status"] = "aborted"
            unfinished = [
                st for st in executor._states.values() if st.status != _DONE
            ]
            if unfinished:
                payload["stalls"] = executor._stall_report(unfinished).stalls
        except SimulationError as exc:
            payload["status"] = "error"
            payload["error"] = pack_exception(exc)
        payload.update(_harvest(executor))
    except BaseException as exc:  # noqa: BLE001 - everything must be reported
        payload["status"] = "error"
        if payload.get("error") is None:
            payload["error"] = pack_exception(exc)
    finally:
        try:
            conn.send(payload)
        except Exception:  # noqa: BLE001 - parent gone; nothing left to do
            pass
        try:
            conn.close()
        except Exception:  # noqa: BLE001
            pass
        run.status.publish(
            worker_index, run.status.progress(worker_index), WORKER_DONE
        )
        run.arena.close()  # release inherited views so the mapping unmaps cleanly


# ----------------------------------------------------------------------
# Parent-side checkpoint coordination.
# ----------------------------------------------------------------------


class _CkptCoordinator:
    """The parent's side of a checkpoint round (DESIGN.md §17).

    A tiny state machine stepped by ``_collect`` on every wake-up; each
    command it writes to the board rings every worker, and each worker
    step rings the parent back:

    ``idle``
        Nothing in flight.  Once some live worker's status-board
        progress has moved since the last cut (a round over a program
        nothing moved would cut the same state again, and would keep a
        deadlock from ever settling), and the timer says a capture is
        due, write the next epoch + ``CKPT_PAUSE`` to the board.
    ``pausing``
        Wait until every live worker has acknowledged the epoch.  Each
        does so at a slice boundary — its contexts all between
        operations — and from then on pushes and pops nothing, so once
        the last one has, the program is frozen: every record is in a
        proxy's queue, a proxy's unflushed backlog, or a lane, and
        stays there.  Each worker published its progress just before
        its ack; those values are the cut the next round compares
        against.
    ``dumping``
        Workers take what their inbound lanes hold and write their
        partition dumps (tmp + rename, then publish ``dumped_epoch``).
        When every live worker has published, stitch the parts with the
        retired workers' payloads into one
        :class:`~repro.core.checkpoint.Checkpoint`, save it, delete the
        parts, and return to ``idle``.

    Any abort (peer crash, deadline, user) cancels the round: the
    command word flips back to ``CKPT_RUN`` and paused workers resume.
    A stitch/save failure raises ``SimulationError`` — the caller aborts
    the run (a checkpointing run that cannot checkpoint should fail
    loudly, not silently stop protecting the user).
    """

    def __init__(self, run: _RunShared, timer, path: str, executor_name: str):
        self._run = run
        self._board = run.ckpt_board
        self._timer = timer
        self._path = path
        self._executor = executor_name
        self._phase = "idle"
        self._epoch = timer.epoch
        #: Each worker's progress at the last cut; the status board
        #: starts every counter at 0.
        self._cut: dict[int, int] = {}

    @property
    def active(self) -> bool:
        return self._phase != "idle"

    def _command(self, command: int) -> None:
        """Publish ``command`` for round ``_epoch``; ring every worker."""
        self._board.request(self._epoch, command)
        for bell in self._run.bells:
            bell.ring()

    def cancel(self) -> None:
        if self._phase != "idle":
            self._command(CKPT_RUN)
            self._phase = "idle"

    def step(self, live: set, payloads: dict) -> Optional[float]:
        """One step on a wake-up.  ``live`` is the set of workers whose
        payloads have not landed yet; ``payloads`` the landed ones.
        Returns the wall time a round waits on, when only the timer
        holds it back."""
        if not live:
            # Everyone retired mid-round (or before one): nothing left
            # to cut — the run is completing normally.
            self.cancel()
            return None
        board = self._board
        status = self._run.status
        if self._phase == "idle":
            if all(status.progress(w) == self._cut.get(w, 0) for w in live):
                return None
            if not self._timer.due():
                return self._timer.due_at()
            self._epoch = self._timer.epoch + 1
            self._command(CKPT_PAUSE)
            self._phase = "pausing"
            return None
        rows = [board.row(worker) for worker in live]
        if self._phase == "pausing":
            if all(ack == self._epoch for ack, _ in rows):
                self._cut = {w: status.progress(w) for w in live}
                self._command(CKPT_DUMP)
                self._phase = "dumping"
        elif all(dumped == self._epoch for _, dumped in rows):
            self._finish(live, payloads)
        return None

    def _finish(self, live: set, payloads: dict) -> None:
        try:
            checkpoint = self._stitch(live, payloads)
            checkpoint.save(self._path)
        except Exception as exc:
            self._command(CKPT_RUN)
            self._phase = "idle"
            raise SimulationError("<checkpoint>", exc) from exc
        self._command(CKPT_RUN)
        self._phase = "idle"
        _ckpt.remove_parts(self._path, self._epoch)
        self._timer.mark()

    def _stitch(self, live: set, payloads: dict) -> "_ckpt.Checkpoint":
        """Merge live workers' partition dumps and retired workers'
        harvested payloads into one partition-independent checkpoint."""
        program = self._run.program
        parts = {
            worker: _ckpt.load_part(self._path, self._epoch, worker)
            for worker in sorted(live)
        }
        retired = [
            payloads[worker] for worker in sorted(payloads)
            if payloads[worker].get("status") == "ok"
        ]

        records: dict[int, dict] = {}
        for part in parts.values():
            records.update(part["records"])
        for payload in retired:
            attrs_by_slot = payload.get("context_attrs") or {}
            for slot, finish in (payload.get("finish_times") or {}).items():
                if slot in records:
                    continue
                ctx = program.contexts[slot]
                shipped = attrs_by_slot.get(slot) or {}
                records[slot] = {
                    "kind": "done",
                    "attrs": {
                        name: shipped[name]
                        for name in ctx.checkpoint_attrs
                        if name in shipped
                    },
                    "clock": finish,
                    "finish_time": finish,
                }
        missing = [
            slot for slot in range(len(program.contexts))
            if slot not in records
        ]
        if missing:
            names = ", ".join(
                program.contexts[slot].name for slot in missing[:5]
            )
            raise CheckpointError(
                f"epoch {self._epoch}: no state for context(s) {names} "
                f"(neither a live partition dump nor a retired worker's "
                f"payload covers them)"
            )

        channels: dict[int, dict] = {}
        for slot, channel in enumerate(program.channels):
            entries = [
                part["channels"][channel.id]
                for part in parts.values()
                if channel.id in part["channels"]
            ]
            whole = next(
                (e["chan"] for e in entries if "chan" in e), None
            )
            if whole is not None:
                # Cluster-internal on a live worker: the dumped state
                # already carries the full totals (restored base
                # inherited at fork, plus everything since).
                channels[slot] = whole
                continue
            # Cut channel (or internal to retired clusters): start from
            # the parent's fork-time base, add the retired workers'
            # shipped deltas, then the live proxies' sides.
            state = channel.checkpoint_state()
            stats = state["stats"]
            log = state["profile_log"]
            for payload in retired:
                shipped = (
                    payload.get("channel_stats") or {}
                ).get(channel.id)
                if shipped is None:
                    continue
                stats["enqueues"] += shipped["enqueues"]
                stats["dequeues"] += shipped["dequeues"]
                stats["peeks"] += shipped["peeks"]
                if shipped["max_real_occupancy"] > stats["max_real_occupancy"]:
                    stats["max_real_occupancy"] = shipped["max_real_occupancy"]
                if shipped.get("profile_log"):
                    log = (log or []) + list(shipped["profile_log"])
            send = next((e["send"] for e in entries if "send" in e), None)
            recv = next((e["recv"] for e in entries if "recv" in e), None)
            if send is not None:
                state["delta"] = send["delta"]
                state["resps"] = list(send["resps"])
                stats["enqueues"] += send["enqueues"]
            if recv is not None:
                state["data"] = list(recv["data"])
                stats["dequeues"] += recv["dequeues"]
                stats["peeks"] += recv["peeks"]
                if recv["max_real_occupancy"] > stats["max_real_occupancy"]:
                    stats["max_real_occupancy"] = recv["max_real_occupancy"]
                if recv["profile_log"]:
                    log = (log or []) + list(recv["profile_log"])
            # Finished flags: each side is authoritative for its own
            # endpoint (the other may not have seen the done sentinel
            # yet), and a missing side means that endpoint's cluster
            # retired — i.e. the endpoint finished.
            if send is not None:
                state["sender_finished"] = send["sender_finished"]
            elif recv is not None:
                state["sender_finished"] = recv["sender_finished"]
            elif entries or retired:
                state["sender_finished"] = True
            if recv is not None:
                state["receiver_finished"] = recv["receiver_finished"]
            elif send is not None:
                state["receiver_finished"] = send["receiver_finished"]
            elif entries or retired:
                state["receiver_finished"] = True
            if send is not None and recv is not None:
                # In flight at the cut: what a side produced that had
                # not fit in its lane goes behind what the other side
                # holds, which is where the FIFO lane would have put it
                # — unless that endpoint finished (dead letters).
                if not state["receiver_finished"]:
                    state["data"] += send["pending"]
                if not state["sender_finished"]:
                    state["resps"] += recv["pending"]
            if send is None and recv is None and retired:
                # Both endpoints retired: the queue is semantically
                # empty (whatever physically remains is dead letters of
                # a closed channel).
                state["data"] = []
                state["resps"] = []
                state["delta"] = 0
            state["profile_log"] = log
            channels[slot] = state

        placement: dict[str, int] = {}
        for spec in self._run.clusters:
            owner = self._run.claim.claimant(spec.index)
            if owner < 0:
                owner = spec.owner
            for slot in spec.contexts:
                placement[program.contexts[slot].name] = owner

        return _ckpt.Checkpoint.capture(
            program,
            self._epoch,
            records,
            metrics=None,
            placement=placement,
            executor=self._executor,
            channel_states=channels,
        )


# ----------------------------------------------------------------------
# The parent-side executor.
# ----------------------------------------------------------------------


@register_executor("process")
class ProcessExecutor(Executor):
    """Partition the program across forked workers; merge the results.

    Parameters
    ----------
    workers:
        Number of worker processes requested.  The partitioner may use
        fewer (e.g. a fully connected graph yields one group); empty
        groups spawn no process.
    policy:
        Scheduling policy for each worker's cooperative scheduler.  A
        finite timeslice is forced so shuttles are serviced at bounded
        intervals.
    weights:
        Optional per-channel traffic weights for the partitioner,
        typically :func:`~repro.core.executor.partition.channel_weights`
        from a profiling run of an identically-built program.
    pins:
        Manual placement: ``id(context) -> worker index``, merged over
        (and overriding) the program's builder-declared
        ``partition_pins``.  Pinning promises co-location/separation,
        not absolute worker numbering (empty groups are compacted).
        With ``steal=True`` pins bind the *initial* placement; a pinned
        cluster left cold may still be migrated to an idle worker.
    steal:
        Allow idle workers to claim (steal) cold clusters planned for
        other workers (default on).  Migration happens before a cluster
        starts running, so simulated results are unchanged;
        ``steal=False`` restores strict planned placement.
    ring_capacity:
        Bytes per cut channel's data ring (a shared-memory SPSC ring); a
        record that cannot fit raises
        :class:`~repro.core.executor.shm.RecordTooLarge`.  The response
        ring carries one float per record and is sized
        ``min(ring_capacity, 64 KiB)``.
    timeslice:
        Ops per slice forced on a run-to-block policy, so shuttles are
        serviced and clocks published at bounded intervals.
    max_ops:
        Per-worker safety valve (forwarded to each worker's scheduler).
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        policy: str | SchedulingPolicy = "fifo",
        max_ops: Optional[int] = None,
        obs: Optional[Observability] = None,
        weights: Optional[dict[str, float]] = None,
        pins: Optional[dict[int, int]] = None,
        steal: bool = True,
        ring_capacity: int = 1 << 20,
        timeslice: int = 1024,
        deadline_s: Optional[float] = None,
        faults=None,
        metrics_interval_s: Optional[float] = None,
        metrics_sink=None,
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.policy = make_policy(policy)
        self.max_ops = max_ops
        self.obs = obs
        self.weights = weights
        self.pins = pins
        self.steal = steal
        self.ring_capacity = ring_capacity
        self.timeslice = timeslice
        self.deadline_s = deadline_s
        self.faults = faults
        self.metrics_interval_s = metrics_interval_s
        self.metrics_sink = metrics_sink
        #: Checkpointing (DESIGN.md §17): when ``checkpoint_path`` is
        #: set, the parent coordinates the rounds — workers pause at a
        #: slice boundary, dump partitions, and the parent stitches
        #: them into one on-disk checkpoint.
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoint_path = checkpoint_path
        #: Set by _collect when the run was aborted for its deadline, so
        #: _resolve_failures raises RunTimeoutError instead of reading the
        #: aborted workers' stalls as a deadlock.
        self._deadline_hit = False
        self.context_switches = 0
        self.wakeups = 0
        self.preemptions = 0
        self.ops_executed = 0
        self.steals = 0
        #: Cluster migrations performed by the last run (diagnostics):
        #: ``{"cluster", "from", "to", "contexts"}`` dicts.
        self.migrations: list[dict] = []
        #: The partition used by the last run (diagnostics).
        self.plan: Optional[PartitionPlan] = None
        #: The cluster refinement of the last run's partition.
        self.clusters: Optional[list[ClusterSpec]] = None

    # ------------------------------------------------------------------

    def execute(self, program: Program) -> RunSummary:
        start = _wallclock.perf_counter()
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SimulationError(
                "<process-executor>",
                RuntimeError(
                    "the process executor requires the fork start method "
                    "(context generators cannot be pickled)"
                ),
            )
        mp_ctx = multiprocessing.get_context("fork")

        pins = dict(getattr(program, "partition_pins", None) or {})
        if self.pins:
            pins.update(self.pins)
        plan = plan_partition(
            program, self.workers, weights=self.weights, pins=pins or None
        )
        self.plan = plan
        # Empty groups (fewer components than workers) spawn no process;
        # compaction preserves co-location and separation.
        groups = [group for group in plan.groups if group]
        compact: dict[int, int] = {}
        for worker, group in enumerate(plan.groups):
            if group:
                compact[worker] = len(compact)
        assignment = {
            ctx_id: compact[worker]
            for ctx_id, worker in plan.assignment.items()
        }
        clusters = plan_clusters(program, assignment)
        self.clusters = clusters

        # Resume bookkeeping: pop the records *before* forking so the
        # workers inherit them via the run record (never through the
        # program object, which a later fresh run would then misread).
        resume_records = program.__dict__.pop("_resume_records", None)
        resume_epoch = (
            getattr(program, "_resume_epoch", 0)
            if resume_records is not None
            else 0
        )
        ckpt_timer = self._arm_checkpoints(program, resume_epoch)
        if self.obs is not None and self.obs.trace is not None:
            # Build the traced slice loop once, here, so every forked
            # worker inherits it instead of compiling its own.
            traced_fast_loop()

        contexts = program.contexts
        # A response record is one float; its ring never needs more.
        resp_capacity = min(self.ring_capacity, 1 << 16)
        layout = ArenaLayout()
        clocks_len = SharedClockArray.size_for(len(contexts))
        clocks_off = layout.reserve(clocks_len)
        status_len = StatusBoard.size_for(len(groups))
        status_off = layout.reserve(status_len)
        claim_len = ClaimBoard.size_for(len(clusters))
        claim_off = layout.reserve(claim_len)
        ckpt_len = ckpt_off = 0
        if ckpt_timer is not None:
            ckpt_len = CheckpointBoard.size_for(len(groups))
            ckpt_off = layout.reserve(ckpt_len)
        ring_offsets = [
            (
                layout.reserve(ShmRing.size_for(self.ring_capacity)),
                layout.reserve(ShmRing.size_for(resp_capacity)),
            )
            for _ in plan.cut
        ]

        arena = SharedArena(layout.size)

        def ring(offset: int, capacity: int) -> ShmRing:
            view = arena.view(offset, ShmRing.size_for(capacity))
            return arena.adopt(ShmRing(view, capacity))

        # Declared before the try so the wind-down in ``finally`` sees
        # whatever was spawned, on *every* exit path: a KeyboardInterrupt
        # (or any parent-side failure) must still terminate-then-join the
        # children and unlink the arena, or the host leaks processes and
        # /dev/shm segments.
        procs: list = []
        conns: dict = {}
        abort = None
        sampler = None
        # The workers' doorbells, then the parent's: closed on every
        # exit path too (each worker's copies close with its process).
        bells: list[Doorbell] = []
        self._deadline_hit = False
        try:
            for _ in range(len(groups) + 1):
                bells.append(Doorbell())
            clocks = arena.adopt(
                SharedClockArray(
                    arena.view(clocks_off, clocks_len), len(contexts)
                )
            )
            # Pre-publish every context's start time so cold contexts
            # read correctly through SharedTimeView before activation.
            starts = [ctx.time.now() for ctx in contexts]
            for slot, start_time in enumerate(starts):
                clocks.write(slot, float(start_time))
            status = arena.adopt(
                StatusBoard(arena.view(status_off, status_len), len(groups))
            )
            claim = arena.adopt(
                ClaimBoard(arena.view(claim_off, claim_len), len(clusters))
            )
            for spec in clusters:
                claim.set_owner(spec.index, spec.owner)
            ckpt_board = None
            if ckpt_timer is not None:
                ckpt_board = arena.adopt(
                    CheckpointBoard(
                        arena.view(ckpt_off, ckpt_len), len(groups)
                    )
                )
            faults = (
                self.faults.resolve(len(groups))
                if self.faults is not None
                else None
            )
            shuttles: dict[int, ChannelShuttle] = {}
            for channel, (data_off, resp_off) in zip(plan.cut, ring_offsets):
                data_lane = ring(data_off, self.ring_capacity)
                stall = (
                    faults.stall_for(channel.name)
                    if faults is not None
                    else None
                )
                if stall is not None:
                    # Chaos hook: every worker forks its own copy of
                    # the wrapper, and only the receiving side ever pops
                    # a data lane — exactly the delivery path stalls.
                    data_lane = StalledLane(data_lane, stall.after_records)
                shuttles[channel.id] = ChannelShuttle(
                    channel.id, data_lane, ring(resp_off, resp_capacity)
                )
            abort = mp_ctx.Event()
            run = _RunShared(
                program=program,
                clusters=clusters,
                starts=starts,
                arena=arena,
                clocks=clocks,
                status=status,
                claim=claim,
                claim_lock=mp_ctx.Lock(),
                shuttles=shuttles,
                abort=abort,
                bells=bells[:-1],
                bell=bells[-1],
                ckpt_board=ckpt_board,
                faults=faults,
                resume_records=resume_records,
            )
            coordinator = (
                _CkptCoordinator(
                    run, ckpt_timer, self.checkpoint_path, self.name
                )
                if ckpt_timer is not None
                else None
            )

            # Live metric streaming samples the *shared* clock slots from
            # the parent: workers publish their contexts' times to the
            # arena anyway, so the sampler adds zero work to any worker.
            sampler = self._start_sampler(
                self.metrics_interval_s,
                self._sampler_probe(contexts, clocks, status),
                self.metrics_sink,
            )

            for worker in range(len(groups)):
                parent_conn, child_conn = mp_ctx.Pipe(duplex=False)
                proc = mp_ctx.Process(
                    target=_worker_main,
                    args=(self, run, worker, child_conn),
                    name=f"dam-worker-{worker}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                procs.append(proc)
                conns[parent_conn] = worker

            payloads = self._collect(run, conns, procs, start, coordinator)
            self._resolve_failures(run, payloads, start)
            trace = self.obs.trace if self.obs is not None else None
            summary = RunSummary.merge(
                program,
                [payloads[worker] for worker in sorted(payloads)],
                trace=trace,
            )
        finally:
            # The sampler reads arena memory; stop it before the unmap.
            self._stop_sampler(sampler, self.obs)
            self._wind_down(procs, conns, abort)
            for bell in bells:
                bell.close()
            arena.close()
            arena.unlink()
            if self.checkpoint_path is not None:
                # A cancelled round (crash, deadline, abort) leaves its
                # partition dumps behind; with every worker wound down
                # it is now safe to sweep them.
                try:
                    _ckpt.clean_stale_temps(self.checkpoint_path)
                except OSError:  # pragma: no cover - directory vanished
                    pass

        self.context_switches += summary.context_switches
        self.wakeups += summary.wakeups
        self.preemptions += summary.preemptions
        self.ops_executed += summary.ops_executed
        self.steals += summary.steals
        self.migrations = [
            migration
            for worker in sorted(payloads)
            for migration in payloads[worker].get("migrations", ())
        ]
        if trace is not None:
            # Steals land in a worker-scoped pseudo-buffer, never in a
            # migrated context's buffer: per-context event streams (and
            # their seq counters) stay schedule-independent.
            for migration in self.migrations:
                trace.buffer(f"<worker-{migration['to']}>").append(
                    "migrate", None, 0, dict(migration)
                )
        # Observed placement: planned owners, overridden by every recorded
        # steal.  This is the feedback loop the planner consumes via
        # pins_from_placement() — without it, channel_weights-style
        # replanning keeps crediting stolen clusters to their original
        # owner and re-plans the same skew forever.
        placement = {
            program.contexts[slot].name: spec.owner
            for spec in clusters
            for slot in spec.contexts
        }
        for migration in self.migrations:
            for name in migration["contexts"]:
                placement[name] = migration["to"]
        summary.placement = placement
        summary.executor = self.name
        summary.policy = self.policy.name
        summary.real_seconds = _wallclock.perf_counter() - start
        summary.metrics = self._fold_metrics(program, plan, payloads)
        self._attach_profile(summary, program, self.obs)
        return summary

    def _sampler_probe(self, contexts, clocks: SharedClockArray, status: StatusBoard):
        """Read-only closure for the live sampler: every context's
        shared-memory clock slot, total worker progress, and the parent
        registry when metrics are enabled."""
        obs = self.obs
        registry = obs.metrics if obs is not None else None

        def probe() -> dict:
            progress, _states = status.snapshot()
            sample: dict = {
                "contexts": {
                    ctx.name: clocks.read(slot)
                    for slot, ctx in enumerate(contexts)
                },
                "progress": progress,
            }
            if registry is not None:
                sample["metrics"] = registry.snapshot()
            return sample

        return probe

    # ------------------------------------------------------------------

    def _collect(
        self, run: _RunShared, conns: dict, procs, start: float,
        coordinator: Optional[_CkptCoordinator],
    ) -> dict:
        """Receive worker payloads; double as the crash supervisor, the
        deadline enforcer, the checkpoint coordinator's clock, and the
        global deadlock verdict.

        The parent sleeps on the result pipes, the process sentinels and
        its doorbell, which a worker rings when it goes to sleep and at
        each checkpoint step; its only timeouts are the deadline, the
        next round's due time, and ``_JOIN_TIMEOUT`` after an abort.
        Crash supervision is two-layered: a dead worker's result pipe hits
        EOF (its write end closes with the process), and its process
        sentinel fires — both are waited on, so a SIGKILLed worker is
        detected at once even if something keeps its pipe fd alive.
        Either way the worker is recorded as ``"crashed"`` with its exit
        code, claimed contexts, and last-published clocks snapshotted off
        the shared boards while they are still mapped.
        """
        abort = run.abort
        payloads: dict[int, dict] = {}
        pending = dict(conns)
        deadline_at = (
            start + self.deadline_s if self.deadline_s is not None else None
        )
        abort_until: Optional[float] = None
        round_at: Optional[float] = None
        while pending:
            sentinels = {
                procs[worker].sentinel: (conn, worker)
                for conn, worker in pending.items()
            }
            due = [t for t in (abort_until or deadline_at, round_at) if t]
            timeout = None
            if due:
                timeout = max(0.0, min(due) - _wallclock.perf_counter())
            ready = _mpconn.wait([run.bell, *pending, *sentinels], timeout)
            # Drained before anything is read: a ring from here on
            # wakes the next wait at once.
            run.bell.drain()
            for item in ready:
                if item in pending:
                    conn, worker = item, pending[item]
                elif item in sentinels:
                    conn, worker = sentinels[item]
                    # The process died.  A final payload may still sit in
                    # the pipe (normal exit races its own sentinel); only
                    # an empty pipe means a crash, and recv below turns
                    # that into EOFError.
                else:
                    continue  # the doorbell
                if worker in payloads:
                    continue  # both wait objects fired for one worker
                pending.pop(conn, None)
                try:
                    payloads[worker] = conn.recv()
                except (EOFError, OSError):
                    payloads[worker] = self._crash_payload(
                        run, worker, procs[worker]
                    )
                conn.close()
                if payloads[worker]["status"] not in ("ok", "aborted"):
                    self._abort(run)  # wind the surviving workers down
            now = _wallclock.perf_counter()
            if deadline_at is not None and not self._deadline_hit \
                    and now >= deadline_at:
                # Deadline: flip the abort switch and keep collecting —
                # workers park their state into "aborted" payloads
                # (stalls included) that feed the RunTimeoutError.
                self._deadline_hit = True
                self._abort(run)
            if abort.is_set():
                if coordinator is not None:
                    coordinator.cancel()
                round_at = None
                if abort_until is None:
                    abort_until = now + _JOIN_TIMEOUT
                elif now >= abort_until and pending:
                    # Workers ignored the abort for a whole _JOIN_TIMEOUT
                    # (wedged in uninterruptible state): stop waiting and
                    # record them as crashed; _wind_down terminates them.
                    for conn, worker in list(pending.items()):
                        payloads[worker] = self._crash_payload(
                            run, worker, procs[worker]
                        )
                        pending.pop(conn)
                        conn.close()
                continue
            if coordinator is not None:
                # A stitch failure raises out of here; the abort in
                # between winds the workers down on the way out.
                try:
                    round_at = coordinator.step(
                        set(pending.values()), payloads
                    )
                except BaseException:
                    self._abort(run)
                    raise
                if coordinator.active:
                    # Paused workers sit still on purpose: a checkpoint
                    # round is not a deadlock.
                    continue
            if pending and self._quiescent(run, list(pending.values())):
                self._abort(run)
        for proc in procs:
            proc.join(timeout=_JOIN_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        return payloads

    @staticmethod
    def _quiescent(run: _RunShared, live: list) -> bool:
        """The global deadlock verdict.  Every live worker asleep on its
        doorbell (``BLOCKED``), no cold cluster left to claim, and no
        doorbell holding a ring — with the status rows read twice around
        that check and agreeing — means nothing is left that could wake
        anyone: a worker publishes ``RUNNING`` before it drains a ring,
        and every change another worker could act on is rung after it is
        made."""
        status = run.status
        first = [(status.progress(w), status.state(w)) for w in live]
        if any(state != WORKER_BLOCKED for _, state in first):
            return False
        if run.claim.cold_count() or _mpconn.wait(
            [run.bells[worker] for worker in live], timeout=0
        ):
            return False
        return first == [(status.progress(w), status.state(w)) for w in live]

    @staticmethod
    def _abort(run: _RunShared) -> None:
        """Pull the abort switch and ring every worker awake to see it."""
        run.abort.set()
        for bell in run.bells:
            bell.ring()

    @staticmethod
    def _crash_payload(run: _RunShared, worker: int, proc) -> dict:
        """Post-mortem for a dead worker: exit code, the contexts it had
        claimed, and their last-published clocks (read off the shared
        boards before the arena is unlinked)."""
        proc.join(timeout=0.2)  # give the exit code a beat to land
        contexts: list[str] = []
        clock_map: dict[str, float] = {}
        for spec in run.clusters:
            if run.claim.claimant(spec.index) != worker:
                continue
            for slot in spec.contexts:
                name = run.program.contexts[slot].name
                contexts.append(name)
                clock_map[name] = run.clocks.read(slot)
        return {
            "worker": worker, "status": "crashed", "error": None,
            "stalls": None, "exitcode": proc.exitcode,
            "contexts": contexts, "clocks": clock_map,
        }

    def _wind_down(self, procs, conns, abort) -> None:
        """Terminate-then-join every worker and close the parent pipe
        ends.  Runs in ``execute``'s finally on every exit path —
        KeyboardInterrupt included — so no exit can strand children (the
        shm segment unlink follows immediately after)."""
        if abort is not None:
            try:
                abort.set()
            except Exception:  # noqa: BLE001 - wind-down must not raise
                pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=_JOIN_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
                proc.join(timeout=1.0)
        for conn in conns:
            try:
                conn.close()
            except Exception:  # noqa: BLE001
                pass

    def _resolve_failures(
        self, run: _RunShared, payloads: dict, start: float
    ) -> None:
        """Raise the run's failure, if any: error > crash > timeout >
        deadlock."""
        for payload in payloads.values():
            if payload["status"] == "error":
                info = payload.get("error") or {}
                exc = unpack_exception(info)
                if isinstance(exc, DamError):  # SimulationError included
                    raise exc
                raise SimulationError(
                    f"<worker {payload['worker']}>", exc
                ) from exc
        for worker, payload in sorted(payloads.items()):
            if payload["status"] != "crashed":
                continue
            if self._deadline_hit and payload.get("exitcode") is None:
                # Not a real death: the deadline abort's escape hatch
                # force-recorded a worker that ignored the abort flag for a
                # whole _JOIN_TIMEOUT (it was still alive — no exit code).
                # That is the *timeout's* collateral, not a crash.
                continue
            error = WorkerCrashError(
                worker,
                exitcode=payload.get("exitcode"),
                contexts=payload.get("contexts"),
                clocks=payload.get("clocks"),
            )
            self._report_supervisor_event("crash", error)
            raise error
        if any(p["status"] == "aborted" for p in payloads.values()):
            stalls = []
            for payload in payloads.values():
                if payload.get("stalls"):
                    stalls.extend(payload["stalls"])
            report = self._publish_stalls(stalls)
            if self._deadline_hit:
                error = self._timeout_failure(run, payloads, report, start)
                self._report_supervisor_event("timeout", error)
                raise error
            raise DeadlockError(report.lines())
        if self._deadline_hit:
            # Reached when every worker either raced to completion as the
            # deadline fired or was force-recorded by the escape hatch.
            error = self._timeout_failure(
                run, payloads, StallReport([]), start
            )
            self._report_supervisor_event("timeout", error)
            raise error

    def _timeout_failure(
        self, run: _RunShared, payloads: dict, report: StallReport,
        start: float,
    ) -> RunTimeoutError:
        """Build the deadline abort without mutating ``program``: finish
        times come from the aborted workers' harvests, everything else
        from the shared clock board (a lower bound on each context)."""
        finish: dict[int, Any] = {}
        ops = 0
        for payload in payloads.values():
            for slot, t in payload.get("finish_times", {}).items():
                if t is not None:
                    finish[slot] = t
            ops += payload.get("counters", {}).get("ops_executed", 0)
        context_times = {
            ctx.name: finish.get(slot, run.clocks.read(slot))
            for slot, ctx in enumerate(run.program.contexts)
        }
        summary = RunSummary(
            elapsed_cycles=max(finish.values(), default=0),
            real_seconds=_wallclock.perf_counter() - start,
            context_times=context_times,
            executor=self.name,
            policy=self.policy.name,
            ops_executed=ops,
        )
        return RunTimeoutError(
            self.deadline_s,
            executor=self.name,
            summary=summary,
            stall_report=report,
        )

    def _report_supervisor_event(self, kind: str, error) -> None:
        """Feed the failure into the run's observability: a supervisor
        pseudo-buffer event in the trace merge, a crash report on the
        obs handle, and a counter in the metrics registry."""
        if self.obs is None:
            return
        if kind == "crash":
            self.obs.crash_report = error
        if self.obs.metrics is not None:
            name = "worker_crashes" if kind == "crash" else "run_timeouts"
            self.obs.metrics.counter(name).inc()
        if self.obs.trace is not None:
            payload: dict[str, Any] = {"error": str(error)}
            if kind == "crash":
                payload.update(
                    worker=error.worker,
                    exitcode=error.exitcode,
                    contexts=list(error.contexts),
                )
            self.obs.trace.buffer("<supervisor>").append(
                kind, None, 0, payload
            )

    def _fold_metrics(
        self, program: Program, plan: PartitionPlan, payloads: dict
    ) -> Optional[dict]:
        if self.obs is None or self.obs.metrics is None:
            return None
        registry = self.obs.metrics
        fold_channel_metrics(registry, program.channels)
        for payload in payloads.values():
            for slot, tallies in payload.get("context_stats", {}).items():
                ctx = program.contexts[slot]
                fold_context_metrics(
                    registry,
                    ctx.name,
                    ops=tallies["ops"],
                    finish_time=ctx.finish_time,
                    wall_seconds=tallies["wall"],
                )
        registry.counter("executor_context_switches").inc(self.context_switches)
        registry.counter("executor_wakeups").inc(self.wakeups)
        registry.counter("executor_preemptions").inc(self.preemptions)
        registry.counter("executor_ops").inc(self.ops_executed)
        registry.gauge("process_workers").set(plan.workers_used)
        registry.gauge("process_cut_channels").set(len(plan.cut))
        registry.counter("process_steals").inc(self.steals)
        registry.counter("process_migrated_contexts").inc(
            sum(len(m["contexts"]) for m in self.migrations)
        )
        return registry.snapshot()
