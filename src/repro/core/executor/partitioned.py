"""Process-parallel executor: partitioned graphs, cut channels over lanes.

The GIL caps the threaded executor at one core; this executor recovers
DAM's wall-clock scaling by partitioning ``program.contexts`` across
**forked worker processes** (:mod:`repro.core.executor.partition`), running
each partition under the existing cooperative scheduler, and bridging the
*cut* channels — those whose endpoints land in different workers — over
shared-memory lanes (:mod:`repro.core.executor.shm`).

Why the simulated results stay bit-identical
--------------------------------------------

Channel semantics are pure functions of simulated state (the FIFO contents
and the endpoint clocks — see :mod:`repro.core.channel`).  A cut channel is
a :class:`~repro.core.channel.Channel` at each end and two FIFO lanes
between them.  Each activated side is a clone of the channel — same id,
name, parameters and trace ports, its own queues and stats — that its
contexts drive exactly as they would drive the original, so every
transition, void and flavor change is ``Channel``'s.  The queue the *other*
side drains is this side's outbox, which a lane pump flushes at slice
boundaries:

* **data lane** (sender partition → receiver partition): the sender
  clone's ``_data``, the ``(stamp, data)`` tuples an in-process channel
  would queue, then a done sentinel once the sending context has finished
  and the outbox is empty (applied as ``close_sender()``, the
  channel-close transition);
* **response lane** (receiver → sender): the receiver clone's ``_resps``,
  the dequeue-time responses that drive backpressure, then a done
  sentinel once the receiving context has finished (applied as
  ``close_receiver()``, the channel-void transition).

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
channel leaving a cluster is a planned-cut channel already bridged by two
lanes, activation by *any* worker creates no new communication paths:
the adopter clones the same channels onto the same lanes and publishes
into the same clock slots the planned owner would have, and since a
cluster is claimed exactly once (one inherited lock guards the board) the
SPSC property of every lane is preserved.  Simulated results cannot change —
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
from dataclasses import dataclass
from multiprocessing import connection as _mpconn
from typing import Any, Optional

from ...obs import Observability
from ...obs.stall import StallReport
from .. import checkpoint as _ckpt
from ..channel import Channel, ChannelStats
from ..errors import (
    CheckpointError,
    DamError,
    DeadlockError,
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
from . import runners
from .shm import (
    CKPT_PAUSE,
    CKPT_RUN,
    WORKER_BLOCKED,
    WORKER_DONE,
    WORKER_RUNNING,
    ArenaLayout,
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


#: Inbound records one lane pump takes per call (``_LanePump.pump``).
PUMP_BATCH = 4096

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
    #: ``channel id -> (data lane, response lane)`` of every cut channel.
    lanes: dict[int, tuple]
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


def _placement(run: _RunShared) -> list[int]:
    """The worker that claimed each program slot's cluster (-1 while it is
    cold): where every slot ran, stolen clusters credited to their
    adopter.  By slot, not name: replicated pipelines share names."""
    placement = [-1] * len(run.program.contexts)
    for spec in run.clusters:
        for slot in spec.contexts:
            placement[slot] = run.claim.claimant(spec.index)
    return placement


# ----------------------------------------------------------------------
# Cut channels: a Channel at each end, two lanes between them.
# ----------------------------------------------------------------------


class _LanePump:
    """One activated side of a cut channel.

    ``channel`` is a clone of the cut :class:`Channel` — same id, name,
    parameters and trace ports, its own queues and stats — that the
    side's contexts drive as they would the original, on the runners'
    open-coded path.  The queue the *peer* drains is this side's outbox
    (the sender's ``_data``, the receiver's ``_resps``): :meth:`pump`
    flushes it onto the outbound lane, and once it is empty and this
    side's endpoint has finished, sends the done sentinel (``None``)
    once, unless the peer finished first.  Inbound records land in the
    clone's other queue, and the peer's sentinel is applied as
    ``close_receiver()`` / ``close_sender()``, so every transition, void
    and flavor change is ``Channel``'s.
    """

    __slots__ = ("channel", "sender", "_out", "_in", "_outbox", "_inbox", "_done")

    def __init__(self, channel: Channel, lanes: tuple, sender: bool):
        clone = Channel(
            channel.capacity, channel.latency, channel.resp_latency,
            channel.name, channel.real,
        )
        clone.id = channel.id
        clone.sender_owner = channel.sender_owner
        clone.receiver_owner = channel.receiver_owner
        clone._enq_port = channel._enq_port
        clone._deq_port = channel._deq_port
        clone._peek_port = channel._peek_port
        # Seeded from the channel: pristine on a fresh run, the restored
        # state on a resumed one.  The sender side takes the window, the
        # receiver side the queued data; stats start at zero, since the
        # parent adds each side's onto its base.
        clone._sender_finished = channel._sender_finished
        clone._receiver_finished = channel._receiver_finished
        data_lane, resp_lane = lanes
        if sender:
            clone._delta = channel._delta
            clone._resps.extend(channel._resps)
            self._out, self._in = data_lane, resp_lane
            self._outbox, self._inbox = clone._data, clone._resps
        else:
            clone._data.extend(channel._data)
            self._out, self._in = resp_lane, data_lane
            self._outbox, self._inbox = clone._resps, clone._data
        clone._select_codes()
        self.channel = clone
        self.sender = sender
        # An endpoint that finished before the fork (a resumed run) owes
        # no sentinel: the peer's clone was seeded with the same flag.
        self._done = self._finished()[0]

    def _finished(self) -> tuple[bool, bool]:
        """Whether this side's endpoint and the peer's have finished."""
        channel = self.channel
        if self.sender:
            return channel._sender_finished, channel._receiver_finished
        return channel._receiver_finished, channel._sender_finished

    def _owes_done(self) -> bool:
        mine, peer = self._finished()
        return mine and not peer and not self._done

    def outstanding(self) -> bool:
        """Is anything left to send: outbox records or the sentinel?"""
        return bool(self._outbox) or self._owes_done()

    def pump(self) -> int:
        """Flush the outbox and the sentinel it owes, then take what the
        inbound lane holds, at most :data:`PUMP_BATCH` records; returns
        the number of records moved (truthy iff progress).  The bound
        matters: a peer that pushes as fast as this loop pops would keep
        it here, and the receiver it would wake would never run."""
        moved = 0
        outbox = self._outbox
        out = self._out
        while outbox and out.try_push(outbox[0]):
            outbox.popleft()
            moved += 1
        if not outbox and self._owes_done() and out.try_push(None):
            self._done = True
            moved += 1
        channel = self.channel
        inbox = self._inbox
        mine = self._finished()[0]
        for _ in range(PUMP_BATCH):
            ok, record = self._in.try_pop()
            if not ok:
                break
            moved += 1
            if record is None:
                # The peer finished: this side's outbox is dead letters.
                if self.sender:
                    channel.close_receiver()
                else:
                    channel.close_sender()
            elif not mine:
                inbox.append(record)
                if not self.sender and len(inbox) > channel.stats.max_real_occupancy:
                    channel.stats.max_real_occupancy = len(inbox)
        return moved


# ----------------------------------------------------------------------
# The per-worker executor.
# ----------------------------------------------------------------------


class _WorkerExecutor(SequentialExecutor):
    """The cooperative scheduler, extended with lane pumping and lazy
    cluster activation (work stealing).

    Differences from the plain sequential executor:

    * the worker starts with an *empty* program and pulls work from the
      shared claim board: its own cold clusters first, then — when
      ``steal`` is on — other workers' (largest first).  Activating a
      cluster gives its contexts plain local time cells, points every
      cut-channel handle at a clone of its channel with a lane pump,
      and pushes the fresh context states onto the ready queue;
    * a finite timeslice is forced even under run-to-block policies, so
      at bounded intervals the owned clocks are published to their
      shared slots, the lanes are pumped (outboxes flushed, inbound
      records taken, parked endpoints woken) and the peers' doorbells
      rung;
    * :meth:`_idle` — reached when the local ready queue empties —
      pumps lanes and polls remote-clock waiters, claims more work when
      the board has any, and otherwise sleeps on its doorbell, published
      as blocked — a purely local cycle included, since the deadlock
      verdict is the parent's; it returns ``False`` only when every
      activated context has finished, nothing is claimable and the
      outbound backlog is flushed;
    * metrics folding is disabled: the parent folds the merged run.
    """

    name = "process-worker"

    def __init__(
        self, parent: "ProcessExecutor", run: _RunShared, worker: int, conn
    ):
        obs = None
        if parent.obs is not None:
            # A fresh registry (the parent folds the merged run), and the
            # parent's collector as forked: the worker only makes its
            # buffers with it (the run's port table) and ships them home.
            obs = Observability(trace=False, metrics=parent.obs.metrics is not None)
            obs.trace = parent.obs.trace
        # ``parent.policy`` is this process's forked copy; the parent
        # itself never queues on it.
        super().__init__(policy=parent.policy, obs=obs, faults=run.faults)
        #: Run settings (``steal``, ``timeslice``, ``checkpoint_path``)
        #: are read off the parent, shared objects off the run record —
        #: one hop each.
        self._parent = parent
        self._run = run
        self._worker = worker
        self._bell = run.bells[worker]
        #: The result pipe: checkpoint dumps, then the final payload.
        self._conn = conn
        #: Chaos hook: a WorkerKill aimed at *this* worker — the process
        #: SIGKILLs itself the first time its published progress counter
        #: reaches the trigger (see :meth:`_publish`).
        self._kill = (
            run.faults.kill_for(worker) if run.faults is not None else None
        )
        if self.policy.timeslice is None:
            # Run-to-block would starve the lanes on long-running
            # contexts; preemption changes only real order, never
            # simulated results (the determinism invariant).
            self.policy.timeslice = parent.timeslice
        # Embedded: every slice is bracketed by this class's
        # _begin_slice / _end_slice (the abort flag, lanes, checkpoint
        # rounds), and the parent folds the trace and metrics and
        # profiles the run.
        self._embedded = True
        self._shuttle_moves = 0
        #: One per activated side of a cut channel, in activation order.
        self._pumps: list[_LanePump] = []
        #: Slots of the contexts this worker activated (own or stolen),
        #: in claim order.
        self._activated: list[int] = []
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
        #: Runner shapes inherited from the parent; harvest reports the
        #: ones this worker compiles on top.
        self._shapes_inherited = len(runners.compiled())

    # -- lazy cluster activation ---------------------------------------

    def _activate_cluster(
        self, spec: ClusterSpec, stolen_from: Optional[int] = None
    ) -> None:
        """Materialize ``spec`` in this worker: plain time cells on its
        contexts (their slots hold the start times the parent pre-wrote
        until the first slice boundary refreshes them), channel clones
        with lane pumps on its cut-channel handles, fresh context states
        on the ready queue.  The caller has already won the claim, so
        exactly one worker ever runs this for a given cluster — which is
        what keeps every lane single-producer single-consumer (a fresh
        adopter's cached ring counters start at the same zeros the
        planned owner's would)."""
        run = self._run
        contexts = run.program.contexts
        channels = run.program.channels
        resume = run.resume_records
        for slot in spec.contexts:
            ctx = contexts[slot]
            ctx.time = cell = TimeCell(run.starts[slot])
            self._owned_clocks[id(ctx)] = (cell, slot)
            for sender, handles in ((True, ctx.senders), (False, ctx.receivers)):
                for handle in handles:
                    lanes = run.lanes.get(handle.channel.id)
                    if lanes is not None:
                        pump = _LanePump(handle.channel, lanes, sender)
                        handle.channel = pump.channel
                        self._pumps.append(pump)
        for index in spec.channels:
            # Since activation, like a clone: the parent adds what this
            # worker ships onto its own (restored) base.  In place: a
            # runner bound to the channel holds its stats object.
            channels[index].stats.__init__()
            self._active_channels.append(channels[index])
        for slot in spec.contexts:
            ctx = contexts[slot]
            state = _ContextState(ctx, self.tracer)
            self._states[id(ctx)] = state
            record = resume.get(slot) if resume is not None else None
            if record is not None:
                self._apply_one_resume_record(ctx, state, record)
            if state.status != _DONE:
                self.policy.push(state, woken=False)
            self._activated.append(slot)
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
                            foreign, key=lambda s: (len(s.contexts), -s.index)
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

    def _begin_slice(self, state, timeslice: int) -> int:
        if self._run.abort.is_set():
            raise _WorkerAborted()
        if self._ckpt_pending():
            self._ckpt_participate()
        # Publishing at every slice keeps the verdict honest: a worker
        # crunching local work always shows RUNNING with rising progress.
        self._publish(WORKER_RUNNING)
        return super()._begin_slice(state, timeslice)

    def _end_slice(self, state) -> None:
        run = self._run
        run.clocks.publish(self._owned_clocks.values())
        self._pump_lanes()
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

    def _pump_lanes(self) -> int:
        """Pump every lane; wake an endpoint parked on a clone that can
        now make progress.  (A clone's peer endpoint is remote, so it
        has at most the one local waiter.)"""
        moved = 0
        for pump in self._pumps:
            moved += pump.pump()
            channel = pump.channel
            waiter = channel.waiting_sender
            if waiter is not None and channel.sender_ready():
                channel.waiting_sender = None
                self._wake(waiter)
            waiter = channel.waiting_receiver
            if waiter is not None and channel.receiver_ready():
                channel.waiting_receiver = None
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

    def _ckpt_participate(self) -> None:
        """One worker's side of a checkpoint round (DESIGN.md §17).

        Entered only at safe points (between slices or in the idle
        loop), so every local context is between ops.  The worker claims
        its own cold clusters (a cold context has no record, and a
        channel side nobody activated is in no dump; through the board,
        so each is still claimed exactly once), publishes its progress —
        the cut the parent's next round compares against — and sends
        its dump over its result pipe: the dump's arrival is its
        acknowledgement.  From then on it moves
        nothing — no context runs, no lane is pushed or popped — until
        the parent ends the round, so what the parent reads off the
        lanes once every dump has landed is what the cut holds.
        """
        run = self._run
        board = run.ckpt_board
        epoch = self._ckpt_seen = board.epoch()
        while self._claim_next(steal=False):
            pass
        self._ckpt_cut = self._publish(WORKER_RUNNING)
        self._conn.send(self._dump(epoch))
        self._ckpt_rounds_done += 1
        kill = self._kill
        if (
            kill is not None
            and kill.after_checkpoints is not None
            and self._ckpt_rounds_done >= kill.after_checkpoints
        ):
            # Chaos hook: die right after sending the dump — the worst
            # moment for the parent's stitch.
            os.kill(os.getpid(), kill.signal)
        while True:
            self._bell.drain()
            if run.abort.is_set():
                raise _WorkerAborted()
            if board.epoch() != epoch or board.command() == CKPT_RUN:
                return  # the round ended, or the parent abandoned it
            self._bell.wait()

    def _dump(self, epoch: Optional[int] = None) -> dict:
        """This worker's slice of a cut: a record for each context it
        activated, and each channel side it holds as its
        ``checkpoint_state()`` — internal channels whole (``chan``), cut
        channels by side (``send`` / ``recv``), outbox included.
        ``epoch`` names the round; a retiring worker's final dump, which
        stands in for it at every later round, has none."""
        contexts = self._run.program.contexts
        channels = {
            channel.id: {"chan": channel.checkpoint_state()}
            for channel in self._active_channels
        }
        for pump in self._pumps:
            entry = channels.setdefault(pump.channel.id, {})
            entry["send" if pump.sender else "recv"] = pump.channel.checkpoint_state()
        return {
            "epoch": epoch,
            "records": {
                slot: self._context_record(self._states[id(contexts[slot])])
                for slot in self._activated
            },
            "channels": channels,
        }

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
            moved = self._pump_lanes()
            if moved:
                self._ring_peers()
            self._poll_foreign_waiters()
            if self.policy.queue:
                self._publish(WORKER_RUNNING)
                return True
            # The queue is dry: pull more work off the claim board before
            # retiring or sleeping — blocked contexts may be waiting on a
            # cluster nobody activated yet.
            if self._claim_next():
                return True
            if not any(
                st.status == _BLOCKED for st in self._states.values()
            ) and not any(pump.outstanding() for pump in self._pumps):
                # All activated contexts finished, nothing is claimable,
                # and every outbound record (done sentinels included) is
                # flushed: retire.  A round opened meanwhile reads this
                # worker's final dump instead.
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
    column blanked if a payload refuses to pickle.  The port and time
    columns are ints (or floats), so only a capturing buffer needs the
    probe; and the port ids are the run's, numbered before the fork, so
    the table stays home: the parent's fold decodes them through its own
    (:meth:`~repro.obs.TraceCollector.fold`).  Harvest is the worker's
    last act, so the buffer is changed in place."""
    buf.table = None
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
    contexts = executor._run.program.contexts
    finish_times: dict[int, Any] = {}
    context_attrs: dict[int, dict] = {}
    context_stats: dict[int, dict] = {}
    trace_buffers: dict[int, Any] = {}
    for slot in executor._activated:
        ctx = contexts[slot]
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

    def ship(channel_id: int, stats: ChannelStats, occupancy: int) -> None:
        # Accumulate, never overwrite: after a steal one worker may hold
        # *both* sides of a cut channel (sender-side enqueues and
        # receiver-side dequeues land in separate ChannelStats).  Every
        # side counts since its activation (zeroed, or a fresh clone).
        entry = channel_stats.setdefault(
            channel_id,
            {"enqueues": 0, "dequeues": 0, "peeks": 0, "max_real_occupancy": 0},
        )
        entry["enqueues"] += stats.enqueues
        entry["dequeues"] += stats.dequeues
        entry["peeks"] += stats.peeks
        if occupancy > entry["max_real_occupancy"]:
            entry["max_real_occupancy"] = occupancy

    for channel in executor._active_channels:
        ship(channel.id, channel.stats, channel.stats.max_real_occupancy)
    for pump in executor._pumps:
        clone = pump.channel
        # The sender side's queue is its outbox: its depth is no
        # occupancy of the channel.
        occupancy = 0 if pump.sender else clone.stats.max_real_occupancy
        ship(clone.id, clone.stats, occupancy)

    return {
        "finish_times": finish_times,
        "context_attrs": context_attrs,
        "context_stats": context_stats,
        "channel_stats": channel_stats,
        "trace": trace_buffers,
        "migrations": executor.migrations,
        "shapes": runners.compiled()[executor._shapes_inherited:],
        "counters": {
            "context_switches": executor.context_switches,
            "wakeups": executor.wakeups,
            "preemptions": executor.preemptions,
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

        executor = _WorkerExecutor(parent, run, worker_index, conn)
        try:
            # The worker starts empty; its first _idle() claims work.  It
            # returns only once every context it activated has finished:
            # a deadlock is the parent's verdict, and reaches it as an
            # abort.
            executor.execute(Program([], []))
            if run.ckpt_board is not None:
                # Retired, having claimed all of its own clusters: every
                # later round stitches this dump in its stead.
                payload["dump"] = executor._dump()
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
    """The parent's side of a checkpoint round (DESIGN.md §17), stepped
    by ``_collect`` on every wake-up.

    Idle, it opens a round once some live worker's status-board progress
    has moved since the last cut (a round over a program nothing moved
    would cut the same state again, and would keep a deadlock from ever
    settling) and the timer says a capture is due: the next epoch with
    ``CKPT_PAUSE``, which rings every worker.  Each worker stops at its
    next safe point and sends its dump over its result pipe
    (``_collect`` files it in :attr:`dumps`), then moves nothing.  Once
    every live worker's dump for the epoch has landed, nothing moves:
    :meth:`_stitch` reads the lanes, folds the dumps into one
    :class:`~repro.core.checkpoint.Checkpoint` and saves it, and
    ``CKPT_RUN`` releases the workers.

    Any abort (peer crash, deadline, user) cancels the round: the
    command word flips back to ``CKPT_RUN``.  A stitch/save failure
    raises ``SimulationError`` — the caller aborts the run (a
    checkpointing run that cannot checkpoint should fail loudly, not
    silently stop protecting the user).
    """

    def __init__(self, run: _RunShared, timer, path: str, executor_name: str):
        self._run = run
        self._timer = timer
        self._path = path
        self._executor = executor_name
        self.active = False
        self._epoch = timer.epoch
        #: Each worker's progress at the last cut; the status board
        #: starts every counter at 0.
        self._cut: dict[int, int] = {}
        #: Each live worker's latest round dump, by worker.
        self.dumps: dict[int, dict] = {}

    def _command(self, command: int) -> None:
        """Publish ``command`` for round ``_epoch``; ring every worker."""
        self._run.ckpt_board.request(self._epoch, command)
        for bell in self._run.bells:
            bell.ring()
        self.active = command == CKPT_PAUSE

    def cancel(self) -> None:
        if self.active:
            self._command(CKPT_RUN)

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
        status = self._run.status
        if not self.active:
            if all(status.progress(w) == self._cut.get(w, 0) for w in live):
                return None
            if not self._timer.due():
                return self._timer.due_at()
            self._epoch = self._timer.epoch + 1
            self._command(CKPT_PAUSE)
            return None
        if any(
            self.dumps.get(w, {}).get("epoch") != self._epoch for w in live
        ):
            return None
        self._cut = {w: status.progress(w) for w in live}
        dumps = [self.dumps[w] for w in sorted(live)]
        dumps += [payloads[w]["dump"] for w in sorted(payloads)]
        try:
            self._stitch(dumps).save(self._path)
        except Exception as exc:
            raise SimulationError("<checkpoint>", exc) from exc
        finally:
            self._command(CKPT_RUN)
        self._timer.mark()
        return None

    def _stitch(self, dumps: list) -> "_ckpt.Checkpoint":
        """Fold the dumps into one partition-independent checkpoint.

        Every context and every channel side is in exactly one dump:
        each cluster is claimed once, and a worker dumps or retires only
        once it has claimed all of its own.  A cut channel's queues are
        its two sides and its two lanes in FIFO order — data ``recv +
        lane + send``, responses ``send + lane + recv`` — with each side
        authoritative for its own endpoint's finished flag, and a queue
        addressed to a finished endpoint dropped as dead letters.  Every
        side's stats count since its activation and add onto the
        parent's fork-time base (``max_real_occupancy``: the maximum,
        without the sender side's, which is its outbox depth).
        """
        run = self._run
        program = run.program
        records: dict[int, dict] = {}
        sides: dict[int, dict] = {}
        for dump in dumps:
            records.update(dump["records"])
            for channel_id, entry in dump["channels"].items():
                sides.setdefault(channel_id, {}).update(entry)
        if len(records) != len(program.contexts):
            raise CheckpointError(
                f"epoch {self._epoch}: {len(program.contexts) - len(records)} "
                f"context(s) are in no worker's dump"
            )
        channels: dict[int, dict] = {}
        for slot, channel in enumerate(program.channels):
            entry = sides[channel.id]
            state = channel.checkpoint_state()
            stats = state["stats"]
            for name, side in entry.items():
                for field in ("enqueues", "dequeues", "peeks"):
                    stats[field] += side["stats"][field]
                occupancy = side["stats"]["max_real_occupancy"]
                if name != "send" and occupancy > stats["max_real_occupancy"]:
                    stats["max_real_occupancy"] = occupancy
            if "chan" in entry:
                channels[slot] = dict(entry["chan"], stats=stats)
                continue
            send, recv = entry["send"], entry["recv"]
            data_lane, resp_lane = run.lanes[channel.id]
            # A lane's ``None`` is its done sentinel, which the sending
            # side's finished flag already says.
            channels[slot] = dict(
                state,
                delta=send["delta"],
                sender_finished=send["sender_finished"],
                receiver_finished=recv["receiver_finished"],
                data=[] if recv["receiver_finished"] else (
                    recv["data"]
                    + [r for r in data_lane.unread() if r is not None]
                    + send["data"]
                ),
                resps=[] if send["sender_finished"] else (
                    send["resps"]
                    + [r for r in resp_lane.unread() if r is not None]
                    + recv["resps"]
                ),
            )

        return _ckpt.Checkpoint.capture(
            program,
            self._epoch,
            records,
            metrics=None,
            placement=_placement(run),
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
        finite timeslice is forced so lanes are pumped at bounded
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
        :func:`~repro.core.executor.partition.pins_from_placement`
        replays a recorded run's placement,
        :func:`~repro.core.executor.partition.pins_from_summary`
        re-balances it by the run's measured ops.
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
        Ops per slice forced on a run-to-block policy, so lanes are
        pumped and clocks published at bounded intervals.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        policy: str | SchedulingPolicy = "fifo",
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
        #: slice boundary and send their dumps, and the parent stitches
        #: them and the lanes into one on-disk checkpoint.
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoint_path = checkpoint_path
        #: Set by _collect when the run was aborted for its deadline, so
        #: execute raises RunTimeoutError instead of reading the aborted
        #: workers' stalls as a deadlock.
        self._deadline_hit = False
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
        trace = self.obs.trace if self.obs is not None else None
        if trace is not None:
            # Before the fork: the workers inherit the numbered channels.
            trace.start_run(program.channels)

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
        if ckpt_timer is not None:
            ckpt_off = layout.reserve(CheckpointBoard.SIZE)
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
            ckpt_board = None
            if ckpt_timer is not None:
                ckpt_board = arena.adopt(
                    CheckpointBoard(arena.view(ckpt_off, CheckpointBoard.SIZE))
                )
            faults = (
                self.faults.resolve(len(groups))
                if self.faults is not None
                else None
            )
            lanes: dict[int, tuple] = {}
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
                lanes[channel.id] = (data_lane, ring(resp_off, resp_capacity))
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
                lanes=lanes,
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
                self._sampler_probe(
                    contexts,
                    lambda: {"progress": status.snapshot()[0]},
                    clocks.read,
                ),
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
            report = self._resolve_failures(payloads)
            summary = RunSummary.merge(
                program,
                [payloads[worker] for worker in sorted(payloads)],
                trace=trace,
            )
            summary.executor = self.name
            summary.policy = self.policy.name
            # Observed placement: the feedback loop the planner consumes
            # via pins_from_placement() — without it, channel_weights-style
            # replanning keeps crediting stolen clusters to their original
            # owner and re-plans the same skew forever.
            summary.placement = _placement(run)
            ops = [0] * len(contexts)
            wall: list = [None] * len(contexts)
            for payload in payloads.values():
                for slot, tallies in payload.get("context_stats", {}).items():
                    ops[slot], wall[slot] = tallies["ops"], tallies["wall"]
            if self._deadline_hit:
                # What the workers harvested is folded, as for a
                # deadlock; an unfinished context reads its last
                # published clock.
                summary.context_times = {
                    ctx.name: (
                        ctx.finish_time if ctx.finish_time is not None
                        else clocks.read(slot)
                    )
                    for slot, ctx in enumerate(contexts)
                }
                summary.context_ops, summary.ops_executed = ops, sum(ops)
                summary.real_seconds = _wallclock.perf_counter() - start
                raise self._timed_out(summary, report)
            if report is not None:
                raise DeadlockError(report.lines())
        finally:
            # The sampler reads arena memory; stop it before the unmap.
            self._stop_sampler(sampler, self.obs)
            self._wind_down(procs, conns, abort)
            for bell in bells:
                bell.close()
            arena.close()
            arena.unlink()

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
        summary.real_seconds = _wallclock.perf_counter() - start
        registry = self.obs.metrics if self.obs is not None else None
        if registry is not None:
            registry.gauge("process_workers").set(plan.workers_used)
            registry.gauge("process_cut_channels").set(len(plan.cut))
            registry.counter("process_steals").inc(summary.steals)
            registry.counter("process_migrated_contexts").inc(
                sum(len(m["contexts"]) for m in self.migrations)
            )
        summary.metrics = self._fold_metrics(program, summary, ops, wall)
        self._attach_profile(summary, program, self.obs)
        # The next fork inherits what this run's workers had to compile.
        runners.warm(
            key for payload in payloads.values()
            for key in payload.get("shapes", ())
        )
        return summary

    # ------------------------------------------------------------------

    def _collect(
        self, run: _RunShared, conns: dict, procs, start: float,
        coordinator: Optional[_CkptCoordinator],
    ) -> dict:
        """Receive worker payloads; double as the crash supervisor, the
        deadline enforcer, the checkpoint coordinator's clock, and the
        global deadlock verdict.

        The parent sleeps on the result pipes (which also carry each
        worker's checkpoint dumps), the process sentinels and its
        doorbell, which a worker rings when it goes to sleep or moves
        past a cut; its only timeouts are the deadline, the
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
                    # The process died.  A final payload or a dump may
                    # still sit in the pipe (normal exit races its own
                    # sentinel); only an empty pipe means a crash, and
                    # recv below turns that into EOFError.
                else:
                    continue  # the doorbell
                if worker in payloads:
                    continue  # both wait objects fired for one worker
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = self._crash_payload(run, worker, procs[worker])
                if "status" not in message:
                    # A checkpoint dump: the worker joined the round.
                    coordinator.dumps[worker] = message
                    continue
                pending.pop(conn)
                payloads[worker] = message
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
        for slot, claimant in enumerate(_placement(run)):
            if claimant == worker:
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

    def _resolve_failures(self, payloads: dict) -> Optional[StallReport]:
        """Raise the run's failure, if any: error > crash.  A timeout or
        a deadlock returns the workers' stall report instead, to be
        raised once their harvests (trace, channel stats, finish times)
        are folded."""
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
        if self._deadline_hit or any(
            p["status"] == "aborted" for p in payloads.values()
        ):
            return self._publish_stalls([
                stall
                for payload in payloads.values()
                for stall in payload.get("stalls") or ()
            ])
        return None
