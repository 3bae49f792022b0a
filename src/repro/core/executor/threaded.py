"""One-thread-per-context executor with SVA/SVP-style synchronization.

This is the Python analog of the DAM-RS runtime (paper Section IV): every
context runs on its own OS thread (``superblocks="off"``; by default each
connected component of the graph shares one cluster-driver thread
instead, DESIGN.md §15), there is no global clock and no event queue, and
synchronization is strictly pairwise:

* **SVA (Synchronization via Atomics)** — reading a peer's
  :class:`~repro.core.time.TimeCell` is a plain attribute load; under
  CPython the GIL gives it the acquire semantics the paper obtains from
  x86 total-store-order loads.  ``ViewTime`` compiles to exactly this.

* **SVP (Synchronization via Parking)** — when a context must wait for a
  peer's clock (or for channel state to change) it parks on a
  ``threading.Condition``, the portable analog of a futex park/unpark
  pair, and is woken by the peer's releasing operation.

Under the GIL this executor does not deliver the paper's wall-clock
*speedups* (documented substitution in DESIGN.md); on a free-threaded
CPython build, where the registry also knows it as ``"free-threaded"``,
the same threads run in parallel.  Either way the synchronization
algorithm, blocking structure, and — critically — the simulated results are
those of the paper's runtime.  Cross-executor tests assert cycle-exact
agreement with :class:`~repro.core.executor.sequential.SequentialExecutor`.

Deadlock detection is exact and runs on the main thread.  A host thread
(a context's own, or a cluster driver) parks only after re-checking what
it waits on, registering the condition it sleeps on and the predicate that
would let it proceed; everything that could make that predicate true —
a channel transition, a clock advance or publication, a checkpoint
command, an abort — notifies that condition.  The main thread sleeps on
the run's one :class:`threading.Condition` until every live host is
parked, re-reads each parked host's predicate under its own lock, and
reads the park registry again: if every predicate still fails and no host
parked, woke or exited in between, nothing can wake anyone, and it aborts
the run with a stall report — each blocked context, the channel it is
parked on, and the simulated clocks of both of that channel's endpoints.

Observability: attach a :class:`repro.obs.Observability` (``obs=``) to
trace the run.  Each context appends to its own lock-free buffer from the
thread that hosts it, so tracing does not perturb the synchronization
schedule; the joined run folds the buffers into the collector in program
slot order, yielding the rows the sequential executor produces.
"""

from __future__ import annotations

import threading
import time as _wallclock
from typing import Any, Optional

from ...obs import Observability
from ...obs.events import ADVANCE, FINISH
from ...obs.stall import StallReport, stall_for
from .. import checkpoint as _ckpt
from ..channel import _EMPTY, Channel
from ..context import Context
from ..errors import (
    ChannelClosed,
    DamError,
    DeadlockError,
    NotCheckpointable,
    RunTimeoutError,
    SimulationError,
)
from ..ops import (
    AdvanceTo,
    Dequeue,
    Enqueue,
    FusedOps,
    IncrCycles,
    Peek,
    ViewTime,
    WaitUntil,
)
from ..program import Program
from .base import Executor, RunSummary
from .partition import normalize_mode, plan_clusters
from .registry import register_executor
from .runners import compile_shape
from .sequential import SequentialExecutor, blocked_on


class _Aborted(Exception):
    """Internal: the run was aborted (deadlock, deadline or peer failure)."""


class _TimeSync:
    """Park/unpark support for WaitUntil on one context's clock."""

    __slots__ = ("cond", "waiter_count")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.waiter_count = 0


@register_executor("threaded")
class ThreadedExecutor(Executor):
    """Executes contexts on OS threads: one per context, or one per
    connected component (``superblocks``, DESIGN.md §15).

    Parameters
    ----------
    obs:
        A :class:`repro.obs.Observability` collecting the run's trace
        and/or metrics.
    """

    name = "threaded"

    def __init__(
        self,
        obs: Optional[Observability] = None,
        deadline_s: Optional[float] = None,
        faults=None,
        metrics_interval_s: Optional[float] = None,
        metrics_sink=None,
        superblocks: Any = "auto",
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
    ):
        self.obs = obs
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoint_path = checkpoint_path
        #: Hosting (DESIGN.md §15), and nothing else decides it: "off"
        #: runs every context on its own thread (the paper's runtime),
        #: anything else runs every connected component on one cluster
        #: driver.  Results are identical either way (the determinism
        #: invariant).
        self.superblocks = superblocks
        self.deadline_s = deadline_s
        self.faults = faults
        self.metrics_interval_s = metrics_interval_s
        self.metrics_sink = metrics_sink
        #: The cluster drivers' one ``_plan_tag``: an op they share is
        #: bound once, not once per driver that meets it.
        self._plan_tag = object()

    def _reset_run(self) -> None:
        """Per-run state: an instance may execute several programs."""
        #: Runner shapes the drivers asked the supervising thread to
        #: compile (``[key, result, done]``), guarded by ``_cv``; and
        #: whether it still serves them.
        self._compiles: list = []
        self._supervising = False
        self._fault_map: dict = {}
        self._deadline_at: Optional[float] = None
        self._abort = threading.Event()
        #: Live op count for the sampler and a timed-out run's summary.
        #: Every thread bumps it unlocked, so without the GIL it may lose
        #: updates: approximate by design.  The exact count is the sum
        #: of ``_ctx_ops``.
        self._progress = 0
        self._errors: list[BaseException] = []
        #: The run's one condition: cluster drivers park and wait out
        #: checkpoint rounds on it, and the main thread sleeps on it.
        #: It also guards everything below.
        self._cv = threading.Condition()
        #: Host threads not yet exited.
        self._live = 0
        #: Parked hosts (a context's slot, or a cluster driver) -> the
        #: condition each sleeps on and the predicate that would let it
        #: proceed, which holds under that condition's lock.
        self._parked_hosts: dict[Any, tuple[threading.Condition, Any]] = {}
        #: Bumped whenever a host parks or exits: the main thread's two
        #: reads of a deadlock verdict must see the same value.
        self._park_gen = 0
        # Structured park sites for stall reports: program slot ->
        # (detail, channel, peer context); names repeat across
        # replicated pipelines.
        self._blocked_sites: dict[int, tuple[str, Optional[Channel], Optional[Context]]] = {}
        # -- checkpoint rounds (DESIGN.md §17) -------------------------
        # A round is a barrier of the live cluster drivers at their
        # slice boundaries, all under ``_cv``: a driver about to run a
        # slice opens one when the timer is due, every other driver
        # joins at its next boundary with its members' records and
        # waits, and whoever makes ``acked == live`` — the last to join,
        # or a driver leaving — captures and ends the round.  With every
        # live driver waiting, nothing can mutate a channel or clock.
        self._ckpt_timer: Any = None
        self._ckpt_open = False
        # Round counter: a joined driver waits for the *round it joined*
        # to end, not for a boolean to flip — back-to-back rounds
        # (interval <= 0) would otherwise swallow the flip and strand it
        # in a stale wait.
        self._ckpt_round = 0
        self._ckpt_acked = 0
        self._ckpt_records: dict[int, dict] = {}
        self._resume_records: Optional[dict[int, dict]] = None
        self._slots: dict[int, int] = {}

    # ------------------------------------------------------------------

    def execute(self, program: Program) -> RunSummary:
        start = _wallclock.perf_counter()
        self._start = start
        self._reset_run()
        per_context = normalize_mode(self.superblocks) == "off"
        if per_context and (
            self.checkpoint_path is not None
            or getattr(program, "_resume_records", None) is not None
        ):
            # Safe points are slice boundaries, and only a cluster
            # driver has them.
            raise NotCheckpointable(
                [],
                reason=(
                    'superblocks="off" runs one thread per context, which '
                    "has no checkpoint safe points: it can neither capture "
                    "(checkpoint_path) nor resume a restored program; use "
                    'superblocks="on"/"auto" or another executor'
                ),
            )
        # One fault map for the run, shared by every thread: whoever
        # pops a context's trigger fires it (a dict pop is GIL- and
        # per-object-lock safe).
        self._arm_deadline_and_faults(start)
        self._program = program
        self._slots = {id(ctx): slot for slot, ctx in enumerate(program.contexts)}
        self._ckpt_timer = self._arm_checkpoints(
            program, getattr(program, "_resume_epoch", 0)
        )
        # Handed to the drivers slot by slot (_ClusterDriver.
        # _take_resume_records).
        self._resume_records = program.__dict__.pop("_resume_records", None)
        obs = self.obs
        trace = obs.trace if obs is not None else None
        # Per-context trace buffers and metric tallies are created here,
        # on the main thread, by slot (names may repeat across replicated
        # pipelines), so worker threads only ever touch their own entry
        # (the lock-free discipline).  A cluster driver hands back its
        # members' buffers when it ends; the joined run folds them all.
        self._buffers = [None] * len(program.contexts)
        if trace is not None:
            trace.start_run(program.channels)
            self._buffers = [trace.context_buffer(ctx.name) for ctx in program.contexts]
        self._collect_metrics = obs is not None and obs.metrics is not None
        # Per-context tallies, by slot (names may repeat across
        # replicated pipelines).  Each entry is written only by the
        # thread that drives the context, and read after the joins.
        self._ctx_ops = [0] * len(program.contexts)
        self._ctx_parks = [0] * len(program.contexts)
        self._ctx_spins = [0] * len(program.contexts)
        self._ctx_wall = [0.0] * len(program.contexts)
        # One (context_switches, wakeups, preemptions) row per retired
        # cluster driver; empty under "off", where the OS schedules.
        self._driver_counts: list[tuple[int, int, int]] = []

        if per_context:
            self._time_sync = {id(ctx): _TimeSync() for ctx in program.contexts}
            for ctx in program.contexts:
                self._install_advance_hook(ctx)
            threads = [
                threading.Thread(
                    target=self._drive, args=(ctx,), name=f"dam-{ctx.name}", daemon=True
                )
                for ctx in program.contexts
            ]
        else:
            # Cluster members keep unhooked clocks: foreign observers
            # read them, woken by each slice boundary's notify.
            threads = [
                threading.Thread(
                    target=self._drive_cluster,
                    args=(contexts, channels),
                    name=f"dam-cluster-{contexts[0].name}",
                    daemon=True,
                )
                for contexts, channels in self._plan_drivers(program)
            ]
        self._live = len(threads)
        self._supervising = True
        for thread in threads:
            thread.start()

        sampler = self._start_sampler(
            self.metrics_interval_s,
            self._sampler_probe(
                program.contexts, lambda: {"ops_executed": self._progress}
            ),
            self.metrics_sink,
        )
        try:
            self._supervise()
            for thread in threads:
                thread.join()
        finally:
            self._abort_run()
            self._stop_sampler(sampler, obs)
        if trace is not None:
            trace.fold(self._buffers)

        for ctx in program.contexts:
            ctx.time.on_advance = None

        if self._errors:
            error = self._errors[0]
            if isinstance(error, DamError):
                raise error
            raise SimulationError("<threaded>", error) from error
        if any(ctx.finish_time is None for ctx in program.contexts):
            raise DeadlockError(self._stall_report().lines())

        counts = self._driver_counts
        summary = self._summary(
            program, start, "os",
            context_switches=sum(row[0] for row in counts),
            wakeups=sum(row[1] for row in counts),
            preemptions=sum(row[2] for row in counts),
            ops_executed=sum(self._ctx_ops),
        )
        summary.metrics = self._fold_metrics(
            program, summary, self._ctx_ops, self._ctx_wall,
            self._ctx_parks, self._ctx_spins,
        )
        self._attach_profile(summary, program, obs)
        return summary

    # ------------------------------------------------------------------

    def _stall_report(self) -> StallReport:
        """Build the deadlock diagnosis from the recorded park sites."""
        with self._cv:
            sites = dict(self._blocked_sites)
        stalls = []
        for slot, ctx in enumerate(self._program.contexts):
            if ctx.finish_time is not None:
                continue
            detail, channel, peer = sites.get(slot, ("not started", None, None))
            stalls.append(stall_for(ctx, detail, channel=channel, peer=peer))
        return self._publish_stalls(stalls)

    # ------------------------------------------------------------------

    def _install_advance_hook(self, ctx: Context) -> None:
        sync = self._time_sync[id(ctx)]

        def notify(_now: Any, _sync: _TimeSync = sync) -> None:
            # Fast path: nobody is parked on this clock.
            if _sync.waiter_count:
                with _sync.cond:
                    _sync.cond.notify_all()

        ctx.time.on_advance = notify

    # ------------------------------------------------------------------
    # Cluster hosting (DESIGN.md §15): every connected component runs on
    # ONE thread via an embedded SequentialExecutor.  Member clocks are
    # plain unhooked cells that observers on other drivers read directly
    # (SVA), woken by the run's condition at each slice boundary.

    @staticmethod
    def _plan_drivers(
        program: Program,
    ) -> list[tuple[list[Context], list[Any]]]:
        """One ``(contexts, channels)`` group per driver thread: each
        multi-context connected component, plus one pool of all the
        single-context ones (a union of components is still closed under
        channels)."""
        groups: list[tuple[list[Context], list[Any]]] = []
        pool: tuple[list[Context], list[Any]] = ([], [])
        for spec in plan_clusters(
            program, {id(ctx): 0 for ctx in program.contexts}
        ):
            group = pool if spec.size == 1 else ([], [])
            group[0].extend(program.contexts[slot] for slot in spec.contexts)
            group[1].extend(program.channels[slot] for slot in spec.channels)
            if group is not pool:
                groups.append(group)
        if pool[0]:
            groups.append(pool)
        return groups

    def _drive_cluster(
        self, contexts: list[Context], channels: list[Any]
    ) -> None:
        """Thread body: drive one group to completion through an
        embedded sequential engine."""
        driver = _ClusterDriver(self)
        try:
            driver.execute(Program(contexts, channels))
        except _Aborted:
            pass
        except BaseException as failure:  # noqa: BLE001 - reported faithfully
            self._fail(contexts[0].name, failure)
        finally:
            # The driver finished its members as they completed; what is
            # left is the tallies, and the cooperative scheduler's own
            # counters.
            for state in getattr(driver, "_states", {}).values():
                slot = self._slots[id(state.context)]
                self._ctx_ops[slot] = state.ops
                self._ctx_wall[slot] = state.wall_seconds
                self._buffers[slot] = state.buffer
            self._driver_counts.append(
                (driver.context_switches, driver.wakeups, driver.preemptions)
            )
            self._leave()

    def _fail(self, where: str, failure: BaseException) -> None:
        """Record one thread's failure and abort the run."""
        self._errors.append(
            failure
            if isinstance(failure, DamError)
            else SimulationError(where, failure)
        )
        self._abort_run()

    def _abort_run(self) -> None:
        """Pull the abort switch and wake every parked host and the main
        thread to see it.  The conditions are notified outside ``_cv``:
        a context thread takes its own before ``_cv``."""
        self._abort.set()
        with self._cv:
            conds = {cond for cond, _ in self._parked_hosts.values()}
            self._cv.notify_all()
        for cond in conds:
            with cond:
                cond.notify_all()

    def _leave(self) -> None:
        """A host thread exits: it leaves the live count — completing an
        open checkpoint round that waited only for it — and wakes the
        main thread."""
        with self._cv:
            self._live -= 1
            self._park_gen += 1
            if self._ckpt_open and self._ckpt_acked == self._live:
                self._ckpt_end_round()
            self._cv.notify_all()

    def _drive(self, ctx: Context) -> None:
        """Thread body: interpret one context's generator to completion."""
        gen = ctx.run()
        value: Any = None
        exc: BaseException | None = None
        # The buffer is this thread's own: appends need no locking and,
        # unlike a shared event log, cannot perturb peer scheduling.
        slot = self._slots[id(ctx)]
        buf = self._buffers[slot]
        ops = 0
        wall_start = _wallclock.perf_counter() if self._collect_metrics else 0.0
        abort_is_set = self._abort.is_set
        fault = self._fault_map.pop(ctx.name, None)
        try:
            while True:
                # Per-op abort check: without it a context that never
                # blocks (pure IncrCycles loops) would ignore deadline and
                # peer-failure aborts until it happened to park.
                if abort_is_set():
                    raise _Aborted
                if fault is not None and ops >= fault.after_ops:
                    exc, fault = fault.make(), None
                try:
                    if exc is not None:
                        op = gen.throw(exc)
                    else:
                        op = gen.send(value)
                except (StopIteration, ChannelClosed):
                    break
                value, exc = None, None
                kind = type(op)
                # Accounting is per constituent, matching the sequential
                # executor: the batch itself is not an op, and a closing
                # dequeue is still counted.
                try:
                    if kind is FusedOps or kind is tuple or kind is list:
                        # A list, matching the sequential runners'
                        # reused batch buffer (same type either way).
                        value = []
                        for sub in op.ops if kind is FusedOps else op:
                            ops += 1
                            value.append(self._step(ctx, sub, buf))
                    else:
                        ops += 1
                        value = self._step(ctx, op, buf)
                except ChannelClosed as closed:
                    # Thrown at the yield; the rest of a batch is
                    # abandoned.
                    value, exc = None, closed
        except _Aborted:
            return
        except BaseException as failure:  # noqa: BLE001 - reported faithfully
            self._fail(ctx.name, failure)
        finally:
            # An exception the generator raised back holds this frame in
            # its traceback: keeping it would make a reference cycle.
            exc = None
            gen.close()
            self._finish(ctx)
            if buf is not None and ctx.finish_time is not None:
                buf.add(FINISH, ctx.finish_time)
            self._ctx_ops[slot] = ops
            if self._collect_metrics:
                self._ctx_wall[slot] = _wallclock.perf_counter() - wall_start
            self._leave()

    def _step(self, ctx: Context, op: Any, buf) -> Any:
        """Execute one non-fused op to completion — parking on its
        channel or its peer's clock as needed — and return its result.
        :class:`ChannelClosed` from a dequeue or peek propagates."""
        self._progress += 1
        kind = type(op)
        clock = ctx.time
        value = None
        if kind is Enqueue:
            self._do_enqueue(ctx, op)
            if buf is not None:
                buf.add(op.sender.channel._enq_port, clock.now(), op.data)
        elif kind is Dequeue or kind is Peek:
            value = self._do_dequeue(ctx, op, remove=kind is Dequeue)
            if buf is not None:
                channel = op.receiver.channel
                port = channel._deq_port if kind is Dequeue else channel._peek_port
                buf.add(port, clock.now(), value)
        elif kind is IncrCycles or kind is AdvanceTo:
            if kind is IncrCycles:
                clock.incr(op.cycles)
            else:
                clock.advance(op.time)
            if buf is not None:
                buf.add(ADVANCE, clock.now())
        elif kind is ViewTime:
            value = op.context.time.now()  # SVA: plain atomic load
            self._ctx_spins[self._slots[id(ctx)]] += 1
        elif kind is WaitUntil:
            value = self._wait_until(ctx, op)
        elif kind is FusedOps or kind is tuple or kind is list:
            raise SimulationError(
                ctx.name,
                TypeError(
                    "FusedOps (or a tuple/list of ops) cannot be nested "
                    f"inside another fused batch: {op!r}"
                ),
            )
        else:
            raise SimulationError(
                ctx.name, TypeError(f"non-op yielded: {op!r}")
            )
        return value

    # ------------------------------------------------------------------
    # Checkpoint rounds (DESIGN.md §17): a barrier of the live cluster
    # drivers, each stopped at a slice boundary.
    # ------------------------------------------------------------------

    def _ckpt_join(self, records: dict[int, dict], may_open: bool) -> None:
        """Join the open round with one driver's member records (by
        program slot) — opening it first when ``may_open`` and the timer
        is due — and stay parked, executing nothing, until it ends.  The
        driver that completes the barrier captures instead of waiting."""
        with self._cv:
            if not self._ckpt_open:
                if not (may_open and self._ckpt_timer.due()):
                    # The round ended between the caller's lock-free
                    # gate and acquiring the condition.
                    return
                self._ckpt_open = True
                self._cv.notify_all()  # parked drivers join too
            self._ckpt_records.update(records)
            self._ckpt_acked += 1
            if self._ckpt_acked == self._live:
                self._ckpt_end_round()
            else:
                round_id = self._ckpt_round
                while self._ckpt_round == round_id and not self._abort.is_set():
                    self._cv.wait()
        if self._abort.is_set():
            raise _Aborted

    def _ckpt_end_round(self) -> None:
        """Every live driver has joined (caller holds ``_cv``):
        capture, then release them.  A capture that fails aborts the
        run — a checkpointing run that cannot checkpoint fails loudly."""
        try:
            if not self._abort.is_set():
                self._capture_checkpoint()
        except Exception as failure:  # noqa: BLE001 - abort the run
            self._fail("<checkpoint>", failure)
        finally:
            self._ckpt_open = False
            self._ckpt_acked = 0
            self._ckpt_records = {}
            self._ckpt_round += 1
            self._cv.notify_all()

    def _capture_checkpoint(self) -> None:
        """All live drivers joined: assemble and write the cut.
        Contexts with no published record belong to a driver that
        already exited — all its members finished — and are captured as
        done."""
        program = self._program
        records = self._ckpt_records
        for slot, ctx in enumerate(program.contexts):
            if slot not in records:
                records[slot] = _ckpt.record_done(ctx)
        self._save_checkpoint(program, records)

    # ------------------------------------------------------------------
    # Blocking channel operations (the SVP paths).
    # ------------------------------------------------------------------

    def _do_enqueue(self, ctx: Context, op: Enqueue) -> None:
        channel = op.sender.channel
        clock = ctx.time
        while True:
            with channel.cond:
                if channel.try_enqueue(clock, op.data):
                    channel.cond.notify_all()
                    return
                self._park(
                    ctx, channel.cond, f"enqueue on full {channel.name}",
                    channel.sender_ready, channel=channel,
                )

    def _do_dequeue(self, ctx: Context, op: Any, remove: bool) -> Any:
        channel = op.receiver.channel
        clock = ctx.time
        while True:
            with channel.cond:
                if remove:
                    value = channel.fast_dequeue(clock)
                    if value is not _EMPTY:
                        channel.cond.notify_all()
                        return value
                elif channel.can_dequeue():
                    return channel.do_peek(clock)
                if channel.closed_for_receiver:
                    raise ChannelClosed(channel.name)
                self._park(
                    ctx, channel.cond, f"dequeue on empty {channel.name}",
                    channel.receiver_ready, channel=channel,
                )

    def _wait_until(self, ctx: Context, op: WaitUntil) -> Any:
        target = op.context
        slot = self._slots[id(ctx)]
        if target.time.now() >= op.time:  # SVA fast path
            self._ctx_spins[slot] += 1
            return target.time.now()
        sync = self._time_sync[id(target)]
        while True:
            with sync.cond:
                if target.time.now() >= op.time:
                    break
                self._ctx_spins[slot] += 1
                sync.waiter_count += 1
                try:
                    self._park(
                        ctx, sync.cond,
                        f"wait-until {op.time} on {target.name}",
                        lambda: target.time.now() >= op.time,
                        peer=target,
                    )
                finally:
                    sync.waiter_count -= 1
        return target.time.now()

    def _park(
        self,
        ctx: Context,
        cond: threading.Condition,
        detail: str,
        ready,
        channel: Optional[Channel] = None,
        peer: Optional[Context] = None,
    ) -> None:
        """Park one context thread on ``cond`` until ``ready()`` (the
        caller then retries its op).  ``channel``/``peer`` identify what
        the context is parked on; they feed the stall report."""
        slot = self._slots[id(ctx)]
        self._ctx_parks[slot] += 1
        self._parked(slot, {slot: (detail, channel, peer)}, cond, ready)

    def _parked(self, host, sites: dict[int, tuple], cond, ready) -> None:
        """Sleep on ``cond`` — its lock held by the caller — until
        ``ready()`` or an abort, with ``host`` and its ``sites`` (program
        slot -> park site) registered for the deadlock verdict and the
        stall report.  A run aborted meanwhile keeps the sites: the
        deadlock report reads them after the threads are gone."""
        cv = self._cv
        with cv:
            if self._abort.is_set():
                raise _Aborted
            self._parked_hosts[host] = (cond, ready)
            self._blocked_sites.update(sites)
            self._park_gen += 1
            if len(self._parked_hosts) == self._live:
                cv.notify_all()  # every host parked: the verdict's cue
        try:
            while not ready() and not self._abort.is_set():
                cond.wait()
        finally:
            with cv:
                del self._parked_hosts[host]
                if not self._abort.is_set():
                    for slot in sites:
                        del self._blocked_sites[slot]
        if self._abort.is_set():
            raise _Aborted

    # ------------------------------------------------------------------

    def _finish(self, ctx: Context) -> None:
        if ctx.finish_time is None and not self._errors and not self._abort.is_set():
            ctx.finish_time = ctx.time.now()
        ctx.time.finish()
        for sender in ctx.senders:
            channel = sender.channel
            with channel.cond:
                channel.close_sender()
                channel.cond.notify_all()
        for receiver in ctx.receivers:
            channel = receiver.channel
            with channel.cond:
                channel.close_receiver()
                channel.cond.notify_all()

    def _timeout_error(self, program: Program) -> RunTimeoutError:
        """Build the deadline abort: stall report + partial summary, with
        clocks snapshotted *now*, before thread wind-down freezes them at
        infinity."""
        return RunTimeoutError(
            self.deadline_s,
            executor=self.name,
            stall_report=self._stall_report(),
            summary=self._summary(
                program, self._start, "os", ops_executed=self._progress
            ),
        )

    def _compile_shape(self, key):
        """A runner shape a cluster driver met first, compiled on the
        supervising thread.  ``compile()`` takes its transient blocks
        from the calling thread's malloc arena, which keeps its
        high-water mark; the supervisor's heap has room already
        (compiled on the drivers, ``thr_mha``'s peak RSS rose 11 %)."""
        request = [key, None, False]  # key, factory or failure, done
        with self._cv:
            if not self._supervising:
                return compile_shape(key)
            self._compiles.append(request)
            self._cv.notify_all()
            while not request[2] and not self._abort.is_set():
                self._cv.wait()
        if not request[2]:
            raise _Aborted
        if isinstance(request[1], BaseException):
            raise request[1]
        return request[1]

    def _supervise(self) -> None:
        """The main thread's watch over the run: asleep on ``_cv`` until
        every host thread has exited, it compiles the runner shapes the
        drivers ask for, and turns a passed deadline — or a round in
        which every live host is parked and nothing can wake any of them
        — into the run's abort."""
        cv = self._cv
        deadline_at = self._deadline_at
        seen = -1
        while True:
            with cv:
                while (
                    not self._compiles
                    and self._live
                    and not self._abort.is_set()
                    and (
                        self._park_gen == seen
                        or len(self._parked_hosts) < self._live
                    )
                ):
                    left = (
                        None if deadline_at is None
                        else deadline_at - _wallclock.perf_counter()
                    )
                    if left is not None and left <= 0:
                        break
                    cv.wait(left)
                pending, self._compiles = self._compiles, []
                if not pending:
                    if not self._live or self._abort.is_set():
                        self._supervising = False
                        return
                    seen = self._park_gen
                    parked = list(self._parked_hosts.items())
            if pending:
                for request in pending:
                    try:
                        request[1] = compile_shape(request[0])
                    except BaseException as failure:  # noqa: BLE001 - the driver raises it
                        request[1] = failure
                with cv:
                    for request in pending:
                        request[2] = True
                    cv.notify_all()
                continue
            if deadline_at is not None and (
                _wallclock.perf_counter() >= deadline_at
            ):
                error = self._timeout_error(self._program)
            elif self._quiescent(seen, parked):
                # Reported while every thread is still parked on its
                # recorded site: per-context state, the parked-on
                # channel, and both endpoint simulated clocks.
                error = DeadlockError(self._stall_report().lines())
            else:
                continue  # a wake-up is in flight: wait for the next park
            self._errors.append(error)
            self._abort_run()
            return

    def _quiescent(self, gen: int, parked: list) -> bool:
        """The second read of a deadlock verdict: each parked host's
        predicate, re-read under its own condition's lock, still fails,
        and no host parked, woke or exited since the first read."""
        for host, (cond, ready) in parked:
            with cond:
                if host not in self._parked_hosts or ready():
                    return False
        with self._cv:
            return (
                self._park_gen == gen
                and len(self._parked_hosts) == self._live
            )


class _ClusterDriver(SequentialExecutor):
    """One group of connected components on one thread, embedded in a
    threaded run.

    Everything per-op — tracing, fault triggers, resume — is the
    sequential executor's own; the parent's ``obs`` and fault plan are
    simply handed down.  Member clocks are plain unhooked cells:
    ``ViewTime`` / ``WaitUntil`` observers on other drivers read them
    directly — a monotone lower bound, exactly the SVA contract.
    Bounded slices keep the parent's abort flag, progress counter and
    checkpoint rounds serviced, and end by waking any parked driver that
    may watch a member's clock.  Idling checks foreign clocks (the one
    external dependency a group can have) and otherwise parks on the
    parent's condition instead of declaring deadlock — the parent's
    verdict covers every driver at once.
    """

    name = "threaded-cluster"

    def __init__(self, parent: ThreadedExecutor):
        super().__init__(obs=parent.obs, faults=parent.faults)
        self._parent = parent
        self._embedded = True
        self._plan_tag = parent._plan_tag

    def _compile_shape(self, key):
        return self._parent._compile_shape(key)

    def _arm_deadline_and_faults(self, start: float) -> None:
        self._deadline_at = None  # the parent's main thread owns the deadline
        # The parent's one map, not a copy: a context name that repeats
        # across drivers still fires once (the first to cross the
        # trigger pops it).
        self._fault_map = self._parent._fault_map

    def _take_resume_records(self, program: Program):
        """The members' share of the parent's records, re-keyed from
        program slot to this sub-program's slot."""
        records = self._parent._resume_records
        if records is None:
            return None
        slots = self._parent._slots
        return {
            index: records[slots[id(ctx)]]
            for index, ctx in enumerate(program.contexts)
            if slots[id(ctx)] in records
        }

    def _ckpt_join(self, may_open: bool) -> None:
        """Slice-boundary safe point: every member is between ops, so
        its state record describes it exactly (as in a sequential
        capture).  Joins the parent's open round, if any, with them;
        opens one when the timer is due and the caller is about to run
        a slice (``may_open``) — a driver asleep in its idle loop only
        joins, so it cannot mint epochs nothing executed between."""
        parent = self._parent
        timer = parent._ckpt_timer
        if timer is not None and (
            parent._ckpt_open or (may_open and timer.due())
        ):
            slots = parent._slots
            parent._ckpt_join(
                {
                    slots[key]: self._context_record(state)
                    for key, state in self._states.items()
                },
                may_open,
            )

    def _run_slice(self, state, remaining) -> None:
        parent = self._parent
        if parent._abort.is_set():
            raise _Aborted
        self._ckpt_join(may_open=True)
        before = self.ops_executed
        super()._run_slice(state, remaining)
        parent._progress += self.ops_executed - before
        # Clock publication: a parked driver may be watching one of the
        # clocks this slice moved.  Checked under the lock the parker
        # holds while it re-reads them, so no build needs the GIL's
        # ordering to keep the wake-up.
        with parent._cv:
            if parent._parked_hosts:
                parent._cv.notify_all()

    def _wakeable(self) -> bool:
        """The parked driver's predicate: a round wants its records, or a
        foreign clock passed a member's ``WaitUntil`` threshold (what
        :meth:`_poll_foreign_waiters` would wake, read without waking)."""
        if self._parent._ckpt_open:
            return True
        for target_id, waiters in self._time_waiters.items():
            if target_id not in self._states:
                now = waiters[0][1].retry_op.context.time.now()
                if any(now >= threshold for threshold, _ in waiters):
                    return True
        return False

    def _idle(self) -> bool:
        parent = self._parent
        if parent._abort.is_set():
            raise _Aborted
        self._ckpt_join(may_open=False)
        blocked = [
            st for st in self._states.values() if st.status == 1  # _BLOCKED
        ]
        if not blocked:
            return False  # every member ran to completion
        # A foreign clock may have passed a member's WaitUntil threshold.
        if self._poll_foreign_waiters():
            return True
        # Genuinely idle: park the whole group until a foreign clock or a
        # checkpoint round could move it, with each member's site
        # registered so the stall report and the deadlock verdict see
        # the real blocking structure.
        slots = parent._slots
        with parent._cv:
            parent._parked(
                self,
                {
                    slots[id(st.context)]: (
                        st.blocked_detail, *blocked_on(st.retry_op)
                    )
                    for st in blocked
                },
                parent._cv,
                self._wakeable,
            )
        return True
