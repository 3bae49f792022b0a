"""One-thread-per-context executor with SVA/SVP-style synchronization.

This is the Python analog of the DAM-RS runtime (paper Section IV), run
when ``superblocks="off"``: every context runs on its own OS thread,
there is no global clock and no event queue, and synchronization is
strictly pairwise:

* **SVA (Synchronization via Atomics)** — reading a peer's
  :class:`~repro.core.time.TimeCell` is a plain attribute load; under
  CPython the GIL gives it the acquire semantics the paper obtains from
  x86 total-store-order loads.  ``ViewTime`` compiles to exactly this.

* **SVP (Synchronization via Parking)** — when a context must wait for a
  peer's clock (or for channel state to change) it parks on a
  ``threading.Condition``, the portable analog of a futex park/unpark
  pair, and is woken by the peer's releasing operation.

Under the GIL this runtime does not deliver the paper's wall-clock
*speedups* (documented substitution in DESIGN.md); on a free-threaded
CPython build, where the registry also knows it as ``"free-threaded"``,
the context threads run in parallel.  Either way the synchronization
algorithm, blocking structure, and — critically — the simulated results
are those of the paper's runtime.  Cross-executor tests assert
cycle-exact agreement with
:class:`~repro.core.executor.sequential.SequentialExecutor`.

Any other ``superblocks`` value (the default ``"auto"``, ``"on"``,
``True``) hosts the whole program on the cooperative engine instead: one
:class:`~repro.core.executor.sequential.SequentialExecutor` on the
calling thread, which starts no thread and reports as ``"threaded"``
(DESIGN.md §15).  Tracing, faults, the deadline, checkpoint capture and
resume are then the sequential executor's own.

Deadlock detection is exact and runs on the main thread.  A context
thread parks only after re-checking what it waits on, registering the
condition it sleeps on and the predicate that would let it proceed;
everything that could make that predicate true — a channel transition, a
clock advance, an abort — notifies that condition.  The main thread
sleeps on the run's one :class:`threading.Condition` until every live
thread is parked, re-reads each parked thread's predicate under its own
lock, and reads the park registry again: if every predicate still fails
and no thread parked, woke or exited in between, nothing can wake
anyone, and it aborts the run with a stall report — each blocked
context, the channel it is parked on, and the simulated clocks of both
of that channel's endpoints.

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
from .partition import normalize_mode
from .registry import register_executor
from .sequential import SequentialExecutor


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
    """Executes contexts on OS threads, one per context
    (``superblocks="off"``), or the whole program on the cooperative
    engine on the calling thread (any other ``superblocks``, DESIGN.md
    §15).

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
        #: anything else runs the program on the cooperative engine.
        #: Results are identical either way (the determinism invariant).
        self.superblocks = superblocks
        self.deadline_s = deadline_s
        self.faults = faults
        self.metrics_interval_s = metrics_interval_s
        self.metrics_sink = metrics_sink

    def _reset_run(self) -> None:
        """Per-run state: an instance may execute several programs."""
        self._fault_map: dict = {}
        self._deadline_at: Optional[float] = None
        self._abort = threading.Event()
        #: Live op count for the sampler and a timed-out run's summary.
        #: Every thread bumps it unlocked, so without the GIL it may lose
        #: updates: approximate by design.  The exact count is the sum
        #: of ``_ctx_ops``.
        self._progress = 0
        self._errors: list[BaseException] = []
        #: The run's one condition: the main thread sleeps on it.  It
        #: also guards everything below.
        self._cv = threading.Condition()
        #: Context threads not yet exited.
        self._live = 0
        #: Parked contexts (program slot) -> the condition each sleeps on
        #: and the predicate that would let it proceed, which holds under
        #: that condition's lock.
        self._parked_hosts: dict[int, tuple[threading.Condition, Any]] = {}
        #: Bumped whenever a thread parks or exits: the main thread's two
        #: reads of a deadlock verdict must see the same value.
        self._park_gen = 0
        # Structured park sites for stall reports: program slot ->
        # (detail, channel, peer context); names repeat across
        # replicated pipelines.
        self._blocked_sites: dict[int, tuple[str, Optional[Channel], Optional[Context]]] = {}

    # ------------------------------------------------------------------

    def execute(self, program: Program) -> RunSummary:
        if normalize_mode(self.superblocks) != "off":
            # The cooperative engine, on this thread, with this run's
            # settings; it reports, captures and times out as "threaded".
            engine = SequentialExecutor(
                obs=self.obs,
                deadline_s=self.deadline_s,
                faults=self.faults,
                metrics_interval_s=self.metrics_interval_s,
                metrics_sink=self.metrics_sink,
                checkpoint_interval_s=self.checkpoint_interval_s,
                checkpoint_path=self.checkpoint_path,
            )
            engine.name = self.name
            return engine.execute(program)
        if (
            self.checkpoint_path is not None
            or getattr(program, "_resume_records", None) is not None
        ):
            # Safe points are slice boundaries, and only the cooperative
            # engine has them.
            raise NotCheckpointable(
                [],
                reason=(
                    'superblocks="off" runs one thread per context, which '
                    "has no checkpoint safe points: it can neither capture "
                    "(checkpoint_path) nor resume a restored program; use "
                    'superblocks="on"/"auto" or another executor'
                ),
            )
        start = _wallclock.perf_counter()
        self._start = start
        self._reset_run()
        # One fault map for the run, shared by every thread: whoever
        # pops a context's trigger fires it (a dict pop is GIL- and
        # per-object-lock safe).
        self._arm_deadline_and_faults(start)
        self._program = program
        self._slots = {id(ctx): slot for slot, ctx in enumerate(program.contexts)}
        obs = self.obs
        trace = obs.trace if obs is not None else None
        # Per-context trace buffers and metric tallies are created here,
        # on the main thread, by slot (names may repeat across replicated
        # pipelines), so context threads only ever touch their own entry
        # (the lock-free discipline); the joined run folds them all.
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

        self._time_sync = {id(ctx): _TimeSync() for ctx in program.contexts}
        for ctx in program.contexts:
            self._install_advance_hook(ctx)
        threads = [
            threading.Thread(
                target=self._drive, args=(ctx,), name=f"dam-{ctx.name}", daemon=True
            )
            for ctx in program.contexts
        ]
        self._live = len(threads)
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

        # The OS schedules: no scheduler counters.
        summary = self._summary(program, start, "os", ops_executed=sum(self._ctx_ops))
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

    def _fail(self, where: str, failure: BaseException) -> None:
        """Record one thread's failure and abort the run."""
        self._errors.append(
            failure
            if isinstance(failure, DamError)
            else SimulationError(where, failure)
        )
        self._abort_run()

    def _abort_run(self) -> None:
        """Pull the abort switch and wake every parked thread and the main
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
        """A context thread exits: it leaves the live count and wakes the
        main thread."""
        with self._cv:
            self._live -= 1
            self._park_gen += 1
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
        # Popped when crossed, not here: a context of the same name that
        # never crosses it must leave the trigger to one that does.
        fault_map = self._fault_map
        fault = fault_map.get(ctx.name)
        try:
            while True:
                # Per-op abort check: without it a context that never
                # blocks (pure IncrCycles loops) would ignore deadline and
                # peer-failure aborts until it happened to park.
                if abort_is_set():
                    raise _Aborted
                if fault is not None and ops >= fault.after_ops:
                    if fault_map.pop(ctx.name, None) is not None:
                        exc = fault.make()
                    fault = None
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
                verb = "dequeue" if remove else "peek"
                self._park(
                    ctx, channel.cond, f"{verb} on empty {channel.name}",
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
        """Park one context thread on ``cond`` — its lock held by the
        caller — until ``ready()`` or an abort (the caller then retries
        its op), registered for the deadlock verdict and, with
        ``channel``/``peer`` naming what it is parked on, the stall
        report.  A run aborted meanwhile keeps the site: the deadlock
        report reads it after the threads are gone."""
        slot = self._slots[id(ctx)]
        self._ctx_parks[slot] += 1
        cv = self._cv
        with cv:
            if self._abort.is_set():
                raise _Aborted
            self._parked_hosts[slot] = (cond, ready)
            self._blocked_sites[slot] = (detail, channel, peer)
            self._park_gen += 1
            if len(self._parked_hosts) == self._live:
                cv.notify_all()  # every thread parked: the verdict's cue
        try:
            while not ready() and not self._abort.is_set():
                cond.wait()
        finally:
            with cv:
                del self._parked_hosts[slot]
                if not self._abort.is_set():
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

    def _supervise(self) -> None:
        """The main thread's watch over the run: asleep on ``_cv`` until
        every context thread has exited, it turns a passed deadline — or
        a round in which every live thread is parked and nothing can wake
        any of them — into the run's abort."""
        cv = self._cv
        deadline_at = self._deadline_at
        seen = -1
        while True:
            with cv:
                while (
                    self._live
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
                if not self._live or self._abort.is_set():
                    return
                seen = self._park_gen
                parked = list(self._parked_hosts.items())
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
        """The second read of a deadlock verdict: each parked thread's
        predicate, re-read under its own condition's lock, still fails,
        and no thread parked, woke or exited since the first read."""
        for host, (cond, ready) in parked:
            with cond:
                if host not in self._parked_hosts or ready():
                    return False
        with self._cv:
            return (
                self._park_gen == gen
                and len(self._parked_hosts) == self._live
            )
