"""Deterministic cooperative executor.

This executor runs a DAM program on a single OS thread by cooperatively
scheduling context generators.  It is *event-queue-free* in the paper's
sense: there is no ordered global event structure.  Instead it keeps a
ready queue of runnable contexts and, per channel, at most one blocked
sender and one blocked receiver; channel activity wakes the opposite
endpoint directly (the cooperative analog of the paper's pairwise
synchronization).

Because channel semantics are pure functions of simulated state
(:mod:`repro.core.channel`), the simulated results are identical to the
threaded executor's — only real execution order differs.  The sequential
executor is also the vehicle for the scheduling-policy study (Table I):
policies change the real interleaving and the switch counters, never the
simulated outcome.

Deadlock detection falls out naturally: if the ready queue empties while
unfinished contexts remain, the blocked set *is* the deadlock cycle and is
reported as a stall report naming each blocked context, the channel it is
parked on, and both endpoint clocks — the debugging story behind the
paper's undersized-channel observations.

Observability: attach a :class:`repro.obs.Observability` (``obs=``) to
record per-context trace buffers and fold run metrics.

Dispatch has one tier (DESIGN.md §11): the schedule loop, whose body is
the slice, hands every yield — a :class:`~repro.core.ops.FusedOps` batch
or a bare op — to the runner compiled for its shape (:mod:`.runners`),
straight-line code against the channels' queues that open-codes their
codes 0/1 (``_enq_code`` / ``_deq_code``) and pays zero per-op tracing
conditionals (a traced run binds the runners whose ``#T``-marked column
appends are live).  A parked op is retried, and a parked batch
re-entered, by the same runners.  What the runners do not open-code —
``Peek``, ``ViewTime``, ``AdvanceTo``, ``WaitUntil``, a negative
``IncrCycles`` — goes through a small ``type(op) → handler`` table.  The
reference the differential tests compare against is the threaded
executor's one-thread-per-context runtime (DESIGN.md §5).
"""

from __future__ import annotations

import inspect as _inspect
import time as _wallclock
from typing import Any, Optional

from ...obs import Observability
from ...obs.events import ADVANCE, FINISH
from ...obs.stall import StallReport, stall_for
from .. import checkpoint as _ckpt
from ..context import Context
from ..errors import (
    ChannelClosed,
    DeadlockError,
    SimulationError,
    unpack_exception,
)
from ..ops import (
    AdvanceTo,
    Dequeue,
    Enqueue,
    FusedOps,
    IncrCycles,
    Op,
    Peek,
    ViewTime,
    WaitUntil,
)
from ..program import Program
from .base import Executor, RunSummary
from .registry import register_executor
from .policies import FifoPolicy, SchedulingPolicy, make_policy
from .runners import _BLOCKED, _DONE, _READY, SUSPENDED, plan, resume

#: When a deadline or fault plan forces bounded slices, this is the slice
#: length used where the policy does not set one: long enough that the
#: per-slice wall-clock check is noise, short enough that a deadline is
#: honoured within milliseconds.
_BOUNDED_TIMESLICE = 2048


class _DeadlineExpired(BaseException):
    """Internal control flow: the schedule loop hit ``deadline_s``.

    A ``BaseException`` so user ``except Exception`` clauses inside context
    bodies can never swallow it; converted to
    :class:`~repro.core.errors.RunTimeoutError` (with a partial summary
    attached) in :meth:`SequentialExecutor.execute`.
    """


def park_site(state) -> tuple:
    """``(detail, channel, peer context)`` of a context for its stall
    report, derived from the op it is parked on (``retry_op``): a channel
    for the queue ops, the watched context for a ``WaitUntil``.  A
    context that is not parked — never started, or woken and not yet
    run — reads ``"not started"``."""
    op = state.retry_op
    kind = op.__class__
    if kind is WaitUntil:
        site = (f"wait-until {op.time} on {op.context.name}", None, op.context)
    elif kind is Enqueue:
        site = (f"enqueue on full {op.sender.channel.name}", op.sender.channel, None)
    elif kind is Dequeue or kind is Peek:
        verb = "dequeue" if kind is Dequeue else "peek"
        channel = op.receiver.channel
        site = (f"{verb} on empty {channel.name}", channel, None)
    else:
        return "not started", None, None
    if state.status != _BLOCKED:
        return ("not started", *site[1:])
    return site


class _ContextState:
    """Executor-side bookkeeping for one context."""

    __slots__ = (
        "context",
        "gen",
        "status",
        "in_ready",
        "pending_value",
        "pending_exc",
        "retry_op",
        "buffer",
        "ops",
        "wall_seconds",
        "fused_index",
        "fused_batch",
        "send",
    )

    def __init__(self, context: Context, trace: Any = None):
        self.context = context
        self.gen = context.run()
        #: ``gen.send``, bound once: the slice loop resumes through it.
        self.send = self.gen.send
        self.status = _READY
        self.in_ready = False
        self.pending_value: Any = None
        self.pending_exc: BaseException | None = None
        # An op that blocked and must be re-attempted before resuming the
        # generator (its result is then delivered via pending_value); the
        # stall report reads the park site off it (:func:`park_site`).
        self.retry_op: Op | None = None
        # Observability: the context's own trace buffer (folded into the
        # collector when the run ends) and metric tallies.
        self.buffer = None if trace is None else trace.context_buffer(context.name)
        self.ops = 0
        self.wall_seconds = 0.0
        # Mid-batch suspension: the parked :class:`FusedOps`, bound by
        # this executor (a restored one is bound on restore); its
        # constituent at ``fused_index`` blocked (``retry_op`` set) or had
        # its result delivered by a waker, and its buffer
        # (``fused_batch.results``) holds the completed prefix.
        self.fused_batch: Any = None
        self.fused_index = 0


@register_executor("sequential")
class SequentialExecutor(Executor):
    """Cooperative, single-threaded, deterministic executor.

    Parameters
    ----------
    policy:
        Ready-queue discipline: ``"fifo"`` (run-to-block, default) or
        ``"fair"`` (timesliced with wakeup boosting), or a
        :class:`~repro.core.executor.policies.SchedulingPolicy` instance.
    obs:
        A :class:`repro.obs.Observability` collecting the run's trace
        and/or metrics.
    fast_path:
        Inert: every op runs through its runner (:mod:`.runners`) either
        way.  Kept only so ``RunConfig(fast_path=...)`` still reaches an
        executor; a frozen benchmark suite spells it.
    """

    name = "sequential"

    def __init__(
        self,
        policy: str | SchedulingPolicy = "fifo",
        obs: Optional[Observability] = None,
        fast_path: bool = True,
        deadline_s: Optional[float] = None,
        faults=None,
        metrics_interval_s: Optional[float] = None,
        metrics_sink=None,
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
    ):
        self.policy = make_policy(policy)
        #: The FIFO policy's ready queue (None under any other policy):
        #: the runners' inline wakes append to it directly, skipping the
        #: push call.
        self._fifo_queue = (
            self.policy.queue
            if self.policy.__class__ is FifoPolicy
            else None
        )
        self.deadline_s = deadline_s
        self.faults = faults
        self.metrics_interval_s = metrics_interval_s
        self.metrics_sink = metrics_sink
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoint_path = checkpoint_path
        del fast_path  # inert (see above)
        #: Live capture cadence (a CheckpointTimer) while a checkpointed
        #: run is executing; None otherwise.
        self._ckpt_timer: Any = None
        #: Context-fault triggers still pending, keyed by context name
        #: (populated per run from ``faults.context_faults``).
        self._fault_map: dict = {}
        self._deadline_at: Optional[float] = None
        #: Subclass hook, set by the engines a parent run hosts (process
        #: workers).  Their slices are always bounded: the engine must
        #: return from every slice to observe the parent's abort flag and
        #: pump its lanes — a never-blocking context would otherwise spin
        #: one endless slice, deaf to both.  And the parent folds the
        #: trace and the metrics and profiles the whole run, so the
        #: engine does none of that.
        self._embedded = False
        self.obs = obs
        #: The active trace collector (None when tracing is off).
        self.tracer = obs.trace if obs is not None else None
        self.context_switches = 0
        self.wakeups = 0
        self.preemptions = 0
        self.ops_executed = 0
        #: Whose runners a batch's ``plan`` holds: a batch bound by another
        #: executor (traced or not, or across a fork that rewired its cut
        #: channels to clones) is bound again on first use here.
        #: A plain object, not ``self``: a batch must not reach the run.
        self._plan_tag = object()
        #: Bare-op runners by op class, bound like a batch's ``plan``.
        self._bare_runners: dict = {}

    # ------------------------------------------------------------------

    def execute(self, program: Program) -> RunSummary:
        start = _wallclock.perf_counter()
        # The program *this* scheduler was handed: a process worker
        # executes an empty one and claims work lazily off its run record.
        self._run_program = program
        self._ckpt_timer = self._arm_checkpoints(
            program, getattr(program, "_resume_epoch", 0)
        )
        # One-shot: the records a checkpoint restore left on the program.
        resume_records = program.__dict__.pop("_resume_records", None)
        trace = self.tracer
        if trace is not None and not self._embedded:
            trace.start_run(program.channels)
        states = {id(ctx): _ContextState(ctx, trace) for ctx in program.contexts}
        # Waiters on another context's clock: target id -> [(threshold, state)].
        self._time_waiters: dict[int, list[tuple[Any, _ContextState]]] = {}
        self._states = states
        # Per-run counters: an instance may execute several programs.
        self.context_switches = self.wakeups = self.preemptions = 0
        self.ops_executed = 0
        policy = self.policy
        policy.queue.clear()  # what an aborted run left queued

        obs = self.obs
        collect_wall = obs is not None and obs.metrics is not None

        # Deadlines and context faults both need the loop to come up for
        # air: force bounded slices (run-to-block would otherwise let one
        # busy context starve the wall-clock check and the fault trigger).
        self._arm_deadline_and_faults(start)
        bounded = (
            self._embedded
            or self._deadline_at is not None
            or bool(self._fault_map)
            # Checkpoint capture happens between slices: run-to-block
            # would let one busy context starve the quiescent-cut
            # opportunity for the whole run.
            or self._ckpt_timer is not None
        )

        if resume_records is not None:
            self._apply_resume_records(program, states, resume_records)

        for ctx in program.contexts:
            policy.push(states[id(ctx)], woken=False)

        sampler = self._start_sampler(
            self.metrics_interval_s,
            self._sampler_probe(
                program.contexts, lambda: {"ops_executed": self.ops_executed}
            ),
            self.metrics_sink,
        )
        try:
            self._schedule_loop(collect_wall, bounded)
            unfinished = [st for st in states.values() if st.status != _DONE]
            if unfinished:
                raise DeadlockError(self._stall_report(unfinished).lines())
        except _DeadlineExpired:
            blocked = [st for st in states.values() if st.status == _BLOCKED]
            summary = self._run_summary(program, start)
            ops = [states[id(ctx)].ops for ctx in program.contexts]
            summary.context_ops, summary.ops_executed = ops, sum(ops)
            raise self._timed_out(summary, self._stall_report(blocked)) from None
        finally:
            # On any abort (SimulationError, DeadlockError, deadline), close
            # the generators of every context that did not run to completion
            # so their ``finally:`` blocks execute now, not at interpreter
            # shutdown (where GeneratorExit/ResourceWarning noise leaks into
            # test output).  Closing an exhausted generator is a no-op, so
            # the happy path pays one cheap call per context.
            self._close_generators(states)
            self._stop_sampler(sampler, obs)
            if trace is not None and not self._embedded:
                # In program slot order: contexts that share a name land
                # one after another, as on every executor.
                trace.fold(states[id(ctx)].buffer for ctx in program.contexts)

        summary = self._run_summary(program, start)
        if not self._embedded:
            slots = [states[id(ctx)] for ctx in program.contexts]
            summary.metrics = self._fold_metrics(
                program,
                summary,
                [state.ops for state in slots],
                [state.wall_seconds for state in slots],
            )
            self._attach_profile(summary, program, obs)
        return summary

    def _schedule_loop(self, collect_wall: bool, bounded: bool) -> None:
        """The only slice loop (DESIGN.md §11): drain the policy's ready
        queue, one slice per pop, and ask :meth:`_idle` for more work
        when it empties (subclass hook — the process executor's workers
        poll their cross-process lanes there).

        A slice resumes the context's generator and hands the yield to
        its runner, until the context blocks, finishes, or spends its
        ``remaining`` resumptions: the policy's timeslice, else
        ``_BOUNDED_TIMESLICE`` in a ``bounded`` run (deadline, fault
        plan, checkpoint or parent engine) and unbounded (-1) in any
        other.  Only a bounded run calls :meth:`_begin_slice`, which
        returns the slice's budget, and :meth:`_end_slice` around a
        slice.  Each slice is followed by the waiter drain, the deadline
        check and the checkpoint check, in that order.

        What an op does is its runner's (:mod:`.runners`): straight-line
        code compiled per shape.  A bare op's runner is its class's
        (``_bare_runners``), reading the channel or count off the op; a
        batch's is bound to it on first use (``op.plan``, with the count
        of constituents it performs and this executor's ``_plan_tag``).
        A runner keeps the context's clock in a local and leaves it in
        ``clock._time`` whenever it returns, so the body sees its own
        time at every resume.  Rare ops run through the handler table
        inside their runner.

        A runner that parks records the suspension itself (``retry_op``,
        and for a batch the batch and the index) and counts what it
        attempted; one whose batch was abandoned leaves the exception in
        ``state.pending_exc``.  A slice that starts on a parked context
        resumes it through the same runners, before the generator (still
        suspended at its yield) is resumed and without spending a
        resumption: a bare op is retried by its class's runner, and a
        batch re-entered at the parked constituent — or past it, when
        its waker delivered the result into the batch's buffer.  Either
        way the parked constituent was counted when it was first
        attempted.  A slice that completes no op updates no counter.

        A context's ``WaitUntil`` waiters are drained when its slice
        ends (and when it finishes): a waiter reads the clock the target
        left at that boundary.  On a cooperative host no waiter could
        run before it anyway, and the op promises the peer's clock at
        wakeup, not the crossing."""
        policy = self.policy
        queue = policy.queue
        popleft = queue.popleft
        deadline_at = self._deadline_at
        ckpt_timer = self._ckpt_timer
        waiters = self._time_waiters
        drain = self._drain_time_waiters
        begin = self._begin_slice
        end = self._end_slice
        perf_counter = _wallclock.perf_counter
        timeslice = policy.timeslice
        if timeslice is None:
            timeslice = _BOUNDED_TIMESLICE if bounded else -1
        tag = self._plan_tag
        bare_runners = self._bare_runners
        bare = bare_runners.get
        previous = state = exc = None
        executed = switches = preemptions = 0
        try:
            while True:
                while queue:
                    state = popleft()
                    state.in_ready = False
                    if state.status != _READY:
                        continue
                    if state is not previous:
                        if previous is not None:
                            switches += 1
                        previous = state
                    remaining = begin(state, timeslice) if bounded else timeslice
                    if collect_wall:
                        slice_start = perf_counter()
                    run = None
                    op = state.retry_op
                    batch = state.fused_batch
                    value = state.pending_value
                    exc = state.pending_exc
                    state.retry_op = state.fused_batch = None
                    state.pending_value = state.pending_exc = None
                    if batch is not None:
                        if exc is None:  # else abandoned while parked
                            parked = index = state.fused_index
                            buf = batch.results
                            if op is None:  # the waker delivered the parked result
                                buf[index] = value
                                index += 1
                            value = buf
                            if index < len(buf):
                                op = batch
                                run, count = resume(self, batch, index)
                                executed = -parked - 1
                    elif op is not None:  # parked by its class's runner
                        run, count, _ = bare_runners[op.__class__]
                        executed = -1
                    clock = state.context.time
                    gen_send = state.send
                    # The budget is tested where it is spent, not as a
                    # ``while remaining != 0`` condition: this body is long
                    # enough that the loop's jumps take an EXTENDED_ARG,
                    # and CPython 3.11 then leaves that comparison
                    # unspecialized (~10 % of proc_mha's worker time on a
                    # 2-vCPU x86 host).
                    while True:
                        if run is None:
                            if remaining == 0:
                                # Slice expired: hand the in-flight result
                                # back to state.
                                state.pending_value = value
                                state.pending_exc = exc
                                break
                            remaining -= 1
                            try:
                                if exc is not None:
                                    op = state.gen.throw(exc)
                                    exc = None
                                else:
                                    op = gen_send(value)
                            except (StopIteration, ChannelClosed):
                                # An uncaught ChannelClosed is graceful wind-down.
                                exc = None
                                self._finish(state)
                                break
                            except DeadlockError:
                                raise
                            except BaseException as failure:  # noqa: BLE001
                                self._finish(state)
                                raise SimulationError(
                                    state.context.name, failure
                                ) from failure
                            try:
                                run, count, bound = op.plan or bare(op.__class__)
                            except (AttributeError, TypeError, ValueError):
                                bound = None  # not bound yet, or not an op
                            if bound is not tag:
                                op, run, count = plan(self, op)
                        value = run(self, state, clock, op)
                        run = None
                        if value is SUSPENDED:
                            if state.status == _BLOCKED:
                                break
                            value = None
                            exc = state.pending_exc
                            state.pending_exc = None
                        else:
                            executed += count
                    if executed:
                        self.ops_executed += executed
                        state.ops += executed
                        executed = 0
                    if collect_wall:
                        state.wall_seconds += perf_counter() - slice_start
                    if bounded:
                        end(state)
                        if waiters:
                            drain(state.context)
                        if deadline_at is not None and perf_counter() >= deadline_at:
                            raise _DeadlineExpired
                        if ckpt_timer is not None and ckpt_timer.due():
                            # Between slices every context's in-flight value
                            # has been written back to its state record and
                            # no op is mid-transition: a quiescent cut by
                            # construction.
                            self._capture_checkpoint()
                    elif waiters:
                        drain(state.context)
                    if state.status == _READY:
                        # Slice expired without blocking: preempted.
                        preemptions += 1
                        policy.push(state, woken=False)
                if not self._idle():
                    return
        except (TypeError, ValueError) as failure:
            # An op's own error (a negative IncrCycles) is its context's,
            # as on a context thread.
            raise SimulationError(state.context.name, failure) from failure
        finally:
            # An exception the generator raised back holds this frame in
            # its traceback: keeping it would make a reference cycle.
            exc = None
            self.context_switches += switches
            self.preemptions += preemptions
            if executed:  # a slice cut short by an exception
                self.ops_executed += executed
                state.ops += executed

    def _begin_slice(self, state: _ContextState, timeslice: int) -> int:
        """Called before each slice of a bounded run, and only there:
        the fault trigger.  Returns the slice's budget of resumptions,
        ``timeslice`` but for a context whose trigger is pending.  A
        parent's engine extends it, and :meth:`_end_slice`, with its own
        slice-boundary duties."""
        # Fault injection (chaos testing): FaultInjected is thrown into a
        # context of the plan's name, instead of its first resume once it
        # has executed ``after_ops`` ops.  Only its
        # slices change: each one resumes at most once, so each resume is
        # a slice start, where the count is exact; a slice that must first
        # re-enter a parked op or batch resumes nothing.
        fault_map = self._fault_map
        if fault_map:
            name = state.context.name
            fault = fault_map.get(name)
            if fault is not None:
                if state.retry_op is not None or (
                    state.fused_batch is not None and state.pending_exc is None
                ):
                    return 0
                if state.ops < fault.after_ops:
                    return 1
                del fault_map[name]
                state.fused_batch = state.pending_value = None
                state.pending_exc = fault.make()
        return timeslice

    def _end_slice(self, state: _ContextState) -> None:
        """Called after each slice of a bounded run, and only there."""

    def _idle(self) -> bool:
        """Called when the ready queue empties; return True if new work may
        have arrived.  The purely local executor has no external event
        sources, so an empty queue is final (run complete or deadlocked)."""
        return False

    @staticmethod
    def _close_generators(states: dict[int, "_ContextState"]) -> None:
        for state in states.values():
            if state.status != _DONE:
                try:
                    state.gen.close()
                except Exception:  # noqa: BLE001 - cleanup must not mask the abort
                    pass

    # ------------------------------------------------------------------
    # Checkpoint capture and resume (DESIGN.md §17).
    # ------------------------------------------------------------------

    def _context_record(self, state: _ContextState) -> dict:
        """Classify one context's suspension into a resume record, with
        its op count so far."""
        ctx = state.context
        if state.status == _DONE:
            return _ckpt.record_done(ctx) | {"ops": state.ops}
        if (
            state.retry_op is None
            and state.fused_batch is None
            and state.pending_exc is None
            and _inspect.getgeneratorstate(state.gen) == _inspect.GEN_CREATED
        ):
            # Truly unstarted.  The generator-state check is load-bearing:
            # a delivered Enqueue result is None, indistinguishable from
            # "never primed" by pending_value alone.
            return _ckpt.record_fresh(ctx)
        executed = state.retry_op is None
        batch = state.fused_batch
        fused = batch is not None
        index = state.fused_index
        return _ckpt.record_suspended(
            ctx,
            executed=executed,
            pending_value=state.pending_value if executed else None,
            pending_exc=state.pending_exc,
            fused_index=index if fused else None,
            fused_prefix=list(batch.results[:index]) if fused else None,
            fused_len=len(batch.ops) if fused else None,
        ) | {"ops": state.ops}

    def _capture_checkpoint(self) -> None:
        """Snapshot the whole program at the current between-slices cut
        and write it as the next epoch."""
        program = self._run_program
        records = {
            slot: self._context_record(self._states[id(ctx)])
            for slot, ctx in enumerate(program.contexts)
        }
        registry = self.obs.metrics if self.obs is not None else None
        try:
            _ckpt.Checkpoint.capture(
                program,
                self._ckpt_timer.epoch + 1,
                records,
                metrics=registry.dump_state() if registry is not None else None,
                executor=self.name,
            ).save(self.checkpoint_path)
        except Exception as exc:
            # The process executor's coordinator reports a failed
            # capture the same way.
            raise SimulationError("<checkpoint>", exc) from exc
        self._ckpt_timer.mark()

    def _apply_resume_records(
        self, program: Program, states: dict, records: dict
    ) -> None:
        """Start each context from its checkpointed suspension.

        Contexts restored as ``fresh`` — and those parked on an
        *un-executed* simple op — need no machinery at all: the fresh
        generator re-derives the suspended yield from the restored
        attributes and the scheduler primes and (re-)attempts it
        naturally.  Executed suspensions prime the generator here,
        discard the re-derived first yield, and inject the recorded
        result; fused suspensions additionally wrap the re-derived ops
        in a fresh :class:`FusedOps`, bound here with the recorded prefix
        as its buffer, which the slice loop re-enters as it would a batch
        a runner parked.
        """
        for slot, ctx in enumerate(program.contexts):
            record = records.get(slot)
            if record is None:
                continue
            self._apply_one_resume_record(ctx, states[id(ctx)], record)

    def _apply_one_resume_record(self, ctx, state, record: dict) -> None:
        """Rebuild one context's scheduler bookkeeping from its record
        (shared with the process executor's lazy cluster activation).
        Its op count goes on from the record's: a resumed run counts the
        whole run."""
        state.ops = record.get("ops", 0)  # a fresh record has run none
        kind = record["kind"]
        if kind == "done":
            state.status = _DONE
            return
        if kind == "fresh":
            return
        executed = record["executed"]
        fused_index = record.get("fused_index")
        if fused_index is None and not executed:
            state.ops -= 1  # plain re-derive + re-attempt, counted again
            return
        try:
            first_op = state.gen.send(None)
        except BaseException as failure:  # noqa: BLE001 - contract breach
            raise SimulationError(
                ctx.name,
                RuntimeError(
                    "context did not re-derive its suspended yield on "
                    f"resume (resumable-state contract breach): {failure!r}"
                ),
            ) from failure
        packed = record.get("pending_exc")
        pending_exc = unpack_exception(packed) if packed is not None else None
        if fused_index is None:
            # Simple executed op: deliver the recorded outcome at the
            # (discarded) re-derived yield.
            state.pending_value = record["pending_value"]
            state.pending_exc = pending_exc
            return
        ops_seq = first_op.ops if first_op.__class__ is FusedOps else first_op
        if not isinstance(ops_seq, (tuple, list)):
            raise SimulationError(
                ctx.name,
                RuntimeError(
                    "resumed context yielded a non-fused op where the "
                    f"checkpoint recorded a fused batch: {first_op!r}"
                ),
            )
        results = list(record["fused_prefix"])
        results.extend([None] * (record["fused_len"] - len(results)))
        # Fresh: the context's own batch may be bound to another buffer.
        state.fused_batch = plan(self, FusedOps(*ops_seq), results)[0]
        state.fused_index = fused_index
        if executed:
            state.pending_value = record["pending_value"]
            state.pending_exc = pending_exc
        else:
            state.retry_op = ops_seq[fused_index]

    # ------------------------------------------------------------------

    def _run_summary(self, program: Program, start: float) -> RunSummary:
        return self._summary(
            program,
            start,
            self.policy.name,
            context_switches=self.context_switches,
            wakeups=self.wakeups,
            preemptions=self.preemptions,
            ops_executed=self.ops_executed,
        )

    def _stall_report(self, unfinished: list[_ContextState]) -> StallReport:
        """Diagnose the blocked set: who is parked, on which channel, and
        at what simulated time each endpoint sits."""
        return self._publish_stalls(
            [stall_for(state.context, *park_site(state)) for state in unfinished]
        )

    # ------------------------------------------------------------------

    def _dispatch(self, state: _ContextState, op: Op) -> bool:
        """Attempt ``op`` via its handler; return False (and park the
        context) if it blocks."""
        handler = self._handlers.get(op.__class__)
        if handler is None:
            raise SimulationError(
                state.context.name,
                TypeError(f"context yielded a non-op value: {op!r}"),
            )
        return handler(self, state, op)

    # --- rare op handlers ----------------------------------------------
    # What the ``_RARE`` runners dispatch: the ops the templates do not
    # open-code.

    def _h_peek(self, state: _ContextState, op) -> bool:
        clock = state.context.time
        channel = op.receiver.channel
        if channel.can_dequeue():
            state.pending_value = channel.do_peek(clock)
            if state.buffer is not None:
                state.buffer.add(channel._peek_port, clock.now(), state.pending_value)
            return True
        if channel.closed_for_receiver:
            state.pending_exc = ChannelClosed(channel.name)
            return True
        state.status = _BLOCKED
        state.retry_op = op
        channel.waiting_receiver = state
        return False

    def _h_advance(self, state: _ContextState, op) -> bool:
        """``AdvanceTo`` and a negative ``IncrCycles`` (which raises): the
        context moves its own clock."""
        clock = state.context.time
        if op.__class__ is IncrCycles:
            clock.incr(op.cycles)
        else:
            clock.advance(op.time)
        state.pending_value = None
        if state.buffer is not None:
            state.buffer.add(ADVANCE, clock.now())
        return True

    def _h_view_time(self, state: _ContextState, op) -> bool:
        state.pending_value = op.context.time.now()
        return True

    def _h_wait_until(self, state: _ContextState, op) -> bool:
        target = op.context
        if target.time.now() >= op.time:
            state.pending_value = target.time.now()
            return True
        # Woken when the target's slice ends past the threshold
        # (:meth:`_schedule_loop`), or by polling a foreign clock.
        state.status = _BLOCKED
        state.retry_op = op
        self._time_waiters.setdefault(id(target), []).append((op.time, state))
        return False

    def _h_nested_fusion(self, state: _ContextState, op) -> bool:
        raise SimulationError(
            state.context.name,
            TypeError(
                "FusedOps (or a tuple/list of ops) cannot be nested "
                f"inside another fused batch: {op!r}"
            ),
        )

    # type(op) -> handler, a plain function called as ``handler(self,
    # state, op)`` (bound methods stored on the executor would make it a
    # reference cycle).  FusedOps/tuple/list appear only so a *nested*
    # batch fails loudly — a top-level batch is its runner's.
    _handlers = {
        Peek: _h_peek,
        IncrCycles: _h_advance,
        AdvanceTo: _h_advance,
        ViewTime: _h_view_time,
        WaitUntil: _h_wait_until,
        FusedOps: _h_nested_fusion,
        tuple: _h_nested_fusion,
        list: _h_nested_fusion,
    }

    # ------------------------------------------------------------------

    # --- wake-with-delivery --------------------------------------------
    # A simulated op's result is a pure function of simulated state, so
    # *who executes it* cannot change it: when an op unblocks a parked
    # counterpart, the waker completes the parked Dequeue/Enqueue on the
    # waiter's behalf (against the *waiter's* clock) and clears
    # ``retry_op`` — the woken slice then resumes with ``pending_value``
    # set, skipping the retry.  The transition itself is the channel's
    # own ``try_enqueue`` / ``do_dequeue``, called with the waiter's
    # clock.  Everything the guards below exclude (a void channel, a
    # parked Peek) keeps the plain wake + retry protocol.

    def _wake_send_deliver(self, channel, waiter: "_ContextState") -> None:
        """A dequeue freed bounded capacity: complete the parked sender's
        Enqueue in place, then wake it."""
        op = waiter.retry_op
        if (
            op is not None
            and op.__class__ is Enqueue
            and channel._enq_code == 1
        ):
            wclock = waiter.context.time
            if channel.try_enqueue(wclock, op.data):
                waiter.retry_op = None
                waiter.pending_value = None
                if waiter.buffer is not None:
                    waiter.buffer.add(channel._enq_port, wclock._time, op.data)
        self._wake(waiter)

    def _wake_recv_deliver(self, channel, waiter: "_ContextState") -> None:
        """An enqueue filled an empty channel: complete the parked
        receiver's Dequeue in place, then wake it."""
        if waiter.retry_op.__class__ is Dequeue:
            wclock = waiter.context.time
            result = channel.do_dequeue(wclock)
            waiter.retry_op = None
            waiter.pending_value = result
            if waiter.buffer is not None:
                waiter.buffer.add(channel._deq_port, wclock._time, result)
        self._wake(waiter)

    def _wake(self, state: _ContextState) -> None:
        if state.status != _BLOCKED:
            return
        state.status = _READY
        self.wakeups += 1
        self.policy.push(state, woken=True)

    def _drain_time_waiters(self, target: Context) -> None:
        """Wake WaitUntil waiters whose threshold ``target`` has passed."""
        waiters = self._time_waiters.get(id(target))
        if not waiters:
            return
        now = target.time.now()
        still_waiting: list[tuple[Any, _ContextState]] = []
        for threshold, waiter in waiters:
            if now >= threshold:
                waiter.pending_value = now
                waiter.retry_op = None  # result already delivered
                self._wake(waiter)
            else:
                still_waiting.append((threshold, waiter))
        if still_waiting:
            self._time_waiters[id(target)] = still_waiting
        else:
            del self._time_waiters[id(target)]

    def _poll_foreign_waiters(self) -> bool:
        """Wake WaitUntil waiters on clocks this executor does not host
        (another worker's: no local slice end drains them); True if one
        woke.  For the ``_idle`` of an embedded host."""
        woke = self.wakeups
        for target_id, waiters in list(self._time_waiters.items()):
            if target_id in self._states:
                continue  # local target: drained when its slice ends
            # The parked WaitUntil names its target.
            self._drain_time_waiters(waiters[0][1].retry_op.context)
        return self.wakeups != woke

    def _finish(self, state: _ContextState) -> None:
        """Mark a context finished and propagate closure to its channels."""
        ctx = state.context
        state.status = _DONE
        # A thrown exception the context raised back: its traceback
        # holds the slice loop's frame, which holds this state.
        state.pending_exc = None
        ctx.finish_time = ctx.time.now()
        if state.buffer is not None:
            state.buffer.add(FINISH, ctx.finish_time)
        ctx.time.finish()
        for sender in ctx.senders:
            channel = sender.channel
            channel.close_sender()
            waiter = channel.waiting_receiver
            if waiter is not None:
                channel.waiting_receiver = None
                self._wake(waiter)
        for receiver in ctx.receivers:
            channel = receiver.channel
            channel.close_receiver()
            waiter = channel.waiting_sender
            if waiter is not None:
                channel.waiting_sender = None
                self._wake(waiter)
        self._drain_time_waiters(ctx)
