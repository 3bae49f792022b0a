"""Chaos suite: crash supervision, run deadlines, the retry ladder, and
deterministic fault injection.

Every test in this module asserts the *absence of collateral damage* as
hard as it asserts the typed error: the autouse fixture verifies that no
worker process outlives its run and no ``/dev/shm/psm_*`` segment leaks,
whatever failure the test injected.
"""

import glob
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import (
    ChannelClosed,
    DeadlockError,
    FairPolicy,
    FaultInjected,
    FaultPlan,
    FunctionContext,
    IncrCycles,
    Observability,
    ProgramBuilder,
    RunConfig,
    RunTimeoutError,
    SimulationError,
    WorkerCrashError,
)
from repro.core import FusedOps
from repro.core.errors import pack_exception, unpack_exception
from repro.core.faults import StalledLane, WorkerKill

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="fork start method unavailable"
)


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture(autouse=True)
def no_leaked_resources():
    """Every test must leave zero orphan children and zero shm segments."""
    before = _shm_segments()
    yield
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children(), "worker processes leaked"
    leaked = _shm_segments() - before
    assert not leaked, f"shared memory leaked: {sorted(leaked)}"


# ----------------------------------------------------------------------
# Test programs.
# ----------------------------------------------------------------------


def _stream_program(n=400, capacity=8, pin=None, spin=False):
    """prod -> cons over one bounded channel; cons accumulates a total.
    ``spin`` adds a context that never blocks and never finishes."""
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(capacity, name="ch")

    def producer():
        for value in range(n):
            yield snd.enqueue(value)
            yield IncrCycles(1)

    def consumer(ctx):
        ctx.total = 0
        while True:
            try:
                value = yield rcv.dequeue()
            except ChannelClosed:
                return
            ctx.total += value
            yield IncrCycles(1)

    prod = builder.add(FunctionContext(producer, handles=[snd], name="prod"))
    cons = builder.add(
        FunctionContext(consumer, handles=[rcv], name="cons", pass_context=True)
    )
    if pin is not None:
        builder.pin(prod, pin[0])
        builder.pin(cons, pin[1])
    if spin:

        def spinner():
            while True:
                yield IncrCycles(1)

        builder.add(FunctionContext(spinner, name="spinner"))
    return builder.build()


def _runaway_program(pin=None):
    """Two contexts that never finish (deadline tests need a run that
    would otherwise spin forever)."""
    builder = ProgramBuilder()
    snd, rcv = builder.unbounded(name="spin")

    def spinner():
        while True:
            yield snd.enqueue(1)
            yield IncrCycles(1)

    def sink():
        while True:
            yield rcv.dequeue()
            yield IncrCycles(1)

    a = builder.add(FunctionContext(spinner, handles=[snd], name="a"))
    b = builder.add(FunctionContext(sink, handles=[rcv], name="b"))
    if pin is not None:
        builder.pin(a, pin[0])
        builder.pin(b, pin[1])
    return builder.build()


def _deadlocking_program():
    """A guaranteed cyclic wait: the producer must land two records on a
    capacity-1 channel before touching the channel the consumer reads
    first, so both sides block forever."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(1, name="first")
    s2, r2 = builder.bounded(1, name="second")

    def producer():
        yield s1.enqueue(0)
        yield s1.enqueue(1)  # blocks: nobody drains "first" yet
        yield s2.enqueue(2)

    def consumer():
        yield r2.dequeue()  # blocks: the producer never reaches "second"
        yield r1.dequeue()

    builder.add(FunctionContext(producer, handles=[s1, s2], name="prod"))
    builder.add(FunctionContext(consumer, handles=[r1, r2], name="cons"))
    return builder.build()


def _fingerprint(program, summary):
    stats = {
        ch.name: (ch.stats.enqueues, ch.stats.dequeues)
        for ch in program.channels
    }
    total = next(c for c in program.contexts if c.name == "cons").total
    return (summary.elapsed_cycles, summary.context_times, stats, total)


def _process_config(**kwargs):
    # Stealing is disabled so cluster placement follows the pins exactly —
    # on a loaded box worker 0 would otherwise claim every cluster before
    # worker 1 is scheduled, and a kill aimed at worker 1 would never fire.
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("steal", False)
    return RunConfig(**kwargs)


# ----------------------------------------------------------------------
# Exception marshalling.
# ----------------------------------------------------------------------


class TestExceptionMarshalling:
    def _roundtrip(self, exc):
        # The packed form must itself survive the pipe's pickling.
        packed = pickle.loads(pickle.dumps(pack_exception(exc)))
        return unpack_exception(packed)

    def test_channel_closed(self):
        back = self._roundtrip(ChannelClosed("my_channel"))
        assert isinstance(back, ChannelClosed)
        assert back.channel_name == "my_channel"

    def test_deadlock_keeps_blocked_list(self):
        back = self._roundtrip(DeadlockError(["a: dequeue on x", "b: enqueue on y"]))
        assert isinstance(back, DeadlockError)
        assert back.blocked == ["a: dequeue on x", "b: enqueue on y"]

    def test_simulation_with_picklable_original(self):
        back = self._roundtrip(SimulationError("worker_ctx", ValueError("boom")))
        assert isinstance(back, SimulationError)
        assert back.context_name == "worker_ctx"
        assert isinstance(back.original, ValueError)
        assert str(back.original) == "boom"

    def test_simulation_with_unpicklable_original_demotes_to_repr(self):
        class Unpicklable(RuntimeError):
            def __init__(self):
                super().__init__("held a generator")
                self.gen = (x for x in range(3))

        back = self._roundtrip(SimulationError("ctx", Unpicklable()))
        assert isinstance(back, SimulationError)
        assert isinstance(back.original, RuntimeError)
        assert "held a generator" in str(back.original)

    def test_arbitrary_picklable_exception_survives(self):
        back = self._roundtrip(KeyError("missing"))
        assert isinstance(back, KeyError)
        assert back.args == ("missing",)

    def test_unpicklable_exception_demotes_to_typed_repr(self):
        class Opaque(Exception):
            def __init__(self):
                super().__init__("locked")
                self.lock = (x for x in range(1))

        back = self._roundtrip(Opaque())
        assert isinstance(back, RuntimeError)
        assert "Opaque" in str(back)
        assert "locked" in str(back)

    def test_fault_injected_survives(self):
        back = self._roundtrip(SimulationError("c", FaultInjected("chaos")))
        assert isinstance(back.original, FaultInjected)


# ----------------------------------------------------------------------
# The fault plan itself.
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_seeded_victim_is_deterministic(self):
        picks = {
            FaultPlan(seed=7).kill_worker(after_ops=5).resolve(4).kills[0].worker
            for _ in range(10)
        }
        assert len(picks) == 1
        assert picks.pop() in range(4)

    def test_explicit_worker_is_untouched(self):
        plan = FaultPlan().kill_worker(worker=3, after_ops=9).resolve(8)
        assert plan.kill_for(3) == WorkerKill(3, 9, signal.SIGKILL)
        assert plan.kill_for(0) is None

    def test_kill_after_checkpoints_leaves_ops_trigger_unset(self):
        plan = FaultPlan().kill_worker(worker=0, after_checkpoints=2).resolve(2)
        kill = plan.kill_for(0)
        assert kill.after_ops is None
        assert kill.after_checkpoints == 2

    def test_bare_kill_still_means_immediately(self):
        plan = FaultPlan().kill_worker(worker=1).resolve(2)
        assert plan.kill_for(1).after_ops == 0
        assert plan.kill_for(1).after_checkpoints is None

    def test_stall_lookup(self):
        plan = FaultPlan().stall_shuttle("bus", after_records=2)
        assert plan.stall_for("bus").after_records == 2
        assert plan.stall_for("other") is None

    def test_stalled_lane_dries_up(self):
        class FakeLane:
            def __init__(self):
                self.items = [1, 2, 3, 4]

            def try_push(self, obj):
                self.items.append(obj)
                return True

            def try_pop(self):
                return (True, self.items.pop(0)) if self.items else (False, None)

        lane = StalledLane(FakeLane(), after_records=2)
        assert lane.try_pop() == (True, 1)
        assert lane.try_pop() == (True, 2)
        # Wedged: records remain in the inner lane but never surface.
        assert lane.try_pop() == (False, None)
        assert lane.try_pop() == (False, None)
        assert lane.try_push(5)  # pushes still pass through


# ----------------------------------------------------------------------
# Context faults surface as SimulationError on every executor.
# ----------------------------------------------------------------------


class TestContextFault:
    @pytest.mark.parametrize(
        "executor,config",
        [("sequential", {}), ("threaded", {"superblocks": "off"})],
        ids=["sequential", "threaded-off"],
    )
    def test_in_process_executors(self, executor, config):
        program = _stream_program()
        plan = FaultPlan().raise_in("prod", after_ops=10, message="chaos")
        with pytest.raises(SimulationError) as info:
            program.run(executor, config=RunConfig(faults=plan, **config))
        assert isinstance(info.value.original, FaultInjected)
        assert "prod" in str(info.value)

    @needs_fork
    def test_process_executor(self):
        program = _stream_program(pin=(0, 1))
        plan = FaultPlan().raise_in("prod", after_ops=10, message="chaos")
        with pytest.raises(SimulationError) as info:
            program.run("process", config=_process_config(faults=plan))
        assert isinstance(info.value.original, FaultInjected)

    @pytest.mark.parametrize("hosting", ["sequential", "off"])
    def test_name_repeated_across_components_fires_once(self, hosting):
        """One plan entry is one fault: three components each hold a
        context named ``prod``, and exactly one of them is hit, on the
        cooperative engine or on one thread per context (DESIGN.md §13:
        the first to cross the trigger)."""
        builder = ProgramBuilder()
        hit = []
        for lane in range(3):
            snd, rcv = builder.bounded(8, name=f"ch{lane}")

            def producer(snd=snd, lane=lane):
                try:
                    for value in range(200):
                        yield snd.enqueue(value)
                        yield IncrCycles(1)
                except FaultInjected:
                    hit.append(lane)

            def consumer(rcv=rcv):
                while True:
                    yield rcv.dequeue()

            builder.add(FunctionContext(producer, handles=[snd], name="prod"))
            builder.add(
                FunctionContext(consumer, handles=[rcv], name=f"cons{lane}")
            )
        plan = FaultPlan().raise_in("prod", after_ops=10, message="chaos")
        if hosting == "sequential":
            builder.build().run("sequential", config=RunConfig(faults=plan))
        else:
            builder.build().run(
                "threaded", config=RunConfig(faults=plan, superblocks=hosting)
            )
        assert len(hit) == 1


# One executor leg per row: (executor, RunConfig fields).
_RAISE_IN_LEGS = [
    pytest.param("sequential", {}, id="sequential-fifo"),
    pytest.param("sequential", {"policy": FairPolicy(timeslice=4)}, id="sequential-fair4"),
    pytest.param("threaded", {"superblocks": "on"}, id="threaded-on"),
    pytest.param("threaded", {"superblocks": "off"}, id="threaded-off"),
    pytest.param("process", {"workers": 1}, id="process-1", marks=needs_fork),
    pytest.param("process", {"workers": 2}, id="process-2", marks=needs_fork),
]


def _raise_in_program(shape, thrown_at):
    """Contexts named ``x``: ``"one"`` is one context of 50 bare
    ``IncrCycles``; ``"two"`` is, in slot order, one of 5 bare ops and
    one of 5000 ops in batches of 4; ``"parked"`` is one that enqueues
    50 values on a capacity-1 channel to a slower consumer, so it is
    parked on its 10th op when it crosses the trigger.  Each appends to ``thrown_at`` how
    many of its yields had returned when one raised the fault: after 10
    bare ops the 10th yield raises (9 returned), after 3 batches (12
    ops) the 3rd (2 returned)."""
    builder = ProgramBuilder()

    def victim(yields, op):
        def body():
            done = 0
            try:
                for _ in range(yields):
                    yield op
                    done += 1
            except FaultInjected:
                thrown_at.append(done)
                raise

        builder.add(FunctionContext(body, name="x"))

    if shape == "one":
        victim(50, IncrCycles(1))
    elif shape == "parked":
        snd, rcv = builder.bounded(1, name="x_out")

        def producer():
            for value in range(50):
                yield snd.enqueue(value)

        def consumer():
            while True:
                yield rcv.dequeue()
                yield IncrCycles(5)

        builder.add(FunctionContext(producer, handles=[snd], name="x"))
        builder.add(FunctionContext(consumer, handles=[rcv], name="slow"))
    else:
        victim(5, IncrCycles(1))
        victim(1250, FusedOps(*[IncrCycles(1)] * 4))
    return builder.build()


class TestRaiseInIsExact:
    """``raise_in("x", after_ops=10)`` throws at the first resume of a
    context named ``x`` that has executed at least 10 ops, once, on every
    executor: not only at a slice start, and not only in the first
    context of that name to start."""

    @pytest.mark.parametrize("executor,config", _RAISE_IN_LEGS)
    @pytest.mark.parametrize("shape,expected", [("one", [9]), ("two", [2])])
    def test_matrix(self, shape, expected, executor, config):
        thrown_at = []
        program = _raise_in_program(shape, thrown_at)
        plan = FaultPlan().raise_in("x", after_ops=10)
        with pytest.raises(SimulationError) as info:
            program.run(executor, config=RunConfig(faults=plan, **config))
        assert isinstance(info.value.original, FaultInjected)
        assert info.value.context_name == "x"
        if executor != "process":  # the worker's list is its own
            assert thrown_at == expected

    @pytest.mark.parametrize("shape", ["one", "parked"])
    def test_victim_rows_before_the_throw_match_the_reference(self, shape):
        """The op that crosses the trigger completes, parked or not."""

        def rows(executor, config):
            obs = Observability()
            program = _raise_in_program(shape, [])
            plan = FaultPlan().raise_in("x", after_ops=10)
            with pytest.raises(SimulationError):
                program.run(executor, config=RunConfig(faults=plan, obs=obs, **config))
            return [
                (e.kind, e.channel, e.time, e.seq)
                for e in obs.trace.for_context("x")
                if e.kind != "finish"
            ]

        reference = rows("threaded", {"superblocks": "off"})
        assert len(reference) == 10
        assert rows("sequential", {}) == reference


# ----------------------------------------------------------------------
# Run deadlines.
# ----------------------------------------------------------------------


class TestDeadline:
    @pytest.mark.parametrize(
        "executor,config",
        [("sequential", {}), ("threaded", {"superblocks": "off"})],
        ids=["sequential", "threaded-off"],
    )
    def test_runaway_run_is_aborted(self, executor, config):
        program = _runaway_program()
        with pytest.raises(RunTimeoutError) as info:
            program.run(executor, config=RunConfig(deadline_s=0.3, **config))
        err = info.value
        assert err.deadline_s == 0.3
        assert err.summary is not None
        # Partial clocks: the spinners made progress before the abort.
        assert any(v for v in err.summary.context_times.values())

    @needs_fork
    def test_process_runaway_is_aborted(self):
        program = _runaway_program(pin=(0, 1))
        with pytest.raises(RunTimeoutError) as info:
            program.run("process", config=_process_config(deadline_s=0.5))
        assert info.value.summary is not None

    def test_generous_deadline_changes_nothing(self):
        reference = _stream_program()
        expected = _fingerprint(reference, reference.run())
        program = _stream_program()
        summary = program.run(config=RunConfig(deadline_s=60.0))
        assert _fingerprint(program, summary) == expected

    def test_sequential_timeout_files_stall_report(self):
        obs = Observability()
        program = _runaway_program()
        with pytest.raises(RunTimeoutError):
            program.run(config=RunConfig(deadline_s=0.2, obs=obs))
        # The runaway contexts are running, not blocked, so the report can
        # be empty — what matters is the run filed one coherent outcome.
        assert obs.metrics is not None


# ----------------------------------------------------------------------
# Crash supervision (the tentpole).
# ----------------------------------------------------------------------


@needs_fork
class TestWorkerCrash:
    def test_sigkilled_worker_surfaces_typed_error(self):
        program = _stream_program(n=50_000, pin=(0, 1))
        plan = FaultPlan().kill_worker(worker=1, after_ops=50)
        started = time.monotonic()
        with pytest.raises(WorkerCrashError) as info:
            program.run("process", config=_process_config(faults=plan))
        elapsed = time.monotonic() - started
        err = info.value
        assert err.worker == 1
        assert err.exitcode == -signal.SIGKILL
        assert "cons" in err.contexts
        assert "cons" in err.clocks
        # Detection must ride the pipe EOF / sentinel, not a long timeout.
        assert elapsed < 5.0

    def test_crash_feeds_observability(self):
        obs = Observability()
        program = _stream_program(n=50_000, pin=(0, 1))
        plan = FaultPlan().kill_worker(worker=0, after_ops=50)
        with pytest.raises(WorkerCrashError):
            program.run("process", config=_process_config(faults=plan, obs=obs))
        assert isinstance(obs.crash_report, WorkerCrashError)
        assert obs.metrics.counter("worker_crashes").value == 1
        kinds = [event.kind for event in obs.trace.for_context("<supervisor>")]
        assert "crash" in kinds

    def test_seeded_kill_picks_some_worker(self):
        program = _stream_program(n=50_000, pin=(0, 1))
        plan = FaultPlan(seed=3).kill_worker(after_ops=0)
        with pytest.raises(WorkerCrashError) as info:
            program.run("process", config=_process_config(faults=plan))
        assert info.value.worker in (0, 1)


@needs_fork
class TestShuttleStall:
    def test_wedged_shuttle_is_a_deadlock(self):
        program = _stream_program(n=400, pin=(0, 1))
        plan = FaultPlan().stall_shuttle("ch", after_records=5)
        with pytest.raises(DeadlockError):
            program.run("process", config=_process_config(faults=plan))

    def test_wedged_shuttle_with_deadline_is_a_timeout(self):
        """A wedged lane is a deadlock only once nothing else can run:
        beside a context that never stops, the deadline ends the run."""
        program = _stream_program(n=400, pin=(0, 1), spin=True)
        plan = FaultPlan().stall_shuttle("ch", after_records=5)
        with pytest.raises(RunTimeoutError) as info:
            program.run(
                "process",
                config=_process_config(faults=plan, deadline_s=0.5),
            )
        assert info.value.summary is not None


# ----------------------------------------------------------------------
# The retry ladder.
# ----------------------------------------------------------------------


class TestRetryLadder:
    @needs_fork
    def test_crash_falls_back_and_result_is_bit_identical(self):
        reference = _stream_program(n=300)
        expected = _fingerprint(reference, reference.run())

        obs = Observability()
        program = _stream_program(n=300, pin=(0, 1))
        plan = FaultPlan().kill_worker(worker=0, after_ops=50)
        summary = program.run(
            "process",
            config=_process_config(faults=plan, fallback="sequential", obs=obs),
        )
        assert [a["outcome"] for a in summary.attempts] == ["crashed", "ok"]
        assert summary.attempts[0]["executor"] == "process"
        assert summary.attempts[1]["executor"] == "sequential"
        assert obs.metrics.counter("run_retries").value == 1
        assert _fingerprint(program, summary) == expected

    @needs_fork
    def test_default_ladder_steps_to_threaded_first(self):
        program = _stream_program(n=300, pin=(0, 1))
        plan = FaultPlan().kill_worker(worker=0, after_ops=50)
        summary = program.run(
            "process", config=_process_config(faults=plan, fallback=True)
        )
        assert [a["outcome"] for a in summary.attempts] == ["crashed", "ok"]
        assert summary.attempts[1]["executor"] == "threaded"

    def test_timeout_is_retried_and_attempts_ride_the_error(self):
        program = _runaway_program()
        with pytest.raises(RunTimeoutError) as info:
            program.run(
                config=RunConfig(deadline_s=0.2, fallback="sequential")
            )
        attempts = info.value.attempts
        assert [a["outcome"] for a in attempts] == ["timeout", "timeout"]
        assert all(a["executor"] == "sequential" for a in attempts)

    def test_deadlock_is_never_retried(self):
        obs = Observability()
        program = _deadlocking_program()
        with pytest.raises(DeadlockError):
            program.run(config=RunConfig(fallback="sequential", obs=obs))
        # A deterministic simulation outcome must not consume a retry.
        assert obs.metrics.counter("run_retries").value == 0

    def test_clean_run_records_single_attempt(self):
        program = _stream_program(n=100)
        summary = program.run(config=RunConfig(fallback="sequential"))
        assert [a["outcome"] for a in summary.attempts] == ["ok"]

    def test_reset_restores_pristine_state(self):
        program = _stream_program(n=200)
        first = _fingerprint(program, program.run())
        program.reset()
        for channel in program.channels:
            assert channel.stats.enqueues == 0
            assert not channel.sender_finished
        second = _fingerprint(program, program.run())
        assert first == second


# ----------------------------------------------------------------------
# Checkpoint chaos (§17): kill a worker at a checkpoint round, resume
# from the surviving checkpoint, leave nothing behind.
# ----------------------------------------------------------------------


def _spmspm_kernel():
    from repro.sam import CsfTensor
    from repro.sam.graphs import build_spmspm
    from repro.sam.tensor import random_dense

    b = random_dense(8, 8, density=0.4, seed=23)
    ct = random_dense(8, 8, density=0.4, seed=24)
    return build_spmspm(
        CsfTensor.from_dense(b, "cc"),
        CsfTensor.from_dense(ct, "cc"),
        depth=4,
    )


def _kernel_fingerprint(kernel, summary):
    chans = tuple(
        sorted(
            (ch.name, ch.stats.enqueues, ch.stats.dequeues)
            for ch in kernel.program.channels
        )
    )
    times = tuple(
        sorted((c.name, float(c.time.now())) for c in kernel.program.contexts)
    )
    return (
        summary.elapsed_cycles,
        kernel.result_dense().tobytes(),
        chans,
        times,
    )


def _checkpoint_leftovers(ckdir):
    """Anything in the checkpoint dir that is not a finished checkpoint
    (stale ``part-*`` dumps, ``*.tmp.*`` rename droppings)."""
    return [
        name
        for name in os.listdir(ckdir)
        if not (name.startswith("ckpt-") and name.endswith(".dam"))
    ]


@needs_fork
class TestCheckpointChaos:
    """A worker SIGKILLed right after dumping its checkpoint partition.

    ``after_checkpoints=2`` kills at the *second* round: a round-2
    request proves round 1 stitched successfully, so a valid checkpoint
    is guaranteed to exist when the crash lands.  The kill fires only if
    the victim is still live at its second dump — a fast run can retire
    it first — so each scenario gets a few tries to land the crash.
    The autouse fixture asserts no orphan workers and no leaked shm on
    top of each test's own stale-file checks.
    """

    TRIES = 6

    @staticmethod
    def _reference():
        kernel = _spmspm_kernel()
        return _kernel_fingerprint(
            kernel,
            kernel.run(
                executor="process", config=RunConfig(workers=2, timeslice=7)
            ),
        )

    def test_ladder_resumes_from_checkpoint_bit_identically(self, tmp_path):
        expected = self._reference()
        for attempt in range(self.TRIES):
            ckdir = tmp_path / str(attempt)
            kernel = _spmspm_kernel()
            plan = FaultPlan(seed=7).kill_worker(
                worker=0, after_checkpoints=2
            )
            summary = kernel.run(
                executor="process",
                config=RunConfig(
                    workers=2,
                    timeslice=7,
                    faults=plan,
                    fallback="sequential",
                    checkpoint_interval_s=0.0,
                    checkpoint_path=str(ckdir),
                ),
            )
            assert _kernel_fingerprint(kernel, summary) == expected
            assert not _checkpoint_leftovers(ckdir)
            if summary.attempts[0]["outcome"] != "crashed":
                continue  # run finished before the second dump; retry
            assert summary.attempts[0]["resumed_from"] is None
            assert summary.attempts[-1]["outcome"] == "ok"
            resumed = summary.attempts[-1]["resumed_from"]
            assert resumed is not None and resumed["epoch"] >= 1
            return
        pytest.fail(f"kill never fired in {self.TRIES} tries")

    def test_crash_then_elastic_resume_on_more_workers(self, tmp_path):
        from repro.core import checkpoint as ckpt

        expected = self._reference()
        for attempt in range(self.TRIES):
            ckdir = tmp_path / str(attempt)
            kernel = _spmspm_kernel()
            plan = FaultPlan(seed=7).kill_worker(
                worker=1, after_checkpoints=2
            )
            try:
                kernel.run(
                    executor="process",
                    config=RunConfig(
                        workers=2,
                        timeslice=7,
                        # Worker 0 is forked first; left to steal, it
                        # adopts the victim's one cluster before the
                        # victim claims it in ~2 runs of 3, and the
                        # victim retires without ever dumping.
                        steal=False,
                        faults=plan,
                        checkpoint_interval_s=0.0,
                        checkpoint_path=str(ckdir),
                    ),
                )
                continue  # run finished before the second dump; retry
            except WorkerCrashError:
                pass
            assert not _checkpoint_leftovers(ckdir)

            fresh = _spmspm_kernel()
            found = ckpt.latest_checkpoint(str(ckdir), fresh.program)
            assert found is not None and found.epoch >= 1
            restored = ckpt.load(found.path, fresh.program)
            restored.restore_into(fresh.program)
            summary = fresh.run(
                executor="process", config=RunConfig(workers=3, timeslice=7)
            )
            assert _kernel_fingerprint(fresh, summary) == expected
            return
        pytest.fail(f"kill never fired in {self.TRIES} tries")


# ----------------------------------------------------------------------
# KeyboardInterrupt leaves nothing behind (satellite).
# ----------------------------------------------------------------------


@needs_fork
def test_sigint_mid_run_cleans_up_children_and_shm():
    token = f"dam_chaos_token_{os.getpid()}"
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(SRC_DIR)!r})
        TOKEN = {token!r}
        from repro import FunctionContext, IncrCycles, ProgramBuilder, RunConfig

        builder = ProgramBuilder()
        snd, rcv = builder.unbounded(name="spin")

        def spinner():
            while True:
                yield snd.enqueue(1)
                yield IncrCycles(1)

        def sink():
            while True:
                yield rcv.dequeue()
                yield IncrCycles(1)

        a = builder.add(FunctionContext(spinner, handles=[snd], name="a"))
        b = builder.add(FunctionContext(sink, handles=[rcv], name="b"))
        builder.pin(a, 0)
        builder.pin(b, 1)
        program = builder.build()
        print("RUNNING", flush=True)
        program.run(executor="process", config=RunConfig(workers=2, steal=False))
        """
    )
    before = _shm_segments()
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        assert "RUNNING" in proc.stdout.readline()
        time.sleep(1.0)  # let the workers fork and enter their run loops
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=20)
    finally:
        if proc.poll() is None:  # pragma: no cover - hang safety net
            proc.kill()
            proc.wait(timeout=5)
        proc.stdout.close()
    assert proc.returncode != 0
    assert not (_shm_segments() - before), "SIGINT leaked shared memory"
    # No orphaned worker carries our token in its command line.
    survivors = []
    for cmdline in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(cmdline, "rb") as handle:
                if token.encode() in handle.read():
                    survivors.append(cmdline)
        except OSError:
            continue
    assert not survivors, f"SIGINT left orphan workers: {survivors}"


# ----------------------------------------------------------------------
# Registry probes degrade instead of raising (satellite).
# ----------------------------------------------------------------------


class TestRegistryDegradation:
    def test_cpu_budget_survives_masked_affinity(self, monkeypatch):
        from repro.core.executor import registry

        def raises(_):
            raise OSError("affinity syscall masked")

        monkeypatch.setattr(registry.os, "sched_getaffinity", raises, raising=False)
        assert registry._cpu_budget() >= 1

    def test_cpu_budget_survives_missing_affinity(self, monkeypatch):
        from repro.core.executor import registry

        monkeypatch.delattr(registry.os, "sched_getaffinity", raising=False)
        assert registry._cpu_budget() >= 1

    def test_raising_predicate_counts_as_unavailable(self, monkeypatch):
        from repro.core.executor import registry

        def explodes():
            raise RuntimeError("probe failed")

        monkeypatch.setitem(registry._AVAILABILITY, "process", explodes)
        assert registry.executor_available("process") is False

    def test_auto_always_lands_on_an_executor(self, monkeypatch):
        from repro.core.executor import registry

        def explodes():
            raise OSError("host probing broke")

        for name in registry.AUTO_ORDER[:-1]:
            monkeypatch.setitem(registry._AVAILABILITY, name, explodes)
        cls = registry.resolve_executor("auto")
        assert cls.name == "sequential"

    def test_auto_still_runs_a_program(self, monkeypatch):
        from repro.core.executor import registry

        def explodes():
            raise OSError("host probing broke")

        for name in registry.AUTO_ORDER[:-1]:
            monkeypatch.setitem(registry._AVAILABILITY, name, explodes)
        program = _stream_program(n=50)
        summary = program.run("auto")
        assert summary.elapsed_cycles > 0
