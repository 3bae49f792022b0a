"""Threaded-executor-specific behaviour: the deadlock verdict, error
propagation, cluster hosting (DESIGN.md §15)."""

import pytest

from repro import (
    Context,
    DeadlockError,
    IncrCycles,
    ProgramBuilder,
    RunConfig,
    SimulationError,
    ThreadedExecutor,
)
from repro.contexts import Collector, NullSink, RampSource, UnaryFunction
from repro.core import plan_clusters


def _never(*_args, **_kwargs):
    raise AssertionError("the other hosting's thread body was entered")


def _components(program):
    return plan_clusters(program, {id(ctx): 0 for ctx in program.contexts})


class Exploder(Context):
    def __init__(self, inp):
        super().__init__(name="exploder")
        self.inp = inp
        self.register(inp)

    def run(self):
        yield self.inp.dequeue()
        raise RuntimeError("boom")


class TestThreadedErrors:
    def test_context_exception_propagates(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 5))
        builder.add(Exploder(rcv))
        with pytest.raises(SimulationError, match="boom"):
            ThreadedExecutor().execute(builder.build())

    def test_peer_contexts_unwound_after_failure(self):
        """A failing context must not hang its peers: the abort notifies
        the condition every parked thread sleeps on."""
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1)
        source = builder.add(RampSource(snd, 10_000))
        builder.add(Exploder(rcv))
        with pytest.raises(SimulationError):
            ThreadedExecutor().execute(builder.build())
        # The source did not complete its stream (it was aborted).
        assert source.finish_time is None or source.finish_time < 10_000

    def test_watchdog_reports_blocked_details(self):
        class Starved(Context):
            def __init__(self, inp):
                super().__init__(name="starved")
                self.inp = inp
                self.register(inp)

            def run(self):
                yield self.inp.dequeue()

        class NeverSends(Context):
            def __init__(self, out, inp):
                super().__init__(name="never")
                self.out = out
                self.inp = inp
                self.register(out, inp)

            def run(self):
                yield self.inp.dequeue()  # waits forever
                yield self.out.enqueue(1)

        builder = ProgramBuilder()
        s1, r1 = builder.bounded(1)
        s2, r2 = builder.bounded(1)
        builder.add(Starved(r1))
        builder.add(NeverSends(s1, r2))
        # r2 has no sender... wire it circularly instead:
        with pytest.raises(Exception):
            builder.build()

    def test_watchdog_detects_cycle(self):
        class Hold(Context):
            def __init__(self, inp, out, name):
                super().__init__(name=name)
                self.inp, self.out = inp, out
                self.register(inp, out)

            def run(self):
                value = yield self.inp.dequeue()
                yield self.out.enqueue(value)

        builder = ProgramBuilder()
        s1, r1 = builder.bounded(1)
        s2, r2 = builder.bounded(1)
        builder.add(Hold(r1, s2, "h1"))
        builder.add(Hold(r2, s1, "h2"))
        with pytest.raises(DeadlockError) as excinfo:
            ThreadedExecutor().execute(builder.build())
        assert "h1" in str(excinfo.value)
        assert "h2" in str(excinfo.value)

    def test_compute_heavy_context_not_misdiagnosed(self):
        """A context that computes without yielding for a while must not
        read as a deadlock (not every host is parked)."""

        class Cruncher(Context):
            def __init__(self, out):
                super().__init__(name="cruncher")
                self.out = out
                self.register(out)

            def run(self):
                total = 0
                for i in range(600_000):  # ~long pure-Python stretch
                    total += i
                yield self.out.enqueue(total)
                yield IncrCycles(1)

        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1)
        builder.add(Cruncher(snd))
        sink = builder.add(Collector(rcv))
        ThreadedExecutor().execute(builder.build())
        assert sink.values == [sum(range(600_000))]


class Loner(Context):
    def run(self):
        yield IncrCycles(3)


class TestClusterHosting:
    """``superblocks`` alone picks the hosting: one thread per context
    (``"off"``) or one cluster driver per connected component, the
    single-context components pooled onto one more."""

    @staticmethod
    def _program():
        """Four channel-less contexts plus two source→sink pipelines."""
        builder = ProgramBuilder()
        for _ in range(4):
            builder.add(Loner())
        for _ in range(2):
            snd, rcv = builder.bounded(2)
            builder.add(RampSource(snd, 5))
            builder.add(NullSink(rcv))
        return builder.build()

    @pytest.mark.parametrize("mode", ["on", "auto", True])
    def test_singletons_pool_onto_one_driver(self, mode, monkeypatch):
        groups = []
        drive_cluster = ThreadedExecutor._drive_cluster

        def spy(self, contexts, channels):
            groups.append(len(contexts))
            drive_cluster(self, contexts, channels)

        monkeypatch.setattr(ThreadedExecutor, "_drive_cluster", spy)
        monkeypatch.setattr(ThreadedExecutor, "_drive", _never)
        program = self._program()
        assert len(_components(program)) == 6
        summary = program.run("threaded", config=RunConfig(superblocks=mode))
        assert sorted(groups) == [2, 2, 4]  # three driver threads
        reference = self._program().run("sequential")
        assert summary.ops_executed == reference.ops_executed
        assert summary.elapsed_cycles == reference.elapsed_cycles

    @pytest.mark.parametrize("mode", ["off", False])
    def test_off_is_one_thread_per_context(self, mode, monkeypatch):
        driven = []
        drive = ThreadedExecutor._drive

        def spy(self, ctx):
            driven.append(ctx)
            drive(self, ctx)

        monkeypatch.setattr(ThreadedExecutor, "_drive", spy)
        monkeypatch.setattr(ThreadedExecutor, "_drive_cluster", _never)
        program = self._program()
        program.run("threaded", config=RunConfig(superblocks=mode))
        assert len(driven) == len(program.contexts) == 8

    def test_every_mode_matches_sequential(self):
        """Capacity-1 ping-pong (every hop parks) on one driver thread or
        on three context threads: same simulated run as sequential."""

        def run(executor, mode=None):
            builder = ProgramBuilder()
            s1, r1 = builder.bounded(1, latency=1, resp_latency=1)
            s2, r2 = builder.bounded(1, latency=1, resp_latency=1)
            builder.add(RampSource(s1, 12, ii=1))
            builder.add(UnaryFunction(r1, s2, lambda x: x + 1, ii=1))
            collector = builder.add(Collector(r2, ii=2))
            program = builder.build()
            summary = program.run(executor, config=RunConfig(superblocks=mode))
            return (
                summary.elapsed_cycles,
                tuple(summary.context_times[ctx.name] for ctx in program.contexts),
                summary.ops_executed,
                tuple(
                    (ch.stats.enqueues, ch.stats.dequeues)
                    for ch in program.channels
                ),
                list(collector.values),
            )

        reference = run("sequential")
        for mode in ("off", "on", "auto"):
            assert run("threaded", mode) == reference, f"superblocks={mode}"


class TestClusterCounters:
    """Cluster drivers are cooperative schedulers; the threaded summary
    and ``executor_*`` metrics carry the sum of their counters
    (DESIGN.md §15).  ``superblocks="off"`` reports 0: the OS schedules."""

    @staticmethod
    def _add_component(builder, tokens):
        """source → (unbounded) → +1 → (capacity 1) → collector: the
        source outruns a 2048-op slice (preemptions), the last hop parks
        on every token (wakeups)."""
        s1, r1 = builder.unbounded()
        s2, r2 = builder.bounded(1, latency=1, resp_latency=1)
        builder.add(RampSource(s1, tokens, ii=1))
        builder.add(UnaryFunction(r1, s2, _plus_one, ii=1))
        builder.add(Collector(r2, ii=2))

    @staticmethod
    def _counters(summary):
        row = (summary.context_switches, summary.wakeups, summary.preemptions)
        if summary.metrics is not None:
            counters = summary.metrics["counters"]
            assert row == (
                counters["executor_context_switches"],
                counters["executor_wakeups"],
                counters["executor_preemptions"],
            )
        return row

    def _threaded(self, mode):
        from repro import Observability

        builder = ProgramBuilder()
        for tokens in (1500, 2500):
            self._add_component(builder, tokens)
        program = builder.build()
        assert len(_components(program)) == 2
        return self._counters(
            program.run(
                "threaded",
                config=RunConfig(
                    superblocks=mode, obs=Observability(trace=False)
                ),
            )
        )

    def _alone(self, tokens):
        builder = ProgramBuilder()
        self._add_component(builder, tokens)
        # A deadline forces the bounded slices a cluster driver always
        # runs (same 2048-op timeslice).
        return self._counters(
            builder.build().run(config=RunConfig(deadline_s=3600.0))
        )

    def test_summary_sums_the_drivers(self):
        first = self._threaded("on")
        assert all(count > 0 for count in first)
        assert self._threaded("auto") == first
        assert first == tuple(
            map(sum, zip(self._alone(1500), self._alone(2500)))
        )

    def test_off_reports_zero(self):
        assert self._threaded("off") == (0, 0, 0)


def _two_stage(tokens=40):
    """source → +1 → collector over shallow channels (every context
    honours the resumable-state contract); returns (program, collector)."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(2, latency=1, resp_latency=1, name="raw")
    s2, r2 = builder.bounded(2, latency=1, resp_latency=1, name="cooked")
    builder.add(RampSource(s1, tokens, ii=1, name="src"))
    builder.add(UnaryFunction(r1, s2, _plus_one, ii=1, name="fn"))
    collector = builder.add(Collector(r2, ii=2, name="sink"))
    return builder.build(), collector


def _plus_one(x):
    return x + 1


def _run_signature(program, collector, executor, **config):
    summary = program.run(executor, config=RunConfig(**config))
    return (
        summary.elapsed_cycles,
        tuple(sorted(summary.context_times.items())),
        summary.ops_executed,
        tuple((ch.stats.enqueues, ch.stats.dequeues) for ch in program.channels),
        list(collector.values),
    )


def _restored(tmp_path):
    """A fresh program restored from a mid-run sequential checkpoint."""
    from repro.core import checkpoint as ckpt

    program, _ = _two_stage()
    program.run(
        config=RunConfig(
            timeslice=5, checkpoint_interval_s=0.0, checkpoint_path=str(tmp_path)
        )
    )
    paths = ckpt.list_checkpoints(str(tmp_path))
    program, collector = _two_stage()
    ckpt.load(paths[len(paths) // 2], program).restore_into(program)
    return program, collector


class TestHostingRule:
    """What is attached to a run never picks its hosting: the default
    mode stays on the cluster drivers, and ``"off"`` refuses — typed,
    before any thread starts — the one combination it has no safe points
    for."""

    @pytest.fixture
    def reference(self):
        program, collector = _two_stage()
        return _run_signature(program, collector, "sequential")

    @pytest.fixture
    def no_context_threads(self, monkeypatch):
        monkeypatch.setattr(ThreadedExecutor, "_drive", _never)

    @pytest.fixture
    def no_threads(self, monkeypatch):
        import threading

        monkeypatch.setattr(threading.Thread, "start", _never)

    def test_obs_rides_the_driver(self, reference, no_context_threads):
        from repro import Observability

        def traced(executor):
            program, collector = _two_stage()
            obs = Observability()
            signature = _run_signature(program, collector, executor, obs=obs)
            return signature, [
                (e.context, e.kind, e.channel, e.time, e.seq)
                for e in obs.trace.events
            ]

        assert traced("threaded") == traced("sequential")
        assert traced("threaded")[0] == reference

    def test_fault_plan_rides_the_driver(self, reference, no_context_threads):
        from repro import FaultInjected, FaultPlan

        program, collector = _two_stage()
        dormant = FaultPlan().raise_in("fn", after_ops=10**9)
        assert (
            _run_signature(program, collector, "threaded", faults=dormant)
            == reference
        )
        program, _ = _two_stage()
        with pytest.raises(SimulationError) as info:
            program.run(
                "threaded",
                config=RunConfig(faults=FaultPlan().raise_in("fn", after_ops=9)),
            )
        assert isinstance(info.value.original, FaultInjected)
        assert info.value.context_name == "fn"

    def test_checkpointing_rides_the_driver(
        self, reference, no_context_threads, tmp_path
    ):
        program, collector = _two_stage()
        got = _run_signature(
            program, collector, "threaded",
            checkpoint_interval_s=0.0, checkpoint_path=str(tmp_path),
        )
        assert got == reference

    def test_resume_rides_the_driver(
        self, reference, no_context_threads, tmp_path
    ):
        program, collector = _restored(tmp_path)
        got = _run_signature(program, collector, "threaded")
        # Ops before the cut were executed by the captured run.
        assert got[:2] + got[3:] == reference[:2] + reference[3:]

    def test_off_refuses_checkpointing(self, no_threads, tmp_path):
        from repro import NotCheckpointable

        program, _ = _two_stage()
        with pytest.raises(NotCheckpointable, match="superblocks"):
            program.run(
                "threaded",
                config=RunConfig(
                    superblocks="off",
                    checkpoint_interval_s=0.0,
                    checkpoint_path=str(tmp_path / "out"),
                ),
            )
        assert not (tmp_path / "out").exists()

    def test_off_refuses_a_restored_program(self, reference, monkeypatch, tmp_path):
        import threading

        from repro import NotCheckpointable

        program, collector = _restored(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", _never)
            with pytest.raises(NotCheckpointable, match="superblocks"):
                program.run("threaded", config=RunConfig(superblocks="off"))
        # The refusal consumed nothing: the same program still resumes.
        got = _run_signature(program, collector, "threaded")
        assert got[:2] + got[3:] == reference[:2] + reference[3:]

    def test_off_keeps_obs_and_faults(self, reference, monkeypatch):
        from repro import FaultInjected, FaultPlan, Observability

        monkeypatch.setattr(ThreadedExecutor, "_drive_cluster", _never)
        program, collector = _two_stage()
        obs = Observability()
        got = _run_signature(
            program, collector, "threaded", superblocks="off", obs=obs
        )
        assert got == reference
        assert len(obs.trace.events) > reference[2]  # ops + finishes
        program, _ = _two_stage()
        with pytest.raises(SimulationError) as info:
            program.run(
                "threaded",
                config=RunConfig(
                    superblocks="off",
                    faults=FaultPlan().raise_in("fn", after_ops=9),
                ),
            )
        assert isinstance(info.value.original, FaultInjected)
