"""Threaded-executor-specific behaviour: the per-context runtime's
deadlock verdict and error propagation, and the hosting rule (DESIGN.md
§15)."""

import pytest

from repro import (
    Context,
    DeadlockError,
    IncrCycles,
    Observability,
    ProgramBuilder,
    RunConfig,
    SequentialExecutor,
    SimulationError,
    ThreadedExecutor,
)
from repro.contexts import Collector, NullSink, RampSource, UnaryFunction


def _never(*_args, **_kwargs):
    raise AssertionError("the other hosting was entered")


@pytest.fixture
def no_threads(monkeypatch):
    import threading

    monkeypatch.setattr(threading.Thread, "start", _never)


#: The cooperative hostings: every ``superblocks`` value but off.
COOPERATIVE = ["on", "auto", True]


class Exploder(Context):
    def __init__(self, inp):
        super().__init__(name="exploder")
        self.inp = inp
        self.register(inp)

    def run(self):
        yield self.inp.dequeue()
        raise RuntimeError("boom")


class TestThreadedErrors:
    """The per-context runtime's own abort and verdict machinery."""

    def test_context_exception_propagates(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 5))
        builder.add(Exploder(rcv))
        with pytest.raises(SimulationError, match="boom"):
            ThreadedExecutor(superblocks="off").execute(builder.build())

    def test_peer_contexts_unwound_after_failure(self):
        """A failing context must not hang its peers: the abort notifies
        the condition every parked thread sleeps on."""
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1)
        source = builder.add(RampSource(snd, 10_000))
        builder.add(Exploder(rcv))
        with pytest.raises(SimulationError):
            ThreadedExecutor(superblocks="off").execute(builder.build())
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
            ThreadedExecutor(superblocks="off").execute(builder.build())
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
        ThreadedExecutor(superblocks="off").execute(builder.build())
        assert sink.values == [sum(range(600_000))]


class Loner(Context):
    def run(self):
        yield IncrCycles(3)


def _pipelines():
    """Four channel-less contexts plus two source→sink pipelines."""
    builder = ProgramBuilder()
    for _ in range(4):
        builder.add(Loner())
    for _ in range(2):
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 5))
        builder.add(NullSink(rcv))
    return builder.build()


def _add_component(builder, tokens):
    """source → (unbounded) → +1 → (capacity 1) → collector: the source
    outruns a 2048-op slice (preemptions under a deadline), the last hop
    parks on every token (wakeups)."""
    s1, r1 = builder.unbounded()
    s2, r2 = builder.bounded(1, latency=1, resp_latency=1)
    builder.add(RampSource(s1, tokens, ii=1))
    builder.add(UnaryFunction(r1, s2, _plus_one, ii=1))
    builder.add(Collector(r2, ii=2))


def _two_components():
    builder = ProgramBuilder()
    for tokens in (1500, 2500):
        _add_component(builder, tokens)
    return builder.build()


def _host_view(summary):
    """The summary without its wall clock and executor name, context
    times in slot order (names are global counters), and its
    ``executor_*`` counters, which must read the same."""
    view = summary.to_dict()
    del view["real_seconds"], view["executor"], view["metrics"]
    view["context_times"] = list(view["context_times"].values())
    if summary.metrics is not None:
        counters = summary.metrics["counters"]
        view["executor_counters"] = tuple(
            counters[f"executor_{name}"]
            for name in ("context_switches", "wakeups", "preemptions", "ops")
        )
    return view


class TestHosting:
    """``superblocks`` alone picks the hosting: one thread per context
    (``"off"``), or the whole program on the cooperative engine on the
    calling thread."""

    @pytest.mark.parametrize("mode", COOPERATIVE)
    def test_cooperative_modes_start_no_thread(self, mode, no_threads):
        summary = _pipelines().run("threaded", config=RunConfig(superblocks=mode))
        assert summary.executor == "threaded"
        assert _host_view(summary) == _host_view(_pipelines().run("sequential"))

    @pytest.mark.parametrize("mode", ["off", False])
    def test_off_is_one_thread_per_context(self, mode, monkeypatch):
        driven = []
        drive = ThreadedExecutor._drive

        def spy(self, ctx):
            driven.append(ctx)
            drive(self, ctx)

        monkeypatch.setattr(ThreadedExecutor, "_drive", spy)
        monkeypatch.setattr(SequentialExecutor, "execute", _never)
        program = _pipelines()
        program.run("threaded", config=RunConfig(superblocks=mode))
        assert len(driven) == len(program.contexts) == 8

    def test_every_mode_matches_sequential(self):
        """Capacity-1 ping-pong (every hop parks) on the cooperative
        engine or on three context threads: same simulated run as
        sequential."""

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


class TestHostCounters:
    """The cooperative hostings report the sequential engine's counters;
    ``superblocks="off"`` reports 0: the OS schedules."""

    @staticmethod
    def _run(executor, **config):
        return _two_components().run(
            executor, config=RunConfig(obs=Observability(trace=False), **config)
        )

    @pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "deadline"])
    def test_counters_are_sequential_fifo(self, bounded):
        config = {"deadline_s": 3600.0} if bounded else {}
        reference = _host_view(self._run("sequential", **config))
        assert reference["wakeups"] > 0
        if bounded:  # 2048-resumption slices preempt the sources
            assert reference["preemptions"] > 0
        for mode in COOPERATIVE:
            got = self._run("threaded", superblocks=mode, **config)
            assert _host_view(got) == reference, mode

    def test_off_reports_zero(self):
        summary = self._run("threaded", superblocks="off")
        assert _host_view(summary)["executor_counters"][:3] == (0, 0, 0)
        assert (summary.context_switches, summary.wakeups, summary.preemptions) == (0, 0, 0)


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


def _forever():
    while True:
        yield IncrCycles(1)


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
    mode runs the cooperative engine, which brings obs, faults, the
    deadline, checkpointing and resume along, and ``"off"`` refuses —
    typed, before any thread starts — the one combination it has no safe
    points for."""

    @pytest.fixture
    def reference(self):
        program, collector = _two_stage()
        return _run_signature(program, collector, "sequential")

    def test_obs_rides_the_engine(self, reference, no_threads):
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

    def test_fault_plan_rides_the_engine(self, reference, no_threads):
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

    def test_deadline_rides_the_engine(self, no_threads):
        from repro import FunctionContext, RunTimeoutError

        builder = ProgramBuilder()
        builder.add(FunctionContext(_forever, name="spinner"))
        with pytest.raises(RunTimeoutError) as info:
            builder.build().run("threaded", config=RunConfig(deadline_s=0.1))
        assert info.value.executor == "threaded"
        assert info.value.summary.executor == "threaded"

    def test_checkpointing_rides_the_engine(self, reference, no_threads, tmp_path):
        from repro.core import checkpoint as ckpt

        program, collector = _two_stage()
        got = _run_signature(
            program, collector, "threaded",
            checkpoint_interval_s=0.0, checkpoint_path=str(tmp_path),
        )
        assert got == reference
        paths = ckpt.list_checkpoints(str(tmp_path))
        assert paths and ckpt.load(paths[-1]).executor == "threaded"

    def test_resume_rides_the_engine(self, reference, no_threads, tmp_path):
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
        from repro import FaultInjected, FaultPlan

        monkeypatch.setattr(SequentialExecutor, "execute", _never)
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
