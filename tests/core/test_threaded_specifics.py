"""Threaded-executor-specific behaviour: watchdog, error propagation,
cluster hosting (DESIGN.md §15)."""

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
from repro.core.executor.partition import select_clusters


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
        """A failing context must not hang its peers: the abort flag
        reaches parked threads through their bounded waits."""
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1)
        source = builder.add(RampSource(snd, 10_000))
        builder.add(Exploder(rcv))
        with pytest.raises(SimulationError):
            ThreadedExecutor(poll_interval=0.01).execute(builder.build())
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
            ThreadedExecutor(
                poll_interval=0.01, deadlock_grace=0.3
            ).execute(builder.build())
        assert "h1" in str(excinfo.value)
        assert "h2" in str(excinfo.value)

    def test_compute_heavy_context_not_misdiagnosed(self):
        """A context that computes without yielding for a while must not
        trip the watchdog (not all threads are parked)."""

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
        ThreadedExecutor(
            poll_interval=0.01, deadlock_grace=0.05
        ).execute(builder.build())
        assert sink.values == [sum(range(600_000))]


def _two_pipelines():
    """Two disconnected source→sink pipelines: two cold clusters."""
    builder = ProgramBuilder()
    for _ in range(2):
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 5))
        builder.add(NullSink(rcv))
    return builder.build()


def _cold_clusters(program):
    return plan_clusters(program, {id(ctx): 0 for ctx in program.contexts})


class TestClusterHosting:
    """``superblocks`` picks which cold clusters share one driver thread."""

    def test_single_member_clusters_never_selected(self):
        class Loner(Context):
            def run(self):
                yield IncrCycles(3)

        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 3))
        builder.add(NullSink(rcv))
        builder.add(Loner())  # channel-less: a 1-member cluster
        program = builder.build()
        clusters = _cold_clusters(program)
        assert len(clusters) == 2
        selected = select_clusters(program, clusters, "on")
        assert [spec.size for spec in selected] == [2]

    def test_fresh_program_auto_selects_everything(self):
        program = _two_pipelines()
        assert len(select_clusters(program, _cold_clusters(program), "auto")) == 2

    def test_auto_skips_zero_traffic_clusters_once_observed(self):
        program = _two_pipelines()
        clusters = _cold_clusters(program)
        # Traffic observed on the first pipeline's channel only.
        program.channels[0].stats.enqueues = 5
        program.channels[0].stats.dequeues = 5
        assert len(select_clusters(program, clusters, "auto")) == 1
        # "on" still selects both regardless of observations.
        assert len(select_clusters(program, clusters, "on")) == 2

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
