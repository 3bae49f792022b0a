"""Executor behaviour: both runtimes, all policies, identical results.

The central claim under test is the paper's exactness/determinism property:
for the same program, the cooperative executor (any policy) and the
threaded executor report the same simulated cycle counts and deliver the
same data.
"""

import pytest

from repro import (
    Context,
    DeadlockError,
    FairPolicy,
    IncrCycles,
    ProgramBuilder,
    RunConfig,
    RunTimeoutError,
    SequentialExecutor,
    SimulationError,
    ThreadedExecutor,
    ViewTime,
    WaitUntil,
)
from repro.contexts import (
    BinaryFunction,
    Broadcast,
    Checker,
    Collector,
    IterableSource,
    Merge,
    NullSink,
    RampSource,
    StreamReducer,
    UnaryFunction,
)

EXECUTORS = ["sequential", "threaded"]


def pipeline(n=20, capacity=4, ii=1):
    """source -> double -> +1 -> collector, returning (program, collector)."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(capacity)
    s2, r2 = builder.bounded(capacity)
    s3, r3 = builder.bounded(capacity)
    builder.add(RampSource(s1, n, ii=ii))
    builder.add(UnaryFunction(r1, s2, lambda x: 2 * x, ii=ii))
    builder.add(UnaryFunction(r2, s3, lambda x: x + 1, ii=ii))
    collector = builder.add(Collector(r3))
    return builder.build(), collector


@pytest.mark.parametrize("executor", EXECUTORS)
class TestBasicExecution:
    def test_pipeline_values(self, executor):
        program, collector = pipeline()
        program.run(executor=executor)
        assert collector.values == [2 * i + 1 for i in range(20)]

    def test_summary_reports_contexts(self, executor):
        program, _ = pipeline(n=5)
        summary = program.run(executor=executor)
        assert len(summary.context_times) == 4
        assert summary.elapsed_cycles == max(summary.context_times.values())
        assert summary.real_seconds >= 0

    def test_empty_source_closes_cleanly(self, executor):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(IterableSource(snd, []))
        collector = builder.add(Collector(rcv))
        builder.build().run(executor=executor)
        assert collector.values == []

    def test_backpressure_slows_producer(self, executor):
        """A consumer with II=10 backpressures an II=1 producer: the
        producer's finish time is dominated by consumer pacing."""
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2, latency=1, resp_latency=1)
        source = builder.add(RampSource(snd, 50, ii=1))
        builder.add(Collector(rcv, ii=10))
        builder.build().run(executor=executor)
        # Unthrottled the source would finish at ~50 cycles; with the slow
        # consumer it must wait for slots: well beyond 300 cycles.
        assert source.finish_time > 300

    def test_unbounded_channel_never_backpressures(self, executor):
        builder = ProgramBuilder()
        snd, rcv = builder.unbounded()
        source = builder.add(RampSource(snd, 50, ii=1))
        builder.add(Collector(rcv, ii=10))
        builder.build().run(executor=executor)
        assert source.finish_time == 50

    def test_checker_passes_on_correct_stream(self, executor):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 5))
        builder.add(Checker(rcv, [0, 1, 2, 3, 4]))
        builder.build().run(executor=executor)

    def test_checker_failure_surfaces_as_simulation_error(self, executor):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 5))
        builder.add(Checker(rcv, [0, 1, 999, 3, 4]))
        with pytest.raises(SimulationError, match="expected 999"):
            builder.build().run(executor=executor)

    def test_void_channel_lets_producer_finish(self, executor):
        """A receiver that stops early voids the channel; the producer
        completes instead of deadlocking."""

        class TakeTwo(Context):
            def __init__(self, inp):
                super().__init__()
                self.inp = inp
                self.register(inp)

            def run(self):
                yield self.inp.dequeue()
                yield self.inp.dequeue()

        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1)
        source = builder.add(RampSource(snd, 100, ii=1))
        builder.add(TakeTwo(rcv))
        builder.build().run(executor=executor)
        assert source.finish_time is not None

    def test_diamond_graph(self, executor):
        """Broadcast then re-join: exercises fanout + two-input alignment."""
        builder = ProgramBuilder()
        s_in, r_in = builder.bounded(4)
        s_a, r_a = builder.bounded(4)
        s_b, r_b = builder.bounded(4)
        s_out, r_out = builder.bounded(4)
        builder.add(RampSource(s_in, 10))
        builder.add(Broadcast(r_in, [s_a, s_b]))
        builder.add(BinaryFunction(r_a, r_b, s_out, lambda a, b: a + b))
        collector = builder.add(Collector(r_out))
        builder.build().run(executor=executor)
        assert collector.values == [2 * i for i in range(10)]

    def test_merge_sorted_streams(self, executor):
        builder = ProgramBuilder()
        s_a, r_a = builder.bounded(2)
        s_b, r_b = builder.bounded(2)
        s_o, r_o = builder.bounded(2, latency=6)
        builder.add(IterableSource(s_a, [1, 4, 5, 9]))
        builder.add(IterableSource(s_b, [2, 3, 8]))
        builder.add(Merge(r_a, r_b, s_o))
        collector = builder.add(Collector(r_o))
        builder.build().run(executor=executor)
        assert collector.values == [1, 2, 3, 4, 5, 8, 9]

    def test_stream_reducer_groups(self, executor):
        builder = ProgramBuilder()
        s_i, r_i = builder.bounded(4)
        s_o, r_o = builder.bounded(4)
        builder.add(RampSource(s_i, 9))
        builder.add(StreamReducer(r_i, s_o, lambda a, b: a + b, group=3))
        collector = builder.add(Collector(r_o))
        builder.build().run(executor=executor)
        assert collector.values == [3, 12, 21]

    def test_stream_reducer_whole_stream(self, executor):
        builder = ProgramBuilder()
        s_i, r_i = builder.bounded(4)
        s_o, r_o = builder.bounded(4)
        builder.add(RampSource(s_i, 10))
        builder.add(StreamReducer(r_i, s_o, lambda a, b: a + b))
        collector = builder.add(Collector(r_o))
        builder.build().run(executor=executor)
        assert collector.values == [45]

    def test_null_sink_counts(self, executor):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 17))
        sink = builder.add(NullSink(rcv))
        builder.build().run(executor=executor)
        assert sink.count == 17

    def test_view_time_reads_peer_clock(self, executor):
        observed = []

        class Observer(Context):
            def __init__(self, peer, inp):
                super().__init__()
                self.peer = peer
                self.inp = inp
                self.register(inp)

            def run(self):
                yield self.inp.dequeue()  # peer has advanced by now
                observed.append((yield ViewTime(self.peer)))

        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1)
        source = builder.add(IterableSource(snd, ["x"], initial_delay=42))
        builder.add(Observer(source, rcv))
        builder.build().run(executor=executor)
        assert observed[0] >= 42

    def test_wait_until_blocks_until_peer_advances(self, executor):
        results = []

        class Waiter(Context):
            def __init__(self, peer):
                super().__init__()
                self.peer = peer

            def run(self):
                now = yield WaitUntil(self.peer, 100)
                results.append(now)

        class Mover(Context):
            def __init__(self, out):
                super().__init__()
                self.out = out
                self.register(out)

            def run(self):
                for _ in range(20):
                    yield IncrCycles(10)
                    yield self.out.enqueue(0)

        builder = ProgramBuilder()
        snd, rcv = builder.bounded(64)
        mover = builder.add(Mover(snd))
        builder.add(NullSink(rcv))
        builder.add(Waiter(mover))
        builder.build().run(executor=executor)
        assert results[0] >= 100


@pytest.mark.parametrize("executor", EXECUTORS)
class TestDeadlock:
    def test_dependency_cycle_detected(self, executor):
        class Hold(Context):
            def __init__(self, inp, out):
                super().__init__()
                self.inp, self.out = inp, out
                self.register(inp, out)

            def run(self):
                value = yield self.inp.dequeue()
                yield self.out.enqueue(value)

        builder = ProgramBuilder()
        s1, r1 = builder.bounded(1)
        s2, r2 = builder.bounded(1)
        builder.add(Hold(r1, s2))
        builder.add(Hold(r2, s1))
        with pytest.raises(DeadlockError, match="dequeue on empty"):
            builder.build().run(executor=executor)

    def test_undersized_channel_deadlocks(self, executor):
        """The paper's softmax/reduction deadlock pattern: the consumer only
        drains the data channel after a trailer arrives, but the producer
        cannot emit the trailer until all data has been accepted — so the
        data channel must hold the whole fiber (depth >= N, Section VII-A).
        An undersized channel deadlocks."""

        class ProducerWithTrailer(Context):
            def __init__(self, data, trailer, n):
                super().__init__()
                self.data, self.trailer, self.n = data, trailer, n
                self.register(data, trailer)

            def run(self):
                for i in range(self.n):
                    yield self.data.enqueue(i)
                yield self.trailer.enqueue("sum-ready")

        class TrailerFirstConsumer(Context):
            def __init__(self, data, trailer, n):
                super().__init__()
                self.data, self.trailer, self.n = data, trailer, n
                self.register(data, trailer)

            def run(self):
                yield self.trailer.dequeue()  # needs the reduction result
                for _ in range(self.n):
                    yield self.data.dequeue()

        def build(depth, n):
            builder = ProgramBuilder()
            s_d, r_d = builder.bounded(depth)
            s_t, r_t = builder.bounded(1)
            builder.add(ProducerWithTrailer(s_d, s_t, n))
            builder.add(TrailerFirstConsumer(r_d, r_t, n))
            return builder.build()

        with pytest.raises(DeadlockError):
            build(depth=4, n=100).run(executor=executor)
        # The correctly sized channel (depth >= N) completes.
        build(depth=100, n=100).run(executor=executor)


class TestSequentialSpecifics:
    def test_policies_do_not_change_results(self):
        baselines = None
        for policy in ["fifo", "fair", FairPolicy(timeslice=1, boost=True)]:
            program, collector = pipeline(n=30, capacity=2)
            summary = SequentialExecutor(policy=policy).execute(program)
            result = (summary.elapsed_cycles, tuple(collector.values))
            if baselines is None:
                baselines = result
            else:
                assert result == baselines

    def test_fair_policy_counts_preemptions(self):
        program, _ = pipeline(n=50, capacity=2)
        summary = SequentialExecutor(policy=FairPolicy(timeslice=4)).execute(
            program
        )
        assert summary.preemptions > 0

    def test_fifo_fewer_switches_than_boosting_fair(self):
        """The Table I effect in miniature: wakeup boosting ping-pongs."""
        program_fifo, _ = pipeline(n=200, capacity=8)
        fifo = SequentialExecutor(policy="fifo").execute(program_fifo)
        program_fair, _ = pipeline(n=200, capacity=8)
        fair = SequentialExecutor(policy=FairPolicy(timeslice=8)).execute(
            program_fair
        )
        assert fifo.context_switches < fair.context_switches
        assert fifo.elapsed_cycles == fair.elapsed_cycles

    def test_deadline_guard(self):
        """A lone context that only advances its clock never blocks, so
        nothing but the wall-clock deadline can end the run."""

        class Spinner(Context):
            def run(self):
                while True:
                    yield IncrCycles(1)

        builder = ProgramBuilder()
        spinner = builder.add(Spinner())
        with pytest.raises(RunTimeoutError) as info:
            SequentialExecutor(deadline_s=0.1).execute(builder.build())
        assert info.value.deadline_s == 0.1
        assert info.value.summary.context_times[spinner.name] > 0

    def test_non_op_yield_is_an_error(self):
        class Bad(Context):
            def run(self):
                yield "not an op"

        builder = ProgramBuilder()
        builder.add(Bad())
        with pytest.raises(SimulationError, match="non-op"):
            builder.build().run()


class TestCrossExecutorAgreement:
    """Same program, same simulated outcome: the determinism property."""

    def build_mixed_graph(self):
        builder = ProgramBuilder()
        s1, r1 = builder.bounded(3, latency=2)
        s2, r2 = builder.bounded(1, latency=4, resp_latency=3)
        s3, r3 = builder.unbounded(latency=1)
        s4, r4 = builder.bounded(2, latency=6)
        builder.add(RampSource(s1, 40, ii=2, name="src"))
        builder.add(UnaryFunction(r1, s2, lambda x: x * 3, ii=1, name="f1"))
        builder.add(UnaryFunction(r2, s3, lambda x: x - 1, ii=3, name="f2"))
        builder.add(UnaryFunction(r3, s4, lambda x: x % 7, ii=2, name="f3"))
        collector = builder.add(Collector(r4, ii=1, name="sink"))
        return builder.build(), collector

    def test_cycle_exact_agreement(self):
        program_a, col_a = self.build_mixed_graph()
        seq = program_a.run(executor="sequential")
        program_b, col_b = self.build_mixed_graph()
        thr = program_b.run(executor="threaded")
        assert col_a.values == col_b.values
        assert seq.elapsed_cycles == thr.elapsed_cycles
        assert seq.context_times == thr.context_times
