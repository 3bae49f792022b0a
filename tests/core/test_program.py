"""Tests for context registration and program graph validation."""

import pytest

from repro import (
    Context,
    FunctionContext,
    GraphConstructionError,
    IncrCycles,
    ProgramBuilder,
    make_channel,
)
from repro.contexts import Collector, RampSource
from repro.core import RunConfig, RunTimeoutError
from repro.sam import CsfTensor
from repro.sam.graphs import build_spmspm
from repro.sam.tensor import random_dense


class Passthrough(Context):
    def __init__(self, inp, out):
        super().__init__()
        self.inp, self.out = inp, out
        self.register(inp, out)

    def run(self):
        while True:
            value = yield self.inp.dequeue()
            yield self.out.enqueue(value)


class TestRegistration:
    def test_register_rejects_non_handles(self):
        class Bad(Context):
            def __init__(self):
                super().__init__()
                self.register("not a handle")

            def run(self):
                yield IncrCycles(1)

        with pytest.raises(GraphConstructionError):
            Bad()

    def test_double_attach_sender_rejected(self):
        snd, rcv = make_channel()

        with pytest.raises(GraphConstructionError):
            RampSource(snd, 1)
            RampSource(snd, 1)

    def test_double_attach_receiver_rejected(self):
        snd, rcv = make_channel()
        Collector(rcv)
        with pytest.raises(GraphConstructionError):
            Collector(rcv)

    def test_contexts_get_unique_default_names(self):
        snd1, _ = make_channel()
        snd2, _ = make_channel()
        a = RampSource(snd1, 1)
        b = RampSource(snd2, 1)
        assert a.name != b.name


class TestBuildValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(GraphConstructionError, match="no contexts"):
            ProgramBuilder().build()

    def test_dangling_receiver_rejected(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 3))
        with pytest.raises(GraphConstructionError, match="no receiving context"):
            builder.build()

    def test_dangling_sender_rejected(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(Collector(rcv))
        with pytest.raises(GraphConstructionError, match="no sending context"):
            builder.build()

    def test_context_not_added_is_reported(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        RampSource(snd, 3)  # never added to the builder
        builder.add(Collector(rcv))
        with pytest.raises(GraphConstructionError, match="never added"):
            builder.build()

    def test_duplicate_add_rejected(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        src = RampSource(snd, 3)
        builder.add(src)
        builder.add(src)
        builder.add(Collector(rcv))
        with pytest.raises(GraphConstructionError, match="more than once"):
            builder.build()

    def test_external_channels_are_adopted(self):
        snd, rcv = make_channel(capacity=2)
        builder = ProgramBuilder()
        builder.add(RampSource(snd, 3))
        builder.add(Collector(rcv))
        program = builder.build()
        assert program.channel_count() == 1
        assert program.context_count() == 2

    def test_valid_program_counts(self):
        builder = ProgramBuilder()
        s1, r1 = builder.bounded(2)
        s2, r2 = builder.unbounded()
        builder.add(RampSource(s1, 3))
        builder.add(Passthrough(r1, s2))
        builder.add(Collector(r2))
        program = builder.build()
        assert program.context_count() == 3
        assert program.channel_count() == 2

    def test_unknown_executor_rejected(self):
        builder = ProgramBuilder()
        s1, r1 = builder.bounded(2)
        builder.add(RampSource(s1, 3))
        builder.add(Collector(r1))
        with pytest.raises(ValueError, match="unknown executor"):
            builder.build().run(executor="quantum")


class TestFunctionContext:
    def test_function_context_runs(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)

        def producer():
            for i in range(3):
                yield snd.enqueue(i * i)
                yield IncrCycles(1)

        builder.add(FunctionContext(producer, handles=[snd]))
        sink = builder.add(Collector(rcv))
        builder.build().run()
        assert sink.values == [0, 1, 4]

    def test_pass_context_exposes_clock(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        times = []

        def producer(ctx):
            yield IncrCycles(5)
            times.append(ctx.time.now())
            yield snd.enqueue("x")

        builder.add(
            FunctionContext(producer, handles=[snd], pass_context=True)
        )
        builder.add(Collector(rcv))
        builder.build().run()
        assert times == [5]

    def test_name_defaults_to_function_name(self):
        snd, rcv = make_channel()

        def my_producer():
            yield snd.enqueue(1)

        ctx = FunctionContext(my_producer, handles=[snd])
        assert "my_producer" in ctx.name


class TestReset:
    def test_a_timed_out_run_reruns_from_scratch(self):
        """A SAM primitive keeps its loop state in ``checkpoint_attrs``:
        a reset after a run cut short by its deadline must put that
        state back as built, or the rerun resumes each primitive
        mid-stream against empty channels."""
        def kernel():
            b = random_dense(20, 20, density=0.3, seed=1)
            c = random_dense(20, 20, density=0.3, seed=2)
            return build_spmspm(
                CsfTensor.from_dense(b, "cc"), CsfTensor.from_dense(c, "cc"), depth=2
            )

        clean = kernel()
        cycles = clean.run().elapsed_cycles
        cut = kernel()
        with pytest.raises(RunTimeoutError):
            cut.run(config=RunConfig(deadline_s=0.01))
        cut.program.reset()
        assert cut.run().elapsed_cycles == cycles
        assert cut.result_dense().tobytes() == clean.result_dense().tobytes()
