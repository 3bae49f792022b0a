"""Tests for *real* channels (Section IX's time-decoupled links)."""

import pytest

from repro import (
    AdvanceTo,
    Context,
    IncrCycles,
    ProgramBuilder,
    RunConfig,
    make_channel,
)
from repro.contexts import Collector


class FastForwardProducer(Context):
    """Runs far ahead in simulated time, handing records downstream."""

    def __init__(self, out, records):
        super().__init__(name="ahead")
        self.out = out
        self.records = records
        self.register(out)

    def run(self):
        for record in self.records:
            yield IncrCycles(1000)  # sprint ahead
            yield self.out.enqueue((self.time.now(), record))


class LaggingConsumer(Context):
    """Consumes records without being dragged to the producer's time."""

    def __init__(self, inp):
        super().__init__(name="behind")
        self.inp = inp
        self.observed_times = []
        self.register(inp)

    def run(self):
        for _ in range(3):
            stamp, record = yield self.inp.dequeue()
            self.observed_times.append(self.time.now())
            yield IncrCycles(1)


class TestRealChannels:
    def test_dequeue_does_not_advance_receiver_clock(self):
        builder = ProgramBuilder()
        snd, rcv = builder.real(name="records")
        builder.add(FastForwardProducer(snd, ["a", "b", "c"]))
        consumer = builder.add(LaggingConsumer(rcv))
        builder.build().run()
        # The producer reached t=3000; the consumer's clock stayed local.
        assert consumer.observed_times == [0, 1, 2]

    def test_payload_carried_timestamps_survive(self):
        builder = ProgramBuilder()
        snd, rcv = builder.real(name="records")
        builder.add(FastForwardProducer(snd, ["x", "y", "z"]))

        class Reenactor(Context):
            def __init__(self, inp):
                super().__init__(name="reenactor")
                self.inp = inp
                self.times = []
                self.register(inp)

            def run(self):
                for _ in range(3):
                    stamp, _record = yield self.inp.dequeue()
                    yield AdvanceTo(stamp)  # time travels as data
                    self.times.append(self.time.now())

        reenactor = builder.add(Reenactor(rcv))
        builder.build().run()
        assert reenactor.times == [1000, 2000, 3000]

    def test_real_channels_cannot_be_bounded(self):
        with pytest.raises(ValueError, match="unbounded"):
            make_channel(capacity=4, real=True)

    def test_threaded_matches_sequential(self):
        def build():
            builder = ProgramBuilder()
            snd, rcv = builder.real(name="records")
            builder.add(FastForwardProducer(snd, [1, 2, 3]))
            consumer = builder.add(LaggingConsumer(rcv))
            return builder.build(), consumer

        program_a, consumer_a = build()
        program_a.run(executor="sequential")
        program_b, consumer_b = build()
        program_b.run(executor="threaded", config=RunConfig(superblocks="off"))
        assert consumer_a.observed_times == consumer_b.observed_times
