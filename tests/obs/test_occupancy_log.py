"""``repro.obs.occupancy_log``: a channel's elements read off the trace.

The channel's k-th traced dequeue took its k-th traced enqueue, so the
pairs ``peak_simulated_occupancy`` needs follow from the two endpoints'
port histories alone.
"""

from repro.core import FunctionContext, IncrCycles, ProgramBuilder
from repro.obs import Observability, occupancy_log


def _traced(build):
    """Run the program ``build(builder)`` wires on the sequential
    executor, traced; return ``(obs, the builder's first channel)``."""
    builder = ProgramBuilder()
    build(builder)
    program = builder.build()
    obs = Observability(metrics=False)
    program.run("sequential", obs=obs)
    return obs, program.channels[0]


class TestOccupancyLog:
    def test_one_element_stamped_at_one_dequeued_at_ten(self):
        def build(builder):
            snd, rcv = builder.bounded(8, latency=1, name="link")

            def sender():
                yield snd.enqueue("a")

            def receiver():
                yield IncrCycles(10)
                yield rcv.dequeue()

            builder.add(FunctionContext(sender, handles=[snd], name="tx"))
            builder.add(FunctionContext(receiver, handles=[rcv], name="rx"))

        obs, channel = _traced(build)
        assert occupancy_log(obs.trace, channel) == [(1, 10)]

    def test_a_real_channel_stamps_zero(self):
        def build(builder):
            snd, rcv = builder.real(name="link")

            def sender():
                yield IncrCycles(5)
                yield snd.enqueue("a")

            def receiver():
                yield IncrCycles(3)
                yield rcv.dequeue()

            builder.add(FunctionContext(sender, handles=[snd], name="tx"))
            builder.add(FunctionContext(receiver, handles=[rcv], name="rx"))

        obs, channel = _traced(build)
        # A real channel couples no time: the receiver keeps its clock.
        assert occupancy_log(obs.trace, channel) == [(0, 3)]

    def test_void_enqueues_are_not_paired(self):
        def build(builder):
            snd, rcv = builder.unbounded(latency=1, name="link")
            ack_snd, ack_rcv = builder.unbounded(latency=1, name="ack")

            def sender():
                yield snd.enqueue("a")
                # The receiver finishes right after its ack: both
                # enqueues below are void.
                yield ack_rcv.dequeue()
                yield snd.enqueue("b")
                yield snd.enqueue("c")

            def receiver():
                yield IncrCycles(4)
                yield rcv.dequeue()
                yield ack_snd.enqueue(None)

            builder.add(FunctionContext(sender, handles=[snd, ack_rcv], name="tx"))
            builder.add(FunctionContext(receiver, handles=[rcv, ack_snd], name="rx"))

        obs, channel = _traced(build)
        kinds = [(event.kind, event.channel) for event in obs.trace.for_context("tx")]
        assert kinds.count(("enqueue", "link")) == 3
        assert channel.receiver_finished and channel.stats.max_real_occupancy == 1
        assert occupancy_log(obs.trace, channel) == [(1, 4)]
