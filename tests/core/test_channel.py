"""Unit tests for the pure time-bridging channel semantics.

These exercise the Channel state machine directly (no executor): stamping,
backpressure via the response queue, local time acceleration on both sides,
and the close/void termination transitions.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.channel import Channel, make_channel, peak_simulated_occupancy
from repro.core.time import TimeCell


def drain_dequeue(channel, clock):
    assert channel.can_dequeue()
    return channel.do_dequeue(clock)


class TestStamping:
    def test_element_stamped_with_sender_time_plus_latency(self):
        ch = Channel(capacity=4, latency=3)
        sender = TimeCell(10)
        ch.do_enqueue(sender, "x")
        receiver = TimeCell(0)
        assert ch.do_dequeue(receiver) == "x"
        assert receiver.now() == 13  # jumped to visibility stamp

    def test_receiver_already_past_stamp_keeps_its_time(self):
        ch = Channel(capacity=4, latency=1)
        ch.do_enqueue(TimeCell(0), "x")
        receiver = TimeCell(100)
        ch.do_dequeue(receiver)
        assert receiver.now() == 100

    def test_fifo_order(self):
        ch = Channel(capacity=8)
        sender = TimeCell()
        for i in range(5):
            ch.do_enqueue(sender, i)
            sender.incr(1)
        receiver = TimeCell()
        assert [ch.do_dequeue(receiver) for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_zero_latency_channel(self):
        ch = Channel(capacity=4, latency=0)
        ch.do_enqueue(TimeCell(5), "x")
        receiver = TimeCell(0)
        ch.do_dequeue(receiver)
        assert receiver.now() == 5


class TestBackpressure:
    def test_reserve_succeeds_under_capacity(self):
        ch = Channel(capacity=2)
        sender = TimeCell()
        assert ch.sender_try_reserve(sender)
        ch.do_enqueue(sender, 1)
        assert ch.sender_try_reserve(sender)
        ch.do_enqueue(sender, 2)

    def test_reserve_fails_when_full_and_no_responses(self):
        ch = Channel(capacity=1)
        sender = TimeCell()
        ch.do_enqueue(sender, 1)
        assert not ch.sender_try_reserve(sender)

    def test_response_frees_slot_and_advances_sender(self):
        ch = Channel(capacity=1, latency=1, resp_latency=2)
        sender = TimeCell(0)
        ch.do_enqueue(sender, "a")
        receiver = TimeCell(0)
        ch.do_dequeue(receiver)  # at time 1 (stamp), responds at 3
        assert receiver.now() == 1
        assert ch.sender_try_reserve(sender)
        # Draining the response advanced the sender to resp time 1 + 2.
        assert sender.now() == 3

    def test_sender_ahead_of_response_keeps_its_time(self):
        ch = Channel(capacity=1, latency=1, resp_latency=1)
        sender = TimeCell(0)
        ch.do_enqueue(sender, "a")
        receiver = TimeCell(0)
        ch.do_dequeue(receiver)
        sender.advance(50)
        assert ch.sender_try_reserve(sender)
        assert sender.now() == 50

    def test_unbounded_never_blocks(self):
        ch = Channel(capacity=None)
        sender = TimeCell()
        for i in range(1000):
            assert ch.sender_try_reserve(sender)
            ch.do_enqueue(sender, i)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Channel(capacity=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Channel(latency=-1)


class TestPeek:
    def test_peek_advances_time_without_removal(self):
        ch = Channel(capacity=4, latency=5)
        ch.do_enqueue(TimeCell(0), "x")
        receiver = TimeCell(0)
        assert ch.do_peek(receiver) == "x"
        assert receiver.now() == 5
        assert ch.can_dequeue()

    def test_peek_emits_no_response(self):
        ch = Channel(capacity=1)
        sender = TimeCell()
        ch.do_enqueue(sender, "x")
        receiver = TimeCell()
        ch.do_peek(receiver)
        assert not ch.sender_try_reserve(sender)  # slot still held


class TestTermination:
    def test_closed_for_receiver_only_after_drain(self):
        ch = Channel(capacity=4)
        ch.do_enqueue(TimeCell(), "x")
        ch.close_sender()
        assert not ch.closed_for_receiver
        ch.do_dequeue(TimeCell())
        assert ch.closed_for_receiver

    def test_void_channel_discards_enqueues(self):
        ch = Channel(capacity=1)
        ch.close_receiver()
        sender = TimeCell()
        assert ch.sender_try_reserve(sender)
        ch.do_enqueue(sender, "x")
        assert ch.sender_try_reserve(sender)  # still not full: data discarded
        ch.do_enqueue(sender, "y")
        assert not ch.can_dequeue()

    def test_void_still_drains_pending_responses_first(self):
        """Sender time advancement must not depend on *when* the receiver's
        finish became visible (the determinism argument in channel.py)."""
        ch = Channel(capacity=1, latency=1, resp_latency=1)
        sender = TimeCell(0)
        ch.do_enqueue(sender, "a")
        receiver = TimeCell(0)
        ch.do_dequeue(receiver)  # responds with t=2
        ch.close_receiver()
        assert ch.sender_try_reserve(sender)
        assert sender.now() == 2  # drained the response despite the void

    def test_close_sender_clears_responses(self):
        ch = Channel(capacity=1)
        sender = TimeCell()
        ch.do_enqueue(sender, "a")
        ch.do_dequeue(TimeCell())
        ch.close_sender()
        assert ch.sender_finished


class TestStats:
    def test_counters(self):
        ch = Channel(capacity=8)
        ch.enable_profiling()
        sender = TimeCell()
        for i in range(4):
            ch.do_enqueue(sender, i)
        receiver = TimeCell()
        ch.do_dequeue(receiver)
        assert ch.stats.enqueues == 4
        assert ch.stats.dequeues == 1
        assert ch.stats.max_real_occupancy == 4

    def test_profiling_log(self):
        ch = Channel(capacity=8, latency=1)
        ch.enable_profiling()
        sender = TimeCell(0)
        ch.do_enqueue(sender, "a")
        receiver = TimeCell(10)
        ch.do_dequeue(receiver)
        assert ch.profile_log == [(1, 10)]


class TestFlavorCodes:
    """``_enq_code`` / ``_deq_code`` are the only state ``Channel``
    derives, and the runners open-code codes 0 and 1 on trust.  The
    rule: enqueue is 1 on a live bounded channel, 0 on a live unbounded
    one, and 2 (call the method) once the receiver has finished or on a
    real channel; dequeue is 2 while profiling, 1 on a bounded channel
    whose sender is live (every dequeue responds), and 0 otherwise."""

    #: (enq, deq) after each step of ``drive``, per channel kind.
    EXPECTED = {
        "bounded": [(1, 1), (1, 0), (2, 0), (1, 1), (1, 2), (2, 2), (1, 2), (2, 0)],
        "unbounded": [(0, 0), (0, 0), (2, 0), (0, 0), (0, 2), (2, 2), (0, 2), (2, 0)],
        "real": [(2, 0), (2, 0), (2, 0), (2, 0), (2, 2), (2, 2), (2, 2), (2, 0)],
    }

    KINDS = {
        "bounded": {"capacity": 2},
        "unbounded": {},
        "real": {"real": True},
    }

    def drive(self, kind):
        """Yield the channel whose codes to read after each step."""
        channel = Channel(**self.KINDS[kind])
        yield channel
        channel.close_sender()
        yield channel
        channel.close_receiver()
        closed = channel.checkpoint_state()
        yield channel
        channel.reset()
        yield channel
        channel.enable_profiling()
        yield channel
        channel.restore_state(closed)  # profiling stays armed
        yield channel
        channel.reset()  # and survives a reset, re-armed empty
        yield channel
        fresh = Channel(**self.KINDS[kind])
        fresh.restore_state(closed)  # a resumed run's fresh build
        yield fresh

    @pytest.mark.parametrize("kind", sorted(EXPECTED))
    def test_codes_follow_every_state_transition(self, kind):
        codes = [(ch._enq_code, ch._deq_code) for ch in self.drive(kind)]
        assert codes == self.EXPECTED[kind]


class TestPeakSimulatedOccupancy:
    def test_empty_log(self):
        assert peak_simulated_occupancy([]) == 0

    def test_non_overlapping(self):
        assert peak_simulated_occupancy([(0, 1), (2, 3)]) == 1

    def test_overlapping(self):
        assert peak_simulated_occupancy([(0, 10), (1, 9), (2, 8)]) == 3

    def test_departure_at_arrival_instant_frees_first(self):
        # One element leaves exactly when another arrives: peak stays 1.
        assert peak_simulated_occupancy([(0, 5), (5, 9)]) == 1


class TestHandles:
    def test_make_channel_returns_linked_pair(self):
        snd, rcv = make_channel(capacity=3, name="link")
        assert snd.channel is rcv.channel
        assert snd.channel.name == "link"

    def test_handle_op_builders(self):
        from repro.core.ops import Dequeue, Enqueue, Peek

        snd, rcv = make_channel()
        assert isinstance(snd.enqueue(1), Enqueue)
        assert isinstance(rcv.dequeue(), Dequeue)
        assert isinstance(rcv.peek(), Peek)


@given(
    capacity=st.integers(min_value=1, max_value=4),
    latency=st.integers(min_value=0, max_value=5),
    resp_latency=st.integers(min_value=0, max_value=5),
    sends=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30),
)
def test_property_timestamps_nondecreasing_through_channel(
    capacity, latency, resp_latency, sends
):
    """Property: dequeue times are nondecreasing (FIFO + monotonic clocks),
    for any channel geometry and any sender pacing, when the receiver
    eagerly drains."""
    ch = Channel(capacity=capacity, latency=latency, resp_latency=resp_latency)
    sender = TimeCell()
    receiver = TimeCell()
    dequeue_times = []
    for gap in sends:
        sender.incr(gap)
        # Interleave: receiver drains whenever the sender is blocked.
        while not ch.sender_try_reserve(sender):
            ch.do_dequeue(receiver)
            dequeue_times.append(receiver.now())
        ch.do_enqueue(sender, gap)
    while ch.can_dequeue():
        ch.do_dequeue(receiver)
        dequeue_times.append(receiver.now())
    assert dequeue_times == sorted(dequeue_times)
    assert len(dequeue_times) == len(sends)
