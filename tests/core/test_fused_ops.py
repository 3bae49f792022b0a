"""FusedOps semantics: fusion must be invisible to simulated results.

Yielding ``FusedOps(op1, op2, ...)`` (or a plain tuple/list of ops) is the
one-suspension form of yielding each op in turn.  These tests pin the
contract from ``ops.py``/DESIGN.md §11: identical cycles, channel stats,
op accounting, and trace event sequences as the unfused form; list-of-
results delivery (valid only until the batch's next execution); blocking
mid-batch at exactly the constituent that would have blocked; ChannelClosed
surfacing at the yield point; and nested batches rejected.

Every behavioural test runs on the sequential executor's runners and on
the threaded executor's one-thread-per-context runtime (the paper's: it
steps each op through ``Channel``'s own methods) — the two must be
indistinguishable.  The park/wake section drives the runners' machinery
(inline peer delivery, last-constituent resume, mid-batch resume, rare
ops, slice expiry), and the paper's runtime beside it, against the spec
(``repro.spec``), untraced and traced: a traced run binds the traced
runners, and which context appends a row on a wake-with-delivery must
not show in any context's port history or in the profile.  The last
section parks one five-constituent batch on each of its positions and
checks that re-entering it — with its plan, after a checkpoint restore,
on the one-thread-per-context runtime — is invisible.
"""

import os

import pytest

from repro.contexts import (
    BinaryFunction,
    Broadcast,
    Collector,
    IterableSource,
    NullSink,
    RampSource,
    UnaryFunction,
)
from repro.core import (
    AdvanceTo,
    Context,
    DeadlockError,
    FairPolicy,
    FunctionContext,
    FusedOps,
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
from repro.core import checkpoint as ckpt
from repro.core.errors import ChannelClosed
from repro import spec as reference
from repro.obs import Observability
from repro.spec import simulated

BOTH_HOSTS = pytest.mark.parametrize(
    "host", ["sequential", "threaded"], ids=["sequential", "threaded-off"]
)


def run(builder, host="sequential", obs=None):
    if host == "threaded":
        executor = ThreadedExecutor(superblocks="off", obs=obs)
    else:
        executor = SequentialExecutor(obs=obs)
    return executor.execute(builder.build())


# ----------------------------------------------------------------------
# Result delivery.
# ----------------------------------------------------------------------


class TestResultDelivery:
    @BOTH_HOSTS
    def test_results_in_constituent_order(self, host):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(4)
        seen = []

        def producer():
            yield snd.enqueue(10)
            yield snd.enqueue(20)

        def consumer():
            results = yield FusedOps(rcv.dequeue(), IncrCycles(3), rcv.dequeue())
            seen.append(list(results))

        builder.add(FunctionContext(producer, handles=[snd]))
        builder.add(FunctionContext(consumer, handles=[rcv]))
        run(builder, host)
        # Dequeues deliver their element; IncrCycles delivers None.
        assert seen == [[10, None, 20]]

    @BOTH_HOSTS
    def test_plain_tuple_and_list_accepted(self, host):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(4)
        seen = []

        def producer():
            yield (snd.enqueue(1), snd.enqueue(2))
            yield [snd.enqueue(3), IncrCycles(1)]

        def consumer():
            a = yield rcv.dequeue()
            b, c = (yield (rcv.dequeue(), rcv.dequeue()))
            seen.append((a, b, c))

        builder.add(FunctionContext(producer, handles=[snd]))
        builder.add(FunctionContext(consumer, handles=[rcv]))
        run(builder, host)
        assert seen == [(1, 2, 3)]

    @BOTH_HOSTS
    def test_reused_batch_results_valid_until_next_execution(self, host):
        """The delivered list belongs to the batch: a reused ``FusedOps``
        rewrites it on its next execution, so contexts must read results
        at the yield (the documented contract)."""
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(4)
        retained = []
        at_yield = []

        def producer():
            for i in range(3):
                yield snd.enqueue(i)

        def consumer():
            step = FusedOps(rcv.dequeue())
            for _ in range(3):
                results = yield step
                at_yield.append(results[0])
                retained.append(results)

        builder.add(FunctionContext(producer, handles=[snd]))
        builder.add(FunctionContext(consumer, handles=[rcv]))
        run(builder, host)
        assert at_yield == [0, 1, 2]
        # Whether or not the executor reused one buffer, the values read
        # at each yield were correct; retaining across yields is only
        # guaranteed to still observe the *latest* execution's results.
        assert all(r[0] == retained[-1][0] for r in retained) or at_yield == [
            0,
            1,
            2,
        ]


# ----------------------------------------------------------------------
# Equivalence with the unfused form.
# ----------------------------------------------------------------------


def _pipeline(fused):
    """A source → double → sink pipeline, fused or op-at-a-time."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(2, name="raw")
    s2, r2 = builder.bounded(2, name="doubled")

    if fused:

        def source():
            enq = s1.enqueue(None)
            step = FusedOps(enq, IncrCycles(1))
            for i in range(40):
                enq.data = i
                yield step

        def double():
            deq = r1.dequeue()
            enq = s2.enqueue(None)
            step = FusedOps(enq, IncrCycles(2), deq)
            value = yield deq
            while True:
                enq.data = value * 2
                value = (yield step)[2]

    else:

        def source():
            for i in range(40):
                yield s1.enqueue(i)
                yield IncrCycles(1)

        def double():
            value = yield r1.dequeue()
            while True:
                yield s2.enqueue(value * 2)
                yield IncrCycles(2)
                value = yield r1.dequeue()

    builder.add(FunctionContext(source, handles=[s1], name="src"))
    builder.add(FunctionContext(double, handles=[r1, s2], name="double"))
    sink = Collector(r2, name="sink")
    builder.add(sink)
    return builder, sink


class TestFusedUnfusedEquivalence:
    @BOTH_HOSTS
    def test_cycles_stats_and_op_counts_match(self, host):
        """Fused, on either host, the record and the delivered values are
        the spec's of the unfused form."""
        plain_builder, plain_sink = _pipeline(fused=False)
        expected = reference.run(plain_builder.build()), plain_sink.values
        fused_builder, fused_sink = _pipeline(fused=True)
        summary = run(fused_builder, host)
        # A rebuild shares the channel objects.
        assert (simulated(fused_builder.build(), summary), fused_sink.values) == expected

    def test_trace_event_sequences_match_unfused(self):
        """Fusion emits the same per-constituent trace events, in the
        same order, at the same simulated times, as the unfused form."""

        def events(fused):
            builder, _ = _pipeline(fused=fused)
            obs = Observability(capture_payloads=True)
            run(builder, obs=obs)
            return [
                (e.context, e.kind, e.channel, e.time, e.payload, e.seq)
                for e in obs.trace.events
            ]

        assert events(fused=True) == events(fused=False)


# ----------------------------------------------------------------------
# Blocking mid-batch.
# ----------------------------------------------------------------------


class TestMidBatchBlocking:
    @BOTH_HOSTS
    def test_blocks_at_the_blocking_constituent(self, host):
        """Two fused enqueues into a capacity-1 channel: the second blocks
        until the consumer frees the slot, and its enqueue lands at the
        response-advanced time — exactly the unfused behaviour."""
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1, name="narrow")
        sink = Collector(rcv, ii=5, timestamps=True, name="sink")

        def producer():
            yield FusedOps(snd.enqueue("a"), snd.enqueue("b"))

        builder.add(FunctionContext(producer, handles=[snd], name="src"))
        builder.add(sink)
        summary = run(builder, host)
        assert [v for _, v in sink.values] == ["a", "b"]
        unfused = ProgramBuilder()
        snd2, rcv2 = unfused.bounded(1, name="narrow")
        sink2 = Collector(rcv2, ii=5, timestamps=True, name="sink")

        def producer2():
            yield snd2.enqueue("a")
            yield snd2.enqueue("b")

        unfused.add(FunctionContext(producer2, handles=[snd2], name="src"))
        unfused.add(sink2)
        summary2 = run(unfused, host)
        assert sink.values == sink2.values
        assert summary.elapsed_cycles == summary2.elapsed_cycles
        assert summary.ops_executed == summary2.ops_executed

    @BOTH_HOSTS
    def test_both_directions_parked_fused(self, host):
        """A ring where every transition is fused: park/wake must deliver
        mid-batch results on both the sender and receiver sides."""
        builder = ProgramBuilder()
        s1, r1 = builder.bounded(1)
        s2, r2 = builder.bounded(1)
        laps = 25
        finals = []

        def head():
            enq = s1.enqueue(None)
            deq = r2.dequeue()
            step = FusedOps(enq, IncrCycles(1))
            yield s1.enqueue(0)
            value = None
            for _ in range(laps):
                value = yield deq
                enq.data = value + 1
                yield step
            finals.append(value)

        def back():
            deq = r1.dequeue()
            enq = s2.enqueue(None)
            step = FusedOps(enq, IncrCycles(1), deq)
            value = yield deq
            while True:
                enq.data = value + 1
                value = (yield step)[2]

        builder.add(FunctionContext(head, handles=[s1, r2], name="head"))
        builder.add(FunctionContext(back, handles=[r1, s2], name="back"))
        run(builder, host)
        assert finals == [2 * laps - 1]


# ----------------------------------------------------------------------
# Error paths.
# ----------------------------------------------------------------------


class TestErrorPaths:
    @BOTH_HOSTS
    def test_channel_closed_raises_at_the_yield(self, host):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(4)
        out_snd, out_rcv = builder.bounded(4)
        sink = Collector(out_rcv, name="sink")
        caught = []

        def producer():
            yield snd.enqueue(1)

        def consumer():
            step = FusedOps(out_snd.enqueue("before"), rcv.dequeue())
            try:
                while True:
                    yield step
            except ChannelClosed:
                caught.append(True)

        builder.add(FunctionContext(producer, handles=[snd], name="src"))
        builder.add(FunctionContext(consumer, handles=[rcv, out_snd], name="mid"))
        builder.add(sink)
        run(builder, host)
        # First execution: enqueue + dequeue(1).  Second: the enqueue ran
        # (its effect persists), then the closed dequeue raised.
        assert caught == [True]
        assert sink.values == ["before", "before"]

    @BOTH_HOSTS
    def test_nested_fusion_rejected(self, host):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(4)

        def bad():
            yield FusedOps(IncrCycles(1), FusedOps(snd.enqueue(1)))

        builder.add(FunctionContext(bad, handles=[snd], name="bad"))
        builder.add(Collector(rcv, name="sink"))
        with pytest.raises(Exception, match="[Nn]est"):
            run(builder, host)

    @BOTH_HOSTS
    def test_negative_incr_cycles_rejected_fused(self, host):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(4)

        def bad():
            yield FusedOps(snd.enqueue(1), IncrCycles(-2))

        builder.add(FunctionContext(bad, handles=[snd], name="bad"))
        builder.add(Collector(rcv, name="sink"))
        with pytest.raises(Exception, match="backwards|negative"):
            run(builder, host)


# ----------------------------------------------------------------------
# Accounting.
# ----------------------------------------------------------------------


class TestAccounting:
    @BOTH_HOSTS
    def test_ops_counted_per_constituent(self, host):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(4)

        def producer():
            enq = snd.enqueue(None)
            step = FusedOps(enq, IncrCycles(1))
            for i in range(10):
                enq.data = i
                yield step

        builder.add(FunctionContext(producer, handles=[snd], name="src"))
        builder.add(Collector(rcv, name="sink"))
        summary = run(builder, host)
        # 10×(enqueue+incr) + 10 dequeues + 1 closing dequeue attempt:
        # identical to the unfused form of the same program.
        unfused = ProgramBuilder()
        snd2, rcv2 = unfused.bounded(4)

        def producer2():
            for i in range(10):
                yield snd2.enqueue(i)
                yield IncrCycles(1)

        unfused.add(FunctionContext(producer2, handles=[snd2], name="src"))
        unfused.add(Collector(rcv2, name="sink"))
        summary2 = run(unfused, host)
        assert summary.ops_executed == summary2.ops_executed

    @BOTH_HOSTS
    def test_blocked_constituent_not_double_counted(self, host):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1)
        sink = Collector(rcv, ii=3, name="sink")

        def producer():
            enq = snd.enqueue(None)
            step = FusedOps(enq, IncrCycles(1))
            for i in range(6):  # every enqueue after the first parks
                enq.data = i
                yield step

        builder.add(FunctionContext(producer, handles=[snd], name="src"))
        builder.add(sink)
        summary = run(builder, host)
        program = builder.build()
        chan = program.channels[0]
        assert chan.stats.enqueues == 6
        assert chan.stats.dequeues == 6  # the closing attempt moves nothing
        # Parked constituents count once when first attempted, never again
        # on retry — so the total matches the unfused form exactly.
        assert summary.ops_executed == summary2_expected(sink)


def summary2_expected(sink):
    # The unfused equivalent measured once; kept as a helper so the
    # number above has a derivation rather than a magic constant.
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1)

    def producer():
        for i in range(6):
            yield snd.enqueue(i)
            yield IncrCycles(1)

    builder.add(FunctionContext(producer, handles=[snd], name="src"))
    builder.add(Collector(rcv, ii=3, name="sink"))
    return SequentialExecutor().execute(builder.build()).ops_executed


# ----------------------------------------------------------------------
# Park/wake shapes: runners vs one thread per context, bit for bit.
# ----------------------------------------------------------------------
# Each builder returns ``(program, observe)``; ``observe()`` reads what
# the contexts saw.  Contexts and channels are compared by program
# position (auto-generated names carry a global counter).


def _library_pipeline():
    """Stock contexts over capacity-2 channels: parks on both sides."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(2)
    s2, r2 = builder.bounded(2)
    builder.add(RampSource(s1, 25))
    builder.add(UnaryFunction(r1, s2, lambda x: 2 * x))
    collector = builder.add(Collector(r2))
    return builder.build(), lambda: list(collector.values)


def _capacity_one_ping_pong():
    """Every hop parks: capacity-1 channels with response latency."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(1, latency=1, resp_latency=1)
    s2, r2 = builder.bounded(1, latency=1, resp_latency=1)
    builder.add(RampSource(s1, 30, ii=1))
    builder.add(UnaryFunction(r1, s2, lambda x: x + 1, ii=1))
    collector = builder.add(Collector(r2, ii=2))
    return builder.build(), lambda: list(collector.values)


def _diamond():
    builder = ProgramBuilder()
    s_in, r_in = builder.bounded(2)
    s_a, r_a = builder.bounded(2)
    s_b, r_b = builder.bounded(2)
    s_out, r_out = builder.bounded(2)
    builder.add(RampSource(s_in, 12))
    builder.add(Broadcast(r_in, [s_a, s_b]))
    builder.add(BinaryFunction(r_a, r_b, s_out, lambda a, b: a + b))
    collector = builder.add(Collector(r_out))
    return builder.build(), lambda: list(collector.values)


def _unbounded():
    builder = ProgramBuilder()
    snd, rcv = builder.unbounded()
    builder.add(RampSource(snd, 40, ii=1))
    collector = builder.add(Collector(rcv, ii=3))
    return builder.build(), lambda: list(collector.values)


def _fused_parks_both_positions():
    """Tuple batches against capacity-1 channels: the stage parks on a
    non-last constituent (the dequeue and the enqueue each lead their
    batch) and is woken with the result delivered mid-batch."""

    class FusedStage(Context):
        def __init__(self, inp, out):
            super().__init__()
            self.inp, self.out = inp, out
            self.register(inp, out)

        def run(self):
            while True:
                value = yield (self.inp.dequeue(), IncrCycles(2))
                yield (self.out.enqueue(value[0] * 3), IncrCycles(1))

    builder = ProgramBuilder()
    s1, r1 = builder.bounded(1, latency=1, resp_latency=1)
    s2, r2 = builder.bounded(1, latency=1, resp_latency=1)
    builder.add(IterableSource(s1, list(range(20)), ii=1))
    builder.add(FusedStage(r1, s2))
    collector = builder.add(Collector(r2, ii=3))
    return builder.build(), lambda: list(collector.values)


def _fused_batch_ending_in_dequeue():
    """Last-constituent park: the batch's final op is the dequeue, so
    the waker's delivery completes the batch and the woken slice
    finalizes it inline."""

    class DeqLast(Context):
        def __init__(self, inp, out):
            super().__init__()
            self.inp, self.out = inp, out
            self.register(inp, out)

        def run(self):
            total = 0
            while True:
                results = yield (IncrCycles(1), self.inp.dequeue())
                total += results[1]
                yield self.out.enqueue(total)

    builder = ProgramBuilder()
    s1, r1 = builder.bounded(1)
    s2, r2 = builder.bounded(4)
    builder.add(RampSource(s1, 15, ii=2))
    builder.add(DeqLast(r1, s2))
    collector = builder.add(Collector(r2))
    return builder.build(), lambda: list(collector.values)


def _early_receiver_close():
    """A receiver that stops early voids the channel under a producer
    that is parked on it."""

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
    source = builder.add(RampSource(snd, 50, ii=1))
    builder.add(TakeTwo(rcv))
    return builder.build(), lambda: source.finish_time


def _view_time():
    observed = []

    class Observer(Context):
        def __init__(self, peer, inp):
            super().__init__()
            self.peer, self.inp = peer, inp
            self.register(inp)

        def run(self):
            yield self.inp.dequeue()
            observed.append((yield ViewTime(self.peer)))

    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1)
    source = builder.add(IterableSource(snd, ["x"], initial_delay=42))
    builder.add(Observer(source, rcv))
    return builder.build(), lambda: list(observed)


def _advance_to():
    class Jumper(Context):
        def __init__(self, out):
            super().__init__()
            self.out = out
            self.register(out)

        def run(self):
            yield AdvanceTo(500)
            yield self.out.enqueue("late")

    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1)
    jumper = builder.add(Jumper(snd))
    builder.add(NullSink(rcv))
    return builder.build(), lambda: jumper.finish_time


def _peek():
    peeked = []

    class Peeker(Context):
        def __init__(self, inp):
            super().__init__()
            self.inp = inp
            self.register(inp)

        def run(self):
            peeked.append((yield self.inp.peek()))
            peeked.append((yield self.inp.dequeue()))

    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1)
    builder.add(IterableSource(snd, [7], initial_delay=5))
    builder.add(Peeker(rcv))
    return builder.build(), lambda: list(peeked)


def _wait_until():
    """A WaitUntil waiter parked on a peer's clock, woken once the peer
    is past the threshold: what it reads is the peer's clock at wakeup,
    which depends on the host (``observe`` reports it apart)."""
    results = []

    class Waiter(Context):
        def __init__(self, peer):
            super().__init__()
            self.peer = peer

        def run(self):
            results.append((yield WaitUntil(self.peer, 100)))

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
    snd, rcv = builder.bounded(2)
    mover = builder.add(Mover(snd))
    builder.add(NullSink(rcv))
    builder.add(Waiter(mover))
    return builder.build(), lambda: list(results)


_SHAPES = {
    "pipeline": _library_pipeline,
    "ping_pong": _capacity_one_ping_pong,
    "diamond": _diamond,
    "unbounded": _unbounded,
    "fused_both_positions": _fused_parks_both_positions,
    "fused_ends_in_dequeue": _fused_batch_ending_in_dequeue,
    "early_receiver_close": _early_receiver_close,
    "view_time": _view_time,
    "advance_to": _advance_to,
    "peek": _peek,
    "wait_until": _wait_until,
}

#: Shapes whose ``observe`` is a peer's clock, with the bound it is past.
_PEER_CLOCK_READS = {"view_time": 42, "wait_until": 100}

#: Run-to-block, and a two-resumption slice that expires between (and,
#: once a batch has parked, in the middle of) fused batches.
_POLICIES = {"fifo": lambda: "fifo", "slice2": lambda: FairPolicy(timeslice=2)}


#: The tracing input: no trace, rows without payloads, rows with them.
_TRACING = {"untraced": None, "rows": False, "payloads": True}


def _build_named(build):
    """``build()`` with contexts and channels renamed by program
    position, so the trace rows and profiles of two builds compare."""
    program, observe = build()
    for slot, ctx in enumerate(program.contexts):
        ctx.name = f"ctx{slot}"
    for slot, channel in enumerate(program.channels):
        channel.name = f"ch{slot}"
    return program, observe


def _rows(obs):
    """Per-context rows of simulated ops."""
    return {name: list(buffer.rows) for name, buffer in obs.trace.buffers().items()}


def _run(build, payloads=None, host="sequential", metrics=False, **executor_kwargs):
    """``(record, observed, summary)`` of one run of ``build()`` — on the
    sequential engine, one thread per context (``host="threaded"``) or
    the spec (``host="spec"``, no summary): its
    :func:`repro.spec.simulated` record, traced when ``payloads`` is not
    None (with the data moved when true), what the shape observed, and
    the summary, for its scheduling counters.  ``metrics`` attaches a
    registry too (the sequential executor then wall-times every slice)."""
    program, observe = _build_named(build)
    if host == "spec":
        record = reference.run(program, payloads is not None, bool(payloads))
        return record, observe(), None
    obs = (
        None
        if payloads is None
        else Observability(metrics=metrics, capture_payloads=payloads)
    )
    if host == "threaded":
        executor = ThreadedExecutor(superblocks="off", obs=obs, **executor_kwargs)
    else:
        executor = SequentialExecutor(obs=obs, **executor_kwargs)
    summary = executor.execute(program)
    return simulated(program, summary, obs), observe(), summary


#: The hosts each park/wake shape runs on: the sequential engine's
#: run-to-block and two-resumption slices, and one thread per context.
_HOSTS = {
    "fifo": {"policy": "fifo"},
    "slice2": {"policy": FairPolicy(timeslice=2)},
    "threaded-off": {"host": "threaded"},
}


class TestParkWakeShapes:
    @pytest.mark.parametrize("tracing", sorted(_TRACING))
    @pytest.mark.parametrize("host", sorted(_HOSTS))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_matches_the_spec(self, shape, host, tracing):
        build = _SHAPES[shape]
        payloads = _TRACING[tracing]
        record, seen, summary = _run(build, payloads, **_HOSTS[host])
        expected, expected_seen, _ = _run(build, payloads, "spec")
        if shape in _PEER_CLOCK_READS:
            # A peer's clock read is a lower bound, not a value: each
            # host reads it at its own boundary.
            assert min(seen + expected_seen) >= _PEER_CLOCK_READS[shape]
        else:
            assert seen == expected_seen
        assert record == expected
        assert sum(record["ops"]) == summary.ops_executed > 0
        if payloads is not None:
            # One row per completed op that records (ViewTime/WaitUntil
            # do not) plus one finish row per context that finished.
            trace = record["trace"]
            rows = sum(len(ports) for ports, _, _ in trace.values())
            assert 0 < rows <= summary.ops_executed + len(trace)
            assert record["profile"]["finish_time"] == summary.elapsed_cycles
        if host == "fifo":
            # Run-to-block never preempts.
            assert summary.preemptions == 0

    def test_delivered_values(self):
        def observed(build):
            return _run(build)[1]

        assert observed(_capacity_one_ping_pong) == [i + 1 for i in range(30)]
        assert observed(_fused_parks_both_positions) == [
            3 * i for i in range(20)
        ]
        totals = [sum(range(i + 1)) for i in range(15)]
        assert observed(_fused_batch_ending_in_dequeue) == totals
        assert observed(_peek) == [7, 7]

    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    def test_wait_until_returns_the_peer_clock_at_wakeup(self, policy):
        """The sequential host wakes the waiter when the mover's slice
        ends past the threshold, and the waiter reads the mover's clock
        there: at least 100, and a time in the mover's port history."""
        record, [seen], _ = _run(_wait_until, True, policy=_POLICIES[policy]())
        assert seen >= 100
        assert seen in record["trace"]["ctx0"][1]

    @BOTH_HOSTS
    def test_deadlock_reported(self, host):
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
            run(builder, host)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    def test_deadline_abort(self, policy, traced):
        """A deadline bounds the slices, under either policy, traced or
        not; it ends a ping-pong that never stops."""

        class SliceSpy(SequentialExecutor):
            slices = 0

            def _begin_slice(self, state, timeslice):
                self.slices += 1
                return super()._begin_slice(state, timeslice)

        builder = ProgramBuilder()
        s1, r1 = builder.bounded(1, latency=1, resp_latency=1)
        s2, r2 = builder.bounded(1, latency=1, resp_latency=1)

        def source():
            value = 0
            while True:
                yield s1.enqueue(value)
                value += 1

        def relay():
            while True:
                value = yield r1.dequeue()
                yield (IncrCycles(1), s2.enqueue(value + 1))

        def sink():
            while True:
                yield r2.dequeue()

        builder.add(FunctionContext(source, handles=[s1], name="source"))
        builder.add(FunctionContext(relay, handles=[r1, s2], name="relay"))
        builder.add(FunctionContext(sink, handles=[r2], name="sink"))
        obs = Observability(metrics=False) if traced else None
        executor = SliceSpy(deadline_s=0.2, policy=_POLICIES[policy](), obs=obs)
        with pytest.raises(RunTimeoutError) as info:
            executor.execute(builder.build())
        assert info.value.summary.context_times["sink"] > 0
        assert executor.slices > 0
        if traced:
            assert all(_rows(obs).values())

    @pytest.mark.parametrize("payloads", [False, True], ids=["rows", "payloads"])
    def test_traced_process_run_matches_the_spec(self, payloads):
        """Two forked workers run the traced runners against channel
        clones (every channel of this pipeline is cut); merged back, the
        record — each context's port history and the profile among it —
        is the spec's."""
        expected = _run(_capacity_one_ping_pong, payloads, "spec")[:2]
        program, observe = _build_named(_capacity_one_ping_pong)
        pins = {id(ctx): slot % 2 for slot, ctx in enumerate(program.contexts)}
        obs = Observability(metrics=False, capture_payloads=payloads)
        summary = program.run(
            "process", config=RunConfig(workers=2, pins=pins, obs=obs)
        )
        assert (simulated(program, summary, obs), observe()) == expected


# ----------------------------------------------------------------------
# Re-entering a parked batch.
# ----------------------------------------------------------------------
# A five-constituent batch against three capacity-1 lanes.  A scripted
# peer feeds (or drains) one lane per bare op; under ``FairPolicy(1)``
# it runs one op per slice and the woken stage runs next, so the script
# says where the batch parks.  The contexts keep the resumable-state
# contract (DESIGN.md §17): a checkpoint restore re-derives their yields.


class _Feeder(Context):
    checkpoint_attrs = ("_step",)

    def __init__(self, outs, script):
        super().__init__()
        self.outs, self.script = outs, script
        self._step = 0
        self.register(*outs)

    def run(self):
        while self._step < len(self.script):
            lane = self.script[self._step]
            yield self.outs[lane].enqueue(10 * self._step + lane)
            self._step += 1


class _Drainer(Context):
    checkpoint_attrs = ("_step", "got")

    def __init__(self, inps, script):
        super().__init__()
        self.inps, self.script = inps, script
        self._step = 0
        self.got = []
        self.register(*inps)

    def run(self):
        while self._step < len(self.script):
            value = yield self.inps[self.script[self._step]].dequeue()
            self.got.append(value)
            self._step += 1


class _Gather(Context):
    """``(dequeue, tick, dequeue, tick, dequeue)`` per round; with
    ``peek``, the middle lane is peeked before it is dequeued."""

    checkpoint_attrs = ("_round", "rows")

    def __init__(self, inps, rounds, peek=False):
        super().__init__()
        self.inps, self.rounds, self.peek = inps, rounds, peek
        self._round = 0
        self.rows = []
        self.register(*inps)

    def run(self):
        a, b, c = self.inps
        middle = (b.peek(), b.dequeue()) if self.peek else (b.dequeue(),)
        step = FusedOps(
            a.dequeue(), IncrCycles(1), *middle, IncrCycles(2), c.dequeue()
        )
        taken = (0, len(middle) + 1, len(middle) + 3)
        try:
            while self._round < self.rounds:
                got = yield step
                self.rows.append(tuple(got[at] for at in taken))
                self._round += 1
        except ChannelClosed:
            self.rows.append("closed")


class _Scatter(Context):
    """``(enqueue, tick, enqueue, tick, enqueue)`` per round."""

    checkpoint_attrs = ("_round",)

    def __init__(self, outs, rounds):
        super().__init__()
        self.outs, self.rounds = outs, rounds
        self._round = 0
        self.register(*outs)

    def run(self):
        enqs = [out.enqueue(None) for out in self.outs]
        step = FusedOps(enqs[0], IncrCycles(1), enqs[1], IncrCycles(2), enqs[2])
        while self._round < self.rounds:
            for lane, enq in enumerate(enqs):
                enq.data = 10 * self._round + lane
            yield step
            self._round += 1


def _gather(script, rounds, peek=False):
    def build():
        builder = ProgramBuilder()
        lanes = [builder.bounded(1) for _ in range(3)]
        # A parked peek the waker cannot complete: retry, re-enter.
        stage = builder.add(_Gather([rcv for _, rcv in lanes], rounds, peek))
        builder.add(_Feeder([snd for snd, _ in lanes], script))
        return builder.build(), lambda: list(stage.rows)

    return build


def _scatter(script, rounds):
    def build():
        builder = ProgramBuilder()
        lanes = [builder.bounded(1) for _ in range(3)]
        builder.add(_Scatter([snd for snd, _ in lanes], rounds))
        drainer = builder.add(_Drainer([rcv for _, rcv in lanes], script))
        return builder.build(), lambda: list(drainer.got)

    return build


#: In lane order (first, middle, last park of every round, each later
#: park inside the batch the earlier one re-entered), then out of order
#: (one park, the re-entry runs the rest of the batch through).
_SCRIPT = [0, 1, 2, 0, 1, 2, 2, 1, 0, 1, 2, 0, 0, 2, 1]

_REENTRY = {
    "gather": _gather(_SCRIPT, 5),
    "gather_peeked": _gather(_SCRIPT, 5, peek=True),
    # The feeder finishes with the stage parked mid-batch: abandoned.
    "gather_closed": _gather(_SCRIPT[:5], 3),
    "scatter": _scatter(_SCRIPT, 5),
    # The drainer finishes with the stage parked on a full lane, which
    # turns void: the retried enqueue succeeds and the batch goes on.
    "scatter_voided": _scatter(_SCRIPT[:4], 3),
}

#: Where ``_Wide``'s batch dequeues; every other constituent is a tick.
_WIDE_AT = (0, 5, 16, 100, 517, 950, 1100, 1199)


class _Wide(Context):
    """One 1,200-constituent batch per round, longer than a recursion
    limit's worth of one-constituent runners: a restore mid-batch must
    re-enter it through the batch's own chunk runners."""

    checkpoint_attrs = ("_round", "rows")

    def __init__(self, inp, rounds):
        super().__init__()
        self.inp, self.rounds = inp, rounds
        self._round = 0
        self.rows = []
        self.register(inp)

    def run(self):
        step = FusedOps(*[
            self.inp.dequeue() if at in _WIDE_AT else IncrCycles(at % 3)
            for at in range(1200)
        ])
        while self._round < self.rounds:
            got = yield step
            self.rows.append([got[at] for at in _WIDE_AT])
            self._round += 1


def _wide():
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1)
    stage = builder.add(_Wide(rcv, 2))
    builder.add(_Feeder([snd], [0] * (2 * len(_WIDE_AT))))
    return builder.build(), lambda: list(stage.rows)


_REENTRY_POLICIES = {
    "fifo": lambda: "fifo",
    "slice1": lambda: FairPolicy(timeslice=1),
    "slice4": lambda: FairPolicy(timeslice=4),
}

#: ``(context_switches, wakeups, preemptions)`` of the fast loop at the
#: commit before the resume twin was folded into it (``gather_peeked``'s
#: are those of the profiled lane it replaces, which parked alike).
_REENTRY_COUNTERS = {
    ('gather', 'fifo'): (8, 7, 0),
    ('gather', 'slice1'): (21, 10, 15),
    ('gather', 'slice4'): (10, 8, 1),
    ('gather_closed', 'fifo'): (4, 3, 0),
    ('gather_closed', 'slice1'): (12, 6, 5),
    ('gather_closed', 'slice4'): (4, 2, 1),
    ('gather_peeked', 'fifo'): (8, 7, 0),
    ('gather_peeked', 'slice1'): (21, 10, 15),
    ('gather_peeked', 'slice4'): (10, 8, 1),
    ('scatter', 'fifo'): (7, 6, 0),
    ('scatter', 'slice1'): (17, 7, 16),
    ('scatter', 'slice4'): (9, 7, 1),
    ('scatter_voided', 'fifo'): (2, 1, 0),
    ('scatter_voided', 'slice1'): (10, 4, 5),
    ('scatter_voided', 'slice4'): (4, 2, 1),
}


class _ResumeSpy(SequentialExecutor):
    """Records ``(fused_index, result delivered by the waker?)`` of every
    slice that starts on a parked batch.  A deadline never reached makes
    the run bounded, so the schedule loop calls ``_begin_slice``."""

    def __init__(self, **kwargs):
        super().__init__(deadline_s=3600.0, **kwargs)
        self.resumed = set()

    def _begin_slice(self, state, timeslice):
        if state.fused_batch is not None:
            assert state.fused_batch.plan is not None  # bound: re-entered by runners
            self.resumed.add((state.fused_index, state.retry_op is None))
        return super()._begin_slice(state, timeslice)


class TestBatchReentry:
    @pytest.mark.parametrize("policy", sorted(_REENTRY_POLICIES))
    @pytest.mark.parametrize("scenario", sorted(_REENTRY))
    def test_matches_the_spec_and_the_recorded_schedule(self, scenario, policy):
        build = _REENTRY[scenario]
        make_policy = _REENTRY_POLICIES[policy]
        traced = _run(build, True, policy=make_policy())
        untraced = _run(build, policy=make_policy())
        # The schedule loop's other legs: wall-timed slices (metrics) and
        # bounded slices with their begin/end hooks (a deadline never
        # reached).
        timed = _run(build, True, metrics=True, policy=make_policy())
        bounded = _run(build, policy=make_policy(), deadline_s=3600.0)
        expected = _run(build, True, "spec")[:2]
        assert traced[:2] == expected and timed[:2] == expected
        expected = _run(build, None, "spec")[:2]
        assert untraced[:2] == expected and bounded[:2] == expected
        counters = [
            (s.context_switches, s.wakeups, s.preemptions)
            for _, _, s in (traced, untraced, timed, bounded)
        ]
        assert counters == [_REENTRY_COUNTERS[scenario, policy]] * 4
        assert timed[2].metrics is not None

    def test_every_position_parks_and_resumes(self):
        """The scripts do what their comments say (else the matrix above
        silently stops covering the re-entry)."""

        def resumed(scenario):
            program, _ = _REENTRY[scenario]()
            spy = _ResumeSpy(policy=FairPolicy(timeslice=1))
            spy.execute(program)
            return spy.resumed

        delivered = {(0, True), (2, True), (4, True)}
        assert resumed("gather") == delivered
        assert resumed("scatter") == delivered
        assert (2, False) in resumed("gather_peeked")
        assert (4, False) in resumed("gather_closed")
        assert (2, False) in resumed("scatter_voided")

    @pytest.mark.parametrize(
        "scenario", ["gather", "gather_peeked", "scatter", "wide"]
    )
    def test_restored_batch_is_reentered(self, scenario, tmp_path):
        """A checkpoint keeps a mid-batch suspension as data; restored,
        the re-derived ops are bound as a fresh batch and re-entered by
        the runners at the recorded constituent.  From every epoch, the
        restored run finishes alike under either policy, and delivers
        what the uninterrupted run delivered."""
        build = _REENTRY.get(scenario) or _wide
        whole, whole_seen, _ = _run(build, host="spec")
        program, _ = _build_named(build)
        SequentialExecutor(
            policy=FairPolicy(timeslice=1),
            checkpoint_interval_s=0.0,
            checkpoint_path=str(tmp_path),
        ).execute(program)
        mid_batch = 0
        for path in ckpt.list_checkpoints(str(tmp_path)):

            def restored():
                program, observe = _build_named(build)
                ckpt.load(path, program).restore_into(program)
                return program, observe

            records = ckpt.load(path).contexts.values()
            mid_batch += any(r.get("fused_index") is not None for r in records)
            sliced = _run(restored, True, policy=FairPolicy(timeslice=1))
            fifo = _run(restored, True)
            assert sliced[:2] == fifo[:2], os.path.basename(path)
            # A resumed run traces since its restore, and counts the
            # ops of the whole run.
            for key in ("finish", "channels", "ops"):
                assert sliced[0][key] == whole[key], (os.path.basename(path), key)
            assert sliced[1] == whole_seen, os.path.basename(path)
        assert mid_batch >= (5 if scenario == "wide" else 3)

    @pytest.mark.parametrize("scenario", sorted(_REENTRY))
    def test_one_thread_per_context_matches(self, scenario):
        """The paper's runtime steps bare ops and batch constituents
        through one ``_step``: the spec's record and results."""
        build = _REENTRY[scenario]
        assert _run(build, True, "threaded")[:2] == _run(build, True, "spec")[:2]

    @pytest.mark.parametrize(
        "bad",
        [
            lambda snd: (IncrCycles(1), (snd.enqueue(1),)),
            lambda snd: FusedOps(IncrCycles(1), FusedOps(snd.enqueue(1))),
            lambda snd: (IncrCycles(1), "junk"),
            lambda snd: "junk",
        ],
        ids=["nested-tuple", "nested-fused", "junk-in-batch", "junk"],
    )
    def test_one_thread_per_context_rejects_what_sequential_rejects(self, bad):
        def build():
            builder = ProgramBuilder()
            snd, rcv = builder.bounded(4)
            builder.add(FunctionContext(lambda: (yield bad(snd)), handles=[snd]))
            builder.add(Collector(rcv))
            return builder.build()

        for executor, config in [
            ("threaded", RunConfig(superblocks="off")),
            ("sequential", None),
        ]:
            with pytest.raises(SimulationError) as caught:
                build().run(executor, config=config)
            assert isinstance(caught.value.original, TypeError)
