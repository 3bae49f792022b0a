"""Process executor: shm primitives, partitioning, and cross-process
equivalence with the in-process executors."""

import gc
import glob
import multiprocessing
import os
import pickle
import time
import types

import numpy as np
import pytest

from repro import (
    Context,
    DeadlockError,
    FunctionContext,
    GraphConstructionError,
    IncrCycles,
    Observability,
    ProcessExecutor,
    ProgramBuilder,
    RunConfig,
    RunTimeoutError,
    SimulationError,
    channel_weights,
    plan_partition,
)
from repro import spec as reference
from repro.core.channel import Channel
from repro.core.executor import partitioned
from repro.core.executor.shm import (
    ArenaLayout,
    RecordTooLarge,
    SharedArena,
    SharedClockArray,
    SharedTimeView,
    ShmRing,
)
from repro.core.ops import Peek, WaitUntil
from repro.core.time import INFINITY, TimeCell
from repro.spec import simulated


# ----------------------------------------------------------------------
# Shared-memory primitives.
# ----------------------------------------------------------------------


class TestShmRing:
    def _ring(self, capacity):
        arena = SharedArena(ShmRing.size_for(capacity))
        ring = arena.adopt(ShmRing(arena.view(0, ShmRing.size_for(capacity)), capacity))
        return arena, ring

    def test_fifo_roundtrip(self):
        arena, ring = self._ring(4096)
        try:
            records = [("d", i, {"payload": i * 2}) for i in range(50)]
            for record in records:
                assert ring.try_push(record)
            popped = []
            while True:
                ok, record = ring.try_pop()
                if not ok:
                    break
                popped.append(record)
            assert popped == records
        finally:
            arena.close()
            arena.unlink()

    def test_wraparound_preserves_order(self):
        arena, ring = self._ring(256)
        try:
            sent = 0
            received = []
            # Push/pop interleaved far past the capacity so records wrap.
            for round_ in range(200):
                while ring.try_push(("d", sent, "x" * (sent % 17))):
                    sent += 1
                while True:
                    ok, record = ring.try_pop()
                    if not ok:
                        break
                    received.append(record)
            assert [r[1] for r in received] == list(range(len(received)))
            assert len(received) > 100
        finally:
            arena.close()
            arena.unlink()

    def test_full_ring_rejects_then_accepts(self):
        arena, ring = self._ring(64)
        try:
            pushed = 0
            while ring.try_push(("d", pushed)):
                pushed += 1
            assert pushed >= 1
            assert not ring.try_push(("d", pushed))
            ok, _ = ring.try_pop()
            assert ok
            assert ring.try_push(("d", pushed))
        finally:
            arena.close()
            arena.unlink()

    def test_oversized_record_raises(self):
        arena, ring = self._ring(64)
        try:
            with pytest.raises(RecordTooLarge):
                ring.try_push("y" * 1024)
        finally:
            arena.close()
            arena.unlink()


class TestSharedClocks:
    def test_publish_mirrors_and_view_reads(self):
        arena = SharedArena(SharedClockArray.size_for(2))
        try:
            clocks = arena.adopt(
                SharedClockArray(arena.view(0, SharedClockArray.size_for(2)), 2)
            )
            cell = TimeCell()
            owned = [(cell, 0)]
            view = SharedTimeView(clocks, 0)
            assert view.now() == 0.0
            cell.incr(5)
            assert view.now() == 0.0  # stale until the owner publishes
            clocks.publish(owned)
            assert view.now() == 5.0
            cell.advance(42)
            cell.advance(3)  # backwards advance is a no-op
            clocks.publish(owned)
            assert view.now() == 42.0
            assert clocks.read(1) == 0.0  # the other slot is untouched
            assert not view.finished
            cell.finish()
            clocks.publish(owned)
            assert view.now() == INFINITY
            assert view.finished
            with pytest.raises(RuntimeError):
                view.incr(1)
        finally:
            arena.close()
            arena.unlink()


# ----------------------------------------------------------------------
# Partition planning.
# ----------------------------------------------------------------------


def _chain(builder, names, capacity=4):
    """A producer -> relay... -> consumer chain; returns contexts."""
    contexts = []
    prev_rcv = None
    for index, name in enumerate(names):
        last = index == len(names) - 1
        if not last:
            snd, rcv = builder.bounded(capacity, name=f"{name}_out")
        if index == 0:
            def producer(snd=snd):
                for k in range(20):
                    yield snd.enqueue(k)
                    yield IncrCycles(1)
            ctx = FunctionContext(producer, handles=[snd], name=name)
        elif last:
            def consumer(rcv=prev_rcv):
                while True:
                    yield rcv.dequeue()
                    yield IncrCycles(1)
            ctx = FunctionContext(consumer, handles=[prev_rcv], name=name)
        else:
            def relay(rcv=prev_rcv, snd=snd):
                while True:
                    value = yield rcv.dequeue()
                    yield snd.enqueue(value)
            ctx = FunctionContext(relay, handles=[prev_rcv, snd], name=name)
        builder.add(ctx)
        contexts.append(ctx)
        if not last:
            prev_rcv = rcv
    return contexts


class TestPartitionPlan:
    def test_single_worker_is_trivial(self):
        builder = ProgramBuilder()
        _chain(builder, ["a", "b", "c"])
        program = builder.build()
        plan = plan_partition(program, 1)
        assert plan.workers_used == 1
        assert plan.cut == []
        assert plan.cut_weight == 0.0

    def test_independent_components_split_with_zero_cut(self):
        builder = ProgramBuilder()
        _chain(builder, ["a0", "b0"])
        _chain(builder, ["a1", "b1"])
        program = builder.build()
        plan = plan_partition(program, 2)
        assert plan.workers_used == 2
        assert plan.cut == []
        # Components stay whole: paired contexts share a worker.
        assignment = {ctx.name: plan.assignment[id(ctx)] for ctx in program.contexts}
        assert assignment["a0"] == assignment["b0"]
        assert assignment["a1"] == assignment["b1"]
        assert assignment["a0"] != assignment["a1"]

    def test_heavy_edges_kept_inside_partitions(self):
        builder = ProgramBuilder()
        contexts = _chain(builder, ["a", "b", "c", "d"])
        program = builder.build()
        weights = {"a_out": 100.0, "b_out": 1.0, "c_out": 100.0}
        plan = plan_partition(program, 2, weights=weights, balance=1.0)
        cut_names = [ch.name for ch in plan.cut]
        assert cut_names == ["b_out"]
        assert plan.cut_weight == 1.0

    def test_pins_are_honored(self):
        builder = ProgramBuilder()
        contexts = _chain(builder, ["a", "b"])
        program = builder.build()
        pins = {id(contexts[0]): 0, id(contexts[1]): 1}
        plan = plan_partition(program, 2, pins=pins)
        assert plan.assignment[id(contexts[0])] == 0
        assert plan.assignment[id(contexts[1])] == 1
        assert [ch.name for ch in plan.cut] == ["a_out"]

    def test_invalid_pins_rejected(self):
        builder = ProgramBuilder()
        contexts = _chain(builder, ["a", "b"])
        program = builder.build()
        with pytest.raises(GraphConstructionError):
            plan_partition(program, 2, pins={id(contexts[0]): 7})
        with pytest.raises(GraphConstructionError):
            plan_partition(program, 2, pins={12345: 0})
        with pytest.raises(GraphConstructionError):
            plan_partition(program, 0)

    def test_channel_weights_average_same_named_clones(self):
        builder = ProgramBuilder()
        _chain(builder, ["a", "b"])
        program = builder.build()
        program.run()
        weights = channel_weights(program)
        assert weights["a_out"] == 40.0  # 20 enqueues + 20 dequeues

    def test_builder_pin_validation(self):
        builder = ProgramBuilder()
        ctx = _chain(builder, ["a", "b"])[0]
        with pytest.raises(GraphConstructionError):
            builder.pin(ctx, -1)
        # Pinning a context that was never added fails at build time.
        orphan_builder = ProgramBuilder()
        _chain(orphan_builder, ["c", "d"])
        orphan = FunctionContext(lambda: iter(()), name="orphan")
        orphan_builder.pin(orphan, 0)
        with pytest.raises(GraphConstructionError):
            orphan_builder.build()

    def test_builder_pins_reach_the_program(self):
        builder = ProgramBuilder()
        contexts = _chain(builder, ["a", "b"])
        builder.pin(contexts[0], 1)
        program = builder.build()
        assert program.partition_pins == {id(contexts[0]): 1}


# ----------------------------------------------------------------------
# End-to-end equivalence on small graphs.
# ----------------------------------------------------------------------


def _pipeline_program(pin=None):
    """prod -> mid -> cons with bounded channels, peeks, and a result."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(3, latency=2, name="ab")
    s2, r2 = builder.bounded(2, latency=1, resp_latency=3, name="bc")

    def producer():
        for value in range(60):
            yield s1.enqueue(value)
            yield IncrCycles(1)

    def middle():
        while True:
            head = yield Peek(r1)
            value = yield r1.dequeue()
            assert head == value
            yield IncrCycles(2)
            yield s2.enqueue(value * 3)

    def consumer(ctx):
        ctx.total = 0
        while True:
            value = yield r2.dequeue()
            ctx.total += value
            yield IncrCycles(1)

    prod = builder.add(FunctionContext(producer, handles=[s1], name="prod"))
    mid = builder.add(FunctionContext(middle, handles=[r1, s2], name="mid"))
    cons = builder.add(
        FunctionContext(consumer, handles=[r2], name="cons", pass_context=True)
    )
    if pin is not None:
        for ctx, worker in zip((prod, mid, cons), pin):
            builder.pin(ctx, worker)
    return builder.build()


def _total(program):
    """What the consumer of ``_pipeline_program`` added up."""
    return next(ctx for ctx in program.contexts if ctx.name == "cons").total


class TestProcessEquivalence:
    def test_matches_the_spec_across_worker_counts(self):
        program = _pipeline_program()
        expected = reference.run(program), _total(program)
        for workers, pin in [(1, None), (2, (0, 0, 1)), (3, (0, 1, 2))]:
            program = _pipeline_program(pin=pin)
            summary = program.run(
                executor="process", config=RunConfig(workers=workers)
            )
            assert (simulated(program, summary), _total(program)) == expected

    def test_tiny_ring_still_exact(self):
        # A 96-byte data ring (and response ring: it is sized
        # min(ring_capacity, 64 KiB)) forces constant backlog-and-flush
        # cycles.  ``ring_capacity`` is a constructor keyword, not a
        # RunConfig field: build the executor and hand over the instance.
        program = _pipeline_program(pin=(0, 1, 2))
        summary = program.run(ProcessExecutor(workers=3, ring_capacity=96))
        spec_program = _pipeline_program()
        assert (simulated(program, summary), _total(program)) == (
            reference.run(spec_program), _total(spec_program)
        )

    def test_record_larger_than_the_ring_fails_typed(self):
        """Backlog-and-flush only helps records that fit: one that never
        can fails the run with the typed error, across the worker's
        result pipe."""

        def build():
            builder = ProgramBuilder()
            snd, rcv = builder.bounded(2, name="bus")

            def produce():
                yield snd.enqueue("y" * 1024)

            def consume():
                yield rcv.dequeue()

            builder.pin(
                builder.add(FunctionContext(produce, handles=[snd], name="p")), 0
            )
            builder.pin(
                builder.add(FunctionContext(consume, handles=[rcv], name="c")), 1
            )
            return builder.build()

        with pytest.raises(SimulationError) as info:
            build().run(ProcessExecutor(workers=2, ring_capacity=96))
        assert isinstance(info.value.original, RecordTooLarge)
        assert "ring_capacity" in str(info.value.original)
        assert build().run(ProcessExecutor(workers=2)).ops_executed == 2

    def test_trace_merge_identical_to_sequential(self):
        obs_seq = Observability(capture_payloads=True)
        reference_program = _pipeline_program()
        reference_program.run(obs=obs_seq)

        obs_proc = Observability(capture_payloads=True)
        program = _pipeline_program(pin=(0, 0, 1))
        program.run(
            executor="process", config=RunConfig(workers=2), obs=obs_proc
        )

        def flatten(trace):
            # Worker-scoped pseudo-buffers ("<worker-N>" migrate events)
            # describe the real run, not the simulation: a startup-race
            # steal may or may not happen.  Per-context streams must
            # still match the sequential run exactly.
            return [
                (e.context, e.kind, e.channel, e.time, e.payload, e.seq)
                for e in trace.events
                if not e.context.startswith("<worker-")
            ]

        assert flatten(obs_proc.trace) == flatten(obs_seq.trace)

    def test_chrome_trace_export_identical(self, tmp_path):
        obs_seq = Observability()
        _pipeline_program().run(obs=obs_seq)
        obs_proc = Observability()
        _pipeline_program(pin=(0, 1, 1)).run(
            executor="process", config=RunConfig(workers=2), obs=obs_proc
        )
        seq_events = obs_seq.chrome_trace()["traceEvents"]
        proc_events = obs_proc.chrome_trace()["traceEvents"]

        def strip(events):
            # Drop scheduling-only artifacts (worker pseudo-tracks and
            # their migrate slices — present only if a steal happened)
            # along with the process/thread ids; everything simulated
            # must be byte-identical.
            kept = []
            for e in events:
                if e.get("name") == "migrate":
                    continue
                if e.get("ph") == "M" and str(
                    e.get("args", {}).get("name", "")
                ).startswith("<worker-"):
                    continue
                kept.append(
                    {k: v for k, v in e.items() if k not in ("pid", "tid")}
                )
            return kept

        assert strip(proc_events) == strip(seq_events)

    def test_metrics_folded_with_process_gauges(self):
        obs = Observability()
        program = _pipeline_program(pin=(0, 1, 2))
        summary = program.run(
            executor="process", config=RunConfig(workers=3), obs=obs
        )
        counters = summary.metrics["counters"]
        assert counters["channel_enqueues{channel=ab}"] == 60
        assert counters["channel_peeks{channel=ab}"] == 60
        assert counters["context_ops{context=prod}"] > 0
        gauges = summary.metrics["gauges"]
        assert gauges["process_workers"] == 3
        assert gauges["process_cut_channels"] == 2

    def test_remote_wait_until(self):
        builder = ProgramBuilder()
        # Roomy channel: `fast` must never block on backpressure, or it
        # stalls before its clock reaches the WaitUntil threshold.
        snd, rcv = builder.bounded(16, name="tick")

        def fast():
            for value in range(10):
                yield snd.enqueue(value)
                yield IncrCycles(10)

        def watcher(ctx, peer):
            reached = yield WaitUntil(peer, 50)
            ctx.reached = reached
            while True:
                yield rcv.dequeue()

        fast_ctx = builder.add(FunctionContext(fast, handles=[snd], name="fast"))

        def watcher_body(ctx):
            return watcher(ctx, fast_ctx)

        watch_ctx = builder.add(
            FunctionContext(watcher_body, handles=[rcv], name="watch",
                            pass_context=True)
        )
        builder.pin(fast_ctx, 0)
        builder.pin(watch_ctx, 1)
        program = builder.build()
        program.run(executor="process", config=RunConfig(workers=2))
        watcher_parent = next(c for c in program.contexts if c.name == "watch")
        assert watcher_parent.reached >= 50


# ----------------------------------------------------------------------
# Failure modes.
# ----------------------------------------------------------------------


def _deadlock_pair(builder):
    s1, r1 = builder.bounded(2, name="x")
    s2, r2 = builder.bounded(2, name="y")

    def ctx_a():
        value = yield r2.dequeue()
        yield s1.enqueue(value)

    def ctx_b():
        value = yield r1.dequeue()
        yield s2.enqueue(value)

    a = builder.add(FunctionContext(ctx_a, handles=[s1, r2], name="A"))
    b = builder.add(FunctionContext(ctx_b, handles=[s2, r1], name="B"))
    return a, b


class TestProcessFailures:
    def test_local_deadlock_detected(self):
        builder = ProgramBuilder()
        _deadlock_pair(builder)
        program = builder.build()
        # Both contexts land in one worker: a purely local cycle, reported
        # by the same verdict as a cycle across workers.
        with pytest.raises(DeadlockError) as excinfo:
            program.run(executor="process", config=RunConfig(workers=1))
        message = str(excinfo.value)
        assert "A" in message and "B" in message

    def test_cross_worker_deadlock_watchdog(self):
        builder = ProgramBuilder()
        a, b = _deadlock_pair(builder)
        builder.pin(a, 0)
        builder.pin(b, 1)
        program = builder.build()
        obs = Observability()
        with pytest.raises(DeadlockError):
            program.run(
                executor="process",
                config=RunConfig(workers=2),
                obs=obs,
            )
        assert obs.stall_report is not None
        assert {stall.context for stall in obs.stall_report.stalls} == {"A", "B"}

    def test_worker_exception_propagates(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2, name="z")

        def bad():
            yield snd.enqueue(1)
            raise ValueError("boom")

        def consumer():
            while True:
                yield rcv.dequeue()

        p = builder.add(FunctionContext(bad, handles=[snd], name="bad"))
        c = builder.add(FunctionContext(consumer, handles=[rcv], name="cons"))
        builder.pin(p, 0)
        builder.pin(c, 1)
        program = builder.build()
        with pytest.raises(SimulationError) as excinfo:
            program.run(executor="process", config=RunConfig(workers=2))
        assert excinfo.value.context_name == "bad"
        assert isinstance(excinfo.value.original, ValueError)

    def test_deadline_valve(self):
        """A runaway pair inside one worker (no channel is cut) is ended
        by the deadline, with the partial clocks of both contexts."""
        builder = ProgramBuilder()
        snd, rcv = builder.unbounded(name="loop")

        def forever():
            value = 0
            while True:
                yield snd.enqueue(value)
                yield IncrCycles(1)
                value += 1

        def drain():
            while True:
                yield rcv.dequeue()

        builder.add(FunctionContext(forever, handles=[snd], name="fw"))
        builder.add(FunctionContext(drain, handles=[rcv], name="dr"))
        program = builder.build()
        with pytest.raises(RunTimeoutError) as info:
            program.run(
                executor="process", config=RunConfig(workers=1, deadline_s=0.3)
            )
        assert info.value.deadline_s == 0.3
        assert info.value.summary.context_times["fw"] > 0


# ----------------------------------------------------------------------
# Satellites: peek counting and generator cleanup on abort.
# ----------------------------------------------------------------------


class TestPeekStats:
    def test_peeks_counted_and_exported(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(4, name="peeked")

        def producer():
            for value in range(5):
                yield snd.enqueue(value)

        def consumer():
            while True:
                yield Peek(rcv)
                yield Peek(rcv)
                yield rcv.dequeue()

        builder.add(FunctionContext(producer, handles=[snd], name="p"))
        builder.add(FunctionContext(consumer, handles=[rcv], name="c"))
        program = builder.build()
        obs = Observability()
        summary = program.run(obs=obs)
        channel = program.channels[0]
        assert channel.stats.peeks == 10
        assert channel.stats.dequeues == 5
        assert summary.metrics["counters"]["channel_peeks{channel=peeked}"] == 10


class TestGeneratorCleanupOnAbort:
    def test_finally_blocks_run_on_deadlock(self):
        cleaned = []
        builder = ProgramBuilder()
        s1, r1 = builder.bounded(2, name="x")
        s2, r2 = builder.bounded(2, name="y")

        def ctx_a():
            try:
                value = yield r2.dequeue()  # waits on B, which waits on A
                yield s1.enqueue(value)
            finally:
                cleaned.append("A")

        def ctx_b():
            try:
                value = yield r1.dequeue()
                yield s2.enqueue(value)
            finally:
                cleaned.append("B")

        builder.add(FunctionContext(ctx_a, handles=[s1, r2], name="A"))
        builder.add(FunctionContext(ctx_b, handles=[s2, r1], name="B"))
        program = builder.build()
        with pytest.raises(DeadlockError):
            program.run()
        assert sorted(cleaned) == ["A", "B"]

    def test_finally_blocks_run_on_context_error(self):
        cleaned = []
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(1, name="c")

        def blocked():
            try:
                yield rcv.dequeue()  # never satisfied: crasher dies first
            finally:
                cleaned.append("blocked")

        def crasher():
            yield IncrCycles(1)
            raise RuntimeError("abort the run")
            yield snd.enqueue(0)  # pragma: no cover - keeps snd owned

        builder.add(FunctionContext(blocked, handles=[rcv], name="blocked"))
        builder.add(FunctionContext(crasher, handles=[snd], name="crasher"))
        program = builder.build()
        with pytest.raises(SimulationError):
            program.run()
        assert cleaned == ["blocked"]


# ----------------------------------------------------------------------
# The worker's result path: what a forked worker does between fork and
# exit (freeze, claim, run, harvest, send — DESIGN.md §10).
# ----------------------------------------------------------------------


@pytest.fixture
def no_leaked_workers():
    """The run under test leaves no child process and no shm segment."""
    before = set(glob.glob("/dev/shm/psm_*"))
    yield
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children(), "worker processes leaked"
    assert set(glob.glob("/dev/shm/psm_*")) <= before, "shared memory leaked"


class Boom(Exception):
    """Pickles, but does not unpickle: ``Exception.__reduce__`` replays
    ``args`` (one string) into a two-argument constructor.  Module-level
    on purpose — a test-local class would refuse ``dumps`` and take the
    demotion that always worked."""

    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


class TestExceptionThatDoesNotSurviveThePipe:
    def _program(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2, name="z")

        def bad():
            yield snd.enqueue(1)
            raise Boom("left", "right")

        def consumer():
            while True:
                yield rcv.dequeue()

        builder.pin(builder.add(FunctionContext(bad, handles=[snd], name="bad")), 0)
        builder.pin(
            builder.add(FunctionContext(consumer, handles=[rcv], name="cons")), 1
        )
        return builder.build()

    def test_premise_dumps_succeeds_and_loads_is_what_fails(self):
        blob = pickle.dumps(Boom("a", "b"))
        with pytest.raises(TypeError, match="required positional argument"):
            pickle.loads(blob)

    @pytest.mark.parametrize("executor", ["sequential", "threaded", "process"])
    def test_every_executor_names_the_context(self, executor, no_leaked_workers):
        with pytest.raises(SimulationError) as info:
            self._program().run(executor, config=RunConfig(workers=2))
        assert info.value.context_name == "bad"
        assert repr(Boom("left", "right")) in str(info.value)
        if executor == "process":
            # Demoted to its repr on the worker's side of the pipe.
            assert isinstance(info.value.original, RuntimeError)
            assert str(info.value.original) == repr(Boom("left", "right"))
        else:
            assert isinstance(info.value.original, Boom)


class _Untouchable:
    """Stands in for ``Channel._data``: any walk into it fails the test
    with something that is *not* the typed refusal."""

    def _touched(self, *args):
        raise AssertionError("the pickler walked into the channel")

    __iter__ = __len__ = __reduce_ex__ = _touched


class TestEndpointsRefuseToPickle:
    def test_typed_refusal_names_the_channel_and_walks_nothing(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2, name="bus")
        snd.channel._data = _Untouchable()
        for value, label in [
            (snd, r"Sender\(bus\)"),
            (rcv, r"Receiver\(bus\)"),
            ([snd], r"Sender\(bus\)"),
            ({"k": [rcv]}, r"Receiver\(bus\)"),
        ]:
            with pytest.raises(
                TypeError,
                match=label + " is a channel endpoint and does not pickle",
            ):
                pickle.dumps(value)


class _Keeper(Context):
    """Leaves behind one attribute of every kind the harvest meets."""

    def __init__(self, snd, name):
        super().__init__(name=name)
        self.register(snd)
        self.handle = snd
        self.handles = [snd]
        self.table = {"out": snd}
        self.fn = lambda value: value + 1
        self.items = []
        self.nested = {}
        self.array = np.zeros(3)

    def run(self):
        for value in range(5):
            yield self.handle.enqueue(value)
            self.items.append(value * value)
            self.nested.setdefault("seen", {})[value] = [value, str(value)]
        self.array = np.arange(5.0) * 0.5
        self.frozen = gc.get_freeze_count()
        yield IncrCycles(1)


def _keeper_program():
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(2, name="bus")

    def drain():
        while True:
            yield rcv.dequeue()

    keeper = builder.add(_Keeper(snd, name="keeper"))
    builder.pin(keeper, 0)
    builder.pin(builder.add(FunctionContext(drain, handles=[rcv], name="drain")), 1)
    return builder.build(), keeper


def _smoke_parallel_mha():
    """The benchmark's smoke-size Fig. 9 graph (78 contexts)."""
    from repro.sam.graphs import build_parallel_mha

    rng = np.random.default_rng(11)
    heads, seq_len, head_dim = 4, 6, 3
    mask = (rng.random((heads, seq_len, seq_len)) < 0.5).astype(float)
    for head in range(heads):
        np.fill_diagonal(mask[head], 1.0)
    q, k, v = (rng.standard_normal((heads, seq_len, head_dim)) for _ in range(3))
    return build_parallel_mha(mask, q, k, v, parallelism=2).program


def _picklable_attrs(ctx):
    out = {}
    for key, value in vars(ctx).items():
        if key in partitioned._FRAMEWORK_ATTRS:
            continue
        try:
            out[key] = pickle.dumps(value)
        except Exception:  # noqa: BLE001 - the harvest's own rule
            continue
    return out


class TestHarvestContract:
    """Anything in ``vars(ctx)`` that pickles comes home; endpoints (and
    whatever else refuses) stay the parent's own objects."""

    def test_results_ship_and_handles_stay_put(self, no_leaked_workers):
        reference_program, reference = _keeper_program()
        reference_program.run()
        program, keeper = _keeper_program()
        untouched = {
            key: getattr(keeper, key)
            for key in ("handle", "handles", "table", "fn")
        }
        program.run("process", config=RunConfig(workers=2))
        assert keeper.items == reference.items == [0, 1, 4, 9, 16]
        assert keeper.nested == reference.nested
        assert np.array_equal(keeper.array, reference.array)
        for key, original in untouched.items():
            assert getattr(keeper, key) is original, key
        assert keeper.handles == [keeper.handle]
        assert keeper.table == {"out": keeper.handle}
        assert keeper.handle.channel is program.channels[0]

    def test_only_the_worker_freezes(self, no_leaked_workers):
        program, keeper = _keeper_program()
        frozen_before = gc.get_freeze_count()
        enabled_before = gc.isenabled()
        program.run("process", config=RunConfig(workers=2))
        assert keeper.frozen > 0  # read inside the forked worker
        assert gc.get_freeze_count() == frozen_before == 0
        assert gc.isenabled() == enabled_before
        sequential, in_process = _keeper_program()
        sequential.run()
        assert in_process.frozen == 0

    def test_nothing_that_used_to_ship_is_dropped(self, no_leaked_workers):
        reference = _smoke_parallel_mha()
        reference.run()
        program = _smoke_parallel_mha()
        program.run("process", config=RunConfig(workers=2))
        shipped = 0
        for ours, theirs in zip(program.contexts, reference.contexts):
            expected = _picklable_attrs(theirs)
            assert _picklable_attrs(ours) == expected, ours.name
            shipped += len(expected)
        assert shipped > 0

    def test_one_probe_per_attribute_and_none_walks_a_channel(
        self, monkeypatch, no_leaked_workers
    ):
        reference = _smoke_parallel_mha()
        reference.run()
        candidates = sum(
            len(vars(ctx).keys() - partitioned._FRAMEWORK_ATTRS)
            for ctx in reference.contexts
        )
        mp = multiprocessing.get_context("fork")
        probes, channel_walks = mp.Value("i", 0), mp.Value("i", 0)

        def counting_dumps(value, *args, **kwargs):
            with probes.get_lock():
                probes.value += 1
            return pickle.dumps(value, *args, **kwargs)

        def walked(self, protocol):
            with channel_walks.get_lock():
                channel_walks.value += 1
            return object.__reduce_ex__(self, protocol)

        # Patched before the fork, so both workers inherit the counters.
        monkeypatch.setattr(
            partitioned, "pickle", types.SimpleNamespace(dumps=counting_dumps)
        )
        monkeypatch.setattr(Channel, "__reduce_ex__", walked, raising=False)
        program = _smoke_parallel_mha()
        program.run("process", config=RunConfig(workers=2))
        assert 0 < probes.value <= candidates
        assert channel_walks.value == 0
