"""Fused-batch runners: the shape cache, latched channel state, and the
generated differential of every host against the spec.

A runner is bound to the channels, deques and stats of its batch on first
execution and compiled once per process per shape (DESIGN.md §11).  The
tests here pin what that may not change: a channel's internals are
mutated in place, so a batch built once survives ``Program.reset()`` and
an in-place checkpoint restore; each shape compiles once per process,
traced and untraced apart, chunked when long, once under runs racing on
threads, and never again in the workers of a later process run; and
generated programs — 2 to 6 contexts, long batches parking anywhere,
abandoned, rare, deadlocking — leave the spec's record (``repro.spec``,
DESIGN.md §5–6) under every scheduling policy and on the threaded
executor's one-thread-per-context runtime alike.
"""

import multiprocessing
import pickle
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.contexts import Collector
from repro.core import (
    AdvanceTo,
    Context,
    Dequeue,
    Enqueue,
    FairPolicy,
    FunctionContext,
    FusedOps,
    IncrCycles,
    ProgramBuilder,
    RunConfig,
    SequentialExecutor,
    ThreadedExecutor,
    ViewTime,
    WaitUntil,
)
from repro.core import checkpoint as ckpt
from repro.core.errors import ChannelClosed
from repro.core.executor import runners, sequential
from repro import spec as reference
from repro.obs import Observability
from repro.spec import observed, simulated
from tests.conftest import nightly

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


# ----------------------------------------------------------------------
# Channel internals stay put under a bound batch.
# ----------------------------------------------------------------------


class _Batcher(Context):
    """Builds its batch once, in ``__init__``: the batch (and the runner
    bound to it) outlives every run of the program."""

    checkpoint_attrs = ("_sent",)

    def __init__(self, out, count):
        super().__init__(name="batcher")
        self.count = count
        self.enq = out.enqueue(None)
        self.step = FusedOps(self.enq, IncrCycles(1))
        self._sent = 0
        self.register(out)

    def run(self):
        while self._sent < self.count:
            self.enq.data = self._sent
            yield self.step
            self._sent += 1


class _Taker(Context):
    checkpoint_attrs = ("got",)

    def __init__(self, inp):
        super().__init__(name="taker")
        self.deq = inp.dequeue()
        self.step = FusedOps(IncrCycles(2), self.deq)
        self.got = []
        self.register(inp)

    def run(self):
        try:
            while True:
                self.got.append((yield self.step)[1])
        except ChannelClosed:
            pass


def _batched_program(count=5):
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1, name="lane")
    builder.add(_Batcher(snd, count))
    taker = builder.add(_Taker(rcv))
    return builder.build(), taker


class TestLatchedChannelState:
    @pytest.mark.parametrize("reuse", [False, True], ids=["program-run", "same-executor"])
    def test_second_run_after_reset(self, reuse):
        program, taker = _batched_program()
        executor = SequentialExecutor()
        first = simulated(program, executor.execute(program)), list(taker.got)
        assert first[0]["channels"] == [[5, 5, 0]]
        program.reset()
        taker.got.clear()
        program._resume_records = None
        for ctx in program.contexts:
            if isinstance(ctx, _Batcher):
                ctx._sent = 0
        summary = executor.execute(program) if reuse else program.run()
        assert (simulated(program, summary), list(taker.got)) == first

    @pytest.mark.parametrize("reuse", [False, True], ids=["program-run", "same-executor"])
    def test_restored_in_place(self, reuse, tmp_path):
        """Resumed from every epoch by ``restore_into`` on the program
        that already ran (its batches bound), the runners finish as a
        freshly built program does under another schedule."""
        fresh, fresh_taker = _batched_program()
        whole = simulated(fresh, SequentialExecutor().execute(fresh)), list(fresh_taker.got)
        SequentialExecutor(
            policy=FairPolicy(timeslice=1),
            checkpoint_interval_s=0.0,
            checkpoint_path=str(tmp_path),
        ).execute(_batched_program()[0])
        paths = ckpt.list_checkpoints(str(tmp_path))
        assert len(paths) >= 4
        program, taker = _batched_program()
        executor = SequentialExecutor()
        executor.execute(program)
        for path in paths:
            ckpt.load(path, program).restore_into(program)
            summary = executor.execute(program) if reuse else program.run()
            reference, ref_taker = _batched_program()
            ckpt.load(path, reference).restore_into(reference)
            sliced = reference.run(config=RunConfig(policy=FairPolicy(timeslice=1)))
            got = simulated(program, summary), list(taker.got)
            assert got == (simulated(reference, sliced), list(ref_taker.got)), path
            assert got == whole, path


class TestBindingFollowsTheRun:
    """A batch built once is bound again by each executor that meets it
    (``_plan_tag``): a traced run records rows though an untraced one
    bound the batch first, and a forked worker drives the channel clone
    its activation put on the handle, not the channel the parent bound."""

    def test_traced_after_untraced(self):
        program, taker = _batched_program()
        program.run()
        program.reset()
        for ctx in program.contexts:
            if isinstance(ctx, _Batcher):
                ctx._sent = 0
        obs = Observability(metrics=False)
        program.run(obs=obs)
        fresh = Observability(metrics=False)
        _batched_program()[0].run(obs=fresh)
        rows = {name: list(buf.rows) for name, buf in obs.trace.buffers().items()}
        assert rows == {
            name: list(buf.rows) for name, buf in fresh.trace.buffers().items()
        }
        assert len(rows["batcher"]) == 2 * 5 + 1

    def test_a_bound_batch_pickles_without_its_binding(self):
        step = FusedOps(IncrCycles(1), IncrCycles(2))
        builder = ProgramBuilder()

        def ticks():
            for _ in range(3):
                yield step

        builder.add(FunctionContext(ticks, name="ticks"))
        assert builder.build().run().elapsed_cycles == 9
        assert step.plan is not None
        shipped = pickle.loads(pickle.dumps(step))
        assert [op.cycles for op in shipped.ops] == [1, 2]
        assert not hasattr(shipped, "resumes") and not hasattr(shipped, "plan")

    @needs_fork
    def test_process_run_after_an_in_process_one(self):
        program, taker = _batched_program()
        whole = simulated(program, program.run()), list(taker.got)
        program.reset()
        taker.got.clear()
        for ctx in program.contexts:
            if isinstance(ctx, _Batcher):
                ctx._sent = 0
        pins = {id(ctx): slot for slot, ctx in enumerate(program.contexts)}
        summary = program.run(
            "process", config=RunConfig(workers=2, pins=pins, steal=False)
        )
        taker = program.contexts[1]  # results came back by harvest
        assert (simulated(program, summary), list(taker.got)) == whole


# ----------------------------------------------------------------------
# The shape cache.
# ----------------------------------------------------------------------


def _ticker(count, ticks=3, name="ticks"):
    """A producer yielding ``FusedOps(enqueue, IncrCycles(ticks))`` into a
    collector."""
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(2, name=f"{name}-lane")

    def produce():
        enq = snd.enqueue(None)
        step = FusedOps(enq, IncrCycles(ticks))
        for value in range(count):
            enq.data = value
            yield step

    builder.add(FunctionContext(produce, handles=[snd], name=f"{name}-src"))
    sink = builder.add(Collector(rcv, name=f"{name}-sink"))
    return builder.build(), sink


@pytest.fixture
def cold(monkeypatch):
    """An empty shape cache, as in a fresh process."""
    monkeypatch.setattr(runners, "_FACTORIES", {})


TICK = (("E", "C"), "last", False)


@pytest.mark.usefixtures("cold")
class TestShapeCache:
    def test_a_second_run_compiles_no_shape(self):
        program, sink = _ticker(10)
        program.run()
        assert TICK in runners.compiled()
        compiled = runners.compiled()
        program.reset()
        sink.values.clear()
        program.run()
        _ticker(10)[0].run()  # a fresh build of the same graph too
        assert runners.compiled() == compiled

    def test_counts_are_bound_not_compiled_in(self):
        """A count is a value the runner is bound to, fresh or fused:
        batches and bare ops whose counts differ share their shapes."""
        _ticker(4, ticks=1)[0].run()
        compiled = runners.compiled()
        for ticks in (0, 2, 7, 0.5, 10**6):
            _ticker(4, ticks=ticks)[0].run()
        assert runners.compiled() == compiled

    def test_traced_and_untraced_runners_are_separate_entries(self):
        _ticker(4)[0].run()
        _ticker(4)[0].run(obs=Observability())
        keys = runners.compiled()
        assert TICK in keys
        assert (("E", "C"), "last", True) in keys

    def test_a_long_batch_compiles_only_chunks(self):
        builder = ProgramBuilder()
        snd, rcv = builder.unbounded(name="wide")

        def produce():
            enq = snd.enqueue(None)
            yield FusedOps(*[enq if i % 2 else IncrCycles(3) for i in range(1000)])

        builder.add(FunctionContext(produce, handles=[snd], name="wide-src"))
        sink = builder.add(Collector(rcv, name="wide-sink"))
        summary = builder.build().run()
        keys = [key for key in runners.compiled() if key[1] != "bare"]
        # 62 chunks of 16 and a last one of 8 (1000 = 62 * 16 + 8).
        assert keys == [(("C", "E") * 4, "last", False), (("C", "E") * 8, "chain", False)]
        assert len(sink.values) == 500
        assert summary.ops_executed == 1000 + 500 + 1

    def test_fresh_bare_ops_share_one_runner_per_class(self, monkeypatch):
        """A context that builds a new op at every yield (the library's
        own idiom) binds nothing per op: an executor binds one runner per
        op class, whatever the ops' channels or counts, and a later run
        compiles nothing."""
        bound = []
        real_plan = sequential.plan

        def counting(executor, op):
            bound.append(op.__class__)
            return real_plan(executor, op)

        monkeypatch.setattr(sequential, "plan", counting)
        def build():
            builder = ProgramBuilder()
            lanes = [builder.bounded(1, name=f"fresh{i}") for i in range(2)]

            def produce():
                for value in range(30):
                    yield lanes[value % 2][0].enqueue(value)
                    yield IncrCycles(value % 4)

            def consume():
                for value in range(30):
                    assert (yield lanes[value % 2][1].dequeue()) == value

            builder.add(FunctionContext(produce, handles=[s for s, _ in lanes], name="fresh-src"))
            builder.add(FunctionContext(consume, handles=[r for _, r in lanes], name="fresh-sink"))
            return builder.build()

        executor = SequentialExecutor()
        summary = executor.execute(build())
        assert summary.ops_executed == 90
        assert sorted(bound, key=str) == [Dequeue, Enqueue, IncrCycles]
        assert set(executor._bare_runners) == {Enqueue, Dequeue, IncrCycles}
        compiled = runners.compiled()
        # "O": the rare runner a negative count is handed to.
        assert sorted(tokens for tokens, _, _ in compiled) == [("C",), ("D",), ("E",), ("O",)]
        build().run()
        assert runners.compiled() == compiled

    def test_runs_racing_on_threads_compile_each_shape_once(self, monkeypatch):
        """Four traced runs on four threads (as the serve tier's run
        slots host them) meet the same new shapes at once: each compiles
        once, and every run equals the sequential one."""
        sources = []
        real_source = runners.source

        def counting(key):
            sources.append(key)
            return real_source(key)

        def build():
            builder = ProgramBuilder()
            sinks = []
            for index in range(8):
                snd, rcv = builder.bounded(1, name=f"lane{index}")

                def produce(snd=snd):
                    enq = snd.enqueue(None)
                    step = FusedOps(enq, IncrCycles(4), enq)
                    for value in range(30):
                        enq.data = value
                        yield step

                builder.add(FunctionContext(produce, handles=[snd], name=f"src{index}"))
                sinks.append(builder.add(Collector(rcv, ii=3, name=f"sink{index}")))
            return builder.build(), sinks

        monkeypatch.setattr(runners, "source", counting)
        builds = [build() for _ in range(4)]
        results = [None] * len(builds)

        def run(index):
            results[index] = builds[index][0].run(obs=Observability())

        threads = [
            threading.Thread(target=run, args=(index,)) for index in range(len(builds))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(sources) == len(set(sources))
        assert (("E", "C", "E"), "last", True) in sources
        reference, ref_sinks = build()
        sequential = reference.run(obs=Observability())
        for (_, sinks), summary in zip(builds, results):
            assert summary.context_times == sequential.context_times
            assert summary.profile == sequential.profile
            assert [s.values for s in sinks] == [s.values for s in ref_sinks]

    @needs_fork
    def test_a_second_process_run_compiles_nothing_in_its_workers(self, monkeypatch):
        reported = []
        real_warm = runners.warm

        def spy(keys):
            keys = list(keys)
            reported.append(keys)
            real_warm(keys)

        monkeypatch.setattr(runners, "warm", spy)
        for _ in range(2):
            program, sink = _ticker(20)
            program.run("process", config=RunConfig(workers=2))
            assert sink.values == list(range(20))
        first, second = reported
        assert TICK in first
        assert second == []


# ----------------------------------------------------------------------
# Random batches: every host against the spec.
# ----------------------------------------------------------------------

def differential(examples):
    """The settings of a spec differential: ``examples`` draws from one
    fixed seed, or the ``nightly`` profile's (``tests/conftest.py``)
    when it is loaded.  The seed is a constant, not ``derandomize``,
    which hashes the test's source: editing a differential's body would
    draw other programs.  The nightly profile gets no ``@seed``, which
    would override ``--hypothesis-seed``."""
    if nightly():
        return settings.get_profile("nightly")
    fixed = settings(
        max_examples=examples,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    return lambda test: seed(20240601)(fixed(test))


@pytest.mark.skipif(
    nightly(),
    reason="the nightly profile draws from --hypothesis-seed",
)
def test_differential_draws_do_not_depend_on_the_body():
    """Two differentials with different bodies draw the same values."""
    draws = ([], [])

    @differential(5)
    @given(st.integers(0, 10**9))
    def first(value):
        draws[0].append(value)

    @differential(5)
    @given(st.integers(0, 10**9))
    def second(value):
        draws[1].append(value)
        assert value >= 0

    first()
    second()
    assert len(draws[0]) == 5 and draws[0] == draws[1]


#: Constituents a context may draw, by weight: on one of its send lanes,
#: on one of its receive lanes, or on neither.
_SEND = ("E",) * 4
_RECV = ("D",) * 4 + ("P",)
_FREE = ("I",) * 3 + ("V", "A")


def _edges(draw, shape, count):
    """``(sender, receiver)`` of each lane of a ``count``-context graph
    of ``shape``; a ``"mesh"`` draws lanes either way, so cycles form."""
    if shape == "chain":
        return [(i, i + 1) for i in range(count - 1)]
    if shape == "ring":
        return [(i, (i + 1) % count) for i in range(count)]
    if shape == "diamond" and count > 2:
        middle = range(1, count - 1)
        return [(0, i) for i in middle] + [(i, count - 1) for i in middle]
    pairs = []
    for _ in range(draw(st.integers(1, count + 1))):
        sender = draw(st.integers(0, count - 1))
        receiver = (sender + draw(st.integers(1, count - 1))) % count
        pairs.append((sender, receiver) if shape == "mesh" else tuple(sorted((sender, receiver))))
    return pairs


@st.composite
def _programs(draw, waits=False, reals=False, contexts=st.integers(2, 6)):
    """A chain, ring, diamond, DAG or mesh of ``contexts`` contexts, each
    running a script of batches over its lanes several times,
    re-yielding the same batch objects.  A lane draws its capacity and
    latencies, so a receiver may start first and park on an empty lane,
    and one in five is peeked.  One context in about four has no script
    at all: it finishes at once, closing its out-lanes and voiding its
    in-lanes.  One ring in three opens every script with a dequeue of
    its in-lane, a deadlock by construction; other draws deadlock on
    their own.  One example in about ten puts a negative ``IncrCycles``
    somewhere; with ``waits``, one in two puts a ``WaitUntil`` on a peer
    somewhere; with ``reals``, one lane in three is a real channel
    (unbounded, stamp 0), whose enqueues the runners hand to
    ``Channel.try_enqueue``."""
    count = draw(contexts)
    shape = draw(st.sampled_from(["chain", "ring", "diamond", "dag", "mesh"]))
    lanes = []
    for sender, receiver in _edges(draw, shape, count):
        lane = {
            "sender": sender,
            "receiver": receiver,
            "capacity": draw(st.sampled_from([1, 2, 3, None])),
            "latency": draw(st.integers(0, 2)),
            "resp_latency": draw(st.integers(0, 2)),
            "peeked": draw(st.integers(0, 4)) == 3,
        }
        if reals and draw(st.integers(0, 2)) == 0:
            lane["real"] = True
        lanes.append(lane)
    stuck = shape == "ring" and draw(st.integers(0, 2)) == 0
    scripts = []
    for ctx in range(count):
        sends = [i for i, lane in enumerate(lanes) if lane["sender"] == ctx]
        recvs = [i for i, lane in enumerate(lanes) if lane["receiver"] == ctx]
        kinds = (_SEND if sends else ()) + (_RECV if recvs else ()) + _FREE
        batches = [([("D", recvs[0], 0)], "bare")] if stuck else []
        for _ in range(draw(st.integers(0, 3)) and draw(st.integers(1, 4))):
            length = draw(st.sampled_from([3, 1, 2, 5, 15, 16, 17, 33]))
            batch = []
            for _ in range(length):
                kind = draw(st.sampled_from(kinds))
                lane = draw(st.sampled_from(sends if kind == "E" else recvs or [0]))
                batch.append((kind, lane, draw(st.integers(0, 4))))
            batches.append((batch, draw(st.sampled_from(["fused", "tuple", "bare"]))))
        scripts.append((batches, draw(st.integers(1, 6))))
    if draw(st.integers(0, 9)) == 5 and any(b for b, _ in scripts):
        batches = draw(st.sampled_from([b for b, _ in scripts if b]))
        batch = draw(st.sampled_from(batches))[0]
        batch.insert(draw(st.integers(0, len(batch))), ("N", 0, 0))
    if waits and draw(st.booleans()) and any(b for b, _ in scripts):
        batches = draw(st.sampled_from([b for b, _ in scripts if b]))
        batch = draw(st.sampled_from(batches))[0]
        wait = ("W", 0, draw(st.integers(0, 4)))
        batch.insert(draw(st.integers(0, len(batch))), wait)
    return lanes, scripts


class _Scripted(Context):
    def __init__(self, index, script, sends, recvs, peers, log):
        super().__init__(name=f"ctx{index}")
        self.index, self.script, self.log = index, script, log
        self.sends, self.recvs, self.peers = sends, recvs, peers
        #: ``(threshold, value)`` of each ``WaitUntil``: the peer's
        #: clock at wakeup, which depends on the host.
        self.waits = []
        self.register(*sends.values(), *recvs.values())

    def _op(self, kind, lane, arg):
        if kind == "E":
            return self.sends[lane].enqueue(None)
        if kind == "D":
            return self.recvs[lane].dequeue()
        if kind == "P":
            return self.recvs[lane].peek()
        if kind == "I":
            return IncrCycles((1, 0, 2, 0.0, 0.5)[arg])
        if kind == "V":
            return ViewTime(self.peers[arg % len(self.peers)])
        if kind == "A":
            return AdvanceTo(4 * arg)
        if kind == "W":
            others = len(self.peers) - 1
            return WaitUntil(self.peers[(self.index + 1 + arg % others) % len(self.peers)], 3 * arg)
        return IncrCycles(-1)

    def run(self):
        batches, repeats = self.script
        built = []
        for constituents, form in batches:
            ops = [self._op(*spec) for spec in constituents]
            if form == "fused":
                built.append((constituents, FusedOps(*ops), ops))
            elif form == "bare" and len(ops) == 1:
                built.append((constituents, ops[0], ops))
            else:
                built.append((constituents, None, ops))
        sent = 0
        try:
            for _ in range(repeats):
                for constituents, batch, ops in built:
                    for (kind, _, _), op in zip(constituents, ops):
                        if kind == "E":
                            op.data = f"{self.index}.{sent}"
                            sent += 1
                    results = yield (tuple(ops) if batch is None else batch)
                    if not isinstance(results, list):
                        results = [results]
                    self.log.append([
                        value
                        for (kind, _, _), value in zip(constituents, results)
                        if kind in ("D", "P")
                    ])
                    self.waits.extend(
                        (op.time, value)
                        for (kind, _, _), op, value in zip(constituents, ops, results)
                        if kind == "W"
                    )
        except ChannelClosed:
            self.log.append("closed")


def _peeked(batch, lanes):
    """``batch`` with a ``Peek`` ahead of each dequeue on a peeked lane."""
    out = []
    for kind, lane, arg in batch:
        if kind == "D" and lanes[lane]["peeked"]:
            out.append(("P", lane, 0))
        out.append((kind, lane, arg))
    return out


def _build(spec, context=_Scripted):
    """A peeked lane parks its receiver on the peek, which the waker
    cannot complete in its place: the peek is retried, and its batch
    re-entered at the peek."""
    lanes, scripts = spec
    scripts = [
        ([(_peeked(batch, lanes), form) for batch, form in batches], repeats)
        for batches, repeats in scripts
    ]
    builder = ProgramBuilder()
    ends = []
    for index, lane in enumerate(lanes):
        if lane.get("real"):
            snd, rcv = builder.real(name=f"lane{index}")
        else:
            snd, rcv = builder.channel(
                lane["capacity"],
                latency=lane["latency"],
                resp_latency=lane["resp_latency"],
                name=f"lane{index}",
            )
        ends.append((snd, rcv))
    logs = [[] for _ in scripts]
    contexts = []
    for index, script in enumerate(scripts):
        sends = {i: ends[i][0] for i, lane in enumerate(lanes) if lane["sender"] == index}
        recvs = {i: ends[i][1] for i, lane in enumerate(lanes) if lane["receiver"] == index}
        contexts.append(context(index, script, sends, recvs, contexts, logs[index]))
    for ctx in contexts:
        builder.add(ctx)
    return builder.build(), logs




class TestVoidEnqueueTakesItsSlot:
    """Shrunk from the generator below.  The producer parks on its full
    window; the consumer's dequeue frees a slot and finishes.  Under
    run-to-block the waker completes the parked enqueue in place (a real
    enqueue, taking a window slot); elsewhere it may be retried after the
    finish (a void enqueue).  A void enqueue that took no slot drained the last response
    one enqueue later, so the producer finished at 0 on one path and 1 on
    the other."""

    def _build(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2, latency=0, resp_latency=0, name="lane")

        def producer():
            yield FusedOps(snd.enqueue(0), snd.enqueue(1), snd.enqueue(2))
            yield FusedOps(snd.enqueue(3), snd.enqueue(4), snd.enqueue(5))

        def consumer():
            yield FusedOps(rcv.dequeue(), IncrCycles(1), rcv.dequeue())

        builder.add(FunctionContext(producer, handles=[snd], name="producer"))
        builder.add(FunctionContext(consumer, handles=[rcv], name="consumer"))
        return builder.build()

    @pytest.mark.parametrize(
        "executor, config",
        [
            ("sequential", RunConfig()),
            ("sequential", RunConfig(policy=FairPolicy(timeslice=1))),
            ("threaded", RunConfig(superblocks="off")),
            ("threaded", RunConfig(superblocks="on")),
            pytest.param(
                "process",
                RunConfig(workers=2, pins={}, steal=False),
                marks=needs_fork,
            ),
        ],
        ids=["fifo", "fair1", "threaded-off", "threaded-on", "process"],
    )
    def test_finish_times_do_not_depend_on_the_path(self, executor, config):
        program = self._build()
        if executor == "process":
            pins = {id(ctx): slot for slot, ctx in enumerate(program.contexts)}
            config = config.replace(pins=pins)
        summary = program.run(executor, config=config)
        assert summary.context_times == {"producer": 1, "consumer": 1}
        assert program.channels[0].stats.enqueues == 6



def _leg(name, traced):
    """``(executor, obs)`` of one host under test: the paper's runtime,
    one thread per context; sequential run-to-block; fair slices that
    expire between and inside batches; and run-to-block through the
    schedule loop's other branches: bounded slices with their begin/end
    hooks (a deadline never reached) and wall-timed slices (metrics)."""
    obs = Observability(trace=traced, metrics=name == "timed", capture_payloads=True)
    if name == "threaded-off":
        return ThreadedExecutor(superblocks="off", obs=obs), obs
    policy = FairPolicy(timeslice=int(name[4:])) if name.startswith("fair") else "fifo"
    deadline = 3600.0 if name == "bounded" else None
    return SequentialExecutor(obs=obs, policy=policy, deadline_s=deadline), obs


_LEGS = ("threaded-off", "fifo", "fair1", "fair4", "fair16", "bounded", "timed")


def _lane(sender, receiver, capacity, resp_latency=0, real=False):
    lane = {"sender": sender, "receiver": receiver, "capacity": capacity,
            "latency": 0, "resp_latency": resp_latency, "peeked": False}
    return dict(lane, real=True) if real else lane


#: Shrunk by the generator from a channel whose void enqueue took no
#: window slot (the bug ``TestVoidEnqueueTakesItsSlot`` names): ``ctx1``
#: finishes with ``ctx0`` parked on its full window, and one thread per
#: context completed the parked enqueue after the finish, so ``ctx0``
#: drained one response fewer.  Three contexts finish at once.
_VOID_SLOT_ON_THREADS = (
    [_lane(0, 1, 2, resp_latency=1)] + [_lane(i, i + 1, 1, real=True) for i in (1, 2, 3)],
    [
        ([([("E", 0, 0)] * 3 + [("I", 0, 0)] + [("E", 0, 0)] * 11, "fused"),
          ([("E", 0, 0)] * 15, "fused")], 1),
        ([([("E", 1, 0), ("D", 0, 0), ("D", 0, 0)], "fused")], 2),
        ([], 1), ([], 1), ([], 1),
    ],
)

#: Shrunk by the generator, then by hand, from runners whose
#: wake-with-delivery stamped the response without ``resp_latency``:
#: every dequeue wakes the parked producer by delivering to it.
_RESP_ON_WAKE = (
    [_lane(0, 1, 1, resp_latency=1)],
    [([([("E", 0, 0)] * 4, "fused")], 1), ([([("D", 0, 0)], "fused")], 4)],
)


class TestRandomBatches:
    @differential(40)
    @given(_programs(waits=True, reals=True))
    @example(_VOID_SLOT_ON_THREADS)
    @example(_RESP_ON_WAKE)
    def test_every_host_matches_the_spec(self, spec):
        """Each host's :func:`repro.spec.simulated` record, and what its
        contexts logged, equal the spec's, traced and untraced.  A
        ``WaitUntil`` result is checked against its threshold: a peer's
        clock at wakeup depends on the host.  The sequential legs'
        scheduling counters are their own, but tracing never moves them."""
        counters, context_ops = {}, None
        for traced in (False, True):
            program, logs = _build(spec)
            expected = reference.run(program, traced, payloads=True)
            expected_logs = logs
            for leg in _LEGS:
                program, logs = _build(spec)
                executor, obs = _leg(leg, traced)
                record = observed(program, lambda: executor.execute(program), obs)
                assert record == expected, (leg, traced)
                if "error" in record:
                    continue
                assert logs == expected_logs, (leg, traced)
                # The record holds a finished run's op counts; a
                # deadlocked run's, each host's own, must agree too.
                ops = executor._ctx_ops if leg == "threaded-off" else [
                    executor._states[id(ctx)].ops for ctx in program.contexts
                ]
                context_ops = context_ops or ops
                assert ops == context_ops, (leg, traced)
                for ctx in program.contexts:
                    assert all(value >= limit for limit, value in ctx.waits), ctx.waits
                if leg != "threaded-off":
                    seen = (executor.context_switches, executor.wakeups, executor.preemptions)
                    assert counters.setdefault(leg, seen) == seen, leg
