"""Exact quiescence: deadlock is decided on wake-ups, not on stillness.

Every host — a process worker, a context's own thread —
sleeps only after re-checking what it waits on, and everything that could
unblock it wakes it (a lane push or pop, a clock publication, a
checkpoint command, an abort).  So a deadlock is reported as soon as
every host is asleep with no wake-up in flight, with no grace period to
wait out; and a run that only *looks* still — every hop of a ring parked
at some instant, a watcher waiting on a remote clock — is never misread
as one.
"""

import multiprocessing
import sys
import time

import pytest

from repro import (
    Context,
    DeadlockError,
    IncrCycles,
    Observability,
    ProgramBuilder,
    RunConfig,
    WaitUntil,
)
from repro import spec as reference
from repro.spec import simulated

fork_available = "fork" in multiprocessing.get_all_start_methods()


def _needs_fork(*args):
    return pytest.param(
        *args,
        marks=pytest.mark.skipif(
            not fork_available, reason="fork start method unavailable"
        ),
    )


class Hold(Context):
    """Advances ``delay`` cycles, then dequeues before it ever enqueues."""

    def __init__(self, inp, out, name, delay):
        super().__init__(name=name)
        self.inp, self.out, self.delay = inp, out, delay
        self.register(inp, out)

    def run(self):
        yield IncrCycles(self.delay)
        value = yield self.inp.dequeue()
        yield self.out.enqueue(value)


def _cycle(workers):
    """Two contexts, each waiting on the other: pinned apart when a
    process run has two workers."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(1, name="a2b")
    s2, r2 = builder.bounded(1, name="b2a")
    builder.pin(builder.add(Hold(r1, s2, "ctx_a", 5)), 0)
    builder.pin(builder.add(Hold(r2, s1, "ctx_b", 3)), 1 % workers)
    return builder.build()


#: A wall-clock bound far above what a verdict costs (well under 1 ms in
#: one process, ~10 ms with two forked workers) and far below any
#: stillness timer a run could wait out.
LATENCY_BOUND_S = 0.050


@pytest.mark.parametrize(
    "executor, config",
    [
        ("sequential", RunConfig()),
        ("threaded", RunConfig(superblocks="off")),
        _needs_fork("process", RunConfig(workers=1)),
        _needs_fork("process", RunConfig(workers=2)),
    ],
    ids=["sequential", "threaded-off", "process-1", "process-2"],
)
def test_two_context_cycle_is_reported_within_50ms(executor, config):
    """The fastest of three runs, so a first-use import or a busy host
    cannot stand in for the verdict's own latency."""
    elapsed = []
    for _ in range(3):
        obs = Observability(trace=False)
        started = time.perf_counter()
        with pytest.raises(DeadlockError):
            _cycle(config.workers or 1).run(executor, config=config, obs=obs)
        elapsed.append(time.perf_counter() - started)
        assert {stall.context for stall in obs.stall_report.stalls} == {
            "ctx_a",
            "ctx_b",
        }
    assert min(elapsed) < LATENCY_BOUND_S, elapsed


# ----------------------------------------------------------------------
# Lost wake-ups: a ring where every hop parks, across every host kind.
# ----------------------------------------------------------------------

HOPS = 6
TOKENS = 20
#: Where the watcher lets go: ``hop3`` passes it about halfway through.
THRESHOLD = 100


class _Head(Context):
    """Sends token ``n`` and waits for it to come back, ``TOKENS`` times.

    The ring's contexts keep the resumable-state contract (DESIGN.md
    §17), so the checkpointing legs can cut them."""

    checkpoint_attrs = ("got", "_sent")

    def __init__(self, inp, out):
        super().__init__(name="hop0")
        self.inp, self.out = inp, out
        self.got = []
        self._sent = False
        self.register(inp, out)

    def run(self):
        while len(self.got) < TOKENS:
            if not self._sent:
                yield self.out.enqueue(len(self.got))
                self._sent = True
            self.got.append((yield self.inp.dequeue()))
            self._sent = False


class _Hop(Context):
    """Forwards ``TOKENS`` values, one cycle each, adding one."""

    checkpoint_attrs = ("_count", "_phase", "_value")

    def __init__(self, inp, out, name):
        super().__init__(name=name)
        self.inp, self.out = inp, out
        self._count = 0
        self._phase = 0  # 0=dequeue, 1=tick, 2=enqueue
        self._value = None
        self.register(inp, out)

    def run(self):
        while self._count < TOKENS:
            if self._phase == 0:
                self._value = yield self.inp.dequeue()
                self._phase = 1
            if self._phase == 1:
                yield IncrCycles(1)
                self._phase = 2
            yield self.out.enqueue(self._value + 1)
            self._phase = 0
            self._count += 1


class _Watcher(Context):
    """Parks until ``target``'s clock passes ``THRESHOLD``."""

    checkpoint_attrs = ("seen",)

    def __init__(self, target):
        super().__init__(name="watcher")
        self.target = target
        self.seen = None

    def run(self):
        if self.seen is None:
            self.seen = yield WaitUntil(self.target, THRESHOLD)
        yield IncrCycles(1)


def _ring():
    """One token circulates ``TOKENS`` times around ``HOPS`` capacity-1
    channels; hop ``i`` is pinned to worker ``i % 3``, so with three
    workers every channel is a cut lane and every hop parks.  A watcher
    on another worker parks on ``hop3``'s clock."""
    builder = ProgramBuilder()
    lanes = [builder.bounded(1, name=f"lane{i}") for i in range(HOPS)]
    hops = [_Head(lanes[-1][1], lanes[0][0])]
    for index in range(1, HOPS):
        hops.append(_Hop(lanes[index - 1][1], lanes[index][0], f"hop{index}"))
    for index, ctx in enumerate(hops):
        builder.pin(builder.add(ctx), index % 3)
    builder.pin(builder.add(_Watcher(hops[3])), 1)
    return builder.build()


def _got(program):
    """What the head of the ring received.  The watcher's read of a
    foreign clock is a schedule-dependent lower bound, so only its floor
    is checked."""
    watcher = next(ctx for ctx in program.contexts if ctx.name == "watcher")
    assert watcher.seen >= THRESHOLD
    return next(ctx for ctx in program.contexts if ctx.name == "hop0").got


@pytest.mark.parametrize(
    "executor, config, checkpoint",
    [
        _needs_fork("process", RunConfig(workers=3, steal=False), False),
        _needs_fork("process", RunConfig(workers=3, steal=True), False),
        _needs_fork("process", RunConfig(workers=3, steal=False), True),
        _needs_fork("process", RunConfig(workers=3, steal=True), True),
        ("threaded", RunConfig(superblocks="off"), False),
    ],
    ids=[
        "process-pinned",
        "process-stealing",
        "process-pinned-checkpointing",
        "process-stealing-checkpointing",
        "threaded-off",
    ],
)
def test_parked_ring_never_loses_a_wakeup(executor, config, checkpoint, tmp_path):
    """Twenty runs per host kind, each equal to the sequential run.  A
    lost wake-up would strand a hop, and a missed checkpoint command
    would leave a round waiting on an ack forever: the deadline turns
    either hang into a failure even without a per-test timeout.  The
    checkpointing legs open rounds back to back, so commands keep
    arriving while workers are deciding whether to sleep."""
    ring = _ring()
    expected = reference.run(ring), _got(ring)
    assert ring.contexts[3].finish_time > THRESHOLD
    config = config.replace(deadline_s=60.0)
    # Three workers on a smaller host, and threads switched every 10 µs:
    # interleavings a lost wake-up needs come often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for attempt in range(20):
            if checkpoint:
                config = config.replace(
                    checkpoint_interval_s=0.0,
                    checkpoint_path=str(tmp_path / f"run{attempt}"),
                )
            program = _ring()
            summary = program.run(executor, config=config)
            assert (simulated(program, summary), _got(program)) == expected, f"run {attempt}"
    finally:
        sys.setswitchinterval(interval)
