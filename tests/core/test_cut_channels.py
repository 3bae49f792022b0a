"""Cut channels against the spec, on generated programs.

A cut channel is a clone of its :class:`~repro.core.channel.Channel` at
each end and two lanes between them (DESIGN.md §10).  The programs are
``test_runners``'s, with three contexts: scripts of batches over their
lanes, parking anywhere, deadlocking sometimes.  Each runs on the
process executor at two and three workers, ``steal=False``, pinned so
that every channel is cut (at two workers, every channel a two-way split
can cut), and on some draws through 96-byte rings, so outboxes back up.
Some draws also checkpoint the three-worker run at every round and resume
on two workers from a sample of its cuts (the first, middle and last, and
the three that queue the most records; every cut under the nightly
profile).  Every run's :func:`repro.spec.simulated`
record — the failure, or the finish times, traffic, port histories and
profile, or a deadlock's blocked clocks and queued elements — and its
contexts' logs must be the spec's.  A ``ViewTime`` of another context is
dropped from the scripts: a remote clock read is a lower bound, not a
value.
"""

import multiprocessing
import tempfile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import spec as reference
from repro.core import FusedOps, ProcessExecutor
from repro.core import checkpoint as ckpt
from repro.core.errors import ChannelClosed
from repro.obs import Observability
from repro.spec import observed, simulated
from tests.conftest import nightly

from test_runners import _Scripted, _build, _programs, differential

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


class _Resumable(_Scripted):
    """``_Scripted`` under the resumable-state contract: its position is
    the number of yields it completed, and what it enqueues is named by
    position, so a restored context re-derives its suspended yield."""

    checkpoint_attrs = ("done", "log")

    def __init__(self, *args):
        super().__init__(*args)
        self.done = 0

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
        try:
            while self.done < repeats * len(built):
                constituents, batch, ops = built[self.done % len(built)]
                for at, ((kind, _, _), op) in enumerate(zip(constituents, ops)):
                    if kind == "E":
                        op.data = f"{self.index}.{self.done}.{at}"
                results = yield (tuple(ops) if batch is None else batch)
                if not isinstance(results, list):
                    results = [results]
                self.log.append([
                    value
                    for (kind, _, _), value in zip(constituents, results)
                    if kind in ("D", "P")
                ])
                self.done += 1
        except ChannelClosed:
            self.log.append("closed")


@st.composite
def _cases(draw):
    """A program with its foreign ``ViewTime`` constituents dropped, a
    ring size, and whether to checkpoint and resume."""
    lanes, scripts = draw(_programs(contexts=st.just(3)))
    local = []
    for index, (batches, repeats) in enumerate(scripts):
        kept = []
        for batch, form in batches:
            batch = [c for c in batch if c[0] != "V" or c[2] % 3 == index]
            if batch:
                kept.append((batch, form))
        local.append((kept, repeats))
    ring = draw(st.sampled_from([1 << 20, 1 << 20, 96]))
    return (lanes, local), ring, draw(st.booleans())


def _pins(lanes, workers):
    """A worker per context slot: one context each on three workers; on
    two, the split with one context alone that cuts the most lanes."""
    if workers == 3:
        return [0, 1, 2]
    splits = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    return max(
        splits,
        key=lambda split: sum(split[l["sender"]] != split[l["receiver"]] for l in lanes),
    )


def _process(spec, workers, ring, traced=True, **options):
    """The :func:`repro.spec.simulated` record of one pinned process run
    of ``spec``, and what its contexts logged."""
    program, _ = _build(spec, context=_Resumable)
    pins = {
        id(ctx): worker
        for ctx, worker in zip(program.contexts, _pins(spec[0], workers))
    }

    obs = Observability(trace=traced, metrics=False, capture_payloads=True)
    executor = ProcessExecutor(
        workers=workers, steal=False, pins=pins, obs=obs, ring_capacity=ring,
        **options,
    )
    return _logged(program, observed(program, lambda: program.run(executor), obs))


def _logged(program, record):
    """``record`` with the contexts' logs beside it, when the run
    finished: a failed run's logs depend on the schedule."""
    if "error" in record:
        return record
    return dict(record, logs=[ctx.log for ctx in program.contexts])


def _sample(paths):
    """The cuts a resume leg restores: every one under the nightly
    profile; in tier-1 the first, middle and last, and the three whose
    channels queue the most records — where the outboxes and the lanes
    went into the stitch."""
    if nightly():
        return paths

    def queued(path):
        channels = ckpt.load(path).channels.values()
        return sum(len(state["data"]) + len(state["resps"]) for state in channels)

    fullest = sorted(paths, key=queued)[-3:]
    return sorted({paths[0], paths[len(paths) // 2], paths[-1], *fullest})


def _spec(spec, traced=True):
    program, _ = _build(spec, context=_Resumable)
    return _logged(program, reference.run(program, traced, payloads=True))


#: ``test_runners.TestVoidEnqueueTakesItsSlot`` as a case: the producer
#: parks on its full window, and the consumer frees a slot and finishes.
#: The sequential fast path completes the parked enqueue in place; a worker
#: sees the consumer's responses and its finish together and retries it
#: void, so a void enqueue that took no slot finished the producer early.
_VOID_SLOT = (
    (
        [{"sender": 0, "receiver": 1, "capacity": 2, "latency": 0,
          "resp_latency": 0, "peeked": False}],
        [
            ([([("E", 0, 0)] * 3, "fused")] * 2, 1),
            ([([("D", 0, 0), ("I", 0, 0), ("D", 0, 0)], "fused")], 1),
            ([([("I", 0, 0)], "bare")], 1),
        ],
    ),
    1 << 20,
    False,
)

#: A producer that finishes with more in its outbox than a 96-byte ring
#: holds: its done sentinel must follow the last record, or the consumer
#: reads the channel closed with records still to come.
_BACKLOG = (
    (
        [{"sender": 0, "receiver": 1, "capacity": None, "latency": 0,
          "resp_latency": 0, "peeked": False}],
        [
            ([([("E", 0, 0)] * 16, "fused")], 1),
            ([([("D", 0, 0)] * 4, "fused")], 4),
            ([([("I", 0, 0)], "bare")], 1),
        ],
    ),
    96,
    False,
)


#: Found by the generator: a ring whose every context opens with a
#: dequeue.  The workers' harvests of a deadlocked run — port histories,
#: traffic, finish times — were dropped before the parent raised.
_STUCK_RING = (
    (
        [{"sender": i, "receiver": (i + 1) % 3, "capacity": 1, "latency": 0,
          "resp_latency": 0, "peeked": False} for i in range(3)],
        [([([("D", (i - 1) % 3, 0)], "bare")], 1) for i in range(3)],
    ),
    1 << 20,
    False,
)


class TestCutChannels:
    @differential(20)
    @given(_cases())
    @example(_VOID_SLOT)
    @example(_BACKLOG)
    @example(_STUCK_RING)
    def test_process_runs_match_the_spec(self, case):
        spec, ring, resume = case
        expected = _spec(spec)
        for workers in (2, 3):
            assert _process(spec, workers, ring) == expected, workers
        if not resume or "error" in expected or "stalls" in expected:
            return
        with tempfile.TemporaryDirectory() as directory:
            assert _process(
                spec, 3, ring, timeslice=3,
                checkpoint_interval_s=0.0, checkpoint_path=directory,
            ) == expected
            untraced = _spec(spec, traced=False)
            for path in _sample(ckpt.list_checkpoints(directory)):
                program, _ = _build(spec, context=_Resumable)
                ckpt.load(path, program).restore_into(program)
                pins = {id(ctx): worker for ctx, worker in zip(program.contexts, _pins(spec[0], 2))}
                executor = ProcessExecutor(workers=2, steal=False, pins=pins, ring_capacity=ring)
                resumed = _logged(program, simulated(program, program.run(executor)))
                assert resumed == untraced, path
