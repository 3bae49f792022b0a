"""Cut channels against the sequential executor, on generated programs.

A cut channel is a clone of its :class:`~repro.core.channel.Channel` at
each end and two lanes between them (DESIGN.md §10).  The programs are
``test_runners``'s: three contexts running scripts of batches over up to
three lanes, parking anywhere, deadlocking sometimes.  Each runs on the
process executor at two and three workers, ``steal=False``, pinned so
that every channel is cut (at two workers, every channel a two-way split
can cut), and on some draws through 96-byte rings, so outboxes back up.
Some draws also checkpoint the three-worker run at every round and resume
from a cut on two workers.  Every run must observe what the sequential run
does — the failure, or the finish times, traffic, logs and port histories;
``max_real_occupancy`` is a real-time measure and is not compared.  A
``ViewTime`` of another context is dropped from the scripts: a remote
clock read is a lower bound, not a value.
"""

import json
import multiprocessing
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import DeadlockError, FusedOps, ProcessExecutor, RunConfig, SimulationError
from repro.core import checkpoint as ckpt
from repro.core.errors import ChannelClosed
from repro.obs import Observability

from test_runners import _Scripted, _build, _programs

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
    lanes, scripts = draw(_programs())
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


def _observe(program, run, traced=True):
    """What ``run(obs)`` leaves observable, as JSON text."""
    obs = Observability(metrics=False, capture_payloads=True) if traced else None
    try:
        summary = run(obs)
    except DeadlockError:
        # Who is blocked where, at what time of its own: the report's
        # peer clocks are lower bounds, and its occupancy is real time.
        return json.dumps({"error": "DeadlockError", "stalls": sorted(
            (s.context, s.detail, s.local_time) for s in obs.stall_report.stalls
        )})
    except (SimulationError, ValueError) as failure:
        # A worker reports a host-level error wrapped, with its cause.
        cause = getattr(failure, "original", None) or failure
        return json.dumps({"error": f"{type(cause).__name__}: {cause}"})
    observed = {
        "finish": [ctx.finish_time for ctx in program.contexts],
        "stats": [
            (ch.stats.enqueues, ch.stats.dequeues, ch.stats.peeks)
            for ch in program.channels
        ],
        "logs": [ctx.log for ctx in program.contexts],
    }
    if traced:
        observed["ops"] = summary.ops_executed
        observed["trace"] = {
            name: [buf.ports, buf.rows] for name, buf in obs.trace.buffers().items()
        }
    return json.dumps(observed, default=str)


def _process(spec, workers, ring, **options):
    """``(program, run)`` of one pinned process run of ``spec``."""
    program, _ = _build(spec, context=_Resumable)
    pins = {
        id(ctx): worker
        for ctx, worker in zip(program.contexts, _pins(spec[0], workers))
    }

    def run(obs):
        return program.run(
            ProcessExecutor(
                workers=workers, steal=False, pins=pins, obs=obs,
                ring_capacity=ring, **options,
            )
        )

    return program, run


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


class TestCutChannels:
    @settings(
        max_examples=20,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_cases())
    @example(_VOID_SLOT)
    @example(_BACKLOG)
    def test_process_runs_match_sequential(self, case):
        spec, ring, resume = case
        reference, _ = _build(spec, context=_Resumable)
        expected = _observe(
            reference, lambda obs: reference.run(config=RunConfig(obs=obs))
        )
        for workers in (2, 3):
            assert _observe(*_process(spec, workers, ring)) == expected, workers
        untraced = json.loads(expected)
        if not resume or "error" in untraced:
            return
        del untraced["ops"], untraced["trace"]
        with tempfile.TemporaryDirectory() as directory:
            program, run = _process(
                spec, 3, ring, timeslice=3,
                checkpoint_interval_s=0.0, checkpoint_path=directory,
            )
            assert _observe(program, run) == expected
            for path in ckpt.list_checkpoints(directory):
                program, run = _process(spec, 2, ring)
                ckpt.load(path, program).restore_into(program)
                assert json.loads(_observe(program, run, traced=False)) == untraced, path
