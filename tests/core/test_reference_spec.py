"""The spec (``repro.spec``) on hand-computed programs, one per DESIGN.md
§5 transition, and on a deadlock every host must report alike.

Each case states its record as worked out by hand from §5, checks the
spec against it, and the sequential engine against the spec.  The spec
stands apart from the hosts it judges: it imports nothing of
``Channel``'s or of an executor's.
"""

import ast
import multiprocessing
from pathlib import Path

import pytest

import repro.spec
from repro.core import FunctionContext, IncrCycles, ProgramBuilder, RunConfig
from repro.core.errors import ChannelClosed, SimulationError
from repro.obs import Observability
from repro.spec import observed
from repro.tools import count_loc

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

SPEC_DIR = Path(repro.spec.__file__).parent

HOSTS = pytest.mark.parametrize(
    "executor, config",
    [
        ("sequential", RunConfig()),
        ("threaded", RunConfig()),
        ("threaded", RunConfig(superblocks="off")),
        pytest.param("process", RunConfig(workers=1), marks=needs_fork),
        pytest.param("process", RunConfig(workers=2, steal=False), marks=needs_fork),
    ],
    ids=["sequential", "threaded", "threaded-off", "process-1", "process-2"],
)


class TestTheSpecStandsApart:
    def test_imports_no_channel_and_no_executor(self):
        for path in SPEC_DIR.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [alias.name for alias in node.names]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                for module in modules:
                    parts = set(module.split("."))
                    assert not parts & {"channel", "executor"}, (path, module)

    def test_is_small(self):
        total = sum(count_loc(path.read_text()) for path in SPEC_DIR.glob("*.py"))
        assert total <= 200


def _two(capacity, producer, consumer, latency=1, resp_latency=1, real=False):
    """Build ``producer`` -> ``consumer`` over one lane (``real`` or of
    ``capacity``); each body takes its endpoint and a log."""
    def build():
        builder = ProgramBuilder()
        if real:
            snd, rcv = builder.real(name="lane")
        else:
            snd, rcv = builder.channel(
                capacity, latency=latency, resp_latency=resp_latency, name="lane"
            )
        log = []
        builder.add(FunctionContext(lambda: producer(snd), handles=[snd], name="prod"))
        builder.add(FunctionContext(lambda: consumer(rcv, log), handles=[rcv], name="cons"))
        return builder.build(), log

    return build


def _takes(count):
    def consumer(rcv, log):
        try:
            for _ in range(count):
                log.append((yield rcv.dequeue()))
        except ChannelClosed:
            log.append("closed")

    return consumer


def _sends(*steps):
    """Enqueue each int; an ``("incr", n)`` step advances instead."""
    def producer(snd):
        for step in steps:
            yield IncrCycles(step[1]) if isinstance(step, tuple) else snd.enqueue(step)

    return producer


#: name -> (program, record by hand, what the consumer logged).
CASES = {
    # Window 1: the second enqueue drains the response of the dequeue at
    # 1 (stamp 0 + L 1), at 1 + R 2 = 3, and is stamped 3 + 1.
    "backpressure-drain": (
        _two(1, _sends(0, 1), _takes(2), latency=1, resp_latency=2),
        {"finish": [3, 4], "channels": [[2, 2, 0]], "ops": [2, 2], "trace": {
            "prod": [[2, 2, 1], [0, 3, 3], [0, 1, None]],
            "cons": [[3, 3, 1], [1, 4, 4], [0, 1, None]],
        }},
        [0, 1],
    ),
    # The consumer finishes at once: both enqueues are void, and the
    # second finds a full window with no response and does not block.
    "void-after-finish": (
        _two(1, _sends(("incr", 5), 0, 1), _takes(0)),
        {"finish": [5, 0], "channels": [[2, 0, 0]], "ops": [3, 0], "trace": {
            "prod": [[0, 2, 2, 1], [5, 5, 5, 5], [None, 0, 1, None]],
            "cons": [[1], [0], [None]],
        }},
        [],
    ),
    # Drained, then closed: the third dequeue raises at the yield, and
    # counts as an op.
    "closed-after-drain": (
        _two(None, _sends(7, 8), _takes(3), latency=2),
        {"finish": [0, 2], "channels": [[2, 2, 0]], "ops": [2, 3], "trace": {
            "prod": [[2, 2, 1], [0, 0, 0], [7, 8, None]],
            "cons": [[3, 3, 1], [2, 2, 2], [7, 8, None]],
        }},
        [7, 8, "closed"],
    ),
    # A real channel stamps 0: the consumer's clock never moves.
    "real-stamp-zero": (
        _two(None, _sends(("incr", 10), 9), _takes(1), real=True),
        {"finish": [10, 0], "channels": [[1, 1, 0]], "ops": [2, 1], "trace": {
            "prod": [[0, 2, 1], [10, 10, 10], [None, 9, None]],
            "cons": [[3, 1], [0, 0], [9, None]],
        }},
        [9],
    ),
    "negative-incr": (
        _two(None, _sends(("incr", -1)), _takes(0)),
        {"error": "ValueError: cannot step backwards in time by -1"},
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_hand_computed_transition(case):
    build, expected, expected_log = CASES[case]
    program, log = build()
    record = repro.spec.run(program, traced=True, payloads=True)
    record.pop("profile", None)
    assert record == expected
    if expected_log is not None:
        assert log == expected_log
    program, _ = build()
    obs = Observability(metrics=False, capture_payloads=True)
    spec_program, _ = build()
    assert observed(program, lambda: program.run(config=RunConfig(obs=obs)), obs) == (
        repro.spec.run(spec_program, traced=True, payloads=True)
    )


@HOSTS
def test_an_op_error_fails_its_context_on_every_host(executor, config):
    """A negative ``IncrCycles`` is the context's failure, typed alike
    whichever host stepped it."""
    program, _ = CASES["negative-incr"][0]()
    with pytest.raises(SimulationError) as info:
        program.run(executor, config=config)
    assert info.value.context_name == "prod"
    assert isinstance(info.value.original, ValueError)


# ----------------------------------------------------------------------
# A deadlock is simulated state too.
# ----------------------------------------------------------------------


def _stuck():
    """``p`` fills ``a`` (capacity 1) faster than ``q`` drains it, and
    ``q`` fills ``b`` (capacity 2), which ``p`` never reads: both block,
    with elements still queued on each lane."""
    builder = ProgramBuilder()
    a_snd, a_rcv = builder.bounded(1, name="a")
    b_snd, b_rcv = builder.bounded(2, name="b")

    def p():
        for value in range(3):
            yield a_snd.enqueue(value)
            yield IncrCycles(1)

    def q():
        yield b_snd.enqueue(0)
        yield b_snd.enqueue(1)
        yield a_rcv.dequeue()
        yield b_snd.enqueue(2)

    builder.add(FunctionContext(p, handles=[a_snd, b_rcv], name="p"))
    builder.add(FunctionContext(q, handles=[a_rcv, b_snd], name="q"))
    return builder.build()


STUCK = {
    "finish": [None, None],
    "channels": [[2, 1, 0], [2, 0, 0]],
    "stalls": [["p", "enqueue on full a", 3], ["q", "enqueue on full b", 1]],
    "trace": {
        "p": [[2, 0, 2, 0], [0, 1, 2, 3], None],
        "q": [[5, 5, 3], [0, 0, 1], None],
    },
}


@HOSTS
def test_a_traced_deadlock_is_one_record_everywhere(executor, config):
    """Every host leaves the spec's record of the deadlock: who is
    blocked on what at what time, the traffic and each context's port
    history up to its block.  (A process run folds
    its aborted workers' harvests before it raises.)"""
    assert repro.spec.run(_stuck(), traced=True) == STUCK
    program = _stuck()
    if config.workers == 2:
        config = config.replace(pins={id(ctx): slot for slot, ctx in enumerate(program.contexts)})
    obs = Observability(metrics=False)
    run = lambda: program.run(executor, config=config.replace(obs=obs))  # noqa: E731
    assert observed(program, run, obs) == STUCK
