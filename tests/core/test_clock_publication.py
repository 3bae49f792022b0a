"""Clock publication at the slice boundary (DESIGN.md §10).

A scheduler built on the sequential executor — a process-executor
worker, a threaded cluster driver — keeps its contexts' clocks in plain
cells and shows them to other workers and threads only between slices.
These tests pin down what that owes an observer: a peer's progress is
visible while the peer is still running (not only once it parks or
finishes), what is visible never goes backwards, and none of it moves a
simulated result.
"""

import time

import pytest

from repro import (
    AdvanceTo,
    FunctionContext,
    IncrCycles,
    ProgramBuilder,
    RunConfig,
    ViewTime,
    WaitUntil,
)
from repro.contexts import Collector

#: The runner's loop: about a thousand slices, 0.1 s of wall or more.
LOOP = 1_000_000
#: Where the observer lets go: the runner is there after four slices.
THRESHOLD = 4096


def _build(observe: str, clustered_observer: bool):
    """``runner`` never parks: one enqueue, then ``LOOP`` single-cycle
    ticks.  ``observer`` watches the runner's clock — parked on a
    ``WaitUntil`` or spinning on ``ViewTime`` — until it reads
    ``THRESHOLD``.  Each records the wall time at which it got through.
    Returns ``(program, runner, observer)``.

    The channel to ``runner_sink`` makes the runner a two-member cluster
    (what the threaded executor hands to a cluster driver); the
    observer gets one too when ``clustered_observer``.  Pins put the two
    sides in different process-executor workers.
    """
    builder = ProgramBuilder()
    out, inp = builder.bounded(4, name="runner_out")

    def runner(ctx):
        yield out.enqueue(0)
        tick = IncrCycles(1)
        for _ in range(LOOP):
            yield tick
        ctx.done_wall = time.monotonic()

    runner_ctx = builder.add(
        FunctionContext(runner, handles=[out], name="runner", pass_context=True)
    )
    members = {runner_ctx: 0, builder.add(Collector(inp, name="runner_sink")): 0}

    handles = []
    if clustered_observer:
        obs_out, obs_inp = builder.bounded(4, name="observer_out")
        handles.append(obs_out)
        members[builder.add(Collector(obs_inp, name="observer_sink"))] = 1

    def observer(ctx):
        if observe == "wait":
            yield WaitUntil(runner_ctx, THRESHOLD)
        else:
            view = ViewTime(runner_ctx)
            while (yield view) < THRESHOLD:
                pass
        ctx.done_wall = time.monotonic()
        yield AdvanceTo(THRESHOLD)

    observer_ctx = builder.add(
        FunctionContext(
            observer, handles=handles, name="observer", pass_context=True
        )
    )
    members[observer_ctx] = 1
    for ctx, worker in members.items():
        builder.pin(ctx, worker)
    return builder.build(), runner_ctx, observer_ctx


@pytest.mark.parametrize("observe", ["wait", "spin"])
@pytest.mark.parametrize(
    "executor,clustered_observer,options",
    [
        ("process", True, {"workers": 2, "steal": False}),
        # Observer alone on the pooled driver, or inside a second
        # cluster driver: parked on the run's condition either way, and
        # woken by the runner's driver at each slice boundary.
        ("threaded", False, {}),
        ("threaded", True, {}),
    ],
)
def test_running_peer_is_visible_within_a_slice(
    observe, executor, clustered_observer, options
):
    expected = _build(observe, clustered_observer)[0].run()

    samples: list = []
    program, runner, observer = _build(observe, clustered_observer)
    summary = program.run(
        executor=executor,
        config=RunConfig(
            metrics_interval_s=0.002, metrics_sink=samples.append, **options
        ),
    )

    assert summary.context_times == expected.context_times
    assert summary.elapsed_cycles == expected.elapsed_cycles == LOOP
    if observe == "wait":  # a spin's op count is its wall time
        assert summary.ops_executed == expected.ops_executed

    # The bound: the observer is through while the runner still has all
    # but a few of its thousand slices to go — not when the runner
    # finishes, which is when an unpublished clock would first move.
    assert observer.done_wall < runner.done_wall

    assert samples
    for name in summary.context_times:
        seen = [sample["contexts"][name] for sample in samples]
        assert seen == sorted(seen), f"{name}: sampled clock went backwards"
