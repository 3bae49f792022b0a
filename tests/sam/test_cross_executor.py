"""Cross-executor determinism on full SAM kernels.

The paper's exactness claim at application scale: the same SAM kernel
graph, executed on the cooperative executor (every policy), on the
threaded executor, and on the process executor at every worker count,
leaves the spec's record (:func:`repro.spec.simulated`: per-context
finish times, channel traffic, op count, and, traced, every port history
and the profile) and the identical output tensor.
"""

import numpy as np
import pytest

from repro import spec as reference
from repro.core import FairPolicy, RunConfig, SequentialExecutor
from repro.sam import CsfTensor
from repro.sam.graphs import (
    build_sddmm,
    build_sparse_mha,
    build_spmspm,
)
from repro.sam.primitives import TimingParams
from repro.sam.tensor import random_dense
from repro.spec import simulated


# ----------------------------------------------------------------------
# The full matrix: every executor, every worker count, three kernels.
# ----------------------------------------------------------------------


def _build_spmspm_kernel():
    b = random_dense(6, 6, density=0.3, seed=23)
    ct = random_dense(6, 6, density=0.3, seed=24)
    return build_spmspm(
        CsfTensor.from_dense(b, "cc"),
        CsfTensor.from_dense(ct, "cc"),
        depth=4,
    )


def _build_sddmm_kernel():
    rng = np.random.default_rng(31)
    s = random_dense(6, 6, density=0.4, seed=30)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    return build_sddmm(
        CsfTensor.from_dense(s, "cc"), a, b, depth=4,
        timing=TimingParams(ii=2),
    )


def _build_mha_kernel():
    rng = np.random.default_rng(3)
    H, N, d = 2, 5, 3
    mask = (rng.random((H, N, N)) < 0.5).astype(float)
    for h in range(H):
        np.fill_diagonal(mask[h], 1.0)
    q = rng.standard_normal((H, N, d))
    k = rng.standard_normal((H, N, d))
    v = rng.standard_normal((H, N, d))
    return build_sparse_mha(
        CsfTensor.from_dense(mask, "dcc"), q, k, v, depth=6, softmax_depth=32,
    )


_KERNELS = {
    "spmspm": _build_spmspm_kernel,
    "sddmm": _build_sddmm_kernel,
    "mha": _build_mha_kernel,
}


class TestExecutorMatrix:
    """sequential × threaded (one thread per context) × process(1..4
    workers), three SAM kernels, against the spec.

    The simulated record and the numeric output tensor must be
    bit-identical to the spec's, whatever runtime produced them.  The SAM
    primitives issue their steady-state transitions as fused op batches,
    so this matrix is also the fused-program equivalence suite: the
    sequential leg runs them through the compiled runners, the
    one-thread-per-context leg steps each constituent through
    ``Channel``'s own methods, and the process legs host the runners on
    an entirely different runtime.
    """

    @pytest.mark.parametrize("kernel_name", sorted(_KERNELS))
    def test_all_executors_agree(self, kernel_name):
        """Every leg traced — the port histories, merged from forked
        workers on the process legs, and the profile are in the record —
        and the sequential leg untraced too."""
        from repro.obs import Observability

        build = _KERNELS[kernel_name]
        kernel, untraced, traced = build(), build(), build()
        summary = kernel.run()
        output = kernel.result_dense().tobytes()
        assert simulated(kernel.program, summary) == reference.run(untraced.program)
        assert output == untraced.result_dense().tobytes()
        expected = reference.run(traced.program, traced=True), output
        runs = [("sequential", RunConfig()), ("threaded", RunConfig(superblocks="off"))]
        runs += [("process", RunConfig(workers=n)) for n in (1, 2, 3, 4)]
        for executor, config in runs:
            kernel = build()
            obs = Observability(metrics=False)
            summary = kernel.run(executor=executor, config=config.replace(obs=obs))
            got = simulated(kernel.program, summary, obs), kernel.result_dense().tobytes()
            assert got == expected, (
                f"{kernel_name} on {executor} {config} diverged from the spec"
            )

    def test_legacy_kwargs_form_rejected(self):
        """The pre-registry bare-kwargs call style was removed with the
        serve API redesign: ``config=RunConfig(...)`` is the one
        constructor path, and stray keywords raise immediately."""
        kernel = _KERNELS["spmspm"]()
        with pytest.raises(TypeError, match="workers"):
            kernel.run(executor="process", workers=2)

    @pytest.mark.parametrize(
        "executor,kwargs",
        [
            ("sequential", {}),
            ("process", {"workers": 2}),
        ],
    )
    def test_sampled_metrics_leg_is_bit_identical(self, executor, kwargs):
        """Live metric streaming (``metrics_interval_s``) must not perturb
        SVA: the sampled run's record, traced — its port histories and
        profile too — is the spec's."""
        from repro.obs import Observability

        kernel = _KERNELS["spmspm"]()
        obs = Observability()
        sink: list = []
        config = RunConfig(
            obs=obs, metrics_interval_s=0.002, metrics_sink=sink.append, **kwargs
        )
        summary = kernel.run(executor=executor, config=config)
        spec_kernel = _KERNELS["spmspm"]()
        assert (simulated(kernel.program, summary, obs), kernel.result_dense().tobytes()) == (
            reference.run(spec_kernel.program, traced=True), spec_kernel.result_dense().tobytes()
        )
        assert sink, f"{executor}: sampler produced no samples"


# ----------------------------------------------------------------------
# Forced work stealing: a deliberately skewed partition of the
# head-parallel MHA graph, where the only way the light worker gets more
# work is by migrating cold clusters away from the heavy worker.
# ----------------------------------------------------------------------


def _build_parallel_mha_kernel(parallelism=6):
    from repro.sam.graphs import build_parallel_mha

    rng = np.random.default_rng(11)
    H, N, d = parallelism, 5, 3
    mask = (rng.random((H, N, N)) < 0.5).astype(float)
    for h in range(H):
        np.fill_diagonal(mask[h], 1.0)
    q = rng.standard_normal((H, N, d))
    k = rng.standard_normal((H, N, d))
    v = rng.standard_normal((H, N, d))
    return build_parallel_mha(
        mask, q, k, v, parallelism=parallelism, depth=6, softmax_depth=32,
    )


def _skewed_pins(program):
    """Pin the first connected component to worker 0 and every other
    component to worker 1 (a 1-vs-many skew)."""
    from repro.core import plan_clusters

    clusters = plan_clusters(
        program, {id(ctx): 0 for ctx in program.contexts}
    )
    first = set(clusters[0].contexts)
    return {
        id(ctx): (0 if slot in first else 1)
        for slot, ctx in enumerate(program.contexts)
    }


class TestWorkStealing:
    def test_forced_steal_matches_the_spec(self):
        """Worker 0 owns one of six pipelines; the other five sit cold on
        worker 1.  Worker 0 must steal, and the simulated results must
        stay bit-identical to the spec's anyway.  The placement credits
        every stolen slot to worker 0, its adopter."""
        from repro.core import RunConfig

        spec_kernel = _build_parallel_mha_kernel()
        expected = reference.run(spec_kernel.program), spec_kernel.result_dense().tobytes()

        kernel = _build_parallel_mha_kernel()
        pins = _skewed_pins(kernel.program)
        summary = kernel.run(
            executor="process", config=RunConfig(workers=2, pins=pins)
        )
        assert summary.steals >= 1, "skewed partition did not force a steal"
        assert summary.placement.count(0) > list(pins.values()).count(0)
        assert (simulated(kernel.program, summary), kernel.result_dense().tobytes()) == expected

    def test_placement_feedback_replays_replicated_pipelines(self):
        """Four pipelines whose contexts share names.  RunSummary.placement
        is kept per program slot, so replanning with pins_from_placement
        puts every pipeline back on the worker it ran on: the replay
        plans both workers, with the recorded placement and identical
        simulated results."""
        from repro.core import ProcessExecutor, RunConfig, pins_from_placement

        kernel = _build_parallel_mha_kernel(parallelism=4)
        summary = kernel.run(
            executor="process", config=RunConfig(workers=2, steal=False)
        )
        assert len(summary.placement) == len(kernel.program.contexts)
        assert sorted(set(summary.placement)) == [0, 1]

        replay = _build_parallel_mha_kernel(parallelism=4)
        executor = ProcessExecutor(
            workers=2,
            steal=False,
            pins=pins_from_placement(replay.program, summary.placement),
        )
        summary2 = replay.run(executor)
        assert executor.plan.workers_used == 2
        assert summary2.placement == summary.placement
        assert (simulated(replay.program, summary2), replay.result_dense().tobytes()) == (
            simulated(kernel.program, summary), kernel.result_dense().tobytes()
        )

    def test_skew_is_replanned_from_the_measured_ops(self):
        """``pins_from_summary`` re-plans a skewed run from its recorded
        ``context_ops``, so the busier worker carries less, before any
        stealing.  Both runs leave the spec's record."""
        from repro.core import ProcessExecutor, pins_from_summary

        spec_kernel = _build_parallel_mha_kernel()
        expected = reference.run(spec_kernel.program), spec_kernel.result_dense().tobytes()

        kernel = _build_parallel_mha_kernel()
        pins = _skewed_pins(kernel.program)
        summary = kernel.run(ProcessExecutor(workers=2, steal=False, pins=pins))
        assert summary.placement == [pins[id(ctx)] for ctx in kernel.program.contexts]
        assert (simulated(kernel.program, summary), kernel.result_dense().tobytes()) == expected

        replay = _build_parallel_mha_kernel()
        executor = ProcessExecutor(
            workers=2,
            steal=False,
            pins=pins_from_summary(replay.program, summary, 2),
        )
        summary2 = replay.run(executor)

        def loads(run):
            ops = [0, 0]
            for worker, count in zip(run.placement, run.context_ops):
                ops[worker] += count
            return ops

        assert max(loads(summary2)) < max(loads(summary))
        assert (simulated(replay.program, summary2), replay.result_dense().tobytes()) == expected

    def test_steal_disabled_keeps_planned_placement(self):
        from repro.core import RunConfig

        spec_kernel = _build_parallel_mha_kernel()
        expected = reference.run(spec_kernel.program), spec_kernel.result_dense().tobytes()

        kernel = _build_parallel_mha_kernel()
        pins = _skewed_pins(kernel.program)
        summary = kernel.run(
            executor="process",
            config=RunConfig(workers=2, pins=pins, steal=False),
        )
        assert summary.steals == 0
        assert (simulated(kernel.program, summary), kernel.result_dense().tobytes()) == expected


# ----------------------------------------------------------------------
# Threaded hosting (DESIGN.md §15): each context on its own thread
# ("off"), or the whole program on the cooperative engine; the results
# must not move.  No other executor reads the field.
# ----------------------------------------------------------------------


class TestThreadedHostingModes:
    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_field_is_inert_off_the_threaded_executor(self, executor):
        """Summaries — the record and the scheduling counters — do not
        depend on the field where nothing reads it.  The process leg
        runs a zero-cut graph (one pipeline per worker, no stealing) on
        short slices: its counters are then deterministic, and busy."""
        from repro.core import RunConfig

        kwargs = (
            {}
            if executor == "sequential"
            else {"workers": 2, "steal": False, "timeslice": 4}
        )
        outcomes = []
        for mode in (None, "off", "on", "auto"):
            kernel = (
                _build_spmspm_kernel()
                if executor == "sequential"
                else _build_parallel_mha_kernel(parallelism=2)
            )
            summary = kernel.run(
                executor=executor,
                config=RunConfig(superblocks=mode, **kwargs),
            )
            outcomes.append(
                (
                    simulated(kernel.program, summary),
                    kernel.result_dense().tobytes(),
                    summary.context_switches,
                    summary.wakeups,
                    summary.preemptions,
                )
            )
        assert outcomes[0][2] > 0  # the run does park and wake
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    def test_trace_and_profile_identical_across_modes(self):
        """The threaded identity test: an attached ``Observability``
        rides whichever hosting the mode picked — per-context threads or
        the cooperative engine — and the record, traced, must be the
        spec's, and the channel metrics the sequential ones."""
        from repro.obs import Observability

        def run(executor, mode):
            kernel = _KERNELS["spmspm"]()
            obs = Observability()
            summary = kernel.run(
                executor=executor,
                config=RunConfig(obs=obs, superblocks=mode),
            )
            # Counters only: the occupancy gauges are *real* (schedule-
            # dependent) high-water marks.
            channel_metrics = {
                key: value
                for key, value in summary.metrics["counters"].items()
                if key.startswith("channel_")
            }
            output = kernel.result_dense().tobytes()
            return simulated(kernel.program, summary, obs), output, channel_metrics

        sequential = run("sequential", None)
        assert sequential[2]
        spec_kernel = _KERNELS["spmspm"]()
        assert sequential[:2] == (
            reference.run(spec_kernel.program, traced=True), spec_kernel.result_dense().tobytes()
        )
        for mode in ("off", "on", "auto"):
            assert run("threaded", mode) == sequential, (
                f"threaded superblocks={mode}: trace/profile/metrics diverged"
            )


# ----------------------------------------------------------------------
# Table I quantities (context switches, wakeups, preemptions) come from
# the scheduling policy, never from who drives the loop (nor from whether
# the run is traced: ``test_runners.TestRandomBatches`` checks that on
# every sequential leg).
# ----------------------------------------------------------------------


def _build_table1_graph():
    """The Table I graph (``benchmarks/bench_table1_scheduling.py``)."""
    from repro.sam.graphs import build_parallel_mha

    rng = np.random.default_rng(0)
    heads, seq_len, d = 4, 10, 4
    mask = (rng.random((heads, seq_len, seq_len)) < 0.4).astype(float)
    for h in range(heads):
        np.fill_diagonal(mask[h], 1.0)
    q, k, v = (rng.standard_normal((heads, seq_len, d)) for _ in range(3))
    return build_parallel_mha(mask, q, k, v, parallelism=4)


class TestSchedulingCounters:
    def test_fifo_never_preempts(self):
        kernel = _build_spmspm_kernel()
        summary = SequentialExecutor(policy="fifo").execute(kernel.program)
        assert summary.wakeups > 0  # the graph does park and wake
        assert summary.preemptions == 0

    def test_fair_counters_ignore_the_hosting_field(self):
        """The Table I graph under its CFS-like policy."""
        from repro.core import RunConfig

        counters = set()
        for mode in (None, "off", "on", "auto"):
            summary = _build_table1_graph().program.run(
                config=RunConfig(
                    policy=FairPolicy(timeslice=16), superblocks=mode
                )
            )
            counters.add(
                (summary.context_switches, summary.wakeups, summary.preemptions)
            )
        assert len(counters) == 1
        assert min(counters.pop()) > 0


# ----------------------------------------------------------------------
# Body-visible clocks: a context body may read ``self.time.now()``
# between yields, so whatever the runtime does with clocks (a local in
# a runner, a plain cell published at slice boundaries) the body must
# see exactly the value the spec shows it.
# ----------------------------------------------------------------------


def _build_batching_pipeline():
    """requests -> batcher -> inference -> sink(timestamps=True): the
    batcher, the inference context and the sink each record their own
    clock between yields."""
    from repro.contexts import Collector
    from repro.core import ProgramBuilder
    from repro.multiplex.batching import (
        BatchingContext,
        InferenceContext,
        RequestSource,
        poisson_arrivals,
    )

    builder = ProgramBuilder()
    req_snd, req_rcv = builder.bounded(4, name="requests_out")
    rec_snd, rec_rcv = builder.bounded(2, name="records")
    done_snd, done_rcv = builder.bounded(2, name="completions")
    builder.add(RequestSource(req_snd, poisson_arrivals(60, 5.0, seed=7)))
    builder.add(BatchingContext(req_rcv, rec_snd, max_batch=4, timeout=12))
    inference = builder.add(
        InferenceContext(rec_rcv, done_snd, cycles_per_batch=20, cycles_per_item=3)
    )
    sink = builder.add(Collector(done_rcv, ii=2, timestamps=True, name="sink"))
    return builder.build(), inference, sink


class TestBodyVisibleClock:
    def test_recorded_clock_reads_identical_everywhere(self):
        def observe(program, inference, sink, record):
            return record, inference.completions, sink.values

        built = _build_batching_pipeline()
        expected = observe(*built, reference.run(built[0]))
        assert len(expected[2]) > 10
        legs = [("threaded", {"superblocks": "off"}), ("sequential", {})]
        legs += [("sequential", {"policy": FairPolicy(timeslice=1)})]
        legs += [("process", {"workers": n}) for n in (1, 2, 3)]
        for executor, kwargs in legs:
            program, inference, sink = _build_batching_pipeline()
            summary = program.run(executor=executor, config=RunConfig(**kwargs))
            got = observe(program, inference, sink, simulated(program, summary))
            assert got == expected, (
                f"{executor} {kwargs}: a body saw a different clock than "
                "the spec showed it"
            )
