"""Cross-executor determinism on full SAM kernels.

The paper's exactness claim at application scale: the same SAM kernel
graph, executed on the cooperative executor (every policy), on the
threaded executor, and on the process executor at every worker count,
yields identical outputs, identical simulated cycle counts, identical
per-context finish times, and identical channel statistics.
"""

import numpy as np
import pytest

from repro.core import FairPolicy, RunConfig, SequentialExecutor
from repro.sam import CsfTensor
from repro.sam.graphs import (
    build_mmadd,
    build_sddmm,
    build_sparse_mha,
    build_spmspm,
)
from repro.sam.primitives import TimingParams
from repro.sam.tensor import random_dense


def mmadd_kernel():
    a = random_dense(6, 6, density=0.5, seed=21)
    b = random_dense(6, 6, density=0.5, seed=22)
    return build_mmadd(
        CsfTensor.from_dense(a, "cc"),
        CsfTensor.from_dense(b, "cc"),
        depth=3,
        timing=TimingParams(ii=2, stop_bubble=1),
    )


class TestKernelDeterminism:
    def test_mmadd_policies_and_threads_agree(self):
        outcomes = []
        for run_kind in ["fifo", "fair", "threaded"]:
            kernel = mmadd_kernel()
            if run_kind == "threaded":
                summary = kernel.run(
                    executor="threaded", config=RunConfig(superblocks="off")
                )
            elif run_kind == "fair":
                summary = SequentialExecutor(
                    policy=FairPolicy(timeslice=3)
                ).execute(kernel.program)
                kernel.summary = summary
            else:
                summary = kernel.run()
            outcomes.append(
                (summary.elapsed_cycles, kernel.result_dense().tobytes())
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]


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


def _signature(kernel, summary):
    """Everything that must be executor-independent about a run.

    (``max_real_occupancy`` is deliberately absent: it measures real
    queue depth, which legitimately varies with scheduling order.)
    """
    channel_stats = tuple(
        (ch.name, ch.stats.enqueues, ch.stats.dequeues, ch.stats.peeks)
        for ch in kernel.program.channels
    )
    return {
        "elapsed": summary.elapsed_cycles,
        "context_times": summary.context_times,
        "channels": channel_stats,
        "result": kernel.result_dense().tobytes(),
    }


class TestExecutorMatrix:
    """sequential × threaded (one thread per context) × process(1..4
    workers), three SAM kernels.

    Simulated results — cycle counts, per-context finish times, channel
    traffic statistics, and the numeric output tensor — must be
    bit-identical regardless of the runtime that produced them.

    The SAM primitives issue their steady-state transitions as fused op
    batches, so this matrix is also the fused-program equivalence suite:
    the sequential reference runs them through the compiled runners, the
    one-thread-per-context leg steps each constituent through
    ``Channel``'s own methods, and the process legs host the runners on
    an entirely different runtime.
    """

    @pytest.mark.parametrize("kernel_name", sorted(_KERNELS))
    def test_all_executors_agree(self, kernel_name):
        from repro.core import RunConfig

        build = _KERNELS[kernel_name]
        reference_kernel = build()
        reference = _signature(reference_kernel, reference_kernel.run())

        runs = [("threaded", RunConfig(superblocks="off"))]
        runs += [("process", RunConfig(workers=n)) for n in (1, 2, 3, 4)]
        for executor, config in runs:
            kernel = build()
            summary = kernel.run(executor=executor, config=config)
            signature = _signature(kernel, summary)
            assert signature == reference, (
                f"{kernel_name} on {executor} {config} diverged from "
                "the sequential reference"
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
        SVA: the sampled run's simulated results, merged trace, and
        profile must be bit-identical to the unsampled reference."""
        from repro.core import RunConfig
        from repro.obs import Observability

        def run(sampled):
            kernel = _KERNELS["spmspm"]()
            obs = Observability()
            sink: list = []
            config = RunConfig(
                obs=obs,
                metrics_interval_s=0.002 if sampled else None,
                metrics_sink=sink.append if sampled else None,
                **kwargs,
            )
            summary = kernel.run(executor=executor, config=config)
            # Keep only simulated-state kinds: the process executor also
            # records ``migrate`` events for steals, whose placement is a
            # scheduling artifact and varies run to run.
            kinds = {"enqueue", "dequeue", "peek", "advance", "finish"}
            events = [
                (e.context, e.kind, e.channel, e.time, e.seq)
                for e in obs.trace.events
                if e.kind in kinds
            ]
            return _signature(kernel, summary), events, summary.profile, sink

        ref_sig, ref_events, ref_profile, _ = run(sampled=False)
        sig, events, profile, sink = run(sampled=True)
        assert sig == ref_sig, f"{executor}: sampling changed the results"
        assert events == ref_events, f"{executor}: sampling changed the trace"
        assert profile == ref_profile, f"{executor}: sampling changed the profile"
        assert sink, f"{executor}: sampler produced no samples"

    @pytest.mark.parametrize("kernel_name", sorted(_KERNELS))
    def test_trace_event_sequences_agree(self, kernel_name):
        """Fused batches emit per-constituent trace events; the merged
        (time, context, seq) event stream must match across runtimes."""
        from repro.obs import Observability

        def events(executor, **kwargs):
            kernel = _KERNELS[kernel_name]()
            obs = Observability()
            kernel.run(executor=executor, obs=obs, **kwargs)
            return [
                (e.context, e.kind, e.channel, e.time, e.seq)
                for e in obs.trace.events
            ]

        reference = events("sequential")
        assert events("threaded", config=RunConfig(superblocks="off")) == reference


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
    def test_forced_steal_matches_sequential(self):
        """Worker 0 owns one of six pipelines; the other five sit cold on
        worker 1.  Worker 0 must steal, and the simulated results must
        stay bit-identical to the sequential reference anyway."""
        from repro.core import RunConfig

        reference_kernel = _build_parallel_mha_kernel()
        reference = _signature(reference_kernel, reference_kernel.run())

        kernel = _build_parallel_mha_kernel()
        pins = _skewed_pins(kernel.program)
        summary = kernel.run(
            executor="process", config=RunConfig(workers=2, pins=pins)
        )
        assert summary.steals >= 1, "skewed partition did not force a steal"
        assert _signature(kernel, summary) == reference

    def test_placement_feedback_eliminates_resteals(self):
        """RunSummary.placement credits stolen clusters to their adopter;
        replanning with pins_from_placement reproduces the observed
        locality, so the second run steals nothing — with identical
        simulated results both times."""
        from repro.core import RunConfig, pins_from_placement

        reference_kernel = _build_parallel_mha_kernel()
        reference = _signature(reference_kernel, reference_kernel.run())

        kernel = _build_parallel_mha_kernel()
        pins = _skewed_pins(kernel.program)
        summary = kernel.run(
            executor="process", config=RunConfig(workers=2, pins=pins)
        )
        assert summary.steals >= 1
        assert summary.placement is not None
        assert set(summary.placement) == {
            ctx.name for ctx in kernel.program.contexts
        }

        replay = _build_parallel_mha_kernel()
        replay_pins = pins_from_placement(replay.program, summary.placement)
        summary2 = replay.run(
            executor="process",
            config=RunConfig(workers=2, pins=replay_pins),
        )
        assert summary2.steals == 0, "observed placement was not honored"
        assert _signature(replay, summary2) == reference

    def test_steal_disabled_keeps_planned_placement(self):
        from repro.core import RunConfig

        reference_kernel = _build_parallel_mha_kernel()
        reference = _signature(reference_kernel, reference_kernel.run())

        kernel = _build_parallel_mha_kernel()
        pins = _skewed_pins(kernel.program)
        summary = kernel.run(
            executor="process",
            config=RunConfig(workers=2, pins=pins, steal=False),
        )
        assert summary.steals == 0
        assert _signature(kernel, summary) == reference


# ----------------------------------------------------------------------
# Threaded hosting (DESIGN.md §15): each context on its own thread
# ("off"), or the whole program on the cooperative engine; the results
# must not move.  No other executor reads the field.
# ----------------------------------------------------------------------


class TestThreadedHostingModes:
    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_field_is_inert_off_the_threaded_executor(self, executor):
        """Summaries — cycles, ops and the scheduling counters — do not
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
                    _signature(kernel, summary),
                    summary.ops_executed,
                    summary.context_switches,
                    summary.wakeups,
                    summary.preemptions,
                )
            )
        assert outcomes[0][3] > 0  # the run does park and wake
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    def test_trace_and_profile_identical_across_modes(self):
        """The threaded identity test: an attached ``Observability``
        rides whichever hosting the mode picked — per-context threads or
        the cooperative engine — and the cycles, the merged event
        stream, the derived profile and the channel metrics must match
        the sequential ones."""
        from repro.core import RunConfig
        from repro.obs import Observability

        def run(executor, mode):
            kernel = _KERNELS["spmspm"]()
            obs = Observability()
            summary = kernel.run(
                executor=executor,
                config=RunConfig(obs=obs, superblocks=mode),
            )
            events = [
                (e.context, e.kind, e.channel, e.time, e.seq)
                for e in obs.trace.events
            ]
            # Counters only: the occupancy gauges are *real* (schedule-
            # dependent) high-water marks.
            channel_metrics = {
                key: value
                for key, value in summary.metrics["counters"].items()
                if key.startswith("channel_")
            }
            return (
                _signature(kernel, summary),
                events,
                summary.profile,
                channel_metrics,
            )

        reference = run("sequential", None)
        assert reference[3]
        for mode in ("off", "on", "auto"):
            assert run("threaded", mode) == reference, (
                f"threaded superblocks={mode}: trace/profile/metrics diverged"
            )


# ----------------------------------------------------------------------
# Table I quantities (context switches, wakeups, preemptions) come from
# the scheduling policy, never from who drives the loop or from whether
# the run is traced.
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

    @pytest.mark.parametrize("policy", ["fifo", "fair16"])
    @pytest.mark.parametrize("graph", ["table1", "spmspm"])
    def test_counters_ignore_tracing(self, graph, policy):
        """A traced run schedules exactly as the untraced one does: it
        takes the same slice loop (its traced variant), so the counters
        a user reads off a run they are debugging are the ones the
        untraced program reports.  The Table I graph's deep channels
        hardly park; the shallow SpMSpM kernel wakes by delivery all the
        time, which the generic loop a traced run used to take never
        does."""
        from repro.core import RunConfig
        from repro.obs import Observability

        build = _build_table1_graph if graph == "table1" else _build_spmspm_kernel

        def counters(obs):
            summary = build().program.run(
                config=RunConfig(
                    policy="fifo" if policy == "fifo" else FairPolicy(timeslice=16),
                    obs=obs,
                )
            )
            return (
                summary.context_switches, summary.wakeups, summary.preemptions
            )

        untraced = counters(None)
        assert untraced[0] > 0
        assert counters(Observability()) == untraced
        assert counters(Observability(capture_payloads=True)) == untraced


# ----------------------------------------------------------------------
# Body-visible clocks: a context body may read ``self.time.now()``
# between yields, so whatever the runtime does with clocks (a local in
# a runner, a plain cell published at slice boundaries) the body must
# see exactly the value the one-thread-per-context reference shows it.
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
        from repro.core import RunConfig

        def run(executor, **kwargs):
            program, inference, sink = _build_batching_pipeline()
            summary = program.run(executor=executor, config=RunConfig(**kwargs))
            return (
                summary.elapsed_cycles,
                summary.context_times,
                inference.completions,
                sink.values,
            )

        reference = run("threaded", superblocks="off")
        assert len(reference[3]) > 10
        legs = [("sequential", {}), ("sequential", {"policy": FairPolicy(timeslice=1)})]
        legs += [("process", {"workers": n}) for n in (1, 2, 3)]
        for executor, kwargs in legs:
            assert run(executor, **kwargs) == reference, (
                f"{executor} {kwargs}: a body saw a different clock than "
                "the one-thread-per-context reference showed it"
            )
