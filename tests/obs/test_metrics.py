"""Metrics registry semantics, the executor folding discipline, and the
registry across a checkpoint."""

import multiprocessing

import pytest

from repro import Observability, ProgramBuilder, RunConfig
from repro.core import RunTimeoutError, SequentialExecutor
from repro.core.channel import Channel
from repro.core.time import TimeCell
from repro.contexts import Collector, RampSource, UnaryFunction
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry
from repro.obs.metrics import sorted_quantile

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


class TestRegistry:
    def test_counter_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        registry.counter("ops").inc(4)
        assert registry.snapshot()["counters"]["ops"] == 5

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        registry.counter("parks", context="a").inc()
        registry.counter("parks", context="b").inc(2)
        counters = registry.snapshot()["counters"]
        assert counters["parks{context=a}"] == 1
        assert counters["parks{context=b}"] == 2

    def test_gauge_set_max_keeps_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set_max(3)
        gauge.set_max(1)
        gauge.set_max(7)
        assert registry.snapshot()["gauges"]["depth"] == 7

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in [1.0, 2.0, 3.0]:
            hist.observe(value)
        summary = registry.snapshot()["histograms"]["latency"]
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0

    def test_histogram_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0
        # Log-bucketed: the median lands in the right octave, not exactly
        # at 50, but well within a bucket width of it.
        assert 32.0 <= hist.quantile(0.5) <= 64.0
        assert hist.quantile(0.99) <= 100.0
        assert hist.quantile(0.5) <= hist.quantile(0.9)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=10**6),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.sampled_from([0, 1, 1.0, 2, 2.0, 1 / 3]),
            ),
            max_size=60,
        )
    )
    def test_sorted_quantile_is_the_histograms(self, values):
        """The profile reads its segment quantiles off one sort; every
        rank, bucket edge and clamp must come out as the histogram's."""
        hist = Histogram()
        for value in values:
            hist.observe(value)
        ordered = sorted(values)
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert repr(sorted_quantile(ordered, q)) == repr(hist.quantile(q))

    def test_histogram_quantile_edge_cases(self):
        registry = MetricsRegistry()
        hist = registry.histogram("empty")
        assert hist.quantile(0.5) == 0.0  # no observations yet
        hist.observe(7.0)
        assert hist.quantile(0.0) == hist.quantile(1.0) == 7.0
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.1)

    def test_histogram_quantile_nonpositive_values(self):
        registry = MetricsRegistry()
        hist = registry.histogram("gaps")
        for value in [0.0, 0.0, 5.0]:
            hist.observe(value)
        # Non-positive observations land in the underflow bucket and are
        # represented by the recorded minimum.
        assert hist.quantile(0.25) == 0.0
        assert hist.quantile(1.0) == 5.0

    def test_to_json_round_trips(self):
        import json

        registry = MetricsRegistry()
        registry.counter("ops").inc(3)
        registry.gauge("depth", channel="c").set(4)
        assert json.loads(registry.to_json())["counters"]["ops"] == 3

    def test_load_state_reproduces_a_dump(self):
        """What a checkpoint carries (pickled, as on disk) rebuilds every
        metric — labelled histograms down to their bucket sketches — and
        replaces whatever the registry held."""
        import pickle

        registry = MetricsRegistry()
        registry.counter("ops").inc(3)
        registry.counter("parks", context="a").inc(2)
        registry.gauge("depth", channel="c").set(4)
        for value in (0.0, 1.5, 7.0, 300.0):
            registry.histogram("latency", channel="c").observe(value)
        restored = MetricsRegistry()
        restored.counter("stale").inc()
        restored.load_state(pickle.loads(pickle.dumps(registry.dump_state())))
        assert restored.snapshot() == registry.snapshot()
        assert restored.dump_state() == registry.dump_state()
        quantiles = (0.25, 0.5, 0.9)
        assert [restored.histogram("latency", channel="c").quantile(q) for q in quantiles] == [
            registry.histogram("latency", channel="c").quantile(q) for q in quantiles
        ]


class TestAlwaysOnOccupancy:
    """Satellite regression: max_real_occupancy no longer needs the
    enable_profiling toggle and is consistent on every enqueue path."""

    def test_tracked_without_profiling(self):
        ch = Channel(capacity=8)
        sender = TimeCell()
        for i in range(3):
            ch.do_enqueue(sender, i)
        assert ch.stats.max_real_occupancy == 3
        ch.do_dequeue(TimeCell())
        ch.do_enqueue(sender, 99)
        assert ch.stats.max_real_occupancy == 3  # peak, not current

    def test_void_enqueue_path_consistent(self):
        ch = Channel(capacity=8)
        sender = TimeCell()
        ch.do_enqueue(sender, "a")
        ch.do_enqueue(sender, "b")
        ch.close_receiver()  # channel becomes void, queue cleared
        ch.do_enqueue(sender, "c")  # discarded
        assert ch.stats.enqueues == 3
        assert ch.stats.max_real_occupancy == 2
        assert ch.real_occupancy() == 0


def run_pipeline(executor, n=6, **config):
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(3, name="raw")
    s2, r2 = builder.bounded(3, name="doubled")
    builder.add(RampSource(s1, n, name="src"))
    builder.add(UnaryFunction(r1, s2, lambda x: 2 * x, name="double"))
    builder.add(Collector(r2, name="sink"))
    obs = Observability(trace=False)
    summary = builder.build().run(
        executor=executor, obs=obs, config=RunConfig(**config)
    )
    return obs, summary


class TestRunMetrics:
    def test_summary_carries_snapshot(self):
        _, summary = run_pipeline("sequential")
        assert summary.metrics is not None
        assert set(summary.metrics) == {"counters", "gauges", "histograms"}

    def test_channel_metrics_folded(self):
        _, summary = run_pipeline("sequential")
        counters = summary.metrics["counters"]
        gauges = summary.metrics["gauges"]
        assert counters["channel_enqueues{channel=raw}"] == 6
        assert counters["channel_dequeues{channel=raw}"] == 6
        assert 1 <= gauges["channel_max_occupancy{channel=raw}"] <= 3

    @pytest.mark.parametrize(
        "executor, config",
        [
            pytest.param("threaded", {}, id="threaded"),
            pytest.param("process", {"workers": 2}, id="process", marks=needs_fork),
        ],
    )
    def test_channel_metrics_identical_across_executors(self, executor, config):
        """Simulated-state metrics are executor-independent: one fold
        (``Executor._fold_metrics``) serves every executor."""
        _, seq = run_pipeline("sequential")
        _, other = run_pipeline(executor, **config)

        def pick(snap):
            return {
                key: value
                for kind, prefixes in (
                    ("counters", ("channel_", "context_ops{")),
                    ("gauges", ("context_finish_time{",)),
                )
                for key, value in snap[kind].items()
                if key.startswith(prefixes)
            }

        picked = pick(seq.metrics)
        assert {
            key for key in picked if key.startswith(("context_ops", "context_fin"))
        } == {
            f"{series}{{context={name}}}"
            for series in ("context_ops", "context_finish_time")
            for name in ("src", "double", "sink")
        }
        assert pick(other.metrics) == picked

    def test_per_context_ops_and_wall(self):
        _, summary = run_pipeline("sequential")
        counters = summary.metrics["counters"]
        gauges = summary.metrics["gauges"]
        assert counters["context_ops{context=src}"] > 0
        assert gauges["context_wall_seconds{context=src}"] >= 0.0
        wall_dist = summary.metrics["histograms"]["context_wall_seconds_dist"]
        assert wall_dist["count"] == 3

    def test_threaded_records_parks(self):
        # Park counters are the per-context-thread (SVP) runtime's.
        obs, summary = run_pipeline("threaded", superblocks="off")
        counters = summary.metrics["counters"]
        parks = sum(
            value
            for key, value in counters.items()
            if key.startswith("context_parks")
        )
        # With capacity-3 channels someone must have parked at least once.
        assert parks > 0

    def test_no_obs_means_no_metrics(self):
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2)
        builder.add(RampSource(snd, 3))
        builder.add(Collector(rcv))
        summary = builder.build().run()
        assert summary.metrics is None


class _TimesOutAtTheSecondCut(SequentialExecutor):
    """Counts its cuts in the run's registry and overruns its deadline
    right after saving the second: a timeout that lands at a known cut."""

    def _capture_checkpoint(self):
        self.obs.metrics.counter("cuts").inc()
        super()._capture_checkpoint()
        if self._ckpt_timer.epoch == 2:
            self.obs.metrics.counter("cuts").inc()  # past the cut
            raise RunTimeoutError(0.0, executor=self.name)


class TestMetricsAcrossACheckpoint:
    def test_ladder_retry_resumes_from_the_cuts_registry(self, tmp_path):
        """The retry restores the registry the second cut saved, so it
        holds that cut's counters (not the failed attempt's later ones),
        plus ``run_retries`` and the finished run's fold."""

        def run(executor, obs, **config):
            builder = ProgramBuilder()
            s1, r1 = builder.bounded(3, name="raw")
            s2, r2 = builder.bounded(3, name="doubled")
            builder.add(RampSource(s1, 20, name="src"))
            builder.add(UnaryFunction(r1, s2, lambda x: 2 * x, name="double"))
            builder.add(Collector(r2, name="sink"))
            return builder.build().run(executor, obs=obs, config=RunConfig(**config))

        def channels(counters):
            return {k: v for k, v in counters.items() if k.startswith("channel_")}

        obs = Observability(trace=False)
        summary = run(
            _TimesOutAtTheSecondCut, obs,
            fallback="sequential",
            checkpoint_interval_s=0.0,
            checkpoint_path=str(tmp_path),
        )
        assert [a["outcome"] for a in summary.attempts] == ["timeout", "ok"]
        assert summary.attempts[-1]["resumed_from"]["epoch"] == 2
        counters = summary.metrics["counters"]
        assert counters["cuts"] == 2
        assert counters["run_retries"] == 1
        reference = run("sequential", Observability(trace=False))
        assert channels(counters) == channels(reference.metrics["counters"])
