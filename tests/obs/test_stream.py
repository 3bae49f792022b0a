"""Live metric streaming tests: the sampler itself, executor wiring for
all runtimes, and the sink variants (callback / JSONL / obs list).

The determinism half — a sampled run being bit-identical to an unsampled
one — lives in ``tests/sam/test_cross_executor.py`` with the rest of the
cross-executor matrix.
"""

import json

import pytest

from repro import Observability, ProgramBuilder
from repro.contexts import Collector, RampSource, UnaryFunction
from repro.core import RunConfig
from repro.obs.stream import MetricsSampler


def build_pipeline(count=200):
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(4, name="raw")
    s2, r2 = builder.bounded(4, name="cooked")
    builder.add(RampSource(s1, count, name="src"))
    builder.add(UnaryFunction(r1, s2, lambda x: x + 1, name="stage"))
    builder.add(Collector(r2, name="sink"))
    return builder.build()


class TestMetricsSampler:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            MetricsSampler(0, lambda: {})

    def test_stop_takes_a_final_sample(self):
        sampler = MetricsSampler(60.0, lambda: {"x": 1})
        sampler.start()
        samples = sampler.stop()
        # Interval far beyond the test runtime: only the final sample.
        assert len(samples) == 1
        assert samples[0]["x"] == 1
        assert samples[0]["seq"] == 0
        assert samples[0]["wall_s"] >= 0

    def test_periodic_sampling_and_callback_sink(self):
        import time

        seen = []
        sampler = MetricsSampler(0.005, lambda: {"x": 1}, sink=seen.append)
        sampler.start()
        time.sleep(0.05)
        samples = sampler.stop()
        assert len(samples) >= 2  # several ticks plus the final sample
        assert seen == samples
        assert [s["seq"] for s in samples] == list(range(len(samples)))

    def test_probe_errors_are_swallowed(self):
        def bad_probe():
            raise RuntimeError("boom")

        sampler = MetricsSampler(60.0, bad_probe)
        sampler.start()
        assert sampler.stop() == []
        assert sampler.errors and "boom" in sampler.errors[0]

    def test_sink_errors_do_not_stop_sampling(self):
        def bad_sink(sample):
            raise RuntimeError("sink down")

        sampler = MetricsSampler(60.0, lambda: {"x": 1}, sink=bad_sink)
        sampler.start()
        samples = sampler.stop()
        assert len(samples) == 1
        assert sampler.errors and "sink down" in sampler.errors[0]

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        sampler = MetricsSampler(60.0, lambda: {"x": 2}, sink=path)
        sampler.start()
        sampler.stop()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1 and lines[0]["x"] == 2


class TestExecutorWiring:
    @pytest.mark.parametrize(
        "executor,kwargs",
        [
            ("sequential", {}),
            ("threaded", {}),
            ("process", {"workers": 2}),
        ],
    )
    def test_samples_land_on_obs(self, executor, kwargs):
        obs = Observability()
        build_pipeline().run(
            executor=executor,
            config=RunConfig(obs=obs, metrics_interval_s=0.002, **kwargs),
        )
        assert obs.metrics_samples, f"{executor}: no samples collected"
        final = obs.metrics_samples[-1]
        assert set(final["contexts"]) == {"src", "stage", "sink"}
        # The final sample is taken after the run: every published clock
        # has reached at least the start time, and metrics are present.
        assert all(t >= 0 for t in final["contexts"].values())
        assert "metrics" in final

    def test_callback_sink_through_run_config(self):
        seen = []
        build_pipeline().run(
            config=RunConfig(metrics_interval_s=0.002, metrics_sink=seen.append)
        )
        assert seen
        assert "contexts" in seen[-1] and "wall_s" in seen[-1]

    def test_jsonl_sink_through_run_config(self, tmp_path):
        path = tmp_path / "run.jsonl"
        build_pipeline().run(
            executor="threaded",
            config=RunConfig(metrics_interval_s=0.002, metrics_sink=str(path)),
        )
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines and "contexts" in lines[-1]

    def test_process_parent_samples_shared_clocks(self):
        obs = Observability()
        build_pipeline(count=500).run(
            executor="process",
            config=RunConfig(obs=obs, workers=2, metrics_interval_s=0.001),
        )
        # The parent-side probe reads the shared clock slots and the
        # status board's progress total.
        assert all("progress" in s for s in obs.metrics_samples)
        finals = obs.metrics_samples[-1]["contexts"]
        assert finals["sink"] > 0

    def test_sampling_without_obs_still_feeds_sink(self):
        seen = []
        build_pipeline().run(
            config=RunConfig(metrics_interval_s=0.002, metrics_sink=seen.append)
        )
        assert seen and "metrics" not in seen[-1]
