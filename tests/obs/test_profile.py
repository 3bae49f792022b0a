"""Critical-path profiler tests: hand-computed goldens, the telescoping
invariant (segment durations sum to ``finish_time``), cross-executor
identity of the attribution, run diffing, and the CLI.

The two-context fixtures are small enough to hand-simulate; the expected
numbers in the asserts were derived on paper from the channel timing
rules (enqueue stamps at ``sender_now + latency``; dequeue advances to
the stamp; a full bounded enqueue waits for ``dequeue_time +
resp_latency``).
"""

import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Observability, ProgramBuilder
from repro.contexts import (
    BinaryFunction,
    Broadcast,
    Collector,
    RampSource,
    UnaryFunction,
)
from repro.core import INFINITY, RunConfig
from repro.obs import TraceCollector, diff_profiles, profile_trace
from repro.obs.__main__ import main as obs_main
from repro.obs.export import to_chrome_trace
from repro.obs.profile import (
    BLOCKED_ON_DEQUEUE,
    BLOCKED_ON_ENQUEUE,
    COMPUTE,
    OVERHEAD,
    PathSegment,
    ProfileReport,
    events_from_chrome_trace,
)


def run_with_profile(build, executor="sequential", **config_kwargs):
    obs = Observability()
    program = build()
    summary = program.run(
        executor=executor, config=RunConfig(obs=obs, **config_kwargs)
    )
    return obs.profile_report, summary


def build_starved_pipeline():
    """src (ii=2) -> c(cap=8, lat=1, resp=1) -> sink (ii=4).

    Hand simulation: src enqueues at t=0/2/4 (stamps 1/3/5), finishes at
    6; sink dequeues at t=1 (waited [0,1]), 5, 9, finishing at 13.  The
    critical path is the sink's 12 cycles of compute plus 1 cycle of
    starvation on c.
    """
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(8, name="c")
    builder.add(RampSource(snd, 3, ii=2, name="src"))
    builder.add(Collector(rcv, ii=4, name="sink"))
    return builder.build()


def build_backpressured_pipeline():
    """src (ii=0) -> c(cap=1, lat=1, resp=1) -> sink (ii=0).

    With capacity 1 every transfer ping-pongs: the critical path
    alternates starvation (sink waiting on the stamp) and backpressure
    (src waiting on the dequeue response) with zero compute — dequeues at
    t=1/3/5, backpressured enqueues at t=2/4, finish_time 5.
    """
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1, name="c")
    builder.add(RampSource(snd, 3, ii=0, name="src"))
    builder.add(Collector(rcv, ii=0, name="sink"))
    return builder.build()


def build_diamond():
    """The known-diamond graph: a slow branch that must dominate.

    src -> broadcast -> {fast (ii=1), slow (ii=6)} -> join -> sink.
    The longest chain necessarily runs through ``slow``; the join's
    ``slow_out`` input is the starvation point.
    """
    builder = ProgramBuilder()
    feed_s, feed_r = builder.bounded(4, name="feed")
    fast_in_s, fast_in_r = builder.bounded(4, name="fast_in")
    slow_in_s, slow_in_r = builder.bounded(4, name="slow_in")
    fast_out_s, fast_out_r = builder.bounded(4, name="fast_out")
    slow_out_s, slow_out_r = builder.bounded(4, name="slow_out")
    join_s, join_r = builder.bounded(4, name="joined")
    builder.add(RampSource(feed_s, 4, name="src"))
    builder.add(Broadcast(feed_r, [fast_in_s, slow_in_s], name="split"))
    builder.add(UnaryFunction(fast_in_r, fast_out_s, lambda x: x + 1, ii=1, name="fast"))
    builder.add(UnaryFunction(slow_in_r, slow_out_s, lambda x: x * 2, ii=6, name="slow"))
    builder.add(
        BinaryFunction(fast_out_r, slow_out_r, join_s, lambda a, b: a + b, name="join")
    )
    builder.add(Collector(join_r, name="sink"))
    return builder.build()


def build_spmspm():
    from repro.sam import CsfTensor
    from repro.sam.graphs import build_spmspm as build
    from repro.sam.tensor import random_dense

    b = random_dense(6, 6, density=0.3, seed=23)
    ct = random_dense(6, 6, density=0.3, seed=24)
    return build(
        CsfTensor.from_dense(b, "cc"), CsfTensor.from_dense(ct, "cc"), depth=4
    ).program


def build_skewed_pipelines(pipelines=8, items=300):
    """Independent pipelines, the first tiny and the rest long: with the
    first pinned to worker 0 and the rest to worker 1, worker 0 runs dry
    and steals (the recipe of ``tests/sam``'s forced-steal test)."""
    builder = ProgramBuilder()
    for i in range(pipelines):
        snd, rcv = builder.bounded(2, name=f"raw{i}")
        out_s, out_r = builder.bounded(2, name=f"out{i}")
        builder.add(RampSource(snd, 5 if i == 0 else items, name=f"src{i}"))
        builder.add(
            UnaryFunction(rcv, out_s, lambda x: x + 1, ii=1 + i, name=f"inc{i}")
        )
        builder.add(Collector(out_r, name=f"sink{i}"))
    return builder.build()


def build_replicated_mha():
    """Parallel MHA at the benchmark's smoke size: two head pipelines
    built from the same primitives, so every context name occurs twice
    and each trace buffer holds two contexts' rows, one after the other
    in program slot order — a stream whose times go backwards (ROADMAP
    debt 4(a))."""
    import numpy as np

    from repro.sam.graphs import build_parallel_mha

    heads, seq_len, head_dim = 4, 6, 3
    position = np.arange(seq_len)
    mask = np.stack(
        [
            ((position[:, None] + head * position[None, :]) % 3 != 1).astype(float)
            for head in range(heads)
        ]
    )
    for head in range(heads):
        np.fill_diagonal(mask[head], 1.0)
    grid = np.arange(heads * seq_len * head_dim, dtype=float).reshape(
        heads, seq_len, head_dim
    )
    q, k, v = np.sin(grid), np.cos(grid), np.sin(2.0 * grid)
    return build_parallel_mha(mask, q, k, v, parallelism=2).program


def malformed_trace():
    """Rows the indexer must drop, in the places a shortcut would miss
    them: an unknown kind mid-stream, an ``INFINITY`` finish that is
    *not* the stream's last row (a second context shares the name and
    restarts the clock), an ``INFINITY`` finish that is, and a
    pseudo-buffer of unknown kinds only."""
    trace = TraceCollector()
    trace.buffer("src").append("advance", None, 3)
    trace.buffer("src").append("enqueue", "c", 3)
    trace.buffer("src").append("migrate", None, 0, {"cluster": 1})
    trace.buffer("src").append("enqueue", "c", 5)
    trace.buffer("src").append("finish", None, INFINITY)
    trace.buffer("src").append("advance", None, 1)
    trace.buffer("src").append("enqueue", "d", 2)
    trace.buffer("src").append("finish", None, 2)
    trace.buffer("sink").append("dequeue", "c", 4)
    trace.buffer("sink").append("advance", None, 9)
    trace.buffer("sink").append("dequeue", "c", 9)
    trace.buffer("sink").append("dequeue", "d", 11)
    trace.buffer("sink").append("crash", None, 11)
    trace.buffer("sink").append("finish", None, INFINITY)
    trace.buffer("<worker-0>").append("migrate", None, 0, {"cluster": 1})
    meta = {
        "c": {"capacity": 2, "latency": 1, "resp_latency": 1},
        "d": {"capacity": 2, "latency": 1, "resp_latency": 1},
    }
    return trace, meta


#: Bin-edge times for a run ending at 19 over 7 epochs, a width with no
#: exact float.  Rounding puts a few of them in the neighbouring epoch
#: when divided by the width (``13.571428571428571`` lies below edge 5
#: but divides to 5), which is where a binning shortcut that trusts the
#: edges alone would disagree with the clamped loop.
EDGE_TIMES = sorted(
    {
        near
        for k in range(8)
        for near in (
            k * (19 / 7),
            math.nextafter(k * (19 / 7), math.inf),
            math.nextafter(k * (19 / 7), -math.inf),
        )
        if 0 < near <= 19
    }
)

#: One row's clock step: an int or non-dyadic float advance (0 is a
#: zero-time op), or a jump to an absolute time that leaves the running
#: clock alone — an epoch edge, NaN, or INFINITY mid-stream.
clock_steps = st.one_of(
    st.sampled_from([0, 0, 1, 2, 3]),
    st.sampled_from([0.1, 1 / 3, 2.5]),
    st.sampled_from(EDGE_TIMES + [12, 19, math.nan, INFINITY]).map(
        lambda t: ("at", t)
    ),
)

#: Rows as (context copy, kind, channel, step).  Two copies record under
#: the name ``a`` with their own clocks (a shared, non-monotone buffer);
#: ``migrate`` is a kind the profiler does not know.
trace_rows = st.lists(
    st.tuples(
        st.sampled_from([("a", 0), ("a", 1), ("b", 0), ("<worker-0>", 0)]),
        st.sampled_from(["enqueue", "dequeue", "peek", "advance", "finish", "migrate"]),
        st.sampled_from([None, "c", "d"]),
        clock_steps,
    ),
    max_size=40,
)


def generated_trace(rows) -> TraceCollector:
    trace = TraceCollector()
    clocks: dict = {}
    for (name, copy), kind, channel, step in rows:
        if isinstance(step, tuple):
            time = step[1]
        else:
            time = clocks[name, copy] = clocks.get((name, copy), 0) + step
        trace.buffer(name).append(kind, channel, time)
    return trace


GOLDEN_DIR = Path(__file__).parent / "golden"


def check_profile_golden(name: str, profile: dict, sort_keys: bool = True):
    """Compare with the committed profile, which the profiler of the
    commit *before* the in-place indexing shortcuts produced (regenerate
    there, or with ``REFRESH_OBS_GOLDENS=1`` after a deliberate change
    of the profile itself).  ``sort_keys=False`` pins the key order too."""
    golden = GOLDEN_DIR / name
    rendered = json.dumps(profile, indent=1, sort_keys=sort_keys) + "\n"
    if os.environ.get("REFRESH_OBS_GOLDENS"):
        golden.write_text(rendered)
    assert rendered == golden.read_text()


ALL_EXECUTOR_LEGS = [
    ("sequential", {}),
    ("threaded", {"superblocks": "off"}),
    ("threaded", {}),
    ("process", {"workers": 2}),
]


class TestCriticalPath:
    def test_starved_pipeline_hand_computed(self):
        report, summary = run_with_profile(build_starved_pipeline)
        assert report.finish_time == 13
        assert report.path_total() == 13
        cats = report.by_category()
        assert cats[COMPUTE] == 12
        assert cats[BLOCKED_ON_DEQUEUE] == 1
        assert cats[BLOCKED_ON_ENQUEUE] == 0
        assert report.by_channel() == {"c": 1}
        # The starvation segment is the first on the path.
        first = report.segments[0]
        assert (first.category, first.channel, first.start, first.end) == (
            BLOCKED_ON_DEQUEUE, "c", 0, 1
        )
        assert summary.profile["critical_path"]["total"] == 13

    def test_backpressured_pipeline_hand_computed(self):
        report, _ = run_with_profile(build_backpressured_pipeline)
        assert report.finish_time == 5
        assert report.path_total() == 5
        cats = report.by_category()
        assert cats[COMPUTE] == 0
        assert cats[BLOCKED_ON_DEQUEUE] == 3
        assert cats[BLOCKED_ON_ENQUEUE] == 2
        # The path ping-pongs between the two contexts over channel c.
        assert report.by_channel() == {"c": 5}
        assert {seg.context for seg in report.segments} == {"src", "sink"}

    def test_attribution_accounts_every_context_cycle(self):
        report, _ = run_with_profile(build_starved_pipeline)
        per_context = report.attribution["per_context"]
        assert per_context["src"][COMPUTE] == 6
        assert per_context["src"]["idle"] == 7
        assert per_context["sink"][COMPUTE] == 12
        assert per_context["sink"][BLOCKED_ON_DEQUEUE] == 1
        assert per_context["sink"]["idle"] == 0
        # Every context's categories + idle tile [0, finish_time].
        for totals in per_context.values():
            accounted = sum(totals[cat] for cat in
                            (COMPUTE, BLOCKED_ON_DEQUEUE, BLOCKED_ON_ENQUEUE))
            assert accounted + totals["idle"] == report.finish_time
        assert report.attribution["per_channel"]["c"][BLOCKED_ON_DEQUEUE] == 1

    def test_backpressure_attributed_to_sender(self):
        report, _ = run_with_profile(build_backpressured_pipeline)
        per_context = report.attribution["per_context"]
        # src stalls 2 cycles on each of its two backpressured enqueues
        # (t=0->2 and t=2->4); sink's three dequeues wait 1+2+2 cycles.
        assert per_context["src"][BLOCKED_ON_ENQUEUE] == 4
        assert per_context["sink"][BLOCKED_ON_DEQUEUE] == 5

    @pytest.mark.parametrize("executor,kwargs", ALL_EXECUTOR_LEGS)
    def test_diamond_attribution_identical_across_executors(
        self, executor, kwargs
    ):
        reference, _ = run_with_profile(build_diamond)
        report, summary = run_with_profile(build_diamond, executor, **kwargs)
        assert report.to_dict() == reference.to_dict(), (
            f"{executor} {kwargs} produced a different profile"
        )
        assert summary.profile == reference.to_dict()

    def test_diamond_critical_path_runs_through_slow_branch(self):
        report, _ = run_with_profile(build_diamond)
        assert report.path_total() == report.finish_time
        # slow's 4 items at ii=6 (first dequeue lands at t=2) bound the
        # makespan at 26: 24 cycles of slow compute plus the two delivery
        # hops (feed into split, slow_in into slow) that started it.
        assert report.finish_time == 26
        by_context = report.by_context()
        assert by_context["slow"] == 25
        assert "fast" not in by_context
        assert report.by_channel() == {"feed": 1, "slow_in": 1}
        # The join's starvation on the slow branch shows up in whole-run
        # attribution (it waits off the critical path); the fast branch
        # never starves anyone.
        per_channel = report.attribution["per_channel"]
        assert (
            per_channel["slow_out"][BLOCKED_ON_DEQUEUE]
            > per_channel["fast_out"][BLOCKED_ON_DEQUEUE]
        )

    def test_timeline_epochs_tile_the_run(self):
        report, _ = run_with_profile(build_starved_pipeline)
        epochs = report.timeline["epochs"]
        assert len(epochs) == 32
        width = report.timeline["epoch_width"]
        assert width * len(epochs) == pytest.approx(report.finish_time)
        # Active simulated time across epochs == total compute across contexts.
        total_active = sum(e["active"] for e in epochs)
        assert total_active == pytest.approx(6 + 12)
        assert all(0.0 <= e["utilization"] <= 1.0 for e in epochs)

    @staticmethod
    def _reference_timeline(trace, finish_time, epochs):
        """The epoch binning with no single-epoch shortcut: every interval
        goes through the clamped per-epoch loop."""
        width = finish_time / epochs
        bins = [[0.0, 0.0] for _ in range(epochs)]
        for name in sorted(trace.buffers()):
            prev = 0
            for _, channel, time, _ in trace.buffers()[name].rows:
                slot = 0 if channel is None else 1  # computing / blocked
                first = min(int(prev / width), epochs - 1)
                last = min(int(time / width), epochs - 1)
                for pos in range(first, last + 1):
                    left = max(prev, pos * width)
                    right = min(time, (pos + 1) * width)
                    if right > left:
                        bins[pos][slot] += right - left
                prev = time
        return [
            {"start": pos * width, "active": active, "blocked": blocked}
            for pos, (active, blocked) in enumerate(bins)
        ]

    @pytest.mark.parametrize("epochs", [1, 7, 32])
    def test_timeline_matches_unshortcut_binning(self, epochs):
        """Bit-identical floats, including intervals that end on an epoch
        edge, span several epochs, or fall in the clamped last epoch."""
        obs = Observability()
        build_spmspm().run(config=RunConfig(obs=obs))
        edges = TraceCollector()
        # finish_time 100 over 7 epochs: a width with no exact float.
        for time in (14, 15, 28, 29, 43, 57, 58, 71, 72, 85, 86, 99):
            edges.buffer("a").append("advance", None, time)
        edges.buffer("a").append("finish", None, 100)
        for time in (1, 50, 50, 100):
            edges.buffer("b").append("dequeue", "c", time)
        for trace in (obs.trace, edges):
            report = profile_trace(trace, epochs=epochs)
            got = [
                {key: epoch[key] for key in ("start", "active", "blocked")}
                for epoch in report.timeline["epochs"]
            ]
            assert got == self._reference_timeline(
                trace, report.finish_time, epochs
            )

    @staticmethod
    def _reference_attribution(trace, epochs):
        """Whole-run attribution and timeline written plainly: drop the
        rows the profiler ignores, take the makespan, then walk each
        context's rows once with naive ``+=`` — every interval through
        the clamped per-epoch loop."""
        known = {"enqueue", "dequeue", "peek", "advance", "finish"}
        streams = {}
        for name in sorted(trace.buffers()):
            rows = [
                row
                for row in trace.buffers()[name].rows
                if row[0] in known and row[2] != INFINITY
            ]
            if rows:
                streams[name] = rows
        finish_time = None
        for rows in streams.values():
            if finish_time is None or rows[-1][2] > finish_time:
                finish_time = rows[-1][2]
        width = finish_time / epochs if finish_time > 0 else 0
        active = [0.0] * epochs
        blocked = [0.0] * epochs
        per_context = {}
        per_channel = {}
        for name, rows in streams.items():
            totals = {COMPUTE: 0, BLOCKED_ON_DEQUEUE: 0, BLOCKED_ON_ENQUEUE: 0}
            prev = 0
            for kind, channel, time, _ in rows:
                if time > prev:
                    if channel is None or kind in ("advance", "finish"):
                        category = COMPUTE
                    elif kind == "enqueue":
                        category = BLOCKED_ON_ENQUEUE
                    else:
                        category = BLOCKED_ON_DEQUEUE
                    totals[category] += time - prev
                    if category != COMPUTE:
                        if channel not in per_channel:
                            per_channel[channel] = {
                                BLOCKED_ON_DEQUEUE: 0, BLOCKED_ON_ENQUEUE: 0
                            }
                        per_channel[channel][category] += time - prev
                    if width:
                        bins = active if category == COMPUTE else blocked
                        first = min(int(prev / width), epochs - 1)
                        last = min(int(time / width), epochs - 1)
                        for pos in range(first, last + 1):
                            left = max(prev, pos * width)
                            right = min(time, (pos + 1) * width)
                            if right > left:
                                bins[pos] += right - left
                prev = time
            per_context[name] = {
                **totals,
                OVERHEAD: 0,
                "finish_time": prev,
                "idle": finish_time - prev,
            }
        timeline = {"epoch_width": width, "epochs": []}
        if width:
            timeline["epochs"] = [
                {
                    "start": pos * width,
                    "active": active[pos],
                    "blocked": blocked[pos],
                    "utilization": round(active[pos] / (width * len(streams)), 6),
                }
                for pos in range(epochs)
            ]
        return {
            "finish_time": finish_time,
            "attribution": {
                "per_context": per_context,
                "per_channel": {
                    name: per_channel[name] for name in sorted(per_channel)
                },
            },
            "timeline": timeline,
        }

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(rows=trace_rows)
    @example(
        # Inside epoch 4 by the edges, then an interval the division puts
        # in epoch 5 but the edges put in 4: the clamped loop bins it
        # nowhere, and so must every shortcut.
        rows=[
            (("b", 0), "advance", None, ("at", time))
            for time in (12, 13.571428571428571, 13.571428571428573, 19)
        ]
    )
    def test_attribution_matches_plain_reference(self, rows):
        """Same keys in the same order, the same int-or-float types and
        the same float bits: compared as JSON text, keys unsorted."""
        trace = generated_trace(rows)
        for epochs in (1, 7, 32):
            report = profile_trace(trace, epochs=epochs)
            if report.attribution == {}:  # nothing left to attribute
                assert report.finish_time == 0
                continue
            got = {
                "finish_time": report.finish_time,
                "attribution": report.attribution,
                "timeline": report.timeline,
            }
            assert json.dumps(got) == json.dumps(
                self._reference_attribution(trace, epochs)
            )

    def test_int_times_whose_sums_would_wrap_64_bits(self):
        """Times that fit 64 bits but whose intervals add up past them (two
        contexts share the name ``a``) are summed as Python ints."""
        trace = TraceCollector()
        big = 2**62 + 2**61
        for time in (big, 1, big):
            trace.buffer("a").append("advance", None, time)
        report = profile_trace(trace, epochs=1)
        reference = self._reference_attribution(trace, 1)
        assert json.dumps(report.attribution) == json.dumps(reference["attribution"])
        assert report.attribution["per_context"]["a"][COMPUTE] == 2 * big - 1

    def test_segment_quantiles_present(self):
        report, _ = run_with_profile(build_starved_pipeline)
        quant = report.segment_quantiles
        assert quant["max"] == 4  # the longest sink compute span
        assert quant["p50"] >= 1

    def test_empty_trace_profiles_to_zero(self):
        report = profile_trace([])
        assert report.finish_time == 0
        assert report.segments == []


class TestRoundTrips:
    @staticmethod
    def _chrome_round_trip(build, tmp_path):
        """The in-process profile and the one of its re-imported Chrome
        export, each as JSON text, keys unsorted."""
        obs = Observability()
        build().run(config=RunConfig(obs=obs))
        path = obs.write_chrome_trace(tmp_path / "run.json")
        events, channels = events_from_chrome_trace(json.loads(path.read_text()))
        rebuilt = profile_trace(events, channel_meta=channels)
        return json.dumps(rebuilt.to_dict()), json.dumps(obs.profile_report.to_dict())

    def test_chrome_trace_round_trip_matches_in_process(self, tmp_path):
        rebuilt, in_process = self._chrome_round_trip(build_starved_pipeline, tmp_path)
        assert rebuilt == in_process

    @pytest.mark.parametrize("build", [build_spmspm, build_replicated_mha])
    def test_chrome_round_trip_profiles_to_the_same_json_text(self, tmp_path, build):
        """Re-imported, an export's ports are interned into a fresh table,
        not numbered by program slot as the run's were; the profile is
        still the same text (an int read back as a float, or a port
        decoded wrongly, would show)."""
        rebuilt, in_process = self._chrome_round_trip(build, tmp_path)
        assert rebuilt == in_process

    @staticmethod
    def _three_ways(trace, channel_meta):
        """The profile from the collector's row buffers, from its merged
        ``TraceEvent`` list, and from a re-imported Chrome export."""
        events, channels = events_from_chrome_trace(
            to_chrome_trace(trace, channels=channel_meta)
        )
        return (
            profile_trace(trace, channel_meta=channel_meta).to_dict(),
            profile_trace(trace.events, channel_meta=channel_meta).to_dict(),
            profile_trace(events, channel_meta=channels).to_dict(),
        )

    @pytest.mark.parametrize("build", [build_diamond, build_spmspm])
    def test_entry_points_agree(self, build):
        obs = Observability()
        summary = build().run(config=RunConfig(obs=obs))
        from_rows, from_events, from_chrome = self._three_ways(
            obs.trace, obs.channel_meta
        )
        assert from_rows == from_events == from_chrome == summary.profile

    def test_entry_points_agree_on_process_run_with_steals(self):
        obs = Observability()
        program = build_skewed_pipelines()
        pins = {
            id(ctx): 0 if ctx.name.endswith("0") else 1
            for ctx in program.contexts
        }
        summary = program.run(
            "process", config=RunConfig(obs=obs, workers=2, pins=pins)
        )
        assert summary.steals >= 1, "skewed partition did not force a steal"
        # The steals sit in a worker pseudo-buffer every entry point skips.
        assert any(name.startswith("<worker-") for name in obs.trace.buffers())
        from_rows, from_events, from_chrome = self._three_ways(
            obs.trace, obs.channel_meta
        )
        assert from_rows == from_events == from_chrome == summary.profile
        reference = Observability()
        build_skewed_pipelines().run(config=RunConfig(obs=reference))
        assert from_rows == reference.profile_report.to_dict()

    def test_entry_points_agree_with_an_infinity_finish(self):
        trace = TraceCollector()
        trace.buffer("src").append("advance", None, 3)
        trace.buffer("src").append("enqueue", "c", 3)
        trace.buffer("src").append("finish", None, INFINITY)
        trace.buffer("sink").append("dequeue", "c", 4)
        trace.buffer("sink").append("advance", None, 9)
        trace.buffer("sink").append("finish", None, 9)
        meta = {"c": {"capacity": 2, "latency": 1, "resp_latency": 1}}
        from_rows, from_events, from_chrome = self._three_ways(trace, meta)
        assert from_rows == from_events == from_chrome
        # The INFINITY row is dropped, not treated as the makespan.
        assert from_rows["finish_time"] == 9
        assert from_rows["attribution"]["per_context"]["src"]["finish_time"] == 3

    def test_replicated_name_trace_matches_golden(self):
        """Shared buffers are not monotone; neither the indexer nor the
        attribution loop may assume they are."""
        obs = Observability(metrics=False)
        summary = build_replicated_mha().run(config=RunConfig(obs=obs))
        streams = [buf.rows for buf in obs.trace.buffers().values()]
        assert any(
            later[2] < earlier[2]
            for rows in streams
            for earlier, later in zip(rows, rows[1:])
        ), "no buffer is shared: the input lost its point"
        assert summary.profile == obs.profile_report.to_dict()
        check_profile_golden("replicated_mha.profile.json", summary.profile)

    def test_replicated_names_trace_alike_on_every_executor(self):
        """Each context records into its own rows and the run folds them
        by slot, so a shared name's buffer does not depend on which
        thread or worker appended when."""

        def traced(executor, **kwargs):
            obs = Observability(metrics=False)
            summary = build_replicated_mha().run(
                executor, config=RunConfig(obs=obs, **kwargs)
            )
            rows = {name: buf.rows for name, buf in obs.trace.buffers().items()}
            return rows, json.dumps(summary.profile)

        reference = traced("sequential")
        for _ in range(10):
            assert traced("threaded") == reference
        assert traced("process", workers=2) == reference

    def test_malformed_trace_matches_golden(self):
        trace, meta = malformed_trace()
        from_rows, from_events, from_chrome = self._three_ways(trace, meta)
        assert from_rows == from_events
        check_profile_golden("malformed_trace.profile.json", from_rows)
        assert from_rows["finish_time"] == 11
        assert "<worker-0>" not in from_rows["attribution"]["per_context"]
        # Re-imported from Chrome JSON, the row after the mid-stream
        # INFINITY has a NaN time (ts = inf, dur = -inf); the walk steps
        # back over it as over any op that took no time.
        assert from_chrome["critical_path"]["by_category"] == {
            COMPUTE: 2, BLOCKED_ON_DEQUEUE: 9, BLOCKED_ON_ENQUEUE: 0, "overhead": 0,
        }

    def test_report_dict_round_trip(self):
        report, _ = run_with_profile(build_backpressured_pipeline)
        rebuilt = ProfileReport.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()

    def test_describe_states_the_telescoping_sum(self):
        report, _ = run_with_profile(build_starved_pipeline)
        text = report.describe()
        assert "path sum=13 finish_time=13" in text


class TestWireShape:
    def test_path_segment_fields_and_dict_round_trip(self):
        seg = PathSegment(BLOCKED_ON_DEQUEUE, "sink", "c", 1, 3.5)
        assert (seg.category, seg.context, seg.channel, seg.start, seg.end) == (
            BLOCKED_ON_DEQUEUE, "sink", "c", 1, 3.5
        )
        assert seg.duration == 2.5
        as_dict = seg.to_dict()
        assert json.dumps(as_dict) == (
            '{"category": "blocked_on_dequeue", "context": "sink", '
            '"channel": "c", "start": 1, "end": 3.5, "duration": 2.5}'
        )
        assert PathSegment.from_dict(as_dict) == seg
        del as_dict["channel"]
        assert PathSegment.from_dict(as_dict) == seg._replace(channel=None)

    @pytest.mark.parametrize(
        "build,golden",
        [
            (build_diamond, "diamond.profile.json"),
            (build_spmspm, "spmspm.profile.json"),
        ],
    )
    def test_summary_profile_keeps_its_key_order(self, build, golden):
        """The wire form, keys unsorted, against a profile written by the
        profiler before the single row pass; ``from_dict`` gives it back
        unchanged."""
        obs = Observability()
        summary = build().run(config=RunConfig(obs=obs))
        check_profile_golden(golden, summary.profile, sort_keys=False)
        rebuilt = ProfileReport.from_dict(obs.profile_report.to_dict())
        assert json.dumps(rebuilt.to_dict()) == json.dumps(summary.profile)


class TestReadmeProfileCalls:
    def test_obs_profile_on_a_traced_run(self):
        """README's ``report = obs.profile(); report.describe()``: the
        run's attached report; computed from the trace when none is
        attached, and cached; a finer ``epochs`` recomputes without
        replacing it."""
        obs = Observability()
        summary = build_diamond().run(config=RunConfig(obs=obs))
        report = obs.profile()
        assert report is obs.profile_report
        assert report.describe().startswith("critical path: ")
        obs.profile_report = None
        recomputed = obs.profile()
        assert obs.profile_report is recomputed
        assert json.dumps(recomputed.to_dict()) == json.dumps(summary.profile)
        finer = obs.profile(epochs=4)
        assert obs.profile_report is recomputed
        assert len(finer.timeline["epochs"]) == 4
        assert finer.segments == recomputed.segments


class TestDiff:
    def test_identical_profiles_are_ok(self):
        report, _ = run_with_profile(build_starved_pipeline)
        diff = diff_profiles(report.to_dict(), report.to_dict())
        assert diff["ok"] and not diff["regressions"]

    def test_regression_flagged_beyond_tolerance(self):
        report, _ = run_with_profile(build_starved_pipeline)
        base = report.to_dict()
        worse = json.loads(json.dumps(base))
        worse["finish_time"] = base["finish_time"] * 5
        worse["critical_path"]["by_category"][COMPUTE] *= 5
        diff = diff_profiles(base, worse, tolerance=3.0)
        assert not diff["ok"]
        flagged = {row["metric"] for row in diff["regressions"]}
        assert "finish_time" in flagged
        assert f"critical_path.{COMPUTE}" in flagged

    def test_small_growth_within_tolerance_passes(self):
        report, _ = run_with_profile(build_starved_pipeline)
        base = report.to_dict()
        slightly = json.loads(json.dumps(base))
        slightly["finish_time"] = base["finish_time"] * 2
        diff = diff_profiles(base, slightly, tolerance=3.0)
        assert diff["ok"]


class TestCli:
    def test_report_command_prints_critical_path(self, tmp_path, capsys):
        obs = Observability()
        build_starved_pipeline().run(config=RunConfig(obs=obs))
        path = obs.write_chrome_trace(tmp_path / "run.json")
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "path sum=13 finish_time=13" in out

    def test_diff_command_exit_codes(self, tmp_path, capsys):
        report, _ = run_with_profile(build_starved_pipeline)
        base = tmp_path / "base.json"
        base.write_text(json.dumps(report.to_dict()))
        worse_dict = report.to_dict()
        worse_dict["finish_time"] *= 10
        worse_dict["critical_path"]["by_category"][COMPUTE] *= 10
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(worse_dict))
        assert obs_main(["diff", str(base), str(base)]) == 0
        assert obs_main(["diff", str(base), str(worse)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out

    def test_report_on_spmspm_sums_to_finish_time(self, tmp_path, capsys):
        """The acceptance criterion: on the spmspm SAM kernel the printed
        critical path's segment durations sum to ``finish_time``."""
        obs = Observability()
        summary = build_spmspm().run(config=RunConfig(obs=obs))
        path = obs.write_chrome_trace(tmp_path / "spmspm.json")
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"path sum={summary.elapsed_cycles} " \
               f"finish_time={summary.elapsed_cycles}" in out
        # And the in-process report agrees exactly.
        report = obs.profile_report
        assert report.path_total() == pytest.approx(summary.elapsed_cycles)
