"""Tests for the streaming attention case study (Section VII)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attention import (
    attention_reference,
    build_seq_agnostic_attention,
    build_standard_attention,
    run_cycle_standard_attention,
)
from repro.core import DeadlockError, RunConfig


def inputs(n=16, d=4, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, d)) * scale
    k = rng.standard_normal((n, d)) * scale
    v = rng.standard_normal((n, d))
    return q, k, v


class TestStandardAttention:
    def test_matches_reference(self):
        q, k, v = inputs()
        pipeline = build_standard_attention(q, k, v)
        pipeline.run()
        assert np.allclose(pipeline.result(), attention_reference(q, k, v))

    def test_threaded_matches_sequential(self):
        q, k, v = inputs(n=8)
        seq = build_standard_attention(q, k, v)
        s_seq = seq.run()
        thr = build_standard_attention(q, k, v)
        s_thr = thr.run(executor="threaded", config=RunConfig(superblocks="off"))
        assert np.allclose(seq.result(), thr.result())
        assert s_seq.elapsed_cycles == s_thr.elapsed_cycles

    def test_undersized_row_buffer_deadlocks(self):
        """The Section VII-A sizing rule: channel C needs depth >= N + alpha;
        far below N the softmax reduction deadlocks."""
        q, k, v = inputs(n=16)
        pipeline = build_standard_attention(q, k, v, buffer_depth=4)
        with pytest.raises(DeadlockError):
            pipeline.run()

    def test_exactly_sufficient_buffer_works(self):
        q, k, v = inputs(n=12)
        pipeline = build_standard_attention(q, k, v, buffer_depth=12 + 22)
        pipeline.run()
        assert np.allclose(pipeline.result(), attention_reference(q, k, v))


class TestSeqAgnosticAttention:
    def test_matches_reference(self):
        q, k, v = inputs()
        pipeline = build_seq_agnostic_attention(q, k, v)
        pipeline.run()
        assert np.allclose(pipeline.result(), attention_reference(q, k, v))

    def test_table2_constant_depth_suffices(self):
        """Table II: simulated cycles with depth 22 equal those with
        unbounded channels, across sequence lengths — O(1) local memory
        with no performance loss."""
        for n in [8, 16, 32]:
            q, k, v = inputs(n=n)
            bounded = build_seq_agnostic_attention(q, k, v, depth=22)
            s_bounded = bounded.run()
            unbounded = build_seq_agnostic_attention(q, k, v, depth=None)
            s_unbounded = unbounded.run()
            assert s_bounded.elapsed_cycles == s_unbounded.elapsed_cycles
            assert np.allclose(bounded.result(), unbounded.result())

    def test_cycles_scale_quadratically(self):
        q1, k1, v1 = inputs(n=16)
        small = build_seq_agnostic_attention(q1, k1, v1)
        s_small = small.run()
        q2, k2, v2 = inputs(n=32)
        big = build_seq_agnostic_attention(q2, k2, v2)
        s_big = big.run()
        ratio = s_big.elapsed_cycles / s_small.elapsed_cycles
        assert 3.0 < ratio < 5.0  # ~4x for 2x sequence length

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(2, 16),
        d=st.integers(1, 6),
        seed=st.integers(0, 50),
    )
    def test_property_both_pipelines_match_reference(self, n, d, seed):
        q, k, v = inputs(n=n, d=d, seed=seed)
        ref = attention_reference(q, k, v)
        std = build_standard_attention(q, k, v)
        std.run()
        agn = build_seq_agnostic_attention(q, k, v)
        agn.run()
        assert np.allclose(std.result(), ref)
        assert np.allclose(agn.result(), ref)


class TestCycleBaseline:
    def test_matches_reference(self):
        q, k, v = inputs()
        out, _ = run_cycle_standard_attention(q, k, v)
        assert np.allclose(out, attention_reference(q, k, v))

    def test_cycle_gap_vs_dam_is_constant(self):
        """Section VII-C: simulated cycles in the two simulators match up
        to a constant startup/shutdown gap across sequence lengths."""
        gaps = []
        for n in [8, 16, 32]:
            q, k, v = inputs(n=n)
            dam = build_standard_attention(q, k, v)
            s_dam = dam.run()
            _, stats = run_cycle_standard_attention(q, k, v)
            gaps.append(stats.cycles - s_dam.elapsed_cycles)
        assert gaps[0] == gaps[1] == gaps[2]

    def test_real_cost_scales_with_ticks(self):
        q, k, v = inputs(n=16)
        _, stats = run_cycle_standard_attention(q, k, v)
        # Six components ticking ~N^2-ish cycles each.
        assert stats.ticks > 6 * 16 * 16
