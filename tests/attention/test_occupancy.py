"""Channel-occupancy profiling: the O(N) vs O(1) local-memory evidence.

Section VII argues the standard streaming attention's row buffer holds a
whole score row (O(N) local memory) while the sequence-length-agnostic
design needs only constant buffering.  Peak occupancy *in simulated
time*, read off a run's trace, gives that claim directly — and, being a
function of the port histories alone, the same on every executor.
"""

import functools
import multiprocessing

import numpy as np

from repro.attention import build_seq_agnostic_attention, build_standard_attention
from repro.core import RunConfig, peak_simulated_occupancy
from repro.obs import Observability, occupancy_log

#: The hosts the peaks are read on: they must agree exactly.
_HOSTS = [
    ("sequential", RunConfig()),
    ("threaded", RunConfig(superblocks="off")),
]
if "fork" in multiprocessing.get_all_start_methods():
    _HOSTS.append(("process", RunConfig(workers=2)))


def inputs(n, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n, d)) * 0.4,
        rng.standard_normal((n, d)) * 0.4,
        rng.standard_normal((n, d)),
    )


_DESIGNS = {
    "standard": build_standard_attention,
    "seq_agnostic": lambda q, k, v: build_seq_agnostic_attention(q, k, v, depth=None),
}


@functools.lru_cache(maxsize=None)
def profiled_peaks(design, n):
    """Each channel's peak simulated occupancy, by name, from a traced
    run of ``design`` at sequence length ``n`` on every host (asserted
    identical)."""
    seen = []
    for executor, config in _HOSTS:
        program = _DESIGNS[design](*inputs(n)).program
        obs = Observability(metrics=False)
        program.run(executor, config=config.replace(obs=obs))
        seen.append({
            channel.name: peak_simulated_occupancy(occupancy_log(obs.trace, channel))
            for channel in program.channels
        })
    assert all(peaks == seen[0] for peaks in seen), seen
    return seen[0]


class TestSimulatedOccupancy:
    def test_standard_row_buffer_holds_a_row(self):
        """Peak simulated occupancy of channel C grows linearly with N."""
        peaks = {n: profiled_peaks("standard", n)["C_row_buffer"] for n in [16, 32]}
        assert peaks[16] >= 16
        assert peaks[32] >= 32
        # O(N): doubling the sequence roughly doubles the buffered row.
        assert 1.5 < peaks[32] / peaks[16] < 2.5

    def test_standard_other_channels_stay_constant(self):
        for n in [16, 32]:
            peaks = profiled_peaks("standard", n)
            for name, peak in peaks.items():
                if name != "C_row_buffer":
                    assert peak <= 8, (name, peak)

    def test_seq_agnostic_all_channels_constant(self):
        """Fig. 4b: no channel's occupancy grows with sequence length."""
        for n in [16, 32, 64]:
            peaks = profiled_peaks("seq_agnostic", n)
            assert max(peaks.values()) <= 8, (n, peaks)
