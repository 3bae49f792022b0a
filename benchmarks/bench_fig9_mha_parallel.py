"""Fig. 9 — MHA sweep across parallelization factors.

Paper: parallelization factors 1..64 (batch 8, heads 8); simulated
parallelism scales until real hardware saturates (~32 of 88 cores), with
context counts surpassing two thousand.

Reproduction, two series:

* **Simulated** speedup — the makespan reduction from splitting heads
  across independent pipelines.  Exactly reproducible anywhere.
* **Wall-clock** speedup — the process executor running the same graph
  partitioned across worker processes.  This is the paper's actual
  claim (real seconds falling as cores are added) and is only
  observable on a multi-core box; the sweep always *runs* and asserts
  bit-identical simulated results, but asserts improving wall time only
  when the container actually has the cores
  (``len(os.sched_getaffinity(0))``).

``python bench_fig9_mha_parallel.py --workers 2 --smoke`` runs a small
configuration once (the CI smoke path); the pytest entry points run the
full sweep and persist ``results/fig9_mha_parallel.txt`` plus the
machine-readable ``results/BENCH_fig9.json``.
"""

import argparse
import gc
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
from conftest import report, report_json

from repro.bench import TextTable
from repro.core import RunConfig, pins_from_summary, plan_clusters
from repro.sam.graphs.mha import build_parallel_mha
from repro.spec import simulated

HEADS = 8
SEQ_LEN = 10
HEAD_DIM = 4
FACTORS = [1, 2, 4, 8]
WORKER_COUNTS = [1, 2, 4]


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:  # noqa: BLE001 - not a git checkout / git missing
        return "unknown"


def inputs(seed=0, heads=HEADS, seq_len=SEQ_LEN, head_dim=HEAD_DIM):
    rng = np.random.default_rng(seed)
    mask = (rng.random((heads, seq_len, seq_len)) < 0.4).astype(float)
    for h in range(heads):
        np.fill_diagonal(mask[h], 1.0)
    return (
        mask,
        rng.standard_normal((heads, seq_len, head_dim)),
        rng.standard_normal((heads, seq_len, head_dim)),
        rng.standard_normal((heads, seq_len, head_dim)),
    )


def run_sweep():
    """Simulated-parallelism series (sequential executor)."""
    mask, q, k, v = inputs()
    table = TextTable(
        ["parallelism", "sim_cycles", "sim_speedup", "contexts", "real_s"],
        title=(
            "Fig. 9 (scaled): MHA across parallelization factors\n"
            "paper: scales to ~32 on an 88-core box; >2000 contexts at 64"
        ),
    )
    base_cycles = None
    results = []
    reference = None
    for factor in FACTORS:
        parallel = build_parallel_mha(mask, q, k, v, parallelism=factor)
        summary = parallel.run()
        output = parallel.result_dense()
        if reference is None:
            reference = output
        else:
            assert np.allclose(output, reference)
        if base_cycles is None:
            base_cycles = summary.elapsed_cycles
        sim_speedup = base_cycles / summary.elapsed_cycles
        results.append((factor, summary.elapsed_cycles, sim_speedup))
        table.add_row(
            factor,
            summary.elapsed_cycles,
            sim_speedup,
            parallel.context_count,
            summary.real_seconds,
        )
    report("fig9_mha_parallel", table.render())
    return results


def run_worker_sweep(
    worker_counts=WORKER_COUNTS, parallelism=4, smoke=False, seed=0
):
    """Wall-clock series: the same graph on the process executor.

    Every process run must produce the sequential run's exact simulated
    results; wall seconds are what the workers are allowed to change.
    """
    if smoke:
        mask, q, k, v = inputs(seed=seed, heads=4, seq_len=6, head_dim=3)
    else:
        mask, q, k, v = inputs(seed=seed)

    baseline = build_parallel_mha(mask, q, k, v, parallelism=parallelism)
    base_summary = baseline.run()
    base_output = baseline.result_dense()
    sweep = {
        "cpu_count": available_cores(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "parallelism": parallelism,
        "contexts": baseline.context_count,
        "sim_cycles": base_summary.elapsed_cycles,
        "sequential_s": base_summary.real_seconds,
        "workers": {},
    }
    for workers in worker_counts:
        kernel = build_parallel_mha(mask, q, k, v, parallelism=parallelism)
        summary = kernel.run(
            executor="process", config=RunConfig(workers=workers)
        )
        assert summary.elapsed_cycles == base_summary.elapsed_cycles, (
            f"process run (workers={workers}) changed simulated time: "
            f"{summary.elapsed_cycles} != {base_summary.elapsed_cycles}"
        )
        assert np.allclose(kernel.result_dense(), base_output)
        sweep["workers"][str(workers)] = {
            "wall_s": summary.real_seconds,
            "speedup": base_summary.real_seconds / summary.real_seconds,
            "sim_cycles": summary.elapsed_cycles,
            "steals": summary.steals,
        }
    sweep["steal"] = run_steal_sweep(
        parallelism=max(parallelism, 4), smoke=smoke, seed=seed
    )
    return sweep


def _skewed_pins(program):
    """Pin the first head-pipeline to worker 0 and every other pipeline
    to worker 1 — a deliberate 1-vs-many load skew."""
    clusters = plan_clusters(program, {id(ctx): 0 for ctx in program.contexts})
    first = set(clusters[0].contexts)
    return {
        id(ctx): (0 if slot in first else 1)
        for slot, ctx in enumerate(program.contexts)
    }


def run_steal_sweep(parallelism=4, smoke=False, seed=0, repeats=3):
    """Placement series on a skewed 2-worker partition: strict placement,
    work stealing, and strict placement re-planned by
    ``pins_from_summary`` from the strict run's measured ops.

    With the skewed pins and stealing off, worker 0 finishes its single
    pipeline and idles while worker 1 grinds through the rest; with
    stealing on, worker 0 migrates cold pipelines over their shuttles
    and shared clocks; the replay packs the pipelines by the ops each
    context ran.  Every run must reproduce the sequential run's record
    bit for bit.  Each leg reports the fastest of ``repeats`` runs: at
    the default size a run takes tens of milliseconds, most of them fork
    and harvest, so one run's wall time is mostly the host's noise.
    """
    if smoke:
        mask, q, k, v = inputs(seed=seed, heads=4, seq_len=6, head_dim=3)
        parallelism = min(parallelism, 4)
    else:
        # ``proc_mha``'s size: the pipelines' work, not fork and harvest,
        # sets the wall time, so the skew shows.
        mask, q, k, v = inputs(seed=seed, heads=16, seq_len=28)

    baseline = build_parallel_mha(mask, q, k, v, parallelism=parallelism)
    expected = (
        simulated(baseline.program, baseline.run()),
        baseline.result_dense().tobytes(),
    )

    def run(pins_of, steal):
        summaries = []
        for _ in range(repeats):
            kernel = build_parallel_mha(mask, q, k, v, parallelism=parallelism)
            pins = pins_of(kernel.program)
            gc.collect()  # the last run's records are garbage: not in this one
            summary = kernel.run(
                executor="process",
                config=RunConfig(workers=2, pins=pins, steal=steal),
            )
            got = simulated(kernel.program, summary), kernel.result_dense().tobytes()
            assert got == expected, "a process run changed the simulated record"
            summaries.append(summary)
        return min(summaries, key=lambda summary: summary.real_seconds)

    static = run(_skewed_pins, steal=False)
    steal = run(_skewed_pins, steal=True)
    replayed = run(lambda program: pins_from_summary(program, static, 2), steal=False)
    assert static.steals == replayed.steals == 0
    assert steal.steals >= 1, "skewed partition did not force a steal"
    return {
        "parallelism": parallelism,
        "static_wall_s": static.real_seconds,
        "steal_wall_s": steal.real_seconds,
        "speedup": static.real_seconds / steal.real_seconds,
        "steals": steal.steals,
        "replayed_wall_s": replayed.real_seconds,
        "replay_speedup": static.real_seconds / replayed.real_seconds,
    }


def render_worker_table(sweep) -> str:
    table = TextTable(
        ["workers", "wall_s", "speedup_vs_seq", "sim_cycles", "steals"],
        title=(
            "Fig. 9 (wall clock): process executor on "
            f"parallelism={sweep['parallelism']} MHA "
            f"({sweep['cpu_count']} cores visible)"
        ),
    )
    table.add_row("seq", sweep["sequential_s"], 1.0, sweep["sim_cycles"], 0)
    for workers, row in sorted(sweep["workers"].items(), key=lambda kv: int(kv[0])):
        table.add_row(
            workers, row["wall_s"], row["speedup"], row["sim_cycles"],
            row.get("steals", 0),
        )
    steal = sweep.get("steal")
    if steal:
        lines = [table.render()]
        lines.append(
            "work stealing (skewed 2-worker partition, "
            f"parallelism={steal['parallelism']}): "
            f"static {steal['static_wall_s']:.3f}s -> "
            f"steal {steal['steal_wall_s']:.3f}s "
            f"({steal['speedup']:.2f}x, {steal['steals']} steals); "
            f"replayed by measured ops {steal['replayed_wall_s']:.3f}s "
            f"({steal['replay_speedup']:.2f}x)"
        )
        return "\n".join(lines)
    return table.render()


def test_fig9_simulated_parallelism_scales(benchmark):
    results = run_sweep()
    cycles = [c for _, c, _ in results]
    # Simulated makespan strictly improves with each doubling.
    assert all(later < earlier for earlier, later in zip(cycles, cycles[1:]))
    # And the full split achieves a substantial simulated speedup.
    assert results[-1][2] > 2.0
    mask, q, k, v = inputs()
    benchmark.pedantic(
        lambda: build_parallel_mha(mask, q, k, v, parallelism=4).run(),
        rounds=2,
        iterations=1,
    )


def test_fig9_process_executor_wall_clock():
    sweep = run_worker_sweep()
    report("fig9_mha_process", render_worker_table(sweep))
    report_json("BENCH_fig9", sweep)
    # Exactness is asserted unconditionally inside the sweep.  Wall-clock
    # improvement needs real cores: on a multi-core box the best worker
    # count must at least hold its own against sequential (the paper's
    # Fig. 9 shows clear wins; "no collapse" keeps CI boxes honest
    # without flaking on noisy neighbors).
    if sweep["cpu_count"] >= 2:
        best = max(row["speedup"] for row in sweep["workers"].values())
        assert best > 0.5, f"process executor collapsed: best speedup {best:.2f}"
        # On a skewed partition, letting the idle worker steal the cold
        # pipelines must beat strict placement (worker 0 would otherwise
        # idle through ~(p-1)/p of the work).
        assert sweep["steal"]["speedup"] > 1.0, (
            f"stealing did not improve wall clock: {sweep['steal']}"
        )
        # So must re-planning from the skewed run's measured ops.
        assert sweep["steal"]["replay_speedup"] > 1.0, (
            f"the replayed placement did not improve wall clock: "
            f"{sweep['steal']}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, nargs="*", default=None,
        help="worker counts to sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration, no files written (CI smoke path)",
    )
    args = parser.parse_args()
    worker_counts = args.workers if args.workers else WORKER_COUNTS
    parallelism = 2 if args.smoke else 4
    sweep = run_worker_sweep(
        worker_counts=worker_counts, parallelism=parallelism, smoke=args.smoke
    )
    print(render_worker_table(sweep))
    if not args.smoke:
        report_json("BENCH_fig9", sweep)
    print("exactness: all process runs matched the sequential reference")


if __name__ == "__main__":
    main()
