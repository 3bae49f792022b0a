"""Observability for dataflow programs: traces, metrics, stall reports.

The :mod:`repro.obs` package makes a DAM run inspectable on *both*
executors:

1. **Executor-agnostic tracing** — every context appends events to its
   own lock-free buffer; buffers merge deterministically by
   ``(time, context, seq)``, so a threaded run yields the exact same
   merged timeline as a sequential one.
2. **Perfetto export** — the trace renders to Chrome trace-event JSON
   (one track per context, channel ops as slices, transfers as flow
   arrows).  Load the written file at https://ui.perfetto.dev.
3. **Metrics registry** — channel traffic and peak occupancy, per-context
   ops, scheduler counters and wall-clock, folded into ``RunSummary.metrics``.
4. **Stall reports** — on deadlock, the error names every blocked
   context, the channel it is parked on, and the simulated clocks of
   both endpoints: the blocked set *is* the dependency cycle.

Run:  python examples/tracing_and_debugging.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import DeadlockError, Observability
from repro.attention import build_standard_attention
from repro.bench import TreeConfig, run_dam_forest


def stall_report_demo():
    print("== deadlock stall reports ==")
    rng = np.random.default_rng(0)
    n, d = 16, 4
    q = rng.standard_normal((n, d)) * 0.4
    k = rng.standard_normal((n, d)) * 0.4
    v = rng.standard_normal((n, d))
    # Undersize the softmax row buffer: the reduction needs the whole row.
    pipeline = build_standard_attention(q, k, v, buffer_depth=4)
    obs = Observability(trace=False)
    try:
        pipeline.program.run(obs=obs)
    except DeadlockError:
        print("  the stall report names each blocked context, its channel,")
        print("  and both endpoint clocks:")
        for line in obs.stall_report.lines():
            print(f"    {line}")


def tracing_demo():
    print()
    print("== executor-agnostic tracing ==")
    config = TreeConfig(trees=2, depth=2, reductions=5, fib_index=3)

    # Trace the SAME workload under both executors.
    obs_seq = Observability(capture_payloads=True)
    run_dam_forest(config, executor="sequential", obs=obs_seq)
    obs_thr = Observability(capture_payloads=True)
    run_dam_forest(config, executor="threaded", obs=obs_thr)

    key = lambda e: (e.time, e.context, e.seq, e.kind, e.channel, e.payload)
    seq_events = [key(e) for e in obs_seq.trace.events]
    thr_events = [key(e) for e in obs_thr.trace.events]
    print(f"  sequential run recorded {len(seq_events)} events")
    print(f"  threaded run recorded   {len(thr_events)} events")
    print(f"  merged timelines identical: {seq_events == thr_events}")

    # Export the threaded trace for Perfetto.
    path = Path(tempfile.gettempdir()) / "dam_reduction_tree_trace.json"
    obs_thr.write_chrome_trace(path)
    print(f"  Perfetto trace written to {path}")
    print("  (open https://ui.perfetto.dev and drop the file in)")

    print("  first events of the merged timeline:")
    for event in obs_thr.trace.events[:5]:
        channel = event.channel or "-"
        print(f"    t={event.time:<3} {event.context:<12} {event.kind:<8} {channel}")


def metrics_demo():
    print()
    print("== run metrics ==")
    config = TreeConfig(trees=1, depth=3, reductions=10, fib_index=3)
    obs = Observability(trace=False)
    result = run_dam_forest(config, executor="threaded", obs=obs)
    metrics = result["metrics"]
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    busiest = max(
        (key for key in gauges if key.startswith("channel_max_occupancy")),
        key=lambda key: gauges[key],
    )
    print(f"  simulated makespan: {result['cycles']} cycles")
    print(f"  total ops: {counters['executor_ops']}")
    print(f"  deepest channel: {busiest} = {gauges[busiest]}")
    print(
        f"  context switches / wakeups: "
        f"{counters['executor_context_switches']} / "
        f"{counters['executor_wakeups']}"
    )
    print(
        "  wall-clock per context (histogram): "
        f"{metrics['histograms']['context_wall_seconds_dist']['count']} contexts, "
        f"mean {metrics['histograms']['context_wall_seconds_dist']['mean']:.2e}s"
    )


if __name__ == "__main__":
    stall_report_demo()
    tracing_demo()
    metrics_demo()
