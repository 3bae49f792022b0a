"""The suite's fixed names: workloads and their sizes.

Pure data — importing this module imports nothing of the program, so the
orchestrator (``run.py``) stays light and the children pay the real
import cost inside their measured set-up.

Why each workload was chosen, and metric names, units, directions and
bounds, live in the repo-root ``BENCHMARK.json`` (the contract file the
driver reads); the layer each per-layer metric belongs to, and the
end-to-end metric it should move, are in :data:`LAYER_MOVES` below and in
``README.md``.
"""

from __future__ import annotations

#: The seed used when none is given; the simulated counts of this seed are
#: pinned in :data:`PINNED`.
DEFAULT_SEED = 0

#: name -> full-size and smoke params.  Sizes are
#: chosen so one timed operation takes 0.3-0.8 s on the 2-core reference
#: host (the driver caps a whole invocation at ~20 s including three
#: set-ups, so the 1-2 s runs of the first scratch trials do not fit).
WORKLOADS: dict[str, dict] = {
    "seq_spmspm": {
        "full": {"n": 72, "density": 0.15, "depth": 16},
        "smoke": {"n": 12, "density": 0.3, "depth": 16},
    },
    "seq_ring": {
        "full": {"nodes": 8, "laps": 36000},
        "smoke": {"nodes": 8, "laps": 600},
    },
    "obs_spmspm": {
        "full": {"n": 26, "density": 0.2, "depth": 16},
        "smoke": {"n": 8, "density": 0.3, "depth": 16},
    },
    "thr_mha": {
        "full": {"heads": 16, "seq_len": 28, "head_dim": 4, "parallelism": 8},
        "smoke": {"heads": 4, "seq_len": 6, "head_dim": 3, "parallelism": 2},
    },
    "proc_mha": {
        "full": {"heads": 16, "seq_len": 28, "head_dim": 4, "parallelism": 8},
        "smoke": {"heads": 4, "seq_len": 6, "head_dim": 3, "parallelism": 2},
    },
    "ckpt_spmspm": {
        "full": {"n": 56, "density": 0.2, "depth": 16, "interval_s": 0.05},
        "smoke": {"n": 12, "density": 0.3, "depth": 16, "interval_s": 0.0},
    },
    "serve_mixed": {
        "full": {"small_n": 8, "medium_n": 24, "min_requests": 104,
                 "tenants": 3, "warmup": 8},
        "smoke": {"small_n": 6, "medium_n": 10, "min_requests": 24,
                  "tenants": 3, "warmup": 2},
    },
}

#: Executor hosting each run workload (serve_mixed runs the spec's
#: default, sequential, inside the server).
EXECUTORS = {
    "seq_spmspm": "sequential",
    "seq_ring": "sequential",
    "obs_spmspm": "sequential",
    "thr_mha": "threaded",
    "proc_mha": "process",
    "ckpt_spmspm": "sequential",
}

#: Workloads whose subprocess is pinned to one CPU.  The threaded executor's
#: 312 threads take turns on the interpreter lock, so they never run two at
#: a time; left on both CPUs of the shared host, every hand-over can land on
#: the CPU a neighbour is using, and identical runs spread twice as far
#: (and run ~4 % slower) as on one CPU.
ONE_CPU = frozenset({"thr_mha"})

#: Simulated counts of one run at DEFAULT_SEED (serve_mixed: summed over
#: the first ``min_requests`` of the schedule).  A change that moves these
#: changed the *simulated* machine, not the simulator's speed, and fails
#: the correctness check.  (``BENCHMARK.json`` has a fixed set of keys, so
#: the pins live here.)  thr_mha and proc_mha share a graph and inputs.
PINNED: dict[str, dict[str, dict[str, int]]] = {
    "seq_spmspm": {
        "full": {"cycles": 110583, "ops": 1074485},
        "smoke": {"cycles": 1127, "ops": 17289},
    },
    "seq_ring": {
        "full": {"cycles": 288008, "ops": 864029},
        "smoke": {"cycles": 4808, "ops": 14429},
    },
    "obs_spmspm": {
        "full": {"cycles": 6828, "ops": 84015},
        "smoke": {"cycles": 302, "ops": 5509},
    },
    "thr_mha": {
        "full": {"cycles": 3666, "ops": 1583648},
        "smoke": {"cycles": 214, "ops": 20128},
    },
    "proc_mha": {
        "full": {"cycles": 3666, "ops": 1583648},
        "smoke": {"cycles": 214, "ops": 20128},
    },
    "ckpt_spmspm": {
        "full": {"cycles": 65422, "ops": 674165},
        "smoke": {"cycles": 1127, "ops": 17289},
    },
    "serve_mixed": {
        "full": {"cycles": 207758, "ops": 2751751},
        "smoke": {"cycles": 5586, "ops": 98695},
    },
}

#: layer -> (per-layer metric prefixes, the end-to-end metric and workload
#: they should move).  Elsewhere the prediction is no change.
LAYER_MOVES: dict[str, tuple[tuple[str, ...], str]] = {
    "core.channel": (
        ("channel.",),
        "sim_ops_per_s on seq_spmspm, thr_mha",
    ),
    "core.executor.sequential": (
        ("sequential.",),
        "sim_ops_per_s on seq_spmspm (fast), obs_spmspm (generic), "
        "seq_ring (park, superblock); req_latency_p50_ms on serve_mixed (fixed)",
    ),
    "core.executor.threaded": (("threaded.",), "sim_ops_per_s on thr_mha"),
    "core.executor.partitioned/partition/shm": (
        ("process.", "partition.", "shm."),
        "sim_ops_per_s on proc_mha; process.fixed_ms also setup_s on proc_mha",
    ),
    "core.program/sam": (
        ("program.", "sam."),
        "setup_s everywhere; spec codec -> sim_ops_per_s, req_per_s on serve_mixed",
    ),
    "core.checkpoint": (("checkpoint.",), "sim_ops_per_s on ckpt_spmspm"),
    "obs": (("obs.",), "sim_ops_per_s on obs_spmspm"),
    "serve": (
        ("serve.",),
        "req_latency_p50_ms (overhead, accepted, healthz) and "
        "sim_ops_per_s, req_per_s (run, codec) on serve_mixed",
    ),
    "workload": (
        ("sim.", "workload.", "trace."),
        "exact simulated counts and the latency tail of the traced workload; "
        "trace.* is the benchmark's own span recorder",
    ),
}
