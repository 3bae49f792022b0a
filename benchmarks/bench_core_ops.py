"""Core-loop microbenchmark: ops/sec through the sequential executor.

Unlike the paper-figure benchmarks (which sweep simulated configurations),
this file tracks the *simulator's own* hot path: how many context
operations per second the core scheduler/channel machinery sustains.  It
is the repo's perf trajectory anchor — ``results/BENCH_core.json`` records
the committed numbers plus the pre-fast-path baseline, and CI's
``--smoke`` mode fails when the current tree regresses by more than 3x
(an order-of-magnitude core-loop regression, not benchmark noise).

Four workloads, chosen to stress distinct parts of the core loop:

* ``deep_pipeline`` — a long chain of forwarding stages over bounded
  channels; nearly every op is a non-blocking dequeue/enqueue/IncrCycles,
  the case the inline fast path (fused ops + channel flavors) targets.
* ``tiny_ring`` — one token circulating a ring of capacity-1 channels;
  almost every dequeue blocks first, stressing the park/wake machinery.
* ``wide_diamond`` — fan-out/fan-in over capacity-1 arms; the
  multi-endpoint broadcast/join steps park and wake mid-batch far more
  often than a ring or pipeline.
* ``spmspm`` — the Gustavson SpMSpM SAM kernel: the end-to-end mix of
  primitive contexts a real workload produces.

Usage (from ``benchmarks/``)::

    PYTHONPATH=../src python bench_core_ops.py                  # full run
    PYTHONPATH=../src python bench_core_ops.py --smoke          # CI gate
    PYTHONPATH=../src python bench_core_ops.py --save-baseline b.json
    PYTHONPATH=../src python bench_core_ops.py --baseline-file b.json

The full run writes ``results/BENCH_core.json`` with both the current
numbers and the baseline (taken from ``--baseline-file``, else preserved
from the existing JSON, else the current run).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from conftest import RESULTS_DIR, report_json

from repro.bench import TextTable
from repro.core import FunctionContext, IncrCycles, ProgramBuilder, SequentialExecutor
from repro.sam import CsfTensor
from repro.sam.graphs import build_spmspm
from repro.sam.tensor import random_dense

try:  # the inline fast path (this PR); absent on the pre-PR baseline tree
    from repro.core.ops import FusedOps
except ImportError:  # pragma: no cover - baseline-capture path
    FusedOps = None


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


def build_deep_pipeline(stages: int = 16, tokens: int = 2000, capacity: int = 8):
    """A chain of forwarding stages: the non-blocking-op fast path."""
    builder = ProgramBuilder()
    links = [
        builder.bounded(capacity, name=f"link{i}") for i in range(stages + 1)
    ]

    def source(snd=links[0][0], n=tokens):
        if FusedOps is not None:
            def body():
                enq = snd.enqueue(None)
                step = FusedOps(enq, IncrCycles(1))
                for i in range(n):
                    enq.data = i
                    yield step
        else:
            def body():
                for i in range(n):
                    yield snd.enqueue(i)
                    yield IncrCycles(1)

        return body

    def stage(rcv, snd):
        if FusedOps is not None:
            def body():
                deq = rcv.dequeue()
                enq = snd.enqueue(None)
                step = FusedOps(enq, IncrCycles(1), deq)
                value = yield deq
                while True:
                    enq.data = value
                    value = (yield step)[2]
        else:
            def body():
                while True:
                    value = yield rcv.dequeue()
                    yield snd.enqueue(value)
                    yield IncrCycles(1)

        return body

    def sink(rcv=links[-1][1]):
        def body():
            deq = rcv.dequeue()
            while True:
                yield deq

        return body

    builder.add(FunctionContext(source(), handles=[links[0][0]], name="src"))
    for index in range(stages):
        rcv = links[index][1]
        snd = links[index + 1][0]
        builder.add(
            FunctionContext(
                stage(rcv, snd), handles=[rcv, snd], name=f"stage{index}"
            )
        )
    builder.add(FunctionContext(sink(), handles=[links[-1][1]], name="sink"))
    return builder.build()


def build_tiny_ring(nodes: int = 4, laps: int = 1500):
    """One token around a capacity-1 ring: the park/wake slow path."""
    builder = ProgramBuilder()
    links = [builder.bounded(1, name=f"hop{i}") for i in range(nodes)]

    def head(rcv=links[-1][1], snd=links[0][0], n=laps):
        if FusedOps is not None:
            def body():
                deq = rcv.dequeue()
                enq = snd.enqueue(None)
                step = FusedOps(enq, IncrCycles(1))
                yield snd.enqueue(0)
                for _ in range(n):
                    value = yield deq
                    enq.data = value + 1
                    yield step
        else:
            def body():
                yield snd.enqueue(0)
                for _ in range(n):
                    value = yield rcv.dequeue()
                    yield snd.enqueue(value + 1)
                    yield IncrCycles(1)

        return body

    def node(rcv, snd):
        if FusedOps is not None:
            def body():
                deq = rcv.dequeue()
                enq = snd.enqueue(None)
                step = FusedOps(enq, IncrCycles(1), deq)
                value = yield deq
                while True:
                    enq.data = value + 1
                    value = (yield step)[2]
        else:
            def body():
                while True:
                    value = yield rcv.dequeue()
                    yield snd.enqueue(value + 1)
                    yield IncrCycles(1)

        return body

    builder.add(
        FunctionContext(head(), handles=[links[-1][1], links[0][0]], name="ring0")
    )
    for index in range(1, nodes):
        rcv = links[index - 1][1]
        snd = links[index][0]
        builder.add(
            FunctionContext(
                node(rcv, snd), handles=[rcv, snd], name=f"ring{index}"
            )
        )
    return builder.build()


def build_wide_diamond(width: int = 4, depth: int = 2, tokens: int = 600):
    """Fan-out/fan-in over capacity-1 arms: park/wake-delivery dense.

    A source broadcasts each token across ``width`` parallel arms of
    ``depth`` forwarding stages, all over capacity-1 channels, and a
    sink joins them back: the multi-endpoint fan-out/fan-in batches
    park on a middle constituent, the resume path a ring or pipeline
    rarely takes."""
    builder = ProgramBuilder()
    entries = [builder.bounded(1, name=f"fan{w}") for w in range(width)]
    exits = [builder.bounded(1, name=f"join{w}") for w in range(width)]
    arm_links = [
        [builder.bounded(1, name=f"arm{w}_{d}") for d in range(depth - 1)]
        for w in range(width)
    ]

    def source(senders, n=tokens):
        if FusedOps is not None:
            def body():
                enqs = [snd.enqueue(None) for snd in senders]
                step = FusedOps(*enqs, IncrCycles(1))
                for i in range(n):
                    for enq in enqs:
                        enq.data = i
                    yield step
        else:
            def body():
                for i in range(n):
                    for snd in senders:
                        yield snd.enqueue(i)
                    yield IncrCycles(1)

        return body

    def stage(rcv, snd):
        if FusedOps is not None:
            def body():
                deq = rcv.dequeue()
                enq = snd.enqueue(None)
                step = FusedOps(enq, IncrCycles(1), deq)
                value = yield deq
                while True:
                    enq.data = value + 1
                    value = (yield step)[2]
        else:
            def body():
                while True:
                    value = yield rcv.dequeue()
                    yield snd.enqueue(value + 1)
                    yield IncrCycles(1)

        return body

    def sink(receivers):
        if FusedOps is not None:
            def body():
                step = FusedOps(
                    *[rcv.dequeue() for rcv in receivers], IncrCycles(1)
                )
                while True:
                    yield step
        else:
            def body():
                while True:
                    for rcv in receivers:
                        yield rcv.dequeue()
                    yield IncrCycles(1)

        return body

    fan_senders = [snd for snd, _ in entries]
    builder.add(
        FunctionContext(source(fan_senders), handles=fan_senders, name="fan")
    )
    for w in range(width):
        hops = (
            [entries[w][1]]
            + [end for link in arm_links[w] for end in link]
            + [exits[w][0]]
        )
        # hops = [rcv0, snd1, rcv1, snd2, rcv2, ...]: stage d forwards
        # hops[2d] -> hops[2d+1].
        for d in range(depth):
            rcv, snd = hops[2 * d], hops[2 * d + 1]
            builder.add(
                FunctionContext(
                    stage(rcv, snd), handles=[rcv, snd], name=f"arm{w}s{d}"
                )
            )
    join_receivers = [rcv for _, rcv in exits]
    builder.add(
        FunctionContext(sink(join_receivers), handles=join_receivers, name="join")
    )
    return builder.build()


def build_spmspm_program(size: int = 8, density: float = 0.4, depth: int = 4):
    """The Gustavson SpMSpM kernel: a realistic primitive mix."""
    b = random_dense(size, size, density=density, seed=101)
    ct = random_dense(size, size, density=density, seed=102)
    kernel = build_spmspm(
        CsfTensor.from_dense(b, "cc"),
        CsfTensor.from_dense(ct, "cc"),
        depth=depth,
    )
    return kernel.program


_FULL = {
    "deep_pipeline": lambda: build_deep_pipeline(stages=16, tokens=2000),
    "tiny_ring": lambda: build_tiny_ring(nodes=4, laps=1500),
    "wide_diamond": lambda: build_wide_diamond(width=2, depth=4, tokens=1200),
    # Saturation-regime instance: large enough (~150k ops) that steady-state
    # primitive streaming dominates over program build/teardown and the
    # short prefix before the pipeline fills, which tiny instances overweigh.
    "spmspm": lambda: build_spmspm_program(size=32, density=0.2, depth=16),
}

_SMOKE = {
    "deep_pipeline": lambda: build_deep_pipeline(stages=8, tokens=400),
    "tiny_ring": lambda: build_tiny_ring(nodes=4, laps=300),
    "wide_diamond": lambda: build_wide_diamond(width=2, depth=4, tokens=250),
    "spmspm": lambda: build_spmspm_program(size=6),
}


# ----------------------------------------------------------------------
# Measurement.
# ----------------------------------------------------------------------


def measure(build, repeats: int = 3, **executor_kwargs) -> dict:
    """Best-of-N ops/sec for one workload under the sequential executor."""
    best = None
    for _ in range(repeats):
        program = build()
        executor = SequentialExecutor(**executor_kwargs)
        start = time.perf_counter()
        summary = executor.execute(program)
        seconds = time.perf_counter() - start
        sample = {
            "ops": summary.ops_executed,
            "seconds": seconds,
            "ops_per_sec": summary.ops_executed / seconds,
            "elapsed_cycles": summary.elapsed_cycles,
        }
        if best is None or sample["ops_per_sec"] > best["ops_per_sec"]:
            best = sample
    return best


def run_workloads(workloads: dict, repeats: int = 3) -> dict:
    return {
        name: measure(build, repeats=repeats)
        for name, build in workloads.items()
    }


def profile_workloads(workloads: dict) -> dict:
    """Critical-path profiles for every workload (simulated time only).

    Profiles derive from the merged trace, so unlike the ops/sec numbers
    they are bit-stable across machines: the checked-in baseline diffs
    exactly unless the simulator's timing semantics change.
    """
    from repro.obs import Observability

    profiles = {}
    for name, build in workloads.items():
        program = build()
        obs = Observability(capture_payloads=False, metrics=False)
        SequentialExecutor(obs=obs).execute(program)
        profiles[name] = obs.profile_report.to_dict()
    return profiles


def render_profiles(profiles: dict) -> str:
    table = TextTable(
        ["workload", "finish_time", "compute", "blocked_deq", "blocked_enq",
         "overhead"],
        title="Critical-path attribution (simulated cycles)",
    )
    for name, profile in sorted(profiles.items()):
        path = profile["critical_path"]["by_category"]
        table.add_row(
            name,
            profile["finish_time"],
            path.get("compute", 0),
            path.get("blocked_on_dequeue", 0),
            path.get("blocked_on_enqueue", 0),
            path.get("overhead", 0),
        )
    return table.render()


def write_profile(path: str, profiles: dict) -> None:
    """Write the profile artifact: all workload sections, plus a top-level
    ``profile`` key (the spmspm section) so ``python -m repro.obs diff``
    can consume the file directly."""
    payload = {
        "schema": 1,
        "env": env_info(),
        "profile": profiles["spmspm"],
        "workloads": profiles,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote profile to {path}")


def env_info() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if dirty:
            rev += "+dirty"
    except Exception:  # noqa: BLE001 - not a git checkout / git missing
        rev = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_rev": rev,
        "fused_ops_available": FusedOps is not None,
    }


def render_table(current: dict, baseline: dict | None) -> str:
    table = TextTable(
        ["workload", "ops", "ops_per_sec", "baseline_ops_per_sec", "speedup"],
        title="Core-loop microbenchmark (sequential executor)",
    )
    for name, row in sorted(current.items()):
        base = (baseline or {}).get(name)
        base_rate = base["ops_per_sec"] if base else None
        speedup = row["ops_per_sec"] / base_rate if base_rate else None
        table.add_row(
            name,
            row["ops"],
            round(row["ops_per_sec"]),
            round(base_rate) if base_rate else "-",
            f"{speedup:.2f}x" if speedup else "-",
        )
    return table.render()


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------


def load_committed() -> dict | None:
    path = RESULTS_DIR / "BENCH_core.json"
    if path.exists():
        return json.loads(path.read_text())
    return None


def smoke(repeats: int = 2, tolerance: float = 3.0,
          profile_out: str | None = None) -> int:
    """CI gate: current ops/sec must be within ``tolerance`` (3x) of the
    committed numbers — generous enough to ignore machine variation,
    tight enough to catch an order-of-magnitude core-loop regression."""
    committed = load_committed()
    if committed is None:
        print("no committed BENCH_core.json; nothing to compare against")
        return 1
    current = run_workloads(_SMOKE, repeats=repeats)
    reference = committed["workloads"]
    print(render_table(current, reference))
    failures = []
    for name, row in current.items():
        ref = reference.get(name)
        if ref is None:
            continue
        floor = ref["ops_per_sec"] / tolerance
        status = "ok" if row["ops_per_sec"] >= floor else "REGRESSION"
        print(
            f"{name}: {row['ops_per_sec']:.0f} ops/s vs committed "
            f"{ref['ops_per_sec']:.0f} (floor {floor:.0f}) -> {status}"
        )
        if row["ops_per_sec"] < floor:
            failures.append(name)
    profiles = profile_workloads(_SMOKE)
    print(render_profiles(profiles))
    if profile_out:
        write_profile(profile_out, profiles)
    if failures:
        print(f"core-loop regression (> {tolerance}x) on: {', '.join(failures)}")
        return 1
    return 0


def full_run(repeats: int, baseline_file: str | None) -> dict:
    current = run_workloads(_FULL, repeats=repeats)
    if baseline_file:
        baseline_payload = json.loads(Path(baseline_file).read_text())
        baseline = baseline_payload["workloads"]
        baseline_env = baseline_payload.get("env")
    else:
        committed = load_committed()
        if committed is not None and "baseline" in committed:
            baseline = committed["baseline"]["workloads"]
            baseline_env = committed["baseline"].get("env")
        else:
            baseline = current
            baseline_env = env_info()
    payload = {
        "schema": 1,
        "env": env_info(),
        "workloads": current,
        "baseline": {"workloads": baseline, "env": baseline_env},
        "speedup_vs_baseline": {
            name: current[name]["ops_per_sec"] / baseline[name]["ops_per_sec"]
            for name in current
            if name in baseline
        },
    }
    print(render_table(current, baseline))
    print(render_profiles(profile_workloads(_FULL)))
    return payload


# Collected by ``pytest benchmarks/`` (not tier-1): a fast sanity pass
# that the committed trajectory point is honest on this tree.
def test_core_ops_tracks_committed_baseline():
    committed = load_committed()
    current = run_workloads(_SMOKE, repeats=1)
    for name, row in current.items():
        assert row["ops"] > 0 and row["ops_per_sec"] > 0
    if committed is not None:
        for name, ref in committed["workloads"].items():
            # Same 3x tolerance as the CI smoke gate.
            assert current[name]["ops_per_sec"] >= ref["ops_per_sec"] / 3.0, (
                f"{name}: core loop regressed by more than 3x vs committed"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configs, compare against committed results (CI gate)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N repetitions"
    )
    parser.add_argument(
        "--save-baseline", metavar="PATH", default=None,
        help="run and save raw numbers to PATH (no BENCH_core.json write)",
    )
    parser.add_argument(
        "--baseline-file", metavar="PATH", default=None,
        help="embed the numbers saved at PATH as the baseline",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="write critical-path profiles (repro.obs diff compatible)",
    )
    args = parser.parse_args()

    if args.smoke:
        sys.exit(
            smoke(repeats=max(1, args.repeats - 1),
                  profile_out=args.profile_out)
        )

    if args.save_baseline:
        current = run_workloads(_FULL, repeats=args.repeats)
        payload = {"workloads": current, "env": env_info()}
        Path(args.save_baseline).write_text(json.dumps(payload, indent=2) + "\n")
        print(render_table(current, None))
        print(f"baseline saved to {args.save_baseline}")
        return

    payload = full_run(args.repeats, args.baseline_file)
    path = report_json("BENCH_core", payload)
    print(f"wrote {path}")
    if args.profile_out:
        write_profile(args.profile_out, profile_workloads(_FULL))


if __name__ == "__main__":
    main()
