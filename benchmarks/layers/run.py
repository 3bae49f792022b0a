"""The repo's benchmark: one command, seven workloads, a per-layer ledger.

Suite (every workload, each in fresh subprocesses, one after another)::

    python3 benchmarks/layers/run.py [--seed N] [--trace] [--smoke]

One workload, the form the driver calls (last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``)::

    python3 benchmarks/layers/run.py --workload W --seed N --seconds S --trace 0|1

Compare two suite results::

    python3 benchmarks/layers/run.py --compare A.json B.json

See ``README.md`` beside this file for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from catalog import DEFAULT_SEED, PINNED  # noqa: E402

#: Fresh subprocesses per untraced measurement: three set-ups to take the
#: fastest of, and process-level variance (layout, first fork) averaged out.
ROUNDS = 3
#: Timed operations per round at least, whatever the window (>= 9 per run).
MIN_OPS = 3
#: Requests per segment of ``serve_mixed``: five blocks of the schedule,
#: about half a second, the length of one operation elsewhere.
SEGMENT_REQUESTS = 40
#: Share of ``--seconds`` a traced run spends on the workload; the probes
#: take the rest, so traced and untraced invocations cost about the same.
TRACED_WORKLOAD_SHARE = 0.4
#: Largest accepted error of "self times sum to wall" per span track.
BALANCE_LIMIT = 0.01
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_child(*arguments: str) -> dict:
    """Run ``child.py`` to completion; its last stdout line is the result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"),
         "--spawned-at", repr(spawned_at), *arguments],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {arguments} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Metrics from rounds.
# ----------------------------------------------------------------------


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def segments(workload: str, result: dict) -> list[tuple[float, float, float]]:
    """``(simulated ops/s, latency p50 in s, operations/s)`` of each segment
    of one untraced round.

    A segment is the unit the end-to-end numbers are taken over: one
    operation on the run workloads, ``SEGMENT_REQUESTS`` consecutive
    requests on ``serve_mixed`` (whole blocks of the schedule, so every
    segment has the same class mix; a last partial segment is dropped).
    """
    samples = result["samples"]
    if workload != "serve_mixed":
        return [
            (s["ops"] / s["lat_s"], s["lat_s"], 1.0 / (s["build_s"] + s["lat_s"]))
            for s in samples
        ]
    last = max(len(samples) - SEGMENT_REQUESTS + 1, 1)
    out = []
    for first in range(0, last, SEGMENT_REQUESTS):
        chunk = samples[first:first + SEGMENT_REQUESTS]
        wall = chunk[-1]["begin_s"] + chunk[-1]["lat_s"] - chunk[0]["begin_s"]
        out.append(
            (
                sum(s["ops"] for s in chunk) / wall,
                statistics.median(s["lat_s"] for s in chunk),
                len(chunk) / wall,
            )
        )
    return out


def fastest_quarter(values, better: str) -> float:
    """Mean of the best quarter of ``values`` (at least one of them).

    The host is shared: neighbours slow the same code by 10-40 % for
    seconds to minutes at a time, and interference only ever adds time.
    The quiet quarter of a run therefore repeats between runs about twice
    as closely as its median does (see README, "Why the fastest quarter").
    """
    ordered = sorted(values, reverse=(better == "higher"))
    return statistics.fmean(ordered[: max(1, len(ordered) // 4)])


def end_to_end(workload: str, rounds: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of the pooled ``rounds``.

    An *operation* is one ``Program.run`` call on the run workloads and
    one ``ServeClient.submit`` call on ``serve_mixed``.  Every timing is
    the fastest quarter of its samples: of the rounds for ``setup_s``, of
    the pooled segments for the rest.
    """
    pooled = [segment for r in rounds for segment in segments(workload, r)]
    rates, latencies, per_s = zip(*pooled)
    return {
        "setup_s": fastest_quarter([r["setup_s"] for r in rounds], "lower"),
        "sim_ops_per_s": fastest_quarter(rates, "higher"),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "req_latency_p50_ms": fastest_quarter(latencies, "lower") * 1e3,
        "req_per_s": fastest_quarter(per_s, "higher"),
    }


def workload_layer(rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics that come from the traced workload itself."""
    last = rounds[-1]
    samples = [s for r in rounds for s in r["samples"]]
    on = [s["wall_s"] for s in samples if s["spans"]]
    off = [s["wall_s"] for s in samples if not s["spans"]]
    plain = [s["lat_s"] for s in samples if not s["spans"]]
    return {
        "sim.elapsed_cycles": last["sim"]["cycles"],
        "sim.ops": last["sim"]["ops"],
        "sim.context_switches": last["sim"]["context_switches"],
        "sim.wakeups": last["sim"]["wakeups"],
        # Not an end-to-end metric: only serve_mixed has the samples for a
        # tail percentile (the run workloads have ~5 operations here).
        "workload.req_latency_p95_ms": p95(plain) * 1e3,
        "trace.overhead_ratio": statistics.median(on) / statistics.median(off),
        "trace.self_time_error": max(r["balance_error"] for r in rounds),
    }


# ----------------------------------------------------------------------
# Measuring one workload.
# ----------------------------------------------------------------------


def run_probes(smoke: bool) -> dict:
    """The per-layer probes, in their own subprocess."""
    return run_child("--mode", "probes", "--smoke", str(int(smoke)),
                     "--spans-out", os.path.join(OUT, "spans-probes.json"))


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            probes: dict | None = None) -> dict:
    """Measure ``workload`` once; returns metrics, spread and the verdict.

    A traced measurement reports the probes' metrics too: those in
    ``probes`` when the caller already ran them, else it runs them.
    """
    size = "smoke" if smoke else "full"
    common = ["--workload", workload, "--seed", str(seed), "--smoke", str(int(smoke))]
    failures: list[str] = []
    attempted = failed = 0

    expect = None
    if workload != "serve_mixed":
        reference = run_child("--mode", "reference", *common)
        expect = reference["expect"]
        attempted += 1
        if reference["failures"]:
            failed += 1
            failures += reference["failures"]

    if smoke:
        count, window, min_ops = 1, 0.0, 2
    elif trace:
        count, window, min_ops = 1, seconds * TRACED_WORKLOAD_SHARE, 2
    else:
        count, window, min_ops = ROUNDS, seconds / ROUNDS, MIN_OPS
    rounds = []
    for _ in range(count):
        arguments = ["--mode", "round", *common, "--seconds", repr(window),
                     "--min-ops", str(min_ops), "--trace", str(int(trace))]
        if expect is not None:
            arguments += ["--expect", json.dumps(expect)]
        if trace:
            arguments += ["--spans-out", os.path.join(OUT, f"spans-{workload}.json")]
        rounds.append(run_child(*arguments))
    for result in rounds:
        attempted += result["attempted"]
        failed += result["failed"]
        failures += result["failures"]

    # Default seed: the simulated counts are pinned, so a change to the
    # simulated machine cannot pass as a change of speed.
    pinned = PINNED.get(workload, {}).get(size)
    if seed == DEFAULT_SEED and pinned is not None:
        attempted += 1
        sim = {key: rounds[-1]["sim"][key] for key in ("cycles", "ops")}
        if sim != pinned:
            failed += 1
            failures.append(f"simulated counts {sim} != pinned {pinned}")

    out = {"workload": workload}
    if trace:
        layer = workload_layer(rounds)
        attempted += 1
        if layer["trace.self_time_error"] >= BALANCE_LIMIT:
            failed += 1
            failures.append("span self times do not sum to the wall time within 1 %")
        if probes is None:
            probed = run_probes(smoke)
            attempted += probed["attempted"]
            failed += probed["failed"]
            failures += probed["failures"]
            probes = probed["probes"]
        out["metrics"] = {**layer, **probes}
    else:
        out["metrics"] = end_to_end(workload, rounds)
        # Spread between rounds, for --compare: quartiles of per-round values.
        per_round = [end_to_end(workload, [r]) for r in rounds]
        out["rounds"] = {
            name: [values[name] for values in per_round] for name in out["metrics"]
        }
        out["operations"] = sum(len(r["samples"]) for r in rounds)
    out.update(attempted=attempted, failed=failed, failures=failures[:20])
    return out


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------


def units_of(contract: dict) -> dict[str, str]:
    return {
        entry["name"]: entry["unit"]
        for entry in contract["end_to_end"] + contract["per_layer"]
    }


def print_metrics(result: dict, units: dict[str, str]) -> None:
    for name, value in result["metrics"].items():
        print(f"{result['workload']:<12} {name:<36} {value:>16.6g} {units[name]}")
    share = result["failed"] / result["attempted"]
    print(f"{result['workload']:<12} {'failed_share':<36} {share:>16.6g} fraction "
          f"({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"FAIL {result['workload']}: {failure}")


def contract_line(result: dict, units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def stamp(seed: int) -> dict:
    """Where and from what the numbers came."""

    def git(*arguments: str) -> str | None:
        try:
            return subprocess.run(
                ["git", *arguments], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None  # not a git checkout, or git missing

    digest = hashlib.sha256()
    sources = sorted(name for name in os.listdir(HERE) if name.endswith(".py"))
    for path in [os.path.join(HERE, name) for name in sources] + [
        os.path.join(ROOT, "BENCHMARK.json")
    ]:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "git_rev": git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "benchmark_hash": digest.hexdigest()[:16],
    }


def run_suite(args, contract: dict) -> int:
    units = units_of(contract)
    names = [entry["name"] for entry in contract["workloads"]]
    info = stamp(args.seed)
    print("stamp " + json.dumps(info))
    if info["dirty"]:
        print("WARNING: DIRTY TREE — these numbers are not a baseline for any commit")
    results: dict = {"stamp": info, "smoke": args.smoke, "workloads": {}, "traced": {}}
    for name in names:
        result = measure(name, args.seed, args.seconds, False, args.smoke)
        print_metrics(result, units)
        results["workloads"][name] = result
    if args.trace:
        # The probes do not depend on the workload: once for the suite.
        probed = results["probes"] = run_probes(args.smoke)
        for failure in probed["failures"]:
            print(f"FAIL probes: {failure}")
        for name in names:
            result = measure(name, args.seed, args.seconds, True, args.smoke,
                             probed["probes"])
            print_metrics(result, units)
            results["traced"][name] = result
    tag = f"seed{args.seed}" + ("-smoke" if args.smoke else "")
    path = args.out or os.path.join(OUT, f"result-{tag}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    every = [*results["workloads"].values(), *results["traced"].values()]
    if args.trace:
        every.append(probed)
    return 0 if all(r["failed"] == 0 for r in every) else 1


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmark needs the repo's src/repro beside it", file=sys.stderr)
        return 2
    contract = load_contract()
    os.makedirs(OUT, exist_ok=True)
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="measure one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="record spans and run the per-layer probes")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 2 operations per workload")
    parser.add_argument("--out", default=None, help="suite result file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare, contract)
    if args.workload is None:
        return run_suite(args, contract)
    units = units_of(contract)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_metrics(result, units)
    print(contract_line(result, units))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
