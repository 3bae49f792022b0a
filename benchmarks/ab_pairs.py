"""A/B two checkouts on one run workload, one operation at a time.

    python3 benchmarks/ab_pairs.py <other-checkout> --workload W --pairs N [--aa]

The suite (``benchmarks/layers/run.py``) measures a checkout in fresh
subprocesses over a 12 s window; two such runs, minutes apart on a shared
host, differ by more than most changes do.  This harness is the method
PRs 12-14 each rewrote by hand to resolve a few percent:

* one persistent child process per checkout, each importing *its own*
  ``src/`` and its own ``benchmarks/layers/workloads.py`` / ``catalog.py``
  (so each side runs the workload as its own suite defines it);
* the same seeded inputs on both sides, a reference run on the generic
  interpreter and one discarded warm-up each, then ``N`` pairs of single
  operations, alternating which side goes first, so both sides sample the
  same minutes of host noise;
* ``RunCase.check`` and the suite's leak post-conditions (no child
  process, ``/dev/shm/psm_*`` segment or scratch file left) on every
  operation (a failed one ends the session);
* per side the fastest-quarter mean (the suite's statistic: interference
  only adds time), median and minimum of the ``Program.run`` seconds; per
  pair who won; and the ratio of the fastest-quarter means.

``A`` is the checkout this file is in, ``B`` the other one.  ``--aa`` first
runs ``A`` against a second child of ``A``: whatever ratio that reports is
the harness's own bias (the second-started process has read ~3 % slow on
the reference host) and belongs beside the A/B figure.  Sessions are
refused when the two sides report a different Python or CPU count.

Only the run workloads (``catalog.EXECUTORS``) are supported; ``serve_mixed``
is a server and a client, not one call.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(HERE, "layers"))

from run import fastest_quarter  # noqa: E402 - the suite's own statistic


# ----------------------------------------------------------------------
# The child: one checkout, one workload, one operation per request line.
# ----------------------------------------------------------------------


def child(checkout: str, workload: str, seed: int, size: str) -> int:
    sys.path[:0] = [
        os.path.join(checkout, "src"),
        os.path.join(checkout, "benchmarks", "layers"),
    ]
    import catalog
    import workloads
    from child import postconditions, shm_segments  # the suite's leak checks

    if workload in catalog.ONE_CPU:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = tempfile.mkdtemp(prefix="ab_pairs-")
    shm_before = shm_segments()
    try:
        case = workloads.RunCase(workload, catalog.WORKLOADS[workload][size], seed, scratch)
        case.prepare()

        def check(built, summary, expect) -> list[str]:
            """The workload's own check, then what the operation left behind
            (a forked worker, a ``/dev/shm/psm_*`` segment, a scratch file)."""
            failures = case.check(built, summary, expect)  # sweeps its own files
            left = postconditions(shm_before, scratch)
            return failures + [f"{what}: {found}" for what, found in left.items() if found]

        built = case.build()
        reference = case.run_reference(built)
        expect = {"cycles": reference.elapsed_cycles, "ops": reference.ops_executed}
        failures = check(built, reference, None)
        built = case.build()
        failures += check(built, case.run(built), expect)  # warm-up
        hello = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "expect": expect,
            "failures": failures,
        }
        print(json.dumps(hello), flush=True)
        for _ in sys.stdin:
            built = case.build()
            gc.collect()
            begin = time.perf_counter()
            summary = case.run(built)
            seconds = time.perf_counter() - begin
            reply = {"seconds": seconds, "failures": check(built, summary, expect)}
            print(json.dumps(reply), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


# ----------------------------------------------------------------------
# The parent: alternate, collect, summarise.
# ----------------------------------------------------------------------


class Side:
    """A persistent child of one checkout."""

    def __init__(self, label: str, checkout: str, args):
        self.label = label
        self.checkout = os.path.abspath(checkout)
        self.seconds: list[float] = []
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", self.checkout,
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", "smoke" if args.smoke else "full"],
            env=dict(os.environ, PYTHONHASHSEED="0"),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.hello = self._reply()

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(f"{self.label} ({self.checkout}): child exited early")
        reply = json.loads(line)
        if reply["failures"]:
            raise SystemExit(f"{self.label}: operation failed its check: {reply['failures']}")
        return reply

    def operate(self) -> float:
        self.process.stdin.write("go\n")
        self.process.stdin.flush()
        seconds = self._reply()["seconds"]
        self.seconds.append(seconds)
        return seconds

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=60)


def session(first: Side, second: Side, pairs: int) -> dict:
    """``pairs`` alternating pairs of single operations; ``second``'s
    times are read against ``first``'s."""
    for what in ("python", "nproc"):
        if first.hello[what] != second.hello[what]:
            raise SystemExit(
                f"refusing to compare: {what} differs "
                f"({first.hello[what]} vs {second.hello[what]})"
            )
    wins = losses = 0
    for pair in range(pairs):
        order = (first, second) if pair % 2 == 0 else (second, first)
        for side in order:
            side.operate()
        if second.seconds[-1] < first.seconds[-1]:
            wins += 1
        elif second.seconds[-1] > first.seconds[-1]:
            losses += 1
    report = {"pairs": pairs, "wins": wins, "losses": losses}
    for side in (first, second):
        report[side.label] = {
            "fastest_quarter_ms": 1e3 * fastest_quarter(side.seconds, "lower"),
            "median_ms": 1e3 * statistics.median(side.seconds),
            "min_ms": 1e3 * min(side.seconds),
        }
    report["time_ratio"] = (
        report[second.label]["fastest_quarter_ms"]
        / report[first.label]["fastest_quarter_ms"]
    )
    return report


def describe(report: dict, first: str, second: str) -> str:
    lines = []
    for label in (first, second):
        stats = report[label]
        lines.append(
            f"  {label:<3} fastest-quarter {stats['fastest_quarter_ms']:9.2f} ms   "
            f"median {stats['median_ms']:9.2f} ms   min {stats['min_ms']:9.2f} ms"
        )
    lines.append(
        f"  {second} ahead in {report['wins']} of {report['pairs']} pairs "
        f"(behind in {report['losses']}); time ratio {second}/{first} = "
        f"{report['time_ratio']:.3f} ({1 / report['time_ratio']:.2f}x)"
    )
    return "\n".join(lines)


def run_session(labels: tuple[str, str], checkouts: tuple[str, str], args) -> dict:
    sides: list[Side] = []
    try:
        for label, checkout in zip(labels, checkouts):
            sides.append(Side(label, checkout, args))
        report = session(sides[0], sides[1], args.pairs)
    finally:
        for side in sides:
            side.close()
    report["expect"] = {side.label: side.hello["expect"] for side in sides}
    print(f"{args.workload}: {labels[0]} = {checkouts[0]}, {labels[1]} = {checkouts[1]}")
    print(describe(report, *labels), flush=True)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", help="the checkout to compare against (B)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="the suite's smoke sizes")
    parser.add_argument("--aa", action="store_true",
                        help="first run this checkout against itself")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child, args.workload, args.seed, args.size)
    if args.other is None and not args.aa:
        parser.error("give the other checkout, or --aa")
    result = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs}
    if args.aa:
        result["aa"] = run_session(("A", "A2"), (ROOT, ROOT), args)
    if args.other is not None:
        result["ab"] = run_session(("A", "B"), (ROOT, args.other), args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
