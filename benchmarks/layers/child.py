"""One fresh subprocess of the suite.

``run.py`` starts this file once per *round* of a workload (set-up, one
discarded warm-up, then timed operations until the round's share of
``--seconds`` is spent), once for the untimed reference run, and once for
the per-layer probes.  Nothing is timed from inside the program: every
clock read here sits around a call to a public function.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from catalog import ONE_CPU, WORKLOADS  # noqa: E402
from spans import SpanRecorder, balance_error, clock, self_times  # noqa: E402

#: Requests pre-generated per second of serve window: about twice what the
#: reference host completes, so the pool outlasts the window.
SERVE_RATE_CAP = 150
#: Every Nth served request is re-run in process and compared bit for bit.
SERVE_VERIFY_EVERY = 16


def monotonic() -> float:
    """CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp and this
    process's reads share a timeline (set-up starts at subprocess start)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def no_span(name: str, op: str | None = None):
    """Stands in for ``SpanRecorder.span`` on the spans-off legs."""
    return contextlib.nullcontext()


def shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def postconditions(shm_before: set[str], scratch: str) -> dict[str, list]:
    """The chaos suites' leak checks: what each found left behind.  Every
    check is one attempted operation; a non-empty one is a failed one."""
    return {
        "leaked child processes": multiprocessing.active_children(),
        "leaked shm segments": sorted(shm_segments() - shm_before),
        f"files left in {scratch}": sorted(os.listdir(scratch)),
    }


# ----------------------------------------------------------------------
# Run workloads.
# ----------------------------------------------------------------------


def reference_run(args, params) -> dict:
    """Simulated counts of the generic sequential interpreter on the same
    inputs — what every timed run of the workload must reproduce."""
    import workloads

    case = workloads.RunCase(args.workload, params, args.seed, "")
    case.prepare()
    built = case.build()
    summary = case.run_reference(built)
    return {
        "expect": {"cycles": summary.elapsed_cycles, "ops": summary.ops_executed},
        "failures": case.check(built, summary, None),
    }


def run_round(args, params, rec: SpanRecorder, scratch: str) -> dict:
    with rec.span("setup.import"):
        import workloads
    with rec.span("setup.inputs"):
        case = workloads.RunCase(args.workload, params, args.seed, scratch)
        case.prepare()
    with rec.span("setup.build"):
        built = case.build()
    with rec.span("setup.warmup"):
        summary = case.run(built)
    setup_s = monotonic() - args.spawned_at

    with rec.span("verify"):
        failures = case.check(built, summary, args.expect)
    attempted = 1
    failed = 1 if failures else 0
    gc.collect()

    samples = []
    deadline = clock() + args.seconds
    last_wall = 0.0
    while attempted <= args.min_ops or clock() + 0.5 * last_wall < deadline:
        # Traced rounds pair a spans-on leg against a spans-off leg.
        traced = bool(args.trace) and attempted % 2 == 0
        span = rec.span if traced else no_span
        attempted += 1
        begin = clock()
        try:
            with span("repeat", op=f"r{attempted}"):
                with span("sam.build"):
                    built = case.build()
                built_at = clock()
                with span("program.run"):
                    run_from = clock()
                    summary = case.run(built)
                    run_to = clock()
                with span("verify"):
                    bad = case.check(built, summary, args.expect)
        except Exception as exc:  # a run that raises is a failed operation
            failed += 1
            failures.append(f"run raised {exc!r}")
            continue
        last_wall = clock() - begin
        failed += 1 if bad else 0
        failures.extend(bad)
        samples.append(
            {
                "build_s": built_at - begin,
                "lat_s": run_to - run_from,
                "wall_s": last_wall,
                "ops": summary.ops_executed,
                "spans": traced,
            }
        )
    return {
        "setup_s": setup_s,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "sim": {
            "cycles": summary.elapsed_cycles,
            "ops": summary.ops_executed,
            "context_switches": summary.context_switches,
            "wakeups": summary.wakeups,
        },
    }


# ----------------------------------------------------------------------
# serve_mixed.
# ----------------------------------------------------------------------


def serve_round(args, params, rec: SpanRecorder) -> dict:
    with rec.span("setup.import"):
        import numpy as np
        import workloads
        from repro.core import RunSummary
        from repro.serve import RunResult, ServeClient
    with rec.span("setup.inputs"):
        pool = max(params["min_requests"], int(args.seconds * SERVE_RATE_CAP))
        schedule = [
            workloads.serve_request(args.seed, i, params) for i in range(pool)
        ]
        warm = [
            workloads.serve_request(args.seed, i, params, stream=5)
            for i in range(params["warmup"])
        ]
    with rec.span("setup.build"):
        server, address = workloads.start_server()
    done = []
    errors: list[str] = []
    try:
        client = ServeClient(address)
        with rec.span("setup.warmup"):
            for req in warm:
                client.submit(req.spec, tenant=req.tenant)
        setup_s = monotonic() - args.spawned_at
        gc.collect()

        def traced_submit(req):
            """``ServeClient.submit`` unrolled over the public event stream
            so the hand-offs between client and server get their own spans."""
            with rec.span("client.encode"):
                wire = req.spec.to_dict()
            events = client.submit_stream(
                wire, tenant=req.tenant, request_id=f"r{req.index}"
            )
            with rec.span("server.accepted"):
                outcome = next(events)
            with rec.span("server.summary"):
                for event in events:
                    if event.get("event") in ("summary", "error"):
                        outcome = event
            if outcome.get("event") != "summary":
                raise RuntimeError(f"request r{req.index} got {outcome!r}")
            with rec.span("client.decode"):
                result = RunResult(
                    summary=RunSummary.from_dict(outcome["summary"]),
                    request_id=str(outcome.get("request_id", "")),
                    plan=outcome.get("plan", "miss"),
                    result=outcome.get("result"),
                )
            return result

        # Closed loop: the next scheduled request goes out only after the
        # previous one completed.
        with rec.span("measure"):
            deadline = clock() + args.seconds
            for req in schedule:
                if req.index >= params["min_requests"] and clock() >= deadline:
                    break
                traced = bool(args.trace) and req.index % 2 == 1
                result = None
                begin = clock()
                try:
                    if traced:
                        with rec.span("request", op=f"r{req.index}"):
                            result = traced_submit(req)
                    else:
                        result = client.submit(
                            req.spec, tenant=req.tenant, request_id=f"r{req.index}"
                        )
                except Exception as exc:  # shed, errored, broken stream
                    errors.append(f"request r{req.index}: {exc!r}")
                done.append((req, result, begin, clock() - begin, traced))

        with rec.span("verify"):
            failed = 0
            samples = []
            for req, result, begin, latency, traced in done:
                if result is None:
                    failed += 1
                    continue
                bad = not np.allclose(result.result_dense(), req.expected)
                if not bad and req.index % SERVE_VERIFY_EVERY == 0:
                    built, local = req.spec.run()
                    bad = (
                        local.elapsed_cycles != result.summary.elapsed_cycles
                        or local.ops_executed != result.summary.ops_executed
                        or built.result_dense().tobytes()
                        != result.result_dense().tobytes()
                    )
                if bad:
                    failed += 1
                    errors.append(f"request r{req.index}: result differs from spec.run()")
                summary = result.summary
                samples.append(
                    {
                        "index": req.index,
                        "begin_s": begin,
                        "lat_s": latency,
                        "wall_s": latency,
                        "ops": summary.ops_executed,
                        "cycles": summary.elapsed_cycles,
                        "context_switches": summary.context_switches,
                        "wakeups": summary.wakeups,
                        "spans": traced,
                    }
                )
        client.close()
    finally:
        code = workloads.stop_server(server)
    if code != 0:
        failed += 1
        errors.append(f"server exited with code {code}")

    # Exact simulated counts over a fixed prefix of the schedule, so they
    # repeat however many requests the window completed.
    prefix = [s for s in samples if s["index"] < params["min_requests"]]
    sim = {
        key: sum(s[key] for s in prefix)
        for key in ("cycles", "ops", "context_switches", "wakeups")
    }
    return {
        "setup_s": setup_s,
        "samples": samples,
        "attempted": len(done) + 1,
        "failed": failed,
        "failures": errors,
        "sim": sim,
    }


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["round", "reference", "probes"], required=True)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=2)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--expect", type=json.loads, default=None)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    if args.spawned_at is None:
        args.spawned_at = monotonic()
    size = "smoke" if args.smoke else "full"
    if args.workload in ONE_CPU:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.mode == "reference":
        print(json.dumps(reference_run(args, WORKLOADS[args.workload][size])))
        return 0

    rec = SpanRecorder()
    shm_before = shm_segments()
    scratch = os.path.join(HERE, "out", "tmp", f"{args.workload or 'probes'}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        with rec.span("workload", op=args.workload or "probes"):
            if args.mode == "probes":
                import probes

                result = probes.run_all(rec, scratch, smoke=bool(args.smoke))
                result = {"probes": result, "attempted": 0, "failed": 0, "failures": []}
            elif args.workload == "serve_mixed":
                result = serve_round(args, WORKLOADS[args.workload][size], rec)
            else:
                result = run_round(args, WORKLOADS[args.workload][size], rec, scratch)
            with rec.span("postconditions"):
                checks = postconditions(shm_before, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    leaks = [f"{what}: {found}" for what, found in checks.items() if found]
    result["attempted"] += len(checks)
    result["failed"] += len(leaks)
    result["failures"] = (result["failures"] + leaks)[:20]
    rss_self = rss_mb(resource.RUSAGE_SELF)
    rss_children = rss_mb(resource.RUSAGE_CHILDREN)
    # The server is the program under serve_mixed; elsewhere the workload
    # process is, together with any workers it forked.
    result["rss_mb"] = (
        rss_children if args.workload == "serve_mixed" else max(rss_self, rss_children)
    )
    result["balance_error"] = balance_error(rec.spans)
    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload or "probes",
                    "self_seconds": self_times(rec.spans),
                    "spans": rec.spans,
                },
                handle,
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
