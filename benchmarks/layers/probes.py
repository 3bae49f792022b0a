"""Per-layer probes: short measurements of single layers.

Each probe times calls to one layer's public functions from outside and
returns metrics named ``<layer>.<what>``.  Probes do not depend on the
workload: a traced invocation of any workload runs all of them, under a
``probe.<layer>`` span each.  They have no regression bound — they say
*where* an end-to-end change came from (``catalog.LAYER_MOVES`` says
which end-to-end metric each should move).

Timings are medians of ``REPEATS`` short runs; counts are exact.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import shutil
import statistics

import workloads
from repro.core import RunConfig, RunSummary, make_channel, plan_clusters, plan_partition
from repro.core.checkpoint import latest_checkpoint, list_checkpoints
from repro.core.executor.shm import PipeLane, SharedArena, SharedClockArray, ShmRing
from repro.core.time import TimeCell
from repro.obs import Observability
from repro.obs.profile import channel_meta_for, profile_trace
from repro.sam import CsfTensor
from repro.sam.graphs import build_parallel_mha
from repro.sam.spec import ProgramSpec
from repro.serve import RunResult, ServeClient
from spans import clock

#: Inputs of the probes are fixed: probes compare commits, not seeds.
PROBE_SEED = 12345


def timed(fn):
    """``(seconds, result)`` of one call."""
    start = clock()
    result = fn()
    return clock() - start, result


def median_s(fn, repeats: int) -> float:
    return statistics.median(timed(fn)[0] for _ in range(repeats))


def run_wall(build, executor: str, config=None, obs_factory=None):
    """Build fresh, time ``Program.run`` from outside; ``(seconds, summary)``."""
    program = workloads.program_of(build())
    obs = obs_factory() if obs_factory else None
    seconds, summary = timed(lambda: program.run(executor, config=config, obs=obs))
    return seconds, summary


def median_run(build, executor, repeats, config=None, obs_factory=None):
    """Median wall of ``repeats`` fresh runs and the last summary."""
    walls = []
    for _ in range(repeats):
        seconds, summary = run_wall(build, executor, config, obs_factory)
        walls.append(seconds)
    return statistics.median(walls), summary


# ----------------------------------------------------------------------
# core.channel
# ----------------------------------------------------------------------


def probe_channel(scale: dict) -> dict:
    pairs = scale["channel_pairs"]

    def pair_ns(capacity, tag):
        sender, receiver = make_channel(capacity=capacity, name=f"probe_{tag}")
        channel = sender.channel
        send_clock, recv_clock = TimeCell(0), TimeCell(0)
        reserve, enqueue, dequeue = (
            channel.sender_try_reserve,
            channel.do_enqueue,
            channel.do_dequeue,
        )

        def loop():
            for item in range(pairs):
                reserve(send_clock)
                enqueue(send_clock, item)
                dequeue(recv_clock)

        return median_s(loop, scale["repeats"]) / pairs * 1e9

    return {
        "channel.bounded_pair_ns": pair_ns(8, "bounded"),
        "channel.unbounded_pair_ns": pair_ns(None, "unbounded"),
        "channel.cap1_pair_ns": pair_ns(1, "cap1"),
    }


# ----------------------------------------------------------------------
# core.executor.*
# ----------------------------------------------------------------------


def probe_sequential(scale: dict) -> dict:
    repeats = scale["repeats"]
    pipeline = functools.partial(workloads.build_pipeline, 8, scale["pipeline_tokens"])
    ring = functools.partial(
        workloads.build_ring, 8, scale["ring_laps"], *workloads.ring_inputs(PROBE_SEED, 8)
    )
    idle = functools.partial(workloads.build_idle_contexts, 300)

    fast_s, fast = median_run(pipeline, "sequential", repeats)
    generic_s, generic = median_run(
        pipeline, "sequential", repeats, RunConfig(fast_path=False)
    )
    park_s, park = median_run(ring, "sequential", repeats, RunConfig(superblocks="off"))
    block_s, _ = median_run(ring, "sequential", repeats, RunConfig(superblocks="on"))
    fixed_s, _ = median_run(idle, "sequential", repeats)
    return {
        "sequential.fast_ns_per_op": fast_s / fast.ops_executed * 1e9,
        "sequential.generic_ns_per_op": generic_s / generic.ops_executed * 1e9,
        "sequential.park_ns_per_op": park_s / park.ops_executed * 1e9,
        # Throughput with superblocks on over off, on the ring (their best case).
        "sequential.superblock_ratio": park_s / block_s,
        "sequential.fixed_ms": fixed_s * 1e3,
        "sequential.context_switches": park.context_switches,
        "sequential.wakeups": park.wakeups,
    }


def probe_threaded(scale: dict) -> dict:
    repeats = scale["repeats"]
    wall_s, summary = median_run(
        functools.partial(workloads.build_pipeline, 8, scale["threaded_tokens"]),
        "threaded",
        repeats,
    )
    fixed_s, _ = median_run(
        functools.partial(workloads.build_idle_contexts, 300), "threaded", repeats
    )
    return {
        "threaded.ns_per_op": wall_s / summary.ops_executed * 1e9,
        "threaded.fixed_ms": fixed_s * 1e3,
    }


def probe_process(scale: dict) -> dict:
    repeats = scale["repeats"]
    two = RunConfig(workers=2)
    fixed_s, _ = median_run(
        functools.partial(workloads.build_pipeline, 1, 1), "process", repeats, two
    )
    wall_s, summary = median_run(
        functools.partial(workloads.build_pipeline, 8, scale["pipeline_tokens"]),
        "process",
        repeats,
        two,
    )

    mask, q, k, v = workloads.mha_inputs(PROBE_SEED, 8, 10, 4)
    program = build_parallel_mha(mask, q, k, v, parallelism=4).program
    plan_s, plan = timed(lambda: plan_partition(program, 2))
    clusters = plan_clusters(program, plan.assignment)

    records = scale["lane_records"]
    capacity = 1 << 16
    arena = SharedArena(ShmRing.size_for(capacity) + SharedClockArray.size_for(8))
    try:
        ring = arena.adopt(ShmRing(arena.view(0, ShmRing.size_for(capacity)), capacity))
        clocks = arena.adopt(
            SharedClockArray(
                arena.view(ShmRing.size_for(capacity), SharedClockArray.size_for(8)), 8
            )
        )
        lane = PipeLane(multiprocessing.get_context("fork"))

        def roundtrips(transport):
            def loop():
                for stamp in range(records):
                    transport.try_push(("d", stamp, 1.5))
                    transport.try_pop()

            return loop

        ring_s = median_s(roundtrips(ring), repeats)
        pipe_s = median_s(roundtrips(lane), repeats)

        def clock_rw():
            for tick in range(records):
                clocks.write(3, float(tick))
                clocks.read(3)

        clock_s = median_s(clock_rw, repeats)
    finally:
        arena.close()
        arena.unlink()
    return {
        "process.fixed_ms": fixed_s * 1e3,
        "process.ns_per_op": wall_s / summary.ops_executed * 1e9,
        "process.steals": summary.steals,
        "partition.plan_ms": plan_s * 1e3,
        "partition.clusters": len(clusters),
        "shm.ring_roundtrip_ns": ring_s / records * 1e9,
        "shm.pipe_roundtrip_ns": pipe_s / records * 1e9,
        "shm.clock_rw_ns": clock_s / records * 1e9,
    }


# ----------------------------------------------------------------------
# core.program / sam
# ----------------------------------------------------------------------


def medium_spec(n: int) -> ProgramSpec:
    b, ct = workloads.spmspm_inputs(PROBE_SEED, n, 0.3)
    return ProgramSpec.from_graph_inputs(
        "spmspm",
        {"b": CsfTensor.from_dense(b, "cc"), "c_transposed": CsfTensor.from_dense(ct, "cc")},
        params={"depth": 16},
    )


def probe_program(scale: dict) -> dict:
    repeats = scale["repeats"]
    b, ct = workloads.spmspm_inputs(PROBE_SEED, scale["spmspm_n"], 0.2)
    mask, q, k, v = workloads.mha_inputs(PROBE_SEED, 8, 10, 4)
    build_spmspm_s = median_s(lambda: workloads.spmspm_kernel(b, ct, 16), repeats)
    build_mha_s = median_s(
        lambda: build_parallel_mha(mask, q, k, v, parallelism=4), repeats
    )
    kernel = workloads.spmspm_kernel(b, ct, 16)
    kernel.run()
    reset_s, _ = timed(kernel.program.reset)

    n = scale["spec_n"]
    encode_s = median_s(lambda: medium_spec(n).to_json(), repeats)
    wire = medium_spec(n).to_json()
    decode_s = median_s(lambda: ProgramSpec.from_json(wire).build(), repeats)
    spec = ProgramSpec.from_json(wire)
    return {
        "program.build_ms.spmspm": build_spmspm_s * 1e3,
        "program.build_ms.mha": build_mha_s * 1e3,
        "program.reset_ms": reset_s * 1e3,
        "sam.spec_encode_ms": encode_s * 1e3,
        "sam.spec_decode_build_ms": decode_s * 1e3,
        "sam.payload_key_us": median_s(spec.payload_key, repeats) * 1e6,
        "sam.shape_key_us": median_s(spec.shape_key, repeats) * 1e6,
    }


# ----------------------------------------------------------------------
# core.checkpoint
# ----------------------------------------------------------------------


def probe_checkpoint(scale: dict, scratch: str) -> dict:
    b, ct = workloads.spmspm_inputs(PROBE_SEED, scale["ckpt_n"], 0.2)
    build = functools.partial(workloads.spmspm_kernel, b, ct, 16)
    out = {}
    for executor, extra in (
        ("sequential", {}),
        ("threaded", {}),
        ("process", {"workers": 2}),
    ):
        directory = os.path.join(scratch, f"probe-{executor}")
        plain_s, _ = run_wall(build, executor, RunConfig(**extra))
        kernel = build()
        config = RunConfig(
            checkpoint_interval_s=scale["ckpt_interval_s"],
            checkpoint_path=directory,
            **extra,
        )
        ckpt_s, _ = timed(lambda: kernel.program.run(executor, config=config))
        files = list_checkpoints(directory)
        epochs = max(len(files), 1)
        # Delta wall over epochs written: what one capture costs this hosting.
        out[f"checkpoint.capture_ms.{executor}"] = (ckpt_s - plain_s) / epochs * 1e3
        if executor == "sequential":
            out["checkpoint.epochs"] = len(files)
            out["checkpoint.bytes_per_epoch"] = (
                sum(os.path.getsize(path) for path in files) / epochs
            )
            fresh = build()
            load_s, checkpoint = timed(lambda: latest_checkpoint(directory, fresh.program))
            restore_s, _ = timed(lambda: checkpoint.restore_into(fresh.program))
            out["checkpoint.load_ms"] = load_s * 1e3
            out["checkpoint.restore_ms"] = restore_s * 1e3
        shutil.rmtree(directory, ignore_errors=True)
    return out


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------


def probe_obs(scale: dict) -> dict:
    repeats = scale["repeats"]
    b, ct = workloads.spmspm_inputs(PROBE_SEED, scale["obs_n"], 0.2)
    build = functools.partial(workloads.spmspm_kernel, b, ct, 16)
    plain_s, _ = median_run(build, "sequential", repeats)
    trace_s, _ = median_run(
        build, "sequential", repeats,
        obs_factory=lambda: Observability(trace=True, metrics=False),
    )
    metrics_s, _ = median_run(
        build, "sequential", repeats,
        obs_factory=lambda: Observability(trace=False, metrics=True),
    )
    sampler_s, _ = median_run(
        build, "sequential", repeats,
        RunConfig(metrics_interval_s=0.01),
        obs_factory=lambda: Observability(trace=False, metrics=True),
    )

    kernel = build()
    obs = Observability(trace=True, metrics=True)
    kernel.run(obs=obs)
    events = len(obs.trace)
    meta = channel_meta_for(kernel.program.channels)
    profile_s = median_s(lambda: profile_trace(obs.trace, channel_meta=meta), repeats)
    chrome_s = median_s(obs.chrome_trace, repeats)
    return {
        "obs.trace_tax_ratio": trace_s / plain_s,
        "obs.metrics_tax_ratio": metrics_s / plain_s,
        "obs.sampler_tax_ratio": sampler_s / metrics_s,
        "obs.profile_us_per_kevent": profile_s / events * 1e9,
        "obs.chrome_export_us_per_kevent": chrome_s / events * 1e9,
        "obs.events": events,
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def probe_serve(scale: dict) -> dict:
    params = {"small_n": 8, "medium_n": scale["spec_n"], "tenants": 3}
    requests = [
        workloads.serve_request(PROBE_SEED, index, params)
        for index in range(scale["serve_requests"])
    ]
    medium = medium_spec(scale["spec_n"])
    envelope = {"spec": medium.to_dict(), "tenant": "probe", "return_result": True}
    encode_s = median_s(lambda: json.dumps(envelope), scale["repeats"])

    server, address = workloads.start_server()
    try:
        with ServeClient(address) as client:
            client.submit(requests[0].spec)  # first-request lazy imports
            overheads, accepted = [], []
            for req in requests:
                begin = clock()
                events = client.submit_stream(req.spec, tenant=req.tenant)
                next(events)
                accepted.append(clock() - begin)
                outcome = [e for e in events if e.get("event") == "summary"][0]
                latency = clock() - begin
                overheads.append(latency - outcome["summary"]["real_seconds"])

            outcome = [
                e for e in client.submit_stream(medium) if e.get("event") == "summary"
            ][0]

            def decode():
                RunResult(
                    summary=RunSummary.from_dict(outcome["summary"]),
                    request_id="probe",
                    result=outcome["result"],
                ).result_dense()

            decode_s = median_s(decode, scale["repeats"])
            pings = scale["healthz_pings"]
            client.healthy()
            healthz_s, _ = timed(lambda: [client.healthy() for _ in range(pings)])
            metrics = client.metrics()
    finally:
        code = workloads.stop_server(server)
    if code != 0:
        raise RuntimeError(f"probe server exited with code {code}")
    counters = metrics["metrics"]["counters"]
    total = sum(v for key, v in counters.items() if key.startswith("requests_total"))
    shed = sum(v for key, v in counters.items() if key.startswith("requests_shed"))
    runs = [
        h for key, h in metrics["metrics"]["histograms"].items()
        if key.startswith("run_seconds")
    ]
    cache = metrics["plan_cache"]
    return {
        "serve.overhead_ms_p50": statistics.median(overheads) * 1e3,
        "serve.time_to_accepted_ms_p50": statistics.median(accepted) * 1e3,
        "serve.healthz_rtt_us": healthz_s / pings * 1e6,
        "serve.run_s_mean": sum(h["total"] for h in runs) / sum(h["count"] for h in runs),
        "serve.plan_cache_hit_share": cache["hits"] / (cache["hits"] + cache["misses"]),
        "serve.shed_share": shed / total,
        "serve.client_encode_ms": encode_s * 1e3,
        "serve.client_decode_ms": decode_s * 1e3,
    }


# ----------------------------------------------------------------------
# All of them.
# ----------------------------------------------------------------------

FULL = {
    "repeats": 3,
    "channel_pairs": 20000,
    "pipeline_tokens": 3000,
    "ring_laps": 2500,
    "threaded_tokens": 1200,
    "lane_records": 4000,
    "spmspm_n": 26,
    "spec_n": 24,
    "ckpt_n": 36,
    "ckpt_interval_s": 0.02,
    "obs_n": 18,
    "serve_requests": 40,
    "healthz_pings": 200,
}

SMOKE = {
    "repeats": 1,
    "channel_pairs": 2000,
    "pipeline_tokens": 300,
    "ring_laps": 300,
    "threaded_tokens": 200,
    "lane_records": 500,
    "spmspm_n": 10,
    "spec_n": 10,
    "ckpt_n": 10,
    "ckpt_interval_s": 0.0,
    "obs_n": 8,
    "serve_requests": 8,
    "healthz_pings": 20,
}


def run_all(rec, scratch: str, smoke: bool) -> dict:
    scale = SMOKE if smoke else FULL
    probes = (
        ("core.channel", lambda: probe_channel(scale)),
        ("core.executor.sequential", lambda: probe_sequential(scale)),
        ("core.executor.threaded", lambda: probe_threaded(scale)),
        ("core.executor.partitioned", lambda: probe_process(scale)),
        ("core.program", lambda: probe_program(scale)),
        ("core.checkpoint", lambda: probe_checkpoint(scale, scratch)),
        ("obs", lambda: probe_obs(scale)),
        ("serve", lambda: probe_serve(scale)),
    )
    metrics: dict = {}
    for layer, probe in probes:
        with rec.span(f"probe.{layer}"):
            metrics.update(probe())
    return metrics
