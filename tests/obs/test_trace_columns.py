"""Port histories are stored as columns, and a finished run frees itself.

A context's trace is its timed sequence of port events, kept as plain
``kinds`` / ``channels`` / ``times`` lists (DESIGN.md §9).  Recording an
op appends objects that already exist, so a traced run allocates nothing
per op that the cycle collector tracks; and an executor holds no bound
method of itself, so dropping a run's summary, obs bundle and program
frees everything it allocated by reference counting alone.
"""

import gc
import json
import multiprocessing
import weakref

import pytest

from repro.core import INFINITY, RunConfig, SequentialExecutor
from repro.core.executor.sequential import traced_fast_loop
from repro.obs import Observability, TraceCollector
from repro.obs.profile import profile_trace
from repro.sam import CsfTensor
from repro.sam.graphs import build_spmspm
from repro.sam.tensor import random_dense

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def spmspm_program(n=8):
    b = random_dense(n, n, density=0.3, seed=3)
    ct = random_dense(n, n, density=0.3, seed=4)
    return build_spmspm(
        CsfTensor.from_dense(b, "cc"), CsfTensor.from_dense(ct, "cc"), depth=4
    ).program


class TestRunLifetime:
    @pytest.mark.parametrize(
        "executor, config",
        [
            ("sequential", RunConfig()),
            ("sequential", RunConfig(fast_path=False)),
            ("threaded", RunConfig(superblocks="off")),
            ("threaded", RunConfig(superblocks="on")),
            pytest.param("process", RunConfig(workers=2), marks=needs_fork),
        ],
        ids=["sequential", "generic", "threaded-off", "threaded-on", "process"],
    )
    def test_dropping_a_traced_run_frees_it_by_refcount(self, executor, config):
        """No reference cycle keeps the collector or the program alive:
        both are gone before the cycle collector has run at all."""
        program = spmspm_program()
        obs = Observability()
        gc.collect()
        gc.disable()
        try:
            summary = program.run(executor, config=config, obs=obs)
            assert summary.profile
            refs = [weakref.ref(obs.trace), weakref.ref(program)]
            del summary, obs, program
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestRecordingAllocatesNothing:
    def test_traced_run_triggers_no_extra_collections(self):
        """An embedded run (no fold, metrics or profile) traced and
        untraced: recording ~5k ops may cost at most one more gen-0
        pass.  One GC-tracked tuple per op would cost about seven."""
        traced_fast_loop()  # compiled once per process, not per run

        def gen0_passes(obs):
            program = spmspm_program()
            executor = SequentialExecutor(obs=obs)
            executor._embedded = True
            passes = []

            def count(phase, info):
                if phase == "start" and info["generation"] == 0:
                    passes.append(info)

            gc.collect()
            gc.callbacks.append(count)
            try:
                summary = executor.execute(program)
            finally:
                gc.callbacks.remove(count)
            assert summary.ops_executed > 4000
            return len(passes)

        untraced = gen0_passes(None)
        traced = gen0_passes(Observability(metrics=False))
        assert traced <= untraced + 1


class TestTimesKeepTheirType:
    @needs_fork
    def test_int_times_survive_record_fold_ship_profile_and_export(self):
        obs = Observability(metrics=False)
        summary = spmspm_program(6).run(
            "process", config=RunConfig(obs=obs, workers=2)
        )
        times = [
            time for buf in obs.trace.buffers().values() for time in buf.times
        ]
        assert times and {type(time) for time in times} == {int}
        assert type(summary.profile["finish_time"]) is int
        for segment in summary.profile["critical_path"]["segments"]:
            assert type(segment["start"]) is type(segment["end"]) is int
        slices = [
            event
            for event in obs.chrome_trace()["traceEvents"]
            if event["ph"] == "X"
        ]
        assert slices
        assert all(type(e["ts"]) is type(e["dur"]) is int for e in slices)

    def test_pseudo_buffers_and_infinity_finishes_stay_out_of_the_profile(self):
        def trace(with_extras):
            collector = TraceCollector(capture_payloads=True)
            src, sink = collector.buffer("src"), collector.buffer("sink")
            src.append("enqueue", "c", 3, 7)
            src.append("finish", None, 3)
            sink.append("dequeue", "c", 4, 7)
            sink.append("finish", None, 9)
            if with_extras:
                src.append("finish", None, INFINITY)
                collector.buffer("<worker-1>").append(
                    "migrate", None, 0, {"from": 0, "to": 1}
                )
                collector.buffer("<supervisor>").append(
                    "crash", None, 0, {"error": "boom"}
                )
            return collector

        meta = {"c": {"capacity": 2, "latency": 1, "resp_latency": 1}}
        plain = profile_trace(trace(False), channel_meta=meta).to_dict()
        extra = profile_trace(trace(True), channel_meta=meta).to_dict()
        assert json.dumps(extra) == json.dumps(plain)
        assert set(extra["attribution"]["per_context"]) == {"src", "sink"}
