"""Merged-order determinism of the executor-agnostic trace pipeline.

The pillar claim of :mod:`repro.obs`: because channel semantics are pure
functions of simulated state, every context records the same events at
the same simulated times under any executor, so the per-context buffers
merge into an identical total order for sequential and threaded runs.
"""

import pickle

import pytest

from repro import Observability, ProgramBuilder
from repro.bench import TreeConfig, fib, run_dam_forest
from repro.contexts import Collector, RampSource, UnaryFunction
from repro.core.executor import partitioned
from repro.core.executor.base import RunSummary
from repro.core.executor.partitioned import _shippable_rows
from repro.obs import ContextTraceBuffer, TraceEvent

EXECUTORS = ["sequential", "threaded", "process"]


def event_key(event):
    return (event.time, event.context, event.seq, event.kind, event.channel,
            event.payload)


def merged_keys(obs):
    """The merged order of the contexts' events (a process run may add
    ``<worker-N>`` steal markers, whose placement is a scheduling artifact)."""
    return [
        event_key(event)
        for event in obs.trace.events
        if not event.context.startswith("<")
    ]


def run_fib_pipeline(executor):
    """A three-stage pipeline whose middle stage does fib work."""
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(4, name="indices")
    s2, r2 = builder.bounded(4, name="fibs")
    builder.add(RampSource(s1, 8, name="src"))
    builder.add(UnaryFunction(r1, s2, fib, ii=2, name="fib_unit"))
    sink = builder.add(Collector(r2, name="sink"))
    obs = Observability(capture_payloads=True)
    summary = builder.build().run(executor=executor, obs=obs)
    return obs, summary, list(sink.values)


class TestFibPipelineMerge:
    @pytest.mark.parametrize("executor", EXECUTORS[1:])
    def test_merged_order_matches_sequential(self, executor):
        obs_seq, sum_seq, out_seq = run_fib_pipeline("sequential")
        obs_par, sum_par, out_par = run_fib_pipeline(executor)
        assert out_seq == out_par == [fib(n) for n in range(8)]
        assert sum_seq.elapsed_cycles == sum_par.elapsed_cycles
        assert merged_keys(obs_seq) == merged_keys(obs_par)

    def test_sequential_runs_are_reproducible(self):
        first = merged_keys(run_fib_pipeline("sequential")[0])
        second = merged_keys(run_fib_pipeline("sequential")[0])
        assert first == second

    def test_merged_order_is_sorted_by_time(self):
        obs, _, _ = run_fib_pipeline("sequential")
        times = [event.time for event in obs.trace.events]
        assert times == sorted(times)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_per_context_seq_is_dense(self, executor):
        obs, _, _ = run_fib_pipeline(executor)
        for name, buf in obs.trace.buffers().items():
            assert [event.seq for event in buf.events] == list(
                range(len(buf))
            ), name
        assert len(obs.trace) == len(obs.trace.events) == sum(
            len(buf) for buf in obs.trace.buffers().values()
        )


class TestReductionTreeMerge:
    CONFIG = TreeConfig(trees=2, depth=2, reductions=4, fib_index=3)

    def test_threaded_merged_order_matches_sequential(self):
        obs_seq = Observability(capture_payloads=True)
        res_seq = run_dam_forest(self.CONFIG, executor="sequential", obs=obs_seq)
        obs_thr = Observability(capture_payloads=True)
        res_thr = run_dam_forest(self.CONFIG, executor="threaded", obs=obs_thr)
        assert res_seq["root_sums"] == res_thr["root_sums"]
        assert merged_keys(obs_seq) == merged_keys(obs_thr)

    def test_every_context_contributes_events(self):
        obs = Observability()
        run_dam_forest(self.CONFIG, executor="threaded", obs=obs)
        # 2 trees x (4 leaves + 3 nodes + 1 root) contexts, all traced.
        assert len(obs.trace.buffers()) == 16
        assert all(len(buf) > 0 for buf in obs.trace.buffers().values())

    def test_scheduling_policy_does_not_change_merged_order(self):
        baseline = None
        for policy in ["fifo", "fair"]:
            obs = Observability(capture_payloads=True)
            run_dam_forest(
                self.CONFIG, executor="sequential", policy=policy, obs=obs
            )
            keys = merged_keys(obs)
            if baseline is None:
                baseline = keys
            else:
                assert keys == baseline


class TestCompletionTimes:
    def test_completion_times_match_across_executors(self):
        """The calibration-facing query is executor-independent."""
        obs_seq, _, _ = run_fib_pipeline("sequential")
        obs_thr, _, _ = run_fib_pipeline("threaded")
        assert obs_seq.trace.completion_times("fibs") == (
            obs_thr.trace.completion_times("fibs")
        )


class TestRowBuffers:
    """Columns are the stored form; rows and ``TraceEvent`` are read-side
    products."""

    def test_traced_run_builds_no_events_until_read(self, monkeypatch):
        built = 0
        real_init = TraceEvent.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(TraceEvent, "__init__", counting_init)
        obs, summary, _ = run_fib_pipeline("sequential")
        assert summary.profile, "the run path profiled the trace"
        obs.chrome_trace()
        obs.csv()
        assert built == 0
        events = obs.trace.events
        assert built == len(events) == len(obs.trace) > 0

    def test_worker_payload_ships_rows(self, monkeypatch):
        """What a worker pickles to the parent is the buffer's columns.
        A buffer without payloads ships as is, unprobed; a payload that
        refuses to pickle blanks the payload column and nothing else."""
        probed = []
        real_dumps = pickle.dumps

        def spying_dumps(obj, *args, **kwargs):
            probed.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(partitioned.pickle, "dumps", spying_dumps)
        plain = ContextTraceBuffer("ctx")
        plain.append("advance", None, 3, object())
        columns = (plain.kinds, plain.channels, plain.times)
        assert _shippable_rows(plain) is plain
        assert (plain.kinds, plain.channels, plain.times) == columns
        assert plain.payloads is None and probed == []

        buf = ContextTraceBuffer("ctx", capture_payloads=True)
        buf.append("enqueue", "c", 1, 41)
        buf.append("enqueue", "c", 2, lambda: None)
        kinds, channels, times = buf.kinds, buf.channels, buf.times
        shipped = _shippable_rows(buf)
        assert len(probed) == 1  # the payload column, once
        assert shipped.kinds is kinds
        assert shipped.channels is channels
        assert shipped.times is times
        assert shipped.payloads == [None, None]
        received = pickle.loads(real_dumps(shipped))
        assert received.rows == [
            ("enqueue", "c", 1, None), ("enqueue", "c", 2, None)
        ]

    def test_process_workers_ship_rows(self, monkeypatch):
        shipped = []
        real_merge = RunSummary.merge.__func__

        def spying_merge(cls, program, payloads, trace=None):
            shipped.extend(payloads)
            return real_merge(cls, program, payloads, trace=trace)

        monkeypatch.setattr(RunSummary, "merge", classmethod(spying_merge))
        obs, _, _ = run_fib_pipeline("process")
        buffers = [buf for p in shipped for buf in p["trace"].values()]
        # Steal markers are the parent's own rows, from the shipped
        # migrations; everything else crossed the pipe, as columns.
        contexts = {
            name: buf
            for name, buf in obs.trace.buffers().items()
            if not name.startswith("<worker-")
        }
        assert sum(map(len, buffers)) == sum(map(len, contexts.values())) > 0
        assert all(type(buf) is ContextTraceBuffer for buf in buffers)
        assert all(
            type(column) is list
            for buf in buffers
            for column in (buf.kinds, buf.channels, buf.times, buf.payloads)
        )

    def test_merge_folds_shipped_rows_in_slot_order(self):
        """Two contexts named ``ctx`` on two workers: the later slot's
        rows follow the earlier slot's in one buffer and continue its seq,
        whichever payload arrives first."""
        obs = Observability()
        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2, name="c")
        builder.add(RampSource(snd, 1, name="ctx"))
        builder.add(Collector(rcv, name="ctx"))
        later, earlier = ContextTraceBuffer("ctx"), ContextTraceBuffer("ctx")
        later.append("advance", None, 2)
        later.append("finish", None, 2)
        earlier.append("advance", None, 1)
        payloads = [{"trace": {1: later}}, {"trace": {0: earlier}}]
        RunSummary.merge(builder.build(), payloads, trace=obs.trace)
        events = obs.trace.buffers()["ctx"].events
        assert [(e.seq, e.kind, e.time) for e in events] == [
            (0, "advance", 1), (1, "advance", 2), (2, "finish", 2)
        ]
        assert all(e.context == "ctx" for e in events)
