"""Checkpoint/restore at quiescent rounds (DESIGN.md §17).

The claims under test:

* a run with checkpointing enabled is **bit-identical** to the same run
  without it (captures are pure observers);
* resuming from a mid-run checkpoint finishes bit-identical to the
  uninterrupted run — onto the *same* executor, a *different* executor,
  and a different worker count (elastic repartitioning);
* programs that keep opaque generator state are refused up front with
  :class:`NotCheckpointable`;
* corrupt or truncated files are skipped by ``latest_checkpoint`` and
  rejected loudly by ``load``.

The crash-then-resume paths (worker SIGKILL at a checkpoint round, the
retry ladder's ``resumed_from``) live in ``test_faults.py``.
"""

import functools
import multiprocessing
import os

import pytest

from repro import (
    ChannelClosed,
    FunctionContext,
    IncrCycles,
    NotCheckpointable,
    ProgramBuilder,
    RunConfig,
)
from repro.core import checkpoint as ckpt
from repro.core.errors import CheckpointError

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="fork start method unavailable"
)


# ----------------------------------------------------------------------
# Kernels under test (values differ per seed; structure is what counts).
# ----------------------------------------------------------------------


def _spmspm(n=6):
    from repro.sam import CsfTensor
    from repro.sam.graphs import build_spmspm
    from repro.sam.tensor import random_dense

    b = random_dense(n, n, density=0.3, seed=23)
    ct = random_dense(n, n, density=0.3, seed=24)
    return build_spmspm(
        CsfTensor.from_dense(b, "cc"), CsfTensor.from_dense(ct, "cc"), depth=4
    )


def _mmadd():
    from repro.sam import CsfTensor
    from repro.sam.graphs import build_mmadd
    from repro.sam.primitives import TimingParams
    from repro.sam.tensor import random_dense

    a = random_dense(6, 6, density=0.5, seed=21)
    b = random_dense(6, 6, density=0.5, seed=22)
    return build_mmadd(
        CsfTensor.from_dense(a, "cc"),
        CsfTensor.from_dense(b, "cc"),
        depth=3,
        timing=TimingParams(ii=2, stop_bubble=1),
    )


KERNELS = {"spmspm": _spmspm, "mmadd": _mmadd}


def _fingerprint(kernel, summary):
    """Everything a resumed run could plausibly get wrong: the final
    cycle count, the numeric result, per-channel traffic totals, and
    every context's finish time."""
    chans = tuple(
        sorted(
            (ch.name, ch.stats.enqueues, ch.stats.dequeues)
            for ch in kernel.program.channels
        )
    )
    times = tuple(
        sorted((c.name, float(c.time.now())) for c in kernel.program.contexts)
    )
    return (
        summary.elapsed_cycles,
        kernel.result_dense().tobytes(),
        chans,
        times,
    )


def _epochs(ckdir):
    return sorted(
        int(name[5:-4])
        for name in os.listdir(ckdir)
        if name.startswith("ckpt-") and name.endswith(".dam")
    )


def _capture(build, ckdir, **config):
    """Run ``build()`` with every-round checkpointing into ``ckdir``;
    returns (fingerprint, sorted epoch list)."""
    kernel = build()
    executor = config.pop("executor", "sequential")
    summary = kernel.run(
        executor=executor,
        config=RunConfig(
            timeslice=7,
            checkpoint_interval_s=0.0,
            checkpoint_path=str(ckdir),
            **config,
        ),
    )
    return _fingerprint(kernel, summary), _epochs(ckdir)


def _resume(build, path, executor="sequential", **config):
    kernel = build()
    restored = ckpt.load(str(path), kernel.program)
    restored.restore_into(kernel.program)
    summary = kernel.run(
        executor=executor, config=RunConfig(timeslice=7, **config)
    )
    return _fingerprint(kernel, summary)


# ----------------------------------------------------------------------
# Bit-identity: checkpointing on, and resume-from-middle.
# ----------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_checkpointing_is_a_pure_observer(self, name, tmp_path):
        build = KERNELS[name]
        reference = build()
        expected = _fingerprint(
            reference, reference.run(config=RunConfig(timeslice=7))
        )
        got, epochs = _capture(build, tmp_path)
        assert got == expected
        assert epochs and epochs == list(range(1, len(epochs) + 1))
        # Only finished checkpoint files remain — no temps, no parts.
        assert all(
            n.startswith("ckpt-") and n.endswith(".dam")
            for n in os.listdir(tmp_path)
        )

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_resume_from_first_middle_last_epoch(self, name, tmp_path):
        build = KERNELS[name]
        expected, epochs = _capture(build, tmp_path)
        for epoch in {epochs[0], epochs[len(epochs) // 2], epochs[-1]}:
            path = tmp_path / ckpt.checkpoint_filename(epoch)
            assert _resume(build, path) == expected

    def test_resume_onto_threaded(self, tmp_path):
        expected, epochs = _capture(_spmspm, tmp_path)
        path = tmp_path / ckpt.checkpoint_filename(epochs[len(epochs) // 2])
        got = _resume(_spmspm, path, executor="threaded", workers=2)
        assert got == expected

    def test_resumed_run_does_not_overwrite_its_source(self, tmp_path):
        expected, epochs = _capture(_spmspm, tmp_path)
        middle = epochs[len(epochs) // 2]
        resume_dir = tmp_path / "resumed"
        kernel = _spmspm()
        restored = ckpt.load(
            str(tmp_path / ckpt.checkpoint_filename(middle)), kernel.program
        )
        restored.restore_into(kernel.program)
        summary = kernel.run(
            config=RunConfig(
                timeslice=7,
                checkpoint_interval_s=0.0,
                checkpoint_path=str(resume_dir),
            )
        )
        assert _fingerprint(kernel, summary) == expected
        # Epoch numbering continues past the restored epoch.
        assert _epochs(resume_dir)[0] == middle + 1


@needs_fork
class TestElasticResume:
    """Checkpoints are executor- and worker-count-portable."""

    def test_process_capture_resumes_everywhere(self, tmp_path):
        reference = _spmspm()
        expected = _fingerprint(
            reference,
            reference.run(
                executor="process", config=RunConfig(workers=2, timeslice=7)
            ),
        )
        got, epochs = _capture(
            _spmspm, tmp_path, executor="process", workers=2
        )
        assert got == expected
        path = tmp_path / ckpt.checkpoint_filename(epochs[len(epochs) // 2])
        # Same worker count, more workers (elastic), and no workers at all.
        assert _resume(_spmspm, path, "process", workers=2) == expected
        assert _resume(_spmspm, path, "process", workers=3) == expected
        assert _resume(_spmspm, path, "sequential") == expected

    def test_sequential_capture_resumes_onto_process(self, tmp_path):
        expected, epochs = _capture(_spmspm, tmp_path)
        path = tmp_path / ckpt.checkpoint_filename(epochs[len(epochs) // 2])
        got = _resume(_spmspm, path, "process", workers=2)
        assert got == expected

    def test_cut_with_a_backlog_resumes_everywhere(self, tmp_path, monkeypatch):
        """96-byte rings hold two or three records, so workers stop for
        a round with records that had not fit in a lane.  Nothing
        delivers them before the dump: the stitch puts them behind what
        the other side holds, and every epoch still resumes to the
        uninterrupted result on every executor."""
        from repro.core.executor.partitioned import ProcessExecutor

        build = functools.partial(_spmspm, 14)
        # The parent reads every worker's part to stitch an epoch:
        # count the unflushed records each one carried (the sender
        # side's outbox is its data, the receiver side's its responses).
        backlog = {}
        load_part = ckpt.load_part

        def counting(directory, epoch, worker):
            part = load_part(directory, epoch, worker)
            backlog[epoch] = backlog.get(epoch, 0) + sum(
                len(entry[side][outbox])
                for entry in part["channels"].values()
                for side, outbox in (("send", "data"), ("recv", "resps"))
                if side in entry
            )
            return part

        monkeypatch.setattr(ckpt, "load_part", counting)

        reference = build()
        expected = _fingerprint(reference, reference.run())
        kernel = build()
        summary = kernel.run(
            ProcessExecutor(
                workers=2,
                ring_capacity=96,
                timeslice=7,
                # Planned placement keeps both workers exchanging
                # records for the whole run.
                steal=False,
                checkpoint_interval_s=0.0,
                checkpoint_path=str(tmp_path),
            )
        )
        assert _fingerprint(kernel, summary) == expected
        epochs = _epochs(tmp_path)
        assert len(epochs) >= 8 and sorted(backlog) == epochs
        assert any(backlog.values()), "no cut held an undelivered record"
        # Every epoch on the sequential executor (an in-process channel
        # holds exactly the stitched state); the eight cuts with the
        # largest backlog also on the hosts that re-split or re-cut it.
        # A round costs the dumps plus a few wake-ups, so the 14x14
        # kernel already cuts ~30 epochs.
        legs = {epoch: [("sequential", {})] for epoch in epochs}
        for epoch in sorted(epochs, key=backlog.get)[-8:]:
            legs[epoch] += [
                ("threaded", {}),
                ("process", {"workers": 3}),
                ("process", {"workers": 3, "steal": False}),
            ]
        for epoch in epochs:
            path = tmp_path / ckpt.checkpoint_filename(epoch)
            for executor, config in legs[epoch]:
                assert _resume(build, path, executor, **config) == expected, (
                    f"epoch {epoch} (backlog {backlog[epoch]}) on {executor}"
                )


# ----------------------------------------------------------------------
# Capture *on* the threaded executor: a round is a barrier of the
# cluster drivers at their slice boundaries (DESIGN.md §17).
# ----------------------------------------------------------------------


def _parallel_mha():
    import numpy as np

    from repro.sam.graphs import build_parallel_mha

    rng = np.random.default_rng(5)
    heads, seq_len, d = 2, 6, 4
    mask = (rng.random((heads, seq_len, seq_len)) < 0.5).astype(float)
    for h in range(heads):
        np.fill_diagonal(mask[h], 1.0)
    q, k, v = (rng.standard_normal((heads, seq_len, d)) for _ in range(3))
    return build_parallel_mha(mask, q, k, v, parallelism=2)


class TestThreadedCapture:
    CONFIG = {"executor": "threaded"}

    def test_one_driver_cuts_where_the_sequential_executor_does(self, tmp_path):
        """One connected component is one driver, and one host's
        barrier is just its slice boundary: interval 0 writes an epoch
        per slice, the sequential executor's epoch list."""
        expected, epochs = _capture(_spmspm, tmp_path / "sequential")
        got, threaded = _capture(_spmspm, tmp_path / "threaded", **self.CONFIG)
        assert got == expected
        assert len(epochs) > 8 and threaded == epochs

    def test_two_drivers_agree_on_every_cut(self, tmp_path):
        """Parallel MHA p=2 is two connected components, so two drivers:
        any epoch — first, middle, last — resumes bit-identically on
        every executor."""
        reference = _parallel_mha()
        expected = _fingerprint(reference, reference.run())
        got, epochs = _capture(_parallel_mha, tmp_path, **self.CONFIG)
        assert got == expected
        assert len(epochs) >= 3 and epochs == list(range(1, len(epochs) + 1))
        legs = [("sequential", {}), ("threaded", {})]
        if fork_available:
            legs.append(("process", {"workers": 2}))
        for epoch in (epochs[0], epochs[len(epochs) // 2], epochs[-1]):
            path = tmp_path / ckpt.checkpoint_filename(epoch)
            kinds = {
                record["kind"] for record in ckpt.load(str(path)).contexts.values()
            }
            assert kinds <= {"fresh", "suspended", "done"}
            for executor, config in legs:
                assert _resume(_parallel_mha, path, executor, **config) == expected, (
                    f"epoch {epoch} of {len(epochs)} resumed on {executor}"
                )

    def test_round_completes_beside_idle_and_finished_drivers(self, tmp_path):
        """Three drivers: a long pipeline, a short one that exits early,
        and a pooled watcher that idles on the long pipeline's clock.
        Rounds that begin while one is gone and one is asleep in its
        idle loop still complete, and resume from them."""
        from repro import Context, WaitUntil
        from repro.contexts import Collector, RampSource

        class Watcher(Context):
            checkpoint_attrs = ("woke",)

            def __init__(self, target, threshold):
                super().__init__(name="watcher")
                self.target, self.threshold = target, threshold
                self.woke = False

            def run(self):
                if not self.woke:
                    yield WaitUntil(self.target, self.threshold)
                    self.woke = True
                yield IncrCycles(1)

        def build():
            builder = ProgramBuilder()
            s1, r1 = builder.bounded(2, name="long")
            s2, r2 = builder.bounded(2, name="short")
            builder.add(RampSource(s1, 300, ii=1, name="long_src"))
            long_sink = builder.add(Collector(r1, ii=2, name="long_sink"))
            builder.add(RampSource(s2, 2, ii=1, name="short_src"))
            builder.add(Collector(r2, name="short_sink"))
            builder.add(Watcher(long_sink, 400))
            return builder.build()

        def fingerprint(program, summary):
            return (
                summary.elapsed_cycles,
                tuple(
                    (ch.name, ch.stats.enqueues, ch.stats.dequeues)
                    for ch in program.channels
                ),
                # The watcher reads a foreign clock: when it wakes is a
                # schedule-dependent lower bound (DESIGN.md §15).
                tuple(
                    (ctx.name, ctx.finish_time, getattr(ctx, "values", None))
                    for ctx in program.contexts
                    if ctx.name != "watcher"
                ),
            )

        reference = build()
        expected = fingerprint(reference, reference.run())
        program = build()
        summary = program.run(
            "threaded",
            config=RunConfig(
                checkpoint_interval_s=0.0,
                checkpoint_path=str(tmp_path),
            ),
        )
        assert fingerprint(program, summary) == expected
        epochs = _epochs(tmp_path)
        assert len(epochs) >= 3
        states = set()
        for epoch in (epochs[len(epochs) // 2], epochs[-1]):
            path = str(tmp_path / ckpt.checkpoint_filename(epoch))
            records = ckpt.load(path).contexts
            states.add((records[2]["kind"], records[4]["kind"]))
            for executor in ("sequential", "threaded"):
                program = build()
                ckpt.load(path, program).restore_into(program)
                assert fingerprint(program, program.run(executor)) == expected
        # Some captured round saw the short pipeline's driver gone and
        # the watcher parked on its un-executed WaitUntil.
        assert ("done", "suspended") in states


class TestThreadedCaptureRaces:
    def test_six_drivers_race_their_rounds(self, tmp_path):
        """Six drivers with a 10 µs switch interval, rounds back to
        back, whoever arrives last capturing.  Every cut must hold all
        twelve contexts' records and resume to the uninterrupted
        result."""
        import sys

        from repro.contexts import Collector, RampSource

        def build():
            builder = ProgramBuilder()
            for lane in range(6):
                snd, rcv = builder.bounded(1, latency=1, name=f"lane{lane}")
                builder.add(RampSource(snd, 300 + lane, ii=1, name=f"src{lane}"))
                builder.add(Collector(rcv, ii=1, name=f"sink{lane}"))
            return builder.build()

        def fingerprint(program, summary):
            return (
                summary.elapsed_cycles,
                tuple(sorted(summary.context_times.items())),
                tuple(
                    (ch.stats.enqueues, ch.stats.dequeues)
                    for ch in program.channels
                ),
                tuple(
                    tuple(ctx.values)
                    for ctx in program.contexts
                    if hasattr(ctx, "values")
                ),
            )

        reference = build()
        expected = fingerprint(reference, reference.run())
        program = build()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            summary = program.run(
                "threaded",
                config=RunConfig(
                    checkpoint_interval_s=0.0,
                    checkpoint_path=str(tmp_path),
                    deadline_s=60.0,
                ),
            )
        finally:
            sys.setswitchinterval(interval)
        assert fingerprint(program, summary) == expected
        epochs = _epochs(tmp_path)
        assert epochs and epochs == list(range(1, len(epochs) + 1))
        for epoch in {epochs[0], epochs[len(epochs) // 2], epochs[-1]}:
            path = str(tmp_path / ckpt.checkpoint_filename(epoch))
            program = build()
            restored = ckpt.load(path, program)
            assert sorted(restored.contexts) == list(range(12))
            restored.restore_into(program)
            assert fingerprint(program, program.run()) == expected


    def test_failed_capture_aborts_the_run(self, tmp_path, monkeypatch):
        """The capture runs on whichever driver completes the barrier,
        with the others parked behind it.  When it raises, the run ends
        in a typed error and every driver is released."""
        import threading

        from repro import SimulationError
        from repro.core.executor.threaded import ThreadedExecutor

        save = ThreadedExecutor._save_checkpoint
        saved = []

        def failing(self, program, records):
            if len(saved) == 2:
                raise OSError("disk full")
            saved.append(len(records))
            save(self, program, records)

        monkeypatch.setattr(ThreadedExecutor, "_save_checkpoint", failing)
        kernel = _parallel_mha()
        with pytest.raises(SimulationError) as info:
            kernel.run(
                "threaded",
                config=RunConfig(
                    checkpoint_interval_s=0.0,
                    checkpoint_path=str(tmp_path),
                    # A driver stranded in the barrier would hang the
                    # run; the deadline turns that into a failure.
                    deadline_s=30.0,
                ),
            )
        assert info.value.context_name == "<checkpoint>"
        assert isinstance(info.value.original, OSError)
        assert _epochs(tmp_path) == [1, 2]
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("dam-")
        ]


# ----------------------------------------------------------------------
# Refusal, corruption, discovery hygiene.
# ----------------------------------------------------------------------


def _opaque_program():
    """A FunctionContext program that never opted into the
    resumable-state contract — its generator state is opaque."""
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(4, name="ch")

    def producer():
        for value in range(20):
            yield snd.enqueue(value)
            yield IncrCycles(1)

    def consumer():
        while True:
            try:
                yield rcv.dequeue()
            except ChannelClosed:
                return
            yield IncrCycles(1)

    builder.add(FunctionContext(producer, handles=[snd], name="prod"))
    builder.add(FunctionContext(consumer, handles=[rcv], name="cons"))
    return builder.build()


class TestRefusal:
    def test_opaque_contexts_are_refused_before_the_run(self, tmp_path):
        program = _opaque_program()
        with pytest.raises(NotCheckpointable) as info:
            program.run(
                config=RunConfig(
                    checkpoint_interval_s=0.0, checkpoint_path=str(tmp_path)
                )
            )
        assert {"prod", "cons"} <= set(info.value.context_names)
        assert not os.listdir(tmp_path)  # refused before any capture

    @needs_fork
    def test_process_executor_refuses_too(self, tmp_path):
        program = _opaque_program()
        with pytest.raises(NotCheckpointable):
            program.run(
                "process",
                config=RunConfig(
                    workers=2,
                    checkpoint_interval_s=0.0,
                    checkpoint_path=str(tmp_path),
                ),
            )


class TestCorruption:
    def test_load_rejects_garbage_and_truncation(self, tmp_path):
        garbage = tmp_path / ckpt.checkpoint_filename(1)
        garbage.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            ckpt.load(str(garbage))

        _, epochs = _capture(_spmspm, tmp_path / "real")
        path = tmp_path / "real" / ckpt.checkpoint_filename(epochs[0])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # truncate mid-payload
        with pytest.raises(CheckpointError):
            ckpt.load(str(path))

    def test_load_rejects_structural_mismatch(self, tmp_path):
        _, epochs = _capture(_spmspm, tmp_path)
        other = _mmadd()
        with pytest.raises(CheckpointError):
            ckpt.load(
                str(tmp_path / ckpt.checkpoint_filename(epochs[0])),
                other.program,
            )

    def test_latest_checkpoint_skips_damaged_files(self, tmp_path):
        kernel = _spmspm()
        _, epochs = _capture(_spmspm, tmp_path)
        assert len(epochs) >= 2
        # Damage the newest epoch: discovery must fall back, not raise.
        newest = tmp_path / ckpt.checkpoint_filename(epochs[-1])
        newest.write_bytes(b"crashed mid-write")
        found = ckpt.latest_checkpoint(str(tmp_path), kernel.program)
        assert found is not None
        assert found.epoch == epochs[-2]

    def test_latest_checkpoint_on_junk_dir_is_none(self, tmp_path):
        (tmp_path / ckpt.checkpoint_filename(3)).write_bytes(b"junk")
        assert ckpt.latest_checkpoint(str(tmp_path)) is None
        assert ckpt.latest_checkpoint(str(tmp_path / "missing")) is None


class TestTimer:
    def test_zero_interval_is_always_due(self):
        timer = ckpt.CheckpointTimer(0.0)
        assert timer.due() and timer.due()
        assert timer.mark() == 1
        assert timer.due()

    def test_epochs_continue_from_start(self):
        timer = ckpt.CheckpointTimer(0.0, start_epoch=7)
        assert timer.mark() == 8

    def test_long_interval_is_not_due_immediately(self):
        timer = ckpt.CheckpointTimer(3600.0)
        assert not timer.due()
