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


class _MergeTree:
    """A ``repro.contexts`` pipeline whose every firing peeks: four
    sorted sources, a tree of three :class:`~repro.contexts.Merge` units
    (each peeks both inputs before it dequeues one), and a collector.
    Names are explicit, so two builds fingerprint alike."""

    def __init__(self, n=40):
        from repro.contexts import Collector, IterableSource, Merge

        builder = ProgramBuilder()
        heads = []
        for lane in range(4):
            snd, rcv = builder.bounded(2, name=f"src{lane}")
            builder.add(IterableSource(
                snd, range(lane, 4 * n, 4), ii=1 + lane % 2, name=f"source{lane}"
            ))
            heads.append(rcv)
        for level in range(3):
            a, b = heads.pop(0), heads.pop(0)
            snd, rcv = builder.bounded(3, latency=6, name=f"merged{level}")
            builder.add(Merge(a, b, snd, name=f"merge{level}"))
            heads.append(rcv)
        self.sink = builder.add(Collector(heads[0], name="sink"))
        self.program = builder.build()

    def run(self, executor="sequential", config=None):
        return self.program.run(executor, config=config)

    def result_dense(self):
        import numpy as np

        return np.array(self.sink.values)


KERNELS = {"spmspm": _spmspm, "mmadd": _mmadd}


def _fingerprint(kernel, summary):
    """Everything a resumed run could plausibly get wrong: the final
    cycle count, the numeric result, per-channel traffic totals, and
    every context's finish time."""
    chans = tuple(
        sorted(
            (ch.name, ch.stats.enqueues, ch.stats.dequeues, ch.stats.peeks)
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

    @staticmethod
    def _capture_resumes_everywhere(build, tmp_path):
        reference = build()
        expected = _fingerprint(
            reference,
            reference.run(
                executor="process", config=RunConfig(workers=2, timeslice=7)
            ),
        )
        got, epochs = _capture(build, tmp_path, executor="process", workers=2)
        assert got == expected
        path = tmp_path / ckpt.checkpoint_filename(epochs[len(epochs) // 2])
        # Same worker count, more workers (elastic), and no workers at all.
        assert _resume(build, path, "process", workers=2) == expected
        assert _resume(build, path, "process", workers=3) == expected
        assert _resume(build, path, "sequential") == expected
        return expected

    def test_process_capture_resumes_everywhere(self, tmp_path):
        self._capture_resumes_everywhere(_spmspm, tmp_path)

    def test_peeks_resume_everywhere(self, tmp_path):
        """``peeks`` go through the stitch like the other counters."""
        import numpy as np

        expected = self._capture_resumes_everywhere(_MergeTree, tmp_path)
        assert expected[1] == np.arange(160).tobytes()  # merged in order
        peeks = {name: peeks for name, _, _, peeks in expected[2]}
        assert peeks["src0"] > 0 and peeks["merged0"] > 0

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
        # largest backlog also on the process hosts that re-split or
        # re-cut it.
        # A round costs the dumps plus a few wake-ups, so the 14x14
        # kernel already cuts ~30 epochs.
        legs = {epoch: [("sequential", {})] for epoch in epochs}
        for epoch in sorted(epochs, key=backlog.get)[-8:]:
            legs[epoch] += [
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
# Capture *on* the threaded executor: its default hosting is the
# cooperative engine, which cuts between slices (DESIGN.md §17).
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
    def test_cuts_where_the_sequential_executor_does(self, tmp_path):
        """Parallel MHA p=2 (two connected components): interval 0 writes
        the sequential executor's epoch list, stamped ``"threaded"``, and
        any epoch — first, middle, last — resumes bit-identically on
        every executor."""
        reference = _parallel_mha()
        expected = _fingerprint(reference, reference.run())
        got, sequential = _capture(_parallel_mha, tmp_path / "sequential")
        assert got == expected
        got, epochs = _capture(_parallel_mha, tmp_path, executor="threaded")
        assert got == expected
        assert len(epochs) >= 3 and epochs == sequential
        legs = [("sequential", {}), ("threaded", {})]
        if fork_available:
            legs.append(("process", {"workers": 2}))
        for epoch in (epochs[0], epochs[len(epochs) // 2], epochs[-1]):
            path = tmp_path / ckpt.checkpoint_filename(epoch)
            restored = ckpt.load(str(path))
            assert restored.executor == "threaded"
            kinds = {record["kind"] for record in restored.contexts.values()}
            assert kinds <= {"fresh", "suspended", "done"}
            for executor, config in legs:
                assert _resume(_parallel_mha, path, executor, **config) == expected, (
                    f"epoch {epoch} of {len(epochs)} resumed on {executor}"
                )


class TestFailedCapture:
    @pytest.mark.parametrize(
        "executor,config",
        [
            ("sequential", {}),
            ("threaded", {}),
            pytest.param("process", {"workers": 2}, marks=needs_fork),
        ],
    )
    def test_failed_capture_aborts_the_run(
        self, executor, config, tmp_path, monkeypatch
    ):
        """A capture whose write raises ends the run in a typed error
        naming ``<checkpoint>``, on every executor; the epochs written
        before it stay, and no context thread is left behind."""
        import threading

        from repro import SimulationError

        save = ckpt.Checkpoint.save
        saved = []

        def failing(self, directory):
            if len(saved) == 2:
                raise OSError("disk full")
            saved.append(directory)
            return save(self, directory)

        monkeypatch.setattr(ckpt.Checkpoint, "save", failing)
        with pytest.raises(SimulationError) as info:
            _spmspm().run(
                executor,
                config=RunConfig(
                    timeslice=7,
                    checkpoint_interval_s=0.0,
                    checkpoint_path=str(tmp_path),
                    deadline_s=30.0,
                    **config,
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
