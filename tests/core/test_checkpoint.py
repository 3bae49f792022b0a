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
from repro import spec as reference
from repro.core import checkpoint as ckpt
from repro.core import pins_from_placement
from repro.core.errors import CheckpointError
from repro.spec import simulated
from tests.conftest import nightly

fork_available = "fork" in multiprocessing.get_all_start_methods()
#: The nightly profile (tests/conftest.py) resumes every epoch a capture
#: cut; tier-1 resumes a fixed sample of them.
EVERY_EPOCH = nightly()
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
    Names are explicit, so two builds record alike."""

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


class _ShortAndLong:
    """Two disconnected pipelines pinned to two workers: the short one
    streams 3 values, the long one 60 through a doubling stage, so the
    short one's worker retires while the long one still runs."""

    def __init__(self):
        from repro.contexts import Collector, IterableSource, UnaryFunction

        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2, name="short")
        short = [
            builder.add(IterableSource(snd, range(3), name="short-src")),
            builder.add(Collector(rcv, name="short-sink")),
        ]
        s1, r1 = builder.bounded(2, name="raw")
        s2, r2 = builder.bounded(2, name="doubled")
        long = [
            builder.add(IterableSource(s1, range(60), name="long-src")),
            builder.add(UnaryFunction(r1, s2, lambda x: 2 * x, name="double")),
            builder.add(Collector(r2, name="long-sink")),
        ]
        for worker, contexts in enumerate((short, long)):
            for ctx in contexts:
                builder.pin(ctx, worker)
        self.sinks = short[-1], long[-1]
        self.program = builder.build()

    def run(self, executor="sequential", config=None):
        return self.program.run(executor, config=config)

    def result_dense(self):
        import numpy as np

        return np.array(self.sinks[0].values + self.sinks[1].values)


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


KERNELS = {"spmspm": _spmspm, "mmadd": _mmadd}


def _epochs(ckdir):
    return sorted(
        int(name[5:-4])
        for name in os.listdir(ckdir)
        if name.startswith("ckpt-") and name.endswith(".dam")
    )


def _capture(build, ckdir, **config):
    """Run ``build()`` with every-round checkpointing into ``ckdir``;
    returns (record, sorted epoch list)."""
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
    return (simulated(kernel.program, summary), kernel.result_dense().tobytes()), _epochs(ckdir)


def _resume(build, path, executor="sequential", replay=False, **config):
    """Restore ``path`` into a fresh build and finish the run.  With
    ``replay``, the process run is pinned to the checkpoint's placement
    folded onto its worker count, as a ladder resume does, without
    stealing, and must keep together exactly the slots that placement
    keeps together."""
    kernel = build()
    restored = ckpt.load(str(path), kernel.program)
    restored.restore_into(kernel.program)
    if replay:
        config["pins"] = pins_from_placement(
            kernel.program, restored.placement, config["workers"]
        )
        config["steal"] = False
    summary = kernel.run(
        executor=executor, config=RunConfig(timeslice=7, **config)
    )
    if replay:
        # Pins promise co-location and separation, not worker numbers
        # (an empty group is compacted away).
        def groups(placement):
            return sorted(
                [slot for slot, owner in enumerate(placement) if owner == worker]
                for worker in set(placement)
            )

        assert groups(summary.placement) == groups(
            [worker % config["workers"] for worker in restored.placement]
        )
    return simulated(kernel.program, summary), kernel.result_dense().tobytes()


# ----------------------------------------------------------------------
# Bit-identity: checkpointing on, and resume-from-middle.
# ----------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_checkpointing_is_a_pure_observer(self, name, tmp_path):
        build = KERNELS[name]
        kernel = build()
        expected = reference.run(kernel.program), kernel.result_dense().tobytes()
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
        assert (simulated(kernel.program, summary), kernel.result_dense().tobytes()) == expected
        # Epoch numbering continues past the restored epoch.
        assert _epochs(resume_dir)[0] == middle + 1


@needs_fork
class TestElasticResume:
    """Checkpoints are executor- and worker-count-portable."""

    @staticmethod
    def _capture_resumes_everywhere(build, tmp_path, retires=False, **config):
        """Capture on two workers; resume the middle epoch on as many
        workers with the recorded placement replayed, on more (elastic)
        and on none, and every epoch in which all of one of two workers'
        contexts had finished (once a worker retires, each later round
        stitches its final dump) on sequential and process.  Rounds are
        paced by the wall clock, so a capture without epochs, or without
        such an epoch when ``retires`` asks for one, is taken again."""
        kernel = build()
        expected = reference.run(kernel.program), kernel.result_dense().tobytes()
        for attempt in range(4):
            directory = tmp_path / str(attempt)
            directory.mkdir()
            got, epochs = _capture(build, directory, executor="process", workers=2, **config)
            assert got == expected
            retired = []
            for epoch in epochs:
                path = directory / ckpt.checkpoint_filename(epoch)
                checkpoint = ckpt.load(str(path))
                running = {
                    checkpoint.placement[slot]
                    for slot, record in checkpoint.contexts.items()
                    if record["kind"] != "done"
                }
                if len(running) == 1 < len(set(checkpoint.placement)):
                    retired.append(path)
            if epochs and (retired or not retires):
                break
        else:
            pytest.fail("4 captures without the epochs to resume")
        middle = directory / ckpt.checkpoint_filename(epochs[len(epochs) // 2])
        if config.get("steal") is False:
            # Planned placement splits every kernel here over both
            # workers, so the replayed leg must use both again.
            assert sorted(set(ckpt.load(str(middle)).placement)) == [0, 1]
        legs = [
            (middle, "process", {"workers": 2, "replay": True}),
            (middle, "process", {"workers": 3}),
            (middle, "sequential", {}),
        ]
        legs += [
            (path, executor, options)
            for path in retired
            for executor, options in (("sequential", {}), ("process", {"workers": 2}))
        ]
        for path, executor, options in legs:
            assert _resume(build, path, executor, **options) == expected, (path, executor)
        return expected

    @pytest.mark.parametrize(
        "build,config",
        [
            (_spmspm, {}),
            (_ShortAndLong, {"steal": False, "retires": True}),
            (_parallel_mha, {"steal": False}),
        ],
        ids=["spmspm", "a-worker-retires", "replicated"],
    )
    def test_process_capture_resumes_everywhere(self, build, config, tmp_path):
        """``replicated`` is two pipelines whose contexts share names:
        its replayed resume must use both workers again."""
        self._capture_resumes_everywhere(build, tmp_path, **config)

    def test_peeks_resume_everywhere(self, tmp_path):
        """``peeks`` go through the stitch like the other counters."""
        import numpy as np

        expected = self._capture_resumes_everywhere(_MergeTree, tmp_path)
        assert expected[1] == np.arange(160).tobytes()  # merged in order
        names = [channel.name for channel in _MergeTree().program.channels]
        peeks = {name: c[2] for name, c in zip(names, expected[0]["channels"])}
        assert peeks["src0"] > 0 and peeks["merged0"] > 0

    def test_sequential_capture_resumes_onto_process(self, tmp_path):
        expected, epochs = _capture(_spmspm, tmp_path)
        path = tmp_path / ckpt.checkpoint_filename(epochs[len(epochs) // 2])
        got = _resume(_spmspm, path, "process", workers=2)
        assert got == expected

    def test_cut_with_a_backlog_resumes_everywhere(self, tmp_path, monkeypatch):
        """96-byte rings hold two or three records, so workers stop for
        a round with records on a lane or still in an outbox.  Nothing
        delivers them: the stitch reads the lanes without popping and
        puts lane and outbox behind what the other side holds, and the
        cuts still resume to the uninterrupted result on every executor:
        the first, middle and last epochs and the eight with the largest
        backlog in tier-1, every epoch under the nightly profile."""
        from repro.core.executor.partitioned import ProcessExecutor, _CkptCoordinator

        build = functools.partial(_spmspm, 14)
        # Count what each stitch finds undelivered: the records on the
        # lanes, and the outboxes of the sides (the sender side's data,
        # the receiver side's responses).
        backlog, on_lanes = {}, {}
        stitch = _CkptCoordinator._stitch

        def counting(self, dumps):
            checkpoint = stitch(self, dumps)
            on_lanes[checkpoint.epoch] = sum(
                record is not None
                for lanes in self._run.lanes.values()
                for lane in lanes
                for record in lane.unread()
            )
            backlog[checkpoint.epoch] = on_lanes[checkpoint.epoch] + sum(
                len(entry[side][outbox])
                for dump in dumps
                for entry in dump["channels"].values()
                for side, outbox in (("send", "data"), ("recv", "resps"))
                if side in entry
            )
            return checkpoint

        monkeypatch.setattr(_CkptCoordinator, "_stitch", counting)

        kernel = build()
        expected = reference.run(kernel.program), kernel.result_dense().tobytes()
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
        assert (simulated(kernel.program, summary), kernel.result_dense().tobytes()) == expected
        epochs = _epochs(tmp_path)
        assert len(epochs) >= 8 and sorted(backlog) == epochs
        assert any(on_lanes.values()), "no cut held a record on a lane"
        # The sampled epochs on the sequential executor (an in-process
        # channel holds exactly the stitched state); the eight cuts with
        # the largest backlog also on the process hosts that re-split or
        # re-cut it.  A round costs one barrier, the dumps and the save,
        # so the 14x14 kernel cuts one to a few hundred epochs.
        largest = sorted(epochs, key=backlog.get)[-8:]
        sample = epochs if EVERY_EPOCH else sorted(
            {epochs[0], epochs[len(epochs) // 2], epochs[-1], *largest}
        )
        legs = {epoch: [("sequential", {})] for epoch in sample}
        for epoch in largest:
            legs[epoch] += [
                ("process", {"workers": 3}),
                ("process", {"workers": 3, "steal": False}),
            ]
        for epoch in sample:
            path = tmp_path / ckpt.checkpoint_filename(epoch)
            for executor, config in legs[epoch]:
                assert _resume(build, path, executor, **config) == expected, (
                    f"epoch {epoch} (backlog {backlog[epoch]}) on {executor}"
                )


# ----------------------------------------------------------------------
# Capture *on* the threaded executor: its default hosting is the
# cooperative engine, which cuts between slices (DESIGN.md §17).
# ----------------------------------------------------------------------


class TestThreadedCapture:
    def test_cuts_where_the_sequential_executor_does(self, tmp_path):
        """Parallel MHA p=2 (two connected components): interval 0 writes
        the sequential executor's epoch list, stamped ``"threaded"``, and
        any epoch — first, middle, last — resumes bit-identically on
        every executor."""
        kernel = _parallel_mha()
        expected = reference.run(kernel.program), kernel.result_dense().tobytes()
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
        # Version 1 keyed the placement by context name: refused, typed.
        old = dict(ckpt.load(str(path)).to_payload(), version=1, placement={"x": 0})
        with pytest.raises(CheckpointError, match="version 1"):
            ckpt.Checkpoint.from_payload(old)
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
