"""Checkpoint/restore at quiescent cut points (DESIGN.md §17).

A **checkpoint** is a consistent snapshot of a running DAM program: for
every context its declared state attributes (:attr:`Context.checkpoint_attrs`),
its clock, and — when it is suspended mid-yield — an executor-agnostic
*resume record* describing the op it was parked on; for every channel the
full queue/flag/stats state; plus the metrics registry and (for the
process executor) the worker each program slot ran on.

The consistency argument is the communication-closed-rounds one: every
executor captures only at a **quiescent cut** — a barrier of its hosts,
each stopped at a slice boundary, so nobody is mid-operation (the
sequential executor between slices — the threaded executor's default
hosting is that engine — and the process executor with every live
worker paused).
Channels are FIFO with one sender and one receiver, so a record still in
flight at such a cut — in a process worker's outbox or on a lane — is
captured where it is, behind what the receiver already holds.  The
program state *is* the pair (context attributes, channel queues); no
schedule information needs to be saved, because simulated results are
pure functions of simulated state.

Generators themselves are never serialized.  A checkpointable context
keeps all inter-yield state in instance attributes mutated only *after*
the yield consuming their update (the resumable-state contract), so a
fresh ``run()`` generator started from restored attributes re-derives, as
its first yield, an op semantically identical to the suspended one.  The
resume record then tells the executor what to do with that first yield:

* ``fresh`` — the generator had not started; nothing special.
* ``suspended, executed=False`` — the context was parked on an
  un-executed op (or fused constituent ``fused_index``); the op will be
  re-attempted against the restored channels, which by construction
  block/complete identically.
* ``suspended, executed=True`` — the op had completed and its result was
  waiting for delivery; the executor primes the fresh generator, discards
  the re-derived first yield, and injects the recorded ``pending_value``
  (or throws the recorded ``pending_exc``).
* ``done`` — the context had finished; its finish time and its channels'
  closure flags are restored without ever starting the generator.

On-disk format: ``checkpoint_path`` names a **directory** holding one
file per epoch (``ckpt-000007.dam``) and nothing else, each a magic
header + versioned pickle payload, written atomically via tmp+rename by
the one process that captures (a process run's workers hand their
slices to the parent over their result pipes).  Discovery
(:func:`latest_checkpoint`) scans newest-first and skips corrupt,
truncated, or mismatched files, so a crash mid-write can never poison a
resume.
"""

from __future__ import annotations

import os
import pickle
import time as _wallclock
from typing import TYPE_CHECKING, Any, Optional

from .errors import CheckpointError, NotCheckpointable, pack_exception
from .time import TimeCell

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .program import Program

#: Magic header of every checkpoint file; the trailing newline makes a
#: truncated or text-mangled file fail the check immediately.
MAGIC = b"DAMCKPT1\n"

#: Payload schema version (bump on any incompatible record change).
#: Version 2: ``placement`` is a per-slot list, no longer keyed by
#: context name.
VERSION = 2

#: Filename pattern for epoch files inside the checkpoint directory.
_FILE_PREFIX = "ckpt-"
_FILE_SUFFIX = ".dam"


def checkpoint_filename(epoch: int) -> str:
    return f"{_FILE_PREFIX}{epoch:06d}{_FILE_SUFFIX}"


# ----------------------------------------------------------------------
# Program validation and identity.
# ----------------------------------------------------------------------


def validate_checkpointable(program: "Program") -> None:
    """Raise :class:`NotCheckpointable` naming every opaque context.

    Called by each executor *before* the run starts whenever
    ``RunConfig(checkpoint_interval_s=...)`` is set, so a long run never
    discovers at its first cut point that a context cannot be captured.
    """
    offenders = [ctx.name for ctx in program.contexts if not ctx.checkpointable]
    if offenders:
        raise NotCheckpointable(offenders)


def fingerprint_of(program: "Program") -> dict[str, Any]:
    """Structural identity of a program for restore validation.

    Context/channel counts and name tuples: enough to reject restoring a
    checkpoint onto a structurally different graph, while staying
    insensitive to worker count, executor, and channel contents — the
    elastic-restore cases that must keep working.
    """
    return {
        "contexts": len(program.contexts),
        "channels": len(program.channels),
        "context_names": tuple(ctx.name for ctx in program.contexts),
        "channel_names": tuple(ch.name for ch in program.channels),
    }


# ----------------------------------------------------------------------
# Per-context resume records.
# ----------------------------------------------------------------------


def record_done(context: "Context") -> dict[str, Any]:
    """Resume record for a context that has finished."""
    return {
        "kind": "done",
        "attrs": context.snapshot(),
        "clock": context.finish_time,
        "finish_time": context.finish_time,
    }


def record_fresh(context: "Context") -> dict[str, Any]:
    """Resume record for a context whose generator never started."""
    return {
        "kind": "fresh",
        "attrs": context.snapshot(),
        "clock": context.time.now(),
    }


def record_suspended(
    context: "Context",
    *,
    executed: bool,
    pending_value: Any = None,
    pending_exc: Optional[BaseException] = None,
    fused_index: Optional[int] = None,
    fused_prefix: Optional[list] = None,
    fused_len: Optional[int] = None,
) -> dict[str, Any]:
    """Resume record for a context suspended at a yield.

    ``executed`` says whether the op at the suspension point already
    completed (its result — ``pending_value`` or ``pending_exc`` — is
    awaiting delivery) or must be re-attempted against the restored
    channels.  For a suspension inside a :class:`~repro.core.ops.FusedOps`
    batch, ``fused_index`` is the constituent position, ``fused_prefix``
    the results of constituents ``[0, fused_index)``, and ``fused_len``
    the batch length (used to pre-size the results buffer on restore).
    """
    return {
        "kind": "suspended",
        "attrs": context.snapshot(),
        "clock": context.time.now(),
        "executed": executed,
        "pending_value": pending_value if executed else None,
        "pending_exc": (
            pack_exception(pending_exc) if pending_exc is not None else None
        ),
        "fused_index": fused_index,
        "fused_prefix": None if fused_prefix is None else list(fused_prefix),
        "fused_len": fused_len,
    }


# ----------------------------------------------------------------------
# The checkpoint object and its on-disk envelope.
# ----------------------------------------------------------------------


class Checkpoint:
    """One captured epoch of a running program.

    ``contexts`` maps context slot (index into ``program.contexts``) to a
    resume record; ``channels`` maps channel slot to a
    :meth:`~repro.core.channel.Channel.checkpoint_state` dict.
    """

    def __init__(
        self,
        epoch: int,
        fingerprint: dict[str, Any],
        contexts: dict[int, dict[str, Any]],
        channels: dict[int, dict[str, Any]],
        metrics: Optional[dict[str, Any]] = None,
        placement: Optional[list[int]] = None,
        executor: str = "",
    ):
        self.epoch = epoch
        self.fingerprint = fingerprint
        self.contexts = contexts
        self.channels = channels
        self.metrics = metrics
        #: The worker each program slot ran on (None for non-process
        #: executors).  A ladder resume replays it onto its worker count
        #: (see :func:`~repro.core.executor.partition.pins_from_placement`).
        self.placement = placement
        self.executor = executor
        #: Set by :func:`load` / :func:`latest_checkpoint`: where this
        #: checkpoint came from (diagnostics; recorded in attempts).
        self.path: Optional[str] = None

    # -- capture -------------------------------------------------------

    @classmethod
    def capture(
        cls,
        program: "Program",
        epoch: int,
        context_records: dict[int, dict[str, Any]],
        *,
        metrics: Optional[dict[str, Any]] = None,
        placement: Optional[list[int]] = None,
        executor: str = "",
        channel_states: Optional[dict[int, dict[str, Any]]] = None,
    ) -> "Checkpoint":
        """Assemble a checkpoint from executor-provided context records,
        capturing every channel's state directly off the program — or,
        when ``channel_states`` is given (the process executor's stitched
        cut), installing those states verbatim."""
        if channel_states is not None:
            channels = dict(channel_states)
        else:
            channels = {
                slot: channel.checkpoint_state()
                for slot, channel in enumerate(program.channels)
            }
        return cls(
            epoch=epoch,
            fingerprint=fingerprint_of(program),
            contexts=context_records,
            channels=channels,
            metrics=metrics,
            placement=placement,
            executor=executor,
        )

    # -- serialization -------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        return {
            "version": VERSION,
            "epoch": self.epoch,
            "fingerprint": self.fingerprint,
            "contexts": self.contexts,
            "channels": self.channels,
            "metrics": self.metrics,
            "placement": self.placement,
            "executor": self.executor,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Checkpoint":
        version = payload.get("version")
        if version != VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {VERSION})"
            )
        return cls(
            epoch=payload["epoch"],
            fingerprint=payload["fingerprint"],
            contexts=payload["contexts"],
            channels=payload["channels"],
            metrics=payload.get("metrics"),
            placement=payload.get("placement"),
            executor=payload.get("executor", ""),
        )

    def save(self, directory: str) -> str:
        """Atomically write this checkpoint into ``directory``.

        The payload goes to a ``.tmp-*`` sibling first and is renamed
        into place, so readers only ever see complete files; a crash
        mid-write leaves a temp file that :func:`clean_stale_temps`
        removes on the next run.
        """
        os.makedirs(directory, exist_ok=True)
        final = os.path.join(directory, checkpoint_filename(self.epoch))
        tmp = os.path.join(
            directory, f".tmp-{checkpoint_filename(self.epoch)}-{os.getpid()}"
        )
        blob = MAGIC + pickle.dumps(self.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        self.path = final
        return final

    # -- restore -------------------------------------------------------

    def validate_for(self, program: "Program") -> None:
        expected = fingerprint_of(program)
        if self.fingerprint != expected:
            raise CheckpointError(
                "checkpoint does not fit this program: fingerprint mismatch "
                f"(checkpoint {self.fingerprint!r} vs program {expected!r})"
            )

    def restore_into(self, program: "Program") -> None:
        """Install this checkpoint's state into ``program``.

        Context attributes, clocks, and finish times are overwritten;
        every channel is restored (queues, flags, stats, flavor); and
        ``program._resume_records`` is set so the next executor run
        starts each context from its recorded suspension instead of from
        scratch.  The metrics registry is *not* touched here — it lives
        on the caller's :class:`~repro.obs.Observability`; load
        ``self.metrics`` into it via
        :meth:`~repro.obs.metrics.MetricsRegistry.load_state`.
        """
        self.validate_for(program)
        for slot, context in enumerate(program.contexts):
            record = self.contexts[slot]
            context.restore(record["attrs"])
            if record["kind"] == "done":
                context.finish_time = record["finish_time"]
                context.time = TimeCell(0)
                context.time.finish()
            else:
                context.finish_time = None
                context.time = TimeCell(record["clock"])
        for slot, channel in enumerate(program.channels):
            channel.restore_state(self.channels[slot])
        program._resume_records = dict(self.contexts)
        program._resume_epoch = self.epoch


# ----------------------------------------------------------------------
# Directory-level discovery and hygiene.
# ----------------------------------------------------------------------


def load(path: str, program: Optional["Program"] = None) -> Checkpoint:
    """Read one checkpoint file, strictly.

    Raises :class:`CheckpointError` on a bad magic header, a truncated or
    corrupt payload, an unsupported version, or (when ``program`` is
    given) a fingerprint mismatch.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path!r} is not a DAM checkpoint (bad magic)")
    try:
        payload = pickle.loads(blob[len(MAGIC):])
    except Exception as exc:  # noqa: BLE001 - any unpickle failure = corrupt
        raise CheckpointError(f"corrupt checkpoint {path!r}: {exc!r}") from exc
    checkpoint = Checkpoint.from_payload(payload)
    checkpoint.path = path
    if program is not None:
        checkpoint.validate_for(program)
    return checkpoint


#: Package-level alias — ``repro.load_checkpoint`` reads better than a
#: bare ``load`` exported far from this module.
load_checkpoint = load


def list_checkpoints(directory: str) -> list[str]:
    """Epoch files in ``directory``, oldest first (by epoch number)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    files = [
        name
        for name in names
        if name.startswith(_FILE_PREFIX) and name.endswith(_FILE_SUFFIX)
    ]
    files.sort()
    return [os.path.join(directory, name) for name in files]


def latest_checkpoint(
    directory: str, program: Optional["Program"] = None
) -> Optional[Checkpoint]:
    """The newest checkpoint in ``directory`` that loads cleanly.

    Scans newest-first and *skips* files that are corrupt, truncated, or
    (when ``program`` is given) structurally mismatched — a crash during
    a checkpoint write must never prevent resuming from the previous
    epoch.  Returns ``None`` when no valid checkpoint exists.
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            return load(path, program)
        except CheckpointError:
            continue
    return None


def clean_stale_temps(directory: str) -> int:
    """Remove the ``.tmp-*`` leftovers of interrupted writes; returns
    the number of files removed.  Called at executor start and before
    restore, so a kill mid-write never leaks a temp file."""
    removed = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if name.startswith(".tmp-"):
            try:
                os.unlink(os.path.join(directory, name))
                removed += 1
            except OSError:
                pass
    return removed


# ----------------------------------------------------------------------
# Capture cadence.
# ----------------------------------------------------------------------


class CheckpointTimer:
    """Tracks when the next capture is due and numbers the epochs.

    ``interval_s <= 0`` means "capture at every quiescent opportunity" —
    deterministic-by-construction cadence that the bit-identity tests
    rely on; a positive interval is the normal wall-clock cadence.
    Epochs continue from ``start_epoch`` so a resumed run never
    overwrites the checkpoint it was restored from.
    """

    __slots__ = ("interval_s", "epoch", "_last")

    def __init__(self, interval_s: float, start_epoch: int = 0):
        self.interval_s = interval_s
        self.epoch = start_epoch
        self._last = _wallclock.perf_counter()

    def due(self) -> bool:
        if self.interval_s <= 0:
            return True
        return _wallclock.perf_counter() - self._last >= self.interval_s

    def due_at(self) -> float:
        """The ``perf_counter`` time the next capture falls due."""
        return self._last + self.interval_s

    def mark(self) -> int:
        """Advance to the next epoch; returns the epoch just captured."""
        self.epoch += 1
        self._last = _wallclock.perf_counter()
        return self.epoch
