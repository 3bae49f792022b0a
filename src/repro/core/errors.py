"""Exception types raised by the DAM core.

The framework distinguishes three failure families:

* **Protocol errors** (:class:`ChannelClosed`) — part of normal simulation
  control flow.  A receiver that dequeues from a channel whose sender has
  finished (and whose data has been drained) receives :class:`ChannelClosed`.
  Contexts may catch it to wind down gracefully; if it escapes a context's
  generator the executor treats the context as *cleanly finished*.

* **Simulation errors** (:class:`DeadlockError`, :class:`SimulationError`) —
  the simulated system misbehaved: a dependency cycle of blocked contexts, or
  a user context raised an unexpected exception.

* **Construction errors** (:class:`GraphConstructionError`) — the program was
  mis-wired: a dangling channel endpoint, a handle registered twice, and so
  on.  These are raised at :meth:`ProgramBuilder.build` time, before any
  simulation starts.

* **Host errors** (:class:`WorkerCrashError`, :class:`RunTimeoutError`) — the
  *host* failed, not the simulated system: a worker process died (OOM kill,
  segfault, SIGKILL) or the run overshot its wall-clock deadline.  Unlike the
  simulation errors these are non-deterministic, so the retry ladder in
  :meth:`Program.run` may transparently re-run the program on a safer
  executor when ``RunConfig(fallback=...)`` is set.

The module also hosts :func:`pack_exception` / :func:`unpack_exception`, the
marshalling helpers that carry exceptions across the worker result pipe.
Several DAM exceptions have custom ``__init__`` signatures that break naive
exception pickling (``DeadlockError`` would unpickle with its formatted
message where the ``blocked`` list belongs; ``SimulationError`` fails
outright), so the helpers encode them field-by-field and demote anything
unpicklable to its ``repr``.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional


class DamError(Exception):
    """Base class for all errors raised by the repro package."""


class ChannelClosed(DamError):
    """Raised on dequeue/peek of a drained channel whose sender finished.

    This mirrors DAM-RS's ``DequeueError``: it is the normal way for
    termination to propagate through a dataflow graph that does not use
    explicit done tokens.
    """

    def __init__(self, channel_name: str = "<channel>"):
        super().__init__(f"channel {channel_name} is closed and drained")
        self.channel_name = channel_name


class DeadlockError(DamError):
    """Raised when no context can make progress but some are unfinished.

    The message lists each blocked context and the operation it is blocked
    on, which is the primary debugging aid for undersized channels (see the
    stochastic-deadlock discussion in Section VIII of the paper).
    """

    def __init__(self, blocked: list[str]):
        detail = "; ".join(blocked) if blocked else "<no detail>"
        super().__init__(f"simulation deadlocked: {detail}")
        self.blocked = blocked


class SimulationError(DamError):
    """A user context raised an unexpected exception during simulation."""

    def __init__(self, context_name: str, original: BaseException):
        super().__init__(f"context {context_name!r} failed: {original!r}")
        self.context_name = context_name
        self.original = original


class GraphConstructionError(DamError):
    """The program graph is structurally invalid (dangling channel, etc.)."""


class WorkerCrashError(DamError):
    """A worker process died without reporting a result.

    Raised by the process executor's supervisor when a worker's result pipe
    hits EOF (or its sentinel fires) before a final payload arrived —
    typically an external SIGKILL, the OOM killer, or a segfault in an
    extension module.  Carries everything the supervisor could salvage:
    which worker died, its exit code, the contexts it had claimed, and the
    last clock value each of those contexts published to the shared clock
    board before the crash.
    """

    def __init__(
        self,
        worker: int,
        exitcode: int | None = None,
        contexts: list[str] | None = None,
        clocks: dict[str, float] | None = None,
    ):
        self.worker = worker
        self.exitcode = exitcode
        self.contexts = list(contexts or [])
        self.clocks = dict(clocks or {})
        cause = f"exit code {exitcode}" if exitcode is not None else "no exit code"
        if exitcode is not None and exitcode < 0:
            cause += f" (signal {-exitcode})"
        running = (
            " while running " + ", ".join(repr(name) for name in self.contexts)
            if self.contexts
            else ""
        )
        super().__init__(f"worker {worker} crashed ({cause}){running}")


class RunTimeoutError(DamError):
    """The run exceeded ``RunConfig(deadline_s=...)`` and was aborted.

    ``summary`` holds a *partial* :class:`RunSummary` — finish times for
    contexts that completed before the abort and current (lower-bound)
    clocks for the rest — and ``stall_report`` describes where every
    still-blocked context was parked when the deadline fired.
    """

    def __init__(
        self,
        deadline_s: float,
        executor: str = "",
        summary: Any = None,
        stall_report: Any = None,
    ):
        self.deadline_s = deadline_s
        self.executor = executor
        self.summary = summary
        self.stall_report = stall_report
        where = f" on executor {executor!r}" if executor else ""
        super().__init__(f"run exceeded deadline of {deadline_s}s{where}")


class NotCheckpointable(DamError):
    """Checkpointing was requested for a program that cannot be snapshotted.

    A context is checkpointable only when it keeps every piece of
    inter-yield state in instance attributes declared via
    ``Context.checkpoint_attrs`` (the resumable-state contract,
    DESIGN.md §17).  Plain opaque-generator contexts — a bare
    :class:`~repro.core.context.FunctionContext`, or a subclass that never
    opted in — refuse with this typed error *before* the run starts, so a
    long run never discovers at its first cut point that its state cannot
    be captured.  The threaded executor raises it with a ``reason`` (and
    no names) for the one hosting that has no safe points:
    ``superblocks="off"`` with checkpointing or a restored program.
    """

    def __init__(self, context_names: list[str], reason: Optional[str] = None):
        self.context_names = list(context_names)
        names = ", ".join(repr(name) for name in self.context_names)
        super().__init__(
            reason
            or "checkpointing requested but these contexts keep opaque "
            f"generator state (no checkpoint_attrs/snapshot): {names}"
        )


class CheckpointError(DamError):
    """A checkpoint file could not be read, or does not fit the program.

    Raised on a bad magic header / version, a truncated or corrupt
    payload, or a program fingerprint mismatch (the checkpoint was taken
    from a structurally different graph).  The latest-valid discovery in
    :func:`~repro.core.checkpoint.latest_checkpoint` *skips* damaged
    files instead of raising — this error surfaces only when a caller
    loads a specific path."""


# ----------------------------------------------------------------------
# Cross-process exception marshalling.
# ----------------------------------------------------------------------


def _survives_pickle(exc: BaseException) -> bool:
    """Does ``exc`` make the round trip?  ``dumps`` alone is not the
    question: an exception class whose ``__init__`` takes more than
    ``args`` pickles fine and then raises ``TypeError`` out of the
    *parent's* ``conn.recv()``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any hook of a user class may refuse
        return False
    return True


def pack_exception(exc: BaseException) -> dict[str, Any]:
    """Encode ``exc`` as a picklable dict for the worker result pipe.

    DAM exceptions with custom constructor signatures are encoded
    field-by-field so :func:`unpack_exception` can rebuild them exactly.
    Arbitrary exceptions are shipped as-is when they survive a pickle
    round trip and demoted to their ``repr`` otherwise (a user context
    can raise an exception holding an open file handle, a generator, a
    lock, or one whose constructor takes two arguments — anything).
    """
    if isinstance(exc, ChannelClosed):
        return {"kind": "channel_closed", "channel": exc.channel_name}
    if isinstance(exc, DeadlockError):
        return {"kind": "deadlock", "blocked": list(exc.blocked)}
    if isinstance(exc, SimulationError):
        original = exc.original
        return {
            "kind": "simulation",
            "context": exc.context_name,
            "original": original if _survives_pickle(original) else None,
            "repr": repr(original),
        }
    if not _survives_pickle(exc):
        return {"kind": "opaque", "type": type(exc).__name__, "repr": repr(exc)}
    return {"kind": "pickled", "exception": exc, "repr": repr(exc)}


def unpack_exception(info: dict[str, Any]) -> BaseException:
    """Rebuild the exception encoded by :func:`pack_exception`.

    The inverse is lossy only in the demotion cases: an unpicklable
    ``SimulationError.original`` comes back as a ``RuntimeError`` carrying
    the original's ``repr``, and an unpicklable top-level exception comes
    back as ``RuntimeError("<TypeName>: <repr>")``.
    """
    kind = info.get("kind")
    if kind == "channel_closed":
        return ChannelClosed(info.get("channel", "<channel>"))
    if kind == "deadlock":
        return DeadlockError(list(info.get("blocked", [])))
    if kind == "simulation":
        original = info.get("original")
        if original is None:
            original = RuntimeError(info.get("repr") or "worker context failed")
        return SimulationError(info.get("context") or "<worker>", original)
    if kind == "pickled":
        return info["exception"]
    detail = info.get("repr") or "worker failed"
    type_name = info.get("type")
    return RuntimeError(f"{type_name}: {detail}" if type_name else detail)
