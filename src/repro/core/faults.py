"""Deterministic fault injection for the executor stack.

A :class:`FaultPlan` describes *where* a run should fail — a worker process
killed at a trigger point, an exception raised inside a named context, a
shuttle lane that stops delivering records — so the chaos suite
(``tests/core/test_faults.py``) can prove that every failure mode surfaces
as the right typed error with no orphan processes and no leaked shared
memory.  Plans are seeded: a plan built with the same seed and the same
builder calls always injects the same faults at the same trigger points, so
chaos tests are reproducible, not flaky.

Executors accept a plan via ``RunConfig(faults=...)`` (or the ``faults=``
constructor argument).  Each executor honours the fault kinds that make
sense for it:

* ``kill_worker`` — process executor only.  The victim worker SIGKILLs
  itself once its operation counter reaches the trigger, which the parent's
  supervisor must surface as :class:`~repro.core.errors.WorkerCrashError`.
* ``raise_in`` — all executors.  A :class:`FaultInjected` exception is
  thrown into the named context's generator at its Nth operation — at
  the first resume of a context of that name once it has executed at
  least N ops (a batch's constituents each count), in place of that
  resume — once per plan entry (per worker on the process executor,
  whose workers each hold a copy of the plan), and surfaces as
  :class:`~repro.core.errors.SimulationError` (deterministic, so the
  retry ladder must *not* retry it).
* ``stall_shuttle`` — process executor only.  The named channel's data lane
  delivers its first N records and then wedges, which must surface as
  :class:`~repro.core.errors.DeadlockError` via the parent's verdict once
  nothing else can run: the receiver drained its doorbell and found no
  record (or as :class:`~repro.core.errors.RunTimeoutError` when a
  deadline passes first).

Worker-kill and shuttle-stall faults only exist on the process executor, so
a ladder fallback (``fallback="sequential"``) re-runs the program with those
faults inert — which is exactly what lets the chaos suite assert that the
retried run is bit-identical to a clean run.
"""

from __future__ import annotations

import random
import signal as _signal
from dataclasses import dataclass, replace
from typing import Any, Optional


class FaultInjected(RuntimeError):
    """The exception thrown into a context by a ``raise_in`` fault.

    Deliberately *not* a ``DamError``: it must look like an arbitrary user
    exception so it takes the normal ``SimulationError`` wrapping path.
    """


@dataclass(frozen=True)
class WorkerKill:
    """SIGKILL a worker at a trigger point.

    Two trigger kinds: ``after_ops`` fires once the worker's published
    operation counter reaches the threshold; ``after_checkpoints`` fires
    immediately after the worker has dumped its partition for the Nth
    checkpoint round — the worst possible moment for the parent's stitch,
    which is exactly what resume-from-checkpoint tests want to survive.
    Either trigger may be ``None`` (inert).

    ``worker=None`` means "pick a victim from the plan's seed" — resolved
    to a concrete index by :meth:`FaultPlan.resolve` once the worker count
    is known.
    """

    worker: Optional[int] = None
    after_ops: Optional[int] = 0
    signal: int = _signal.SIGKILL
    after_checkpoints: Optional[int] = None


@dataclass(frozen=True)
class ContextFault:
    """Throw :class:`FaultInjected` into ``context`` at its Nth operation."""

    context: str
    after_ops: int = 0
    message: str = "injected fault"

    def make(self) -> FaultInjected:
        return FaultInjected(
            f"fault injected into context {self.context!r} "
            f"after {self.after_ops} ops: {self.message}"
        )


@dataclass(frozen=True)
class ShuttleStall:
    """Wedge ``channel``'s data lane after delivering ``after_records``."""

    channel: str
    after_records: int = 0


class StalledLane:
    """Wraps a shuttle lane so ``try_pop`` dries up after N deliveries.

    Pushes pass through (the sender keeps making progress until the ring
    fills), but the receiving side sees at most ``after_records`` records
    and then a permanently empty lane — the observable behaviour of a
    wedged transport.  Everything else delegates to the wrapped lane.
    """

    def __init__(self, inner: Any, after_records: int):
        self._inner = inner
        self._left = after_records

    def try_push(self, obj: Any) -> bool:
        return self._inner.try_push(obj)

    def try_pop(self) -> tuple[bool, Any]:
        if self._left <= 0:
            return (False, None)
        ok, record = self._inner.try_pop()
        if ok:
            self._left -= 1
        return (ok, record)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class FaultPlan:
    """A seeded, deterministic schedule of injected failures.

    Build one fluently and hand it to ``RunConfig(faults=...)``::

        plan = FaultPlan(seed=7).kill_worker(after_ops=100)
        program.run(executor="process", config=RunConfig(workers=2, faults=plan))

    The plan is immutable once handed to an executor in the sense that
    executors never mutate it; it crosses the fork boundary by inheritance
    (and pickles cleanly for spawn-based contexts).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.kills: list[WorkerKill] = []
        self.context_faults: dict[str, ContextFault] = {}
        self.stalls: list[ShuttleStall] = []

    # ------------------------------------------------------------------
    # Builders (fluent).
    # ------------------------------------------------------------------

    def kill_worker(
        self,
        worker: Optional[int] = None,
        after_ops: Optional[int] = None,
        signal: int = _signal.SIGKILL,
        after_checkpoints: Optional[int] = None,
    ) -> "FaultPlan":
        if after_ops is None and after_checkpoints is None:
            after_ops = 0  # bare kill_worker() keeps its old meaning
        self.kills.append(
            WorkerKill(worker, after_ops, signal, after_checkpoints)
        )
        return self

    def raise_in(
        self, context: str, after_ops: int = 0, message: str = "injected fault"
    ) -> "FaultPlan":
        self.context_faults[context] = ContextFault(context, after_ops, message)
        return self

    def stall_shuttle(self, channel: str, after_records: int = 0) -> "FaultPlan":
        self.stalls.append(ShuttleStall(channel, after_records))
        return self

    # ------------------------------------------------------------------
    # Executor-facing queries.
    # ------------------------------------------------------------------

    def resolve(self, total_workers: int) -> "FaultPlan":
        """Return a plan with every ``worker=None`` kill pinned to a
        concrete victim, chosen deterministically from the seed."""
        if not any(kill.worker is None for kill in self.kills):
            return self
        rng = random.Random(self.seed)
        resolved = FaultPlan(self.seed)
        resolved.context_faults = dict(self.context_faults)
        resolved.stalls = list(self.stalls)
        for kill in self.kills:
            if kill.worker is None:
                kill = replace(kill, worker=rng.randrange(max(total_workers, 1)))
            resolved.kills.append(kill)
        return resolved

    def kill_for(self, worker: int) -> Optional[WorkerKill]:
        """The kill aimed at ``worker``, if any (after :meth:`resolve`)."""
        for kill in self.kills:
            if kill.worker == worker:
                return kill
        return None

    def stall_for(self, channel: str) -> Optional[ShuttleStall]:
        for stall in self.stalls:
            if stall.channel == channel:
                return stall
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(seed={self.seed}, kills={self.kills}, "
            f"context_faults={sorted(self.context_faults)}, stalls={self.stalls})"
        )
