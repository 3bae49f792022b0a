"""Simulated time: local, monotonic, per-context clocks.

The paper's CSPT model (CSP with Time) gives every context a *local* notion
of simulated time.  A context may advance its clock forward arbitrarily far,
but never backwards; a finished context's clock reads :data:`INFINITY` so
that peers waiting on it never block again.

Times are plain nonnegative integers (cycles).  :data:`INFINITY` is
``math.inf``, which compares correctly against integers, so the rest of the
framework does not need a special case for finished contexts.

:class:`TimeCell` is the single mutable clock object owned by each context.
Every executor mutates it only from the owning context's thread of control;
other contexts *read* it (the paper's Synchronization-via-Atomics) — under
CPython the GIL makes those reads atomic, which is the documented analog of
x86 acquire loads.

The process executor extends the same contract across address spaces:
the owning worker copies this cell into a float64 slot in shared memory
at every slice boundary (after the local update, so remote reads are
always a lower bound, at most one timeslice stale), and peers in other
worker processes read it through
:class:`~repro.core.executor.shm.SharedTimeView` — SVA as one aligned
8-byte load, unchanged in spirit.
"""

from __future__ import annotations

import math
from typing import Callable, Union

#: Simulated time value: integer cycles, or ``INFINITY`` once finished.
Time = Union[int, float]

#: The clock value of a finished context.
INFINITY: float = math.inf


class TimeCell:
    """A context's local clock: monotonic simulated time.

    The cell supports an optional ``on_advance`` hook, installed by the
    threaded executor on the contexts it drives one thread each, to
    implement Synchronization-via-Parking (waking parked peers when this
    clock passes their threshold).  The sequential executor and the
    schedulers built on it leave it unset: they check their own waiters,
    and publish or notify at the slice boundary.
    """

    __slots__ = ("_time", "on_advance")

    def __init__(self, start: Time = 0):
        if start < 0:
            raise ValueError(f"time must be nonnegative, got {start}")
        self._time: Time = start
        self.on_advance: Callable[[Time], None] | None = None

    def now(self) -> Time:
        """Return the current simulated time (a lower bound for readers)."""
        return self._time

    def advance(self, target: Time) -> Time:
        """Move the clock forward to ``max(now, target)`` and return it.

        Advancing to a time in the past is a no-op, *not* an error: this is
        how channel operations express "the clock is at least this far"
        without each call site needing a max().
        """
        if target > self._time:
            self._time = target
            hook = self.on_advance
            if hook is not None:
                hook(target)
        return self._time

    def incr(self, cycles: Time) -> Time:
        """Advance the clock by ``cycles`` (must be nonnegative)."""
        if cycles < 0:
            raise ValueError(f"cannot step backwards in time by {cycles}")
        if cycles > 0:
            self._time += cycles
            hook = self.on_advance
            if hook is not None:
                hook(self._time)
        return self._time

    def finish(self) -> None:
        """Pin the clock at :data:`INFINITY` (the context has finished)."""
        self._time = INFINITY
        hook = self.on_advance
        if hook is not None:
            hook(INFINITY)

    @property
    def finished(self) -> bool:
        return self._time == INFINITY

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeCell({self._time})"
