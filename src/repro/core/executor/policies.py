"""Scheduling policies for the cooperative executor (paper Section VI-A).

The paper observes that OS scheduling policy materially affects real
simulation performance: a boosting fair scheduler (Linux CFS) preempts the
current thread whenever it wakes another, which on oversaturated
producer/consumer graphs causes an avalanche of context switches, while a
FIFO run-to-block policy (SCHED_FIFO) lets each context run until it must
wait.

We cannot set Linux RT scheduling classes from a portable test suite (and
the GIL would mask them anyway), so the cooperative executor models the two
policies directly and counts switches/wakeups/preemptions — the quantities
behind Table I.  Simulated results are identical under every policy; only
real execution order and the counters change.

A policy is a ``push`` discipline over one deque, ``queue``, plus a
``timeslice``: ``push`` decides where a runnable context joins the queue,
and the executor's one schedule loop pops it from the left.  Policies
manage :class:`_ContextState` objects opaquely; they only rely on an
``in_ready`` flag to prevent double-queuing, which the loop clears as it
pops.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional


class SchedulingPolicy:
    """Ready-queue discipline for the sequential executor."""

    #: Max generator resumptions per slice, or None for run-to-block.
    timeslice: Optional[int] = None
    name = "abstract"

    def __init__(self) -> None:
        #: The ready queue: ``push`` adds to it, the schedule loop pops
        #: from its left.
        self.queue: deque[Any] = deque()

    def push(self, state: Any, woken: bool) -> None:
        """Add a runnable context (``woken`` = it was just unblocked)."""
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """Run-to-block FIFO: the SCHED_FIFO analog.

    Contexts run until they block; woken contexts join the back of the
    queue.  This minimizes context switches and lets slow contexts run for
    as long as they have work — the behaviour Table I credits for the
    2.3x speedup on oversaturated graphs.
    """

    timeslice = None
    name = "fifo"

    def push(self, state: Any, woken: bool) -> None:
        if state.in_ready:
            return
        state.in_ready = True
        self.queue.append(state)


class FairPolicy(SchedulingPolicy):
    """A CFS-like policy: short timeslices plus wakeup boosting.

    Newly woken contexts jump the queue (the priority boost CFS applies),
    and every context is preempted after ``timeslice`` operations.  On
    producer/consumer graphs this produces the ping-ponging the paper
    describes: each wake immediately preempts the waker.
    """

    name = "fair"

    def __init__(self, timeslice: int = 64, boost: bool = True):
        if timeslice < 1:
            raise ValueError("timeslice must be >= 1")
        super().__init__()
        self.timeslice = timeslice
        self.boost = boost

    def push(self, state: Any, woken: bool) -> None:
        if state.in_ready:
            return
        state.in_ready = True
        if woken and self.boost:
            self.queue.appendleft(state)
        else:
            self.queue.append(state)


def make_policy(spec: str | SchedulingPolicy) -> SchedulingPolicy:
    """Resolve a policy from a name ("fifo", "fair") or pass one through."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    if spec == "fifo":
        return FifoPolicy()
    if spec == "fair":
        return FairPolicy()
    raise ValueError(f"unknown scheduling policy {spec!r}")
