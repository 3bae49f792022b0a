"""Operations a context may yield to its executor.

A DAM context is written as a Python generator.  Each simulated operation —
enqueue, dequeue, peek, advancing local time, observing or awaiting a peer's
clock — is expressed by *yielding* a small operation object.  The executor
performs the operation (blocking the context as needed) and resumes the
generator with the operation's result.

This is the Python analog of the paper's blocking CSPT calls: in DAM-RS a
context simply calls ``channel.dequeue()`` and its OS thread blocks; here
the yield gives the executor the same suspension point, which lets a single
program run unchanged under both the cooperative sequential executor and
the one-thread-per-context executor.

Most user code never constructs these directly — the channel handles expose
builders (``sender.enqueue(x)``, ``receiver.dequeue()``) so context bodies
read naturally::

    def run(self):
        while True:
            value = yield self.input.dequeue()
            yield IncrCycles(self.initiation_interval)
            yield self.output.enqueue(value * 2)

When several ops are known *before* any of their results are needed, they
can be fused into a single yield with :class:`FusedOps` (or a plain
tuple/list of ops).  The executor runs them back to back — no
scheduler round-trip between them — and resumes the
generator once with a tuple of the per-op results::

    def run(self):
        while True:
            value = yield self.input.dequeue()
            yield FusedOps(
                self.output.enqueue(value * 2),
                IncrCycles(self.initiation_interval),
            )

Fusion never changes simulated results (each constituent executes the
identical semantic transition, in order, blocking where it must); it only
removes real-time suspend/resume overhead.  See DESIGN.md §11.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .time import Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .channel import Receiver, Sender
    from .context import Context


class Op:
    """Base class for all yieldable operations."""

    __slots__ = ()

    #: An executor's binding of the op (DESIGN.md §11): a bare op has none
    #: of its own (its runner is its class's); a :class:`FusedOps` keeps
    #: the one bound to it on first execution.
    plan = None


class Enqueue(Op):
    """Send ``data`` on a channel; blocks while the channel is full.

    Returns ``None``.  Blocking on a full channel advances the sender's
    local time per the response-queue semantics (local time acceleration).
    """

    __slots__ = ("sender", "data")

    def __init__(self, sender: "Sender", data: Any):
        self.sender = sender
        self.data = data

    def __repr__(self) -> str:
        return f"Enqueue({self.sender!r}, {self.data!r})"


class Dequeue(Op):
    """Remove and return the next element; blocks while the channel is empty.

    Advances the receiver's local time to the element's visibility stamp and
    emits a response so the sender observes the freed slot.  Raises
    :class:`~repro.core.errors.ChannelClosed` (thrown into the generator)
    once the channel is drained and its sender has finished.
    """

    __slots__ = ("receiver",)

    def __init__(self, receiver: "Receiver"):
        self.receiver = receiver

    def __repr__(self) -> str:
        return f"Dequeue({self.receiver!r})"


class Peek(Op):
    """Like :class:`Dequeue` but leaves the element in place (no response)."""

    __slots__ = ("receiver",)

    def __init__(self, receiver: "Receiver"):
        self.receiver = receiver

    def __repr__(self) -> str:
        return f"Peek({self.receiver!r})"


class IncrCycles(Op):
    """Advance the context's local clock by a nonnegative cycle count.

    This is how timing behaviour (initiation intervals, latencies, pipeline
    bubbles) is injected into an otherwise functional description — the
    ``time.incr_cycles(x)`` of the paper, and the knob the calibration case
    study tunes.
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: Time):
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"IncrCycles({self.cycles})"


class AdvanceTo(Op):
    """Advance the context's local clock to ``max(now, time)``."""

    __slots__ = ("time",)

    def __init__(self, time: Time):
        self.time = time

    def __repr__(self) -> str:
        return f"AdvanceTo({self.time})"


class ViewTime(Op):
    """Read a peer context's clock (Synchronization via Atomics).

    Returns a *lower bound* on the peer's simulated progress: the value may
    be stale but never overestimates.
    """

    __slots__ = ("context",)

    def __init__(self, context: "Context"):
        self.context = context

    def __repr__(self) -> str:
        return f"ViewTime({self.context!r})"


class WaitUntil(Op):
    """Block until a peer context's clock reaches ``time`` (SVP).

    Returns the peer's clock value at wakeup (``INFINITY`` if the peer
    finished): at least ``time``, but not necessarily the exact crossing.
    A threaded host reads it whenever the waiter's thread wakes; the
    sequential engine wakes the waiter when the peer's slice ends past
    ``time``, and it reads the clock the peer left there (deterministic
    per policy).  This is the parking primitive used to compose complex
    logical units from several simpler contexts.
    """

    __slots__ = ("context", "time")

    def __init__(self, context: "Context", time: Time):
        self.context = context
        self.time = time

    def __repr__(self) -> str:
        return f"WaitUntil({self.context!r}, {self.time})"


class FusedOps(Op):
    """A batch of ops executed back to back in one scheduler entry.

    Yielding ``FusedOps(op1, op2, ...)`` (or a plain tuple/list of ops) is
    semantically identical to yielding each op in turn: constituents run
    in order, each performing exactly the state transition it would have
    performed unfused, blocking the context where the single op would
    have blocked.  The generator is resumed once, with a list of the
    per-constituent results (``None`` for ops that return nothing).
    The list is owned by the executor — for a reused ``FusedOps`` it is
    the buffer its runner writes, rewritten on the next execution — so unpack
    or index it at the yield; do not retain it across yields::

        a, b = yield FusedOps(self.in_a.dequeue(), self.in_b.dequeue())
        yield FusedOps(self.out.enqueue(a + b), IncrCycles(1))

    What fusion buys is *real* time only: one generator suspend/resume
    and one scheduler round-trip for the whole batch instead of one per
    op.  Accounting is per constituent — ``ops_executed`` and per-context
    op counts are identical to the unfused form (the batch itself is not
    an op), as are the emitted trace events and their order.

    If a constituent dequeue/peek finds its channel closed, the
    :class:`~repro.core.errors.ChannelClosed` is thrown into the
    generator at this yield point and the remaining constituents do not
    run — exactly as if the ops had been yielded separately (results of
    earlier constituents in the batch are discarded with the throw, so
    a context that needs them on wind-down should not fuse them with a
    closing dequeue).  Nesting ``FusedOps`` inside a batch is an error.

    ``plan``, ``resumes`` and ``results`` are the executor's: the runners
    it bound to the batch on first execution and on re-entry after a park,
    and the buffer they write (DESIGN.md §11).  They latch the
    constituents' channels and counts, so a batch must not change after
    it was first yielded — only an ``Enqueue``'s ``data`` may.
    """

    __slots__ = ("ops", "plan", "resumes", "results")

    def __init__(self, *ops: Op):
        self.ops = ops

    def __getstate__(self):
        """A batch pickles (and copies) as its constituents alone: the
        executor's binding stays behind, so a batch that has run ships
        exactly as one that has not."""
        return None, {"ops": self.ops}

    def __repr__(self) -> str:
        return f"FusedOps({', '.join(repr(op) for op in self.ops)})"
