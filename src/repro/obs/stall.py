"""Stall reports: who is blocked, on which channel, at what time.

When a simulation deadlocks the most useful artifact is not a timeout
notice but the dependency cycle itself: every blocked context, the channel
operation it is parked on, and the *simulated* clocks of both endpoints of
that channel — the receiver stuck at t=5 waiting on a sender already at
t=12 tells you immediately which way the starvation flows.  Every executor
builds a :class:`StallReport` on deadlock (the threaded and process
executors from the park sites their hosts registered before sleeping) and
attaches it to the active :class:`~repro.obs.Observability` object when
one is present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.time import INFINITY, Time

if TYPE_CHECKING:  # pragma: no cover
    from ..core.channel import Channel
    from ..core.context import Context


def _fmt_time(value: Time | None) -> str:
    if value is None:
        return "?"
    if value == INFINITY:
        return "inf"
    return str(value)


@dataclass(frozen=True)
class ContextStall:
    """One blocked context's state at deadlock."""

    context: str
    detail: str                    # e.g. "dequeue on empty scores"
    local_time: Time | None
    channel: str | None = None     # the blocking channel, when channel-blocked
    capacity: int | None = None    # None for unbounded
    occupancy: int | None = None   # elements queued right now
    peer: str | None = None        # context on the channel's other end
    peer_time: Time | None = None  # that peer's simulated clock

    @property
    def gap(self) -> Time | None:
        """Virtual-time gap between the two endpoint clocks
        (``peer_time - local_time``): positive means the peer is ahead
        (starvation flows toward us), negative means we outran the peer.
        ``None`` when either clock is unknown."""
        if self.local_time is None or self.peer_time is None:
            return None
        return self.peer_time - self.local_time

    def describe(self) -> str:
        line = f"{self.context}: {self.detail} @ t={_fmt_time(self.local_time)}"
        gap = self.gap
        gap_text = f", gap={_fmt_time(gap)}" if gap is not None else ""
        if self.channel is not None:
            cap = "inf" if self.capacity is None else str(self.capacity)
            line += (
                f" [channel {self.channel}: occupancy {self.occupancy}/{cap}"
            )
            if self.peer is not None:
                line += f", peer {self.peer} @ t={_fmt_time(self.peer_time)}{gap_text}"
            line += "]"
        elif self.peer is not None:
            line += f" [peer {self.peer} @ t={_fmt_time(self.peer_time)}{gap_text}]"
        return line


@dataclass
class StallReport:
    """The full deadlock diagnosis: one :class:`ContextStall` per blocked
    context, renderable as the lines of a :class:`DeadlockError`."""

    stalls: list[ContextStall]

    def lines(self) -> list[str]:
        """One line per stall, widest |clock gap| first (the biggest gap
        usually names the bottleneck); unknown gaps sort last, ties break
        by context name for determinism."""

        def key(stall: ContextStall) -> tuple:
            gap = stall.gap
            magnitude = abs(gap) if gap is not None else -1.0
            return (-magnitude, stall.context)

        return [stall.describe() for stall in sorted(self.stalls, key=key)]

    def for_context(self, name: str) -> ContextStall | None:
        for stall in self.stalls:
            if stall.context == name:
                return stall
        return None

    def __str__(self) -> str:
        header = f"stall report ({len(self.stalls)} blocked context(s)):"
        return "\n".join([header] + ["  " + line for line in self.lines()])

    def __len__(self) -> int:
        return len(self.stalls)


def stall_for(
    context: "Context",
    detail: str,
    channel: "Channel | None" = None,
    peer: "Context | None" = None,
) -> ContextStall:
    """Build one stall record, resolving the peer across ``channel``.

    ``peer`` overrides channel-derived resolution (used for WaitUntil,
    where the blocking dependency is a clock, not a channel).
    """
    occupancy = None
    if channel is not None:
        receiving = channel.receiver_owner is context
        if peer is None:
            peer = channel.sender_owner if receiving else channel.receiver_owner
        # A sender parked on a full window has drained every response, so
        # its window counts exactly the elements still queued.  Reading the
        # window, not the queue, keeps a cut channel's sender-side clone
        # (whose queue is an already-pumped outbox) reporting what the
        # in-process channel would.
        if receiving or channel.capacity is None:
            occupancy = channel.real_occupancy()
        else:
            occupancy = channel._delta
    return ContextStall(
        context=context.name,
        detail=detail,
        local_time=context.time.now(),
        channel=channel.name if channel is not None else None,
        capacity=channel.capacity if channel is not None else None,
        occupancy=occupancy,
        peer=peer.name if peer is not None else None,
        peer_time=peer.time.now() if peer is not None else None,
    )
