"""Context-graph partitioning for the process executor.

Sharding a DAM program across worker processes is profitable exactly when
the *cut* — the channels whose endpoints land in different workers — is
light: every cut channel's traffic crosses a shared-memory shuttle instead
of a plain deque.  :func:`plan_partition` therefore groups contexts by a
greedy edge-weighted agglomeration (heaviest channels first, Kruskal
style, under a balance cap) and then packs the groups onto workers
largest-first.  Channel weights come from, in priority order:

1. an explicit ``weights`` mapping (channel name → traffic), typically
   produced by :func:`channel_weights` from a *profiling run* of an
   identically-built program on the sequential executor;
2. the channel's own :class:`~repro.core.channel.ChannelStats` counters,
   when the program object itself was previously profiled;
3. a default of 1 (pure topology: still groups connected components).

Embarrassingly-partitionable programs — e.g. the Fig. 9 parallel-MHA
sweep, whose pipelines share no channels — split with zero cut, which is
what lets the process executor recover real wall-clock speedups.

Manual placement: :meth:`repro.core.program.ProgramBuilder.pin` fixes a
context to a worker index; the agglomeration never merges groups pinned
to different workers and the packing honors every pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..errors import GraphConstructionError

if TYPE_CHECKING:  # pragma: no cover
    from ..channel import Channel
    from ..context import Context
    from ..program import Program
    from .base import RunSummary


def channel_weights(program: "Program") -> dict[str, float]:
    """Per-channel traffic weights from a profiled program, keyed by name.

    Weight is ``enqueues + dequeues`` after a run.  Same-named channels
    (e.g. the per-pipeline clones of a swept kernel) are averaged, so a
    small profiling configuration transfers to a scaled-up build of the
    same graph.
    """
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for channel in program.channels:
        traffic = channel.stats.enqueues + channel.stats.dequeues
        totals[channel.name] = totals.get(channel.name, 0.0) + traffic
        counts[channel.name] = counts.get(channel.name, 0) + 1
    return {name: totals[name] / counts[name] for name in totals}


def pins_from_placement(
    program: "Program",
    placement: Optional[list[int]],
    workers: Optional[int] = None,
) -> dict[int, int]:
    """Convert a recorded run placement back into planner pins.

    ``placement`` is :attr:`RunSummary.placement` (or a checkpoint's):
    the worker each program slot *actually* ran on, with stolen
    clusters credited to their adopter rather than their planned owner.
    The returned ``{id(context): worker}`` mapping plugs straight into
    ``RunConfig(pins=...)`` / :func:`plan_partition`, so a re-run of an
    identically-built program starts every context — replicated
    pipelines whose contexts share names included — where it ran
    before, instead of re-planning the same skew and re-stealing.

    With ``workers`` the placement is replayed onto that (possibly
    different) worker count — a checkpoint restored elastically
    (DESIGN.md §17) — by folding each index modulo ``workers``:
    same-worker groups stay together when shrinking, and a grown pool
    receives the old groups unchanged.

    Slots past the end of ``placement`` (a larger build) are left
    unpinned.
    """
    if not placement:
        return {}
    return {
        id(ctx): worker if workers is None else worker % workers
        for ctx, worker in zip(program.contexts, placement)
    }


def pins_from_summary(
    program: "Program", summary: "RunSummary", workers: int
) -> dict[int, int]:
    """Pins that balance a finished run's measured work over ``workers``.

    Each slot's ``summary.context_ops`` is its cost in
    :func:`plan_partition`'s largest-first packing, so a re-run of an
    identically-built program (or a resume) starts from a plan balanced
    by the ops the contexts really ran, not by how many contexts there
    are, whatever pins skewed the measured run.  Work stealing still
    moves cold clusters off a worker that falls behind at run time (a
    slower CPU, say), which no plan made in advance can foresee.  The
    program's own builder pins still bind.
    """
    return plan_partition(
        program, workers, pins=program.partition_pins or None,
        costs=summary.context_ops or None,
    ).assignment


@dataclass
class PartitionPlan:
    """The result of partitioning: per-worker context groups + the cut."""

    groups: list[list["Context"]]   # index = worker; may contain empties
    cut: list["Channel"]            # channels crossing worker boundaries
    cut_weight: float               # summed weight of the cut
    assignment: dict[int, int]      # id(context) -> worker index

    @property
    def workers_used(self) -> int:
        return sum(1 for group in self.groups if group)

    def describe(self) -> str:
        sizes = "/".join(str(len(group)) for group in self.groups)
        return (
            f"{self.workers_used} worker(s), group sizes [{sizes}], "
            f"{len(self.cut)} cut channel(s) (weight {self.cut_weight:g})"
        )


@dataclass(frozen=True)
class ClusterSpec:
    """One migratable unit of work: a connected component of a worker's
    group under that worker's *internal* channels.

    Two clusters of the same worker share no channel at all, and every
    channel leaving a cluster is, by construction, a planned-cut channel
    (already bridged by a shuttle) — so a cluster can be activated by
    *any* worker without creating new communication paths.  That is the
    invariant the process executor's work stealing rests on.

    ``contexts`` are slots into ``program.contexts`` and ``channels``
    indices into ``program.channels`` (both identical in parent and
    forked children), so a spec is plain data either side of a fork.
    """

    index: int                 # position on the claim board
    owner: int                 # planned (compacted) worker index
    contexts: tuple[int, ...]  # slots into program.contexts
    channels: tuple[int, ...]  # cluster-internal channel indices


def plan_clusters(
    program: "Program", assignment: dict[int, int]
) -> list["ClusterSpec"]:
    """Split each worker's group into :class:`ClusterSpec` units.

    ``assignment`` maps ``id(context)`` → worker index (already
    compacted: every referenced worker spawns a process).  Clusters are
    ordered deterministically by (owner, first context slot), which is
    also their claim-board index.
    """
    contexts = program.contexts
    n = len(contexts)
    index_of = {id(ctx): i for i, ctx in enumerate(contexts)}

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    intra: list[tuple[int, int, int]] = []  # (channel idx, a, b)
    for chan_index, channel in enumerate(program.channels):
        sender = channel.sender_owner
        receiver = channel.receiver_owner
        a, b = index_of[id(sender)], index_of[id(receiver)]
        if assignment[id(sender)] != assignment[id(receiver)]:
            continue  # planned-cut channel: never cluster-internal
        intra.append((chan_index, a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    channels_of: dict[int, list[int]] = {}
    for chan_index, a, _ in intra:
        channels_of.setdefault(find(a), []).append(chan_index)

    roots = sorted(
        members, key=lambda r: (assignment[id(contexts[members[r][0]])], r)
    )
    specs: list[ClusterSpec] = []
    for root in roots:
        slots = tuple(members[root])
        specs.append(
            ClusterSpec(
                index=len(specs),
                owner=assignment[id(contexts[slots[0]])],
                contexts=slots,
                channels=tuple(sorted(channels_of.get(root, ()))),
            )
        )
    return specs


_CLUSTER_MODES = ("off", "on", "auto")


def normalize_mode(mode: Any) -> str:
    """Normalize a ``RunConfig(superblocks=...)`` value to off/on/auto."""
    if mode is None or mode is False or mode == "off":
        return "off"
    if mode is True or mode == "on":
        return "on"
    if mode == "auto":
        return "auto"
    raise ValueError(
        f"superblocks must be one of {_CLUSTER_MODES} (or True/False/None), "
        f"got {mode!r}"
    )


class _UnionFind:
    __slots__ = ("parent", "size", "pin")

    def __init__(self, n: int, pins: list[Optional[int]]):
        self.parent = list(range(n))
        self.size = [1] * n
        self.pin: list[Optional[int]] = list(pins)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def try_union(self, a: int, b: int, cap: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if self.size[ra] + self.size[rb] > cap:
            return False
        pa, pb = self.pin[ra], self.pin[rb]
        if pa is not None and pb is not None and pa != pb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.pin[ra] = pa if pa is not None else pb
        return True


def plan_partition(
    program: "Program",
    workers: int,
    weights: Optional[dict[str, float]] = None,
    pins: Optional[dict[int, int]] = None,
    balance: float = 1.2,
    costs: Optional[list[float]] = None,
) -> PartitionPlan:
    """Partition ``program.contexts`` into ``workers`` groups.

    ``pins`` maps ``id(context)`` → worker index (manual placement, see
    :meth:`ProgramBuilder.pin`); unspecified contexts are placed by the
    greedy agglomeration.  ``balance`` bounds group size at
    ``ceil(balance * n / workers)`` so one worker cannot absorb the whole
    graph just because it is densely connected.  ``costs`` (one per
    program slot, e.g. a run's ``context_ops``) weighs each group in the
    packing by its members' summed cost instead of their count.
    """
    if workers < 1:
        raise GraphConstructionError(f"workers must be >= 1, got {workers}")
    contexts = program.contexts
    n = len(contexts)
    index_of = {id(ctx): i for i, ctx in enumerate(contexts)}

    pin_list: list[Optional[int]] = [None] * n
    for ctx_id, worker in (pins or {}).items():
        if ctx_id not in index_of:
            raise GraphConstructionError(
                "pinned context is not part of this program"
            )
        if not 0 <= worker < workers:
            raise GraphConstructionError(
                f"pin to worker {worker} outside [0, {workers})"
            )
        pin_list[index_of[ctx_id]] = worker

    if workers == 1:
        assignment = {id(ctx): 0 for ctx in contexts}
        return PartitionPlan([list(contexts)], [], 0.0, assignment)

    def weight_of(channel: "Channel") -> float:
        if weights is not None and channel.name in weights:
            return max(weights[channel.name], 0.0)
        traffic = channel.stats.enqueues + channel.stats.dequeues
        return float(traffic) if traffic > 0 else 1.0

    # Edges sorted heaviest-first; channel id breaks ties deterministically.
    edges: list[tuple[float, int, "Channel", int, int]] = []
    for channel in program.channels:
        sender = channel.sender_owner
        receiver = channel.receiver_owner
        if sender is None or receiver is None:
            continue  # unreachable for built programs; defensive
        a, b = index_of[id(sender)], index_of[id(receiver)]
        if a == b:
            continue  # self-loop: never cuttable
        edges.append((weight_of(channel), channel.id, channel, a, b))
    edges.sort(key=lambda e: (-e[0], e[1]))

    cap = max(1, math.ceil(balance * n / workers))
    uf = _UnionFind(n, pin_list)
    for _, _, _, a, b in edges:
        uf.try_union(a, b, cap)

    # Collect groups in first-member order (deterministic).
    members: dict[int, list[int]] = {}
    order: list[int] = []
    for i in range(n):
        root = uf.find(i)
        if root not in members:
            members[root] = []
            order.append(root)
        members[root].append(i)

    cost = {
        root: len(group) if costs is None else sum(costs[i] for i in group)
        for root, group in members.items()
    }

    # Pack groups onto workers: pinned groups first, then largest-first
    # onto the least-loaded worker (lowest index on ties).
    groups: list[list["Context"]] = [[] for _ in range(workers)]
    load = [0] * workers
    unpinned: list[int] = []
    for root in order:
        pin = uf.pin[root]
        if pin is not None:
            groups[pin].extend(contexts[i] for i in members[root])
            load[pin] += cost[root]
        else:
            unpinned.append(root)
    unpinned.sort(key=lambda r: (-cost[r], members[r][0]))
    for root in unpinned:
        target = min(range(workers), key=lambda w: (load[w], w))
        groups[target].extend(contexts[i] for i in members[root])
        load[target] += cost[root]

    assignment: dict[int, int] = {}
    for worker, group in enumerate(groups):
        for ctx in group:
            assignment[id(ctx)] = worker

    cut: list["Channel"] = []
    cut_weight = 0.0
    for channel in program.channels:
        sender = channel.sender_owner
        receiver = channel.receiver_owner
        if sender is None or receiver is None:
            continue
        if assignment[id(sender)] != assignment[id(receiver)]:
            cut.append(channel)
            cut_weight += weight_of(channel)

    return PartitionPlan(groups, cut, cut_weight, assignment)
