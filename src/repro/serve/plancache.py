"""Compiled-plan cache: repeat requests skip graph planning.

Planning work in this runtime is *shape*-determined: the greedy
edge-weighted partitioner depends on the graph's topology and observed
channel traffic, never on tensor values.  A request's
:meth:`~repro.sam.spec.ProgramSpec.shape_key` captures exactly that
topology, so the serve layer can learn a plan from the first run of a
shape and replay it for every later request of the same shape:

* the recorded **placement** (``RunSummary.placement``, the worker
  each program slot ran on) becomes full ``pins`` for the next run via
  :func:`~repro.core.executor.partition.pins_from_placement` — with
  every context pinned, ``plan_partition`` does no greedy agglomeration
  at all, and replicated pipelines whose contexts share names keep
  their own workers;
* the observed **channel weights** feed the partitioner for worker
  counts the placement doesn't cover.

Cache keys include the executor name and worker count on top of the
shape key — a placement learned at ``workers=4`` is meaningless at
``workers=2``.  Replayed plans never change simulated results (the
cross-executor matrix proves bit-identity across every partitioning);
they only skip the planning work, which is what the
``plan_cache_hits`` metric makes visible.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from ..core.executor.config import RunConfig

#: On-disk plan-cache format version (see :meth:`PlanCache.save_json`).
CACHE_VERSION = 1


@dataclass
class CachedPlan:
    """What one completed run taught us about a graph shape."""

    key: str
    #: The worker each program slot ran on (process executor; ``None``
    #: for single-runtime executors).
    placement: Optional[list[int]] = None
    #: Channel name → observed traffic (enqueues + dequeues).
    weights: Optional[dict[str, float]] = None
    context_count: int = 0
    channel_count: int = 0
    uses: int = 0

    def apply(self, program: Any, config: RunConfig) -> RunConfig:
        """The request config augmented with this plan.

        Explicit request-side ``pins``/``weights`` always win; the plan
        only fills gaps.  ``pins`` are rebuilt per-program from the
        slot-keyed placement (ids never travel).
        """
        changes: dict[str, Any] = {}
        if self.placement and config.pins is None:
            from ..core.executor.partition import pins_from_placement

            pins = pins_from_placement(program, self.placement)
            if pins:
                changes["pins"] = pins
        if self.weights and config.weights is None:
            changes["weights"] = dict(self.weights)
        return config.replace(**changes) if changes else config


class PlanCache:
    """A bounded LRU of :class:`CachedPlan` keyed by graph shape.

    Thread-safe: lookups happen on pool worker threads.  ``hits`` /
    ``misses`` are also folded into the server's metrics registry so the
    ``/metrics`` endpoint exposes them live.
    """

    def __init__(self, max_entries: int = 128):
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(shape_key: str, executor: str, workers: Optional[int]) -> str:
        return f"{shape_key}:{executor}:{workers if workers is not None else 'auto'}"

    def lookup(self, key: str) -> Optional[CachedPlan]:
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            plan.uses += 1
            return plan

    def store(self, plan: CachedPlan) -> None:
        with self._lock:
            self._entries[plan.key] = plan
            self._entries.move_to_end(plan.key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def learn(self, key: str, program: Any, summary: Any) -> None:
        """Record what ``summary`` observed about ``program``'s shape.

        Called after a cache-miss run completes; later same-shape
        requests replay the observed placement/weights instead of
        planning."""
        from ..core.executor.partition import channel_weights

        weights = channel_weights(program)
        self.store(
            CachedPlan(
                key=key,
                placement=list(summary.placement) if summary.placement else None,
                weights=weights or None,
                context_count=len(program.contexts),
                channel_count=len(program.channels),
            )
        )

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
            }

    # ------------------------------------------------------------------
    # Persistence: warm caches survive server restarts.
    # ------------------------------------------------------------------

    def save_json(self, path: str) -> int:
        """Write every cached plan to ``path`` (atomic tmp + rename).

        The payload is plain JSON — placements are lists of ints and
        weights name-keyed floats, so they round-trip exactly.  Returns
        the number of entries written.
        """
        with self._lock:
            entries = [
                {
                    "key": plan.key,
                    "placement": plan.placement,
                    "weights": plan.weights,
                    "context_count": plan.context_count,
                    "channel_count": plan.channel_count,
                    "uses": plan.uses,
                }
                for plan in self._entries.values()
            ]
        payload = {"version": CACHE_VERSION, "entries": entries}
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
        return len(entries)

    def load_json(self, path: str) -> int:
        """Load plans saved by :meth:`save_json` into this cache.

        Unknown versions and malformed files are rejected with
        ``ValueError`` (a corrupt cache should fail loudly at startup,
        not silently serve nothing).  An entry whose placement is keyed
        by context name (what older builds saved) is dropped: it cannot
        tell replicated contexts apart.  Returns the number of entries
        loaded; existing same-key entries are overwritten, LRU order
        follows file order.
        """
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            raise ValueError(
                f"{path!r} is not a version-{CACHE_VERSION} plan cache"
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise ValueError(f"{path!r}: 'entries' must be a list")
        count = 0
        for raw in entries:
            placement = raw.get("placement")
            if isinstance(placement, dict):
                continue
            self.store(
                CachedPlan(
                    key=str(raw["key"]),
                    placement=(
                        [int(worker) for worker in placement]
                        if placement
                        else None
                    ),
                    weights=(
                        {str(k): float(v) for k, v in raw["weights"].items()}
                        if raw.get("weights")
                        else None
                    ),
                    context_count=int(raw.get("context_count", 0)),
                    channel_count=int(raw.get("channel_count", 0)),
                    uses=int(raw.get("uses", 0)),
                )
            )
            count += 1
        return count
