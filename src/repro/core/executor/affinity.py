"""Best-effort CPU pinning for worker processes.

Shuttle traffic between two workers is shared-memory ring traffic; its
cost is dominated by cache-line transfer latency, which roughly doubles
when the endpoints sit on different CPU packages.  :func:`plan_affinity`
therefore groups workers that share a cut channel onto the same package
when the host exposes one (`/sys/devices/system/cpu/*/topology/package_id`)
and stripes the package's CPUs across them; hosts without topology
information (or without ``sched_getaffinity`` at all) fall back to plain
striping or to no plan.

Everything here is advisory: pinning failures are swallowed by the
callers (``os.sched_setaffinity`` may be denied in containers), and a
worker is never given an empty CPU set.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Optional

_TOPOLOGY_ROOT = Path("/sys/devices/system/cpu")


def available_cpus() -> Optional[list[int]]:
    """CPUs this process may run on, or None when unknowable."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return None


def cpu_packages(cpus: Iterable[int]) -> dict[int, list[int]]:
    """Group ``cpus`` by physical package id (one group on failure)."""
    packages: dict[int, list[int]] = {}
    for cpu in cpus:
        try:
            raw = (
                _TOPOLOGY_ROOT / f"cpu{cpu}" / "topology" / "package_id"
            ).read_text()
            package = int(raw.strip())
        except (OSError, ValueError):
            package = 0
        packages.setdefault(package, []).append(cpu)
    return packages


def _union_groups(workers: int, peer_pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Workers joined by shuttle traffic, as co-location groups."""
    parent = list(range(workers))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in peer_pairs:
        if 0 <= a < workers and 0 <= b < workers:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for worker in range(workers):
        groups.setdefault(find(worker), []).append(worker)
    return [groups[root] for root in sorted(groups)]


def plan_affinity(
    workers: int,
    peer_pairs: Iterable[tuple[int, int]] = (),
    cpus: Optional[list[int]] = None,
) -> Optional[list[list[int]]]:
    """CPU sets per worker, shuttle peers co-located on one package.

    Returns ``None`` when the host gives us nothing to pin against.
    Each co-location group (workers connected by cut channels) is
    assigned to the package with the most free CPUs, and the package's
    CPUs are striped across the group's workers; a group larger than any
    package simply shares the fullest one.
    """
    if workers < 1:
        return None
    if cpus is None:
        cpus = available_cpus()
    if not cpus:
        return None

    packages = list(cpu_packages(cpus).values())
    assignment: list[Optional[list[int]]] = [None] * workers
    # Track remaining capacity per package: (free slots heuristic).
    load = [0] * len(packages)

    for group in _union_groups(workers, peer_pairs):
        # Fullest-fit by CPUs-per-already-assigned-worker keeps packages
        # balanced while honoring co-location.
        target = max(
            range(len(packages)),
            key=lambda p: (len(packages[p]) / (load[p] + 1), -p),
        )
        load[target] += len(group)
        pool = packages[target]
        for offset, worker in enumerate(group):
            if len(pool) >= len(group):
                # Stripe: worker gets every len(group)-th CPU of the pool.
                cpu_set = pool[offset :: len(group)]
            else:
                cpu_set = pool  # oversubscribed: share the package
            assignment[worker] = cpu_set or pool
    return [cpu_set if cpu_set else cpus for cpu_set in assignment]


def pin_current_process(cpu_set: Iterable[int]) -> bool:
    """Apply ``cpu_set`` to the calling process/thread; best effort."""
    try:
        os.sched_setaffinity(0, set(cpu_set))
        return True
    except (AttributeError, OSError, ValueError):
        return False
