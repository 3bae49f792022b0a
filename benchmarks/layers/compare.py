"""``run.py --compare A.json B.json``: did B get worse than A?

One row per workload and end-to-end metric: both values with the
quartiles of their per-round values, the ratio B / A (A is the base), and
a verdict against the bound fixed in ``BENCHMARK.json``:

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — not regressed, but the spread between rounds of either
  side is wider than the bound, so "no change" cannot be claimed;
* ``ok``         — neither.

Exit code 1 when any row regressed, 2 when the two files cannot be
compared (different core count, Python version or sizes).
"""

from __future__ import annotations

import json
import statistics


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)``
    gives them (the driver's rule); a single value has no spread."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base: float, new: float, spreads: list[float], better: str, bound: float) -> str:
    worse = (new - base) / base if better == "lower" else (base - new) / base
    if worse > bound:
        return "regressed"
    if max(spreads) > bound:
        return "unresolved"
    return "ok"


def compare_files(path_a: str, path_b: str, contract: dict) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    for key in ("nproc", "python"):
        if a["stamp"][key] != b["stamp"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['stamp'][key]} vs {b['stamp'][key]})")
            return 2
    if a["smoke"] != b["smoke"]:
        print("refusing to compare a smoke result with a full-size result")
        return 2
    for side, result in (("A", a), ("B", b)):
        if result["stamp"]["dirty"]:
            print(f"WARNING: {side} was measured on a DIRTY tree")

    print(f"base A = {path_a} ({a['stamp']['git_rev']}), "
          f"B = {path_b} ({b['stamp']['git_rev']})")
    header = (f"{'workload':<12} {'metric':<20} {'A [q1..q3]':>34} "
              f"{'B [q1..q3]':>34} {'B/A':>7}  verdict")
    print(header)
    regressed = False
    for workload in (entry["name"] for entry in contract["workloads"]):
        row_a, row_b = a["workloads"][workload], b["workloads"][workload]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            cells, spreads = [], []
            for row in (row_a, row_b):
                value = row["metrics"][name]
                q1, q3 = quartiles(row["rounds"][name])
                spreads.append((q3 - q1) / value)
                cells.append(f"{value:.5g} [{q1:.5g}..{q3:.5g}]")
            base, new = row_a["metrics"][name], row_b["metrics"][name]
            outcome = verdict(base, new, spreads, metric["better"], metric["bound"])
            regressed = regressed or outcome == "regressed"
            print(f"{workload:<12} {name:<20} {cells[0]:>34} {cells[1]:>34} "
                  f"{new / base:>7.3f}  {outcome}")
        for side, row in (("A", row_a), ("B", row_b)):
            if row["failed"]:
                print(f"{workload:<12} {side} had {row['failed']} failed of "
                      f"{row['attempted']} operations")
    return 1 if regressed else 0
