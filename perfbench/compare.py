#!/usr/bin/env python3
"""Compare two result sets of the benchmark: the parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files are written by perfbench/suite.py (or run.py --record) with the
same benchmark code and settings; sets recorded at another run length or
input size are refused.  Run the two sides alternately, seed by seed, so
that slow drift of the machine falls on both (see perfbench/README.md).
For each workload and end-to-end metric it prints each side's median and
quartiles, the share of seed-paired runs the change wins (ties count for
neither side), and a verdict:

  unresolved  for a time, when the median shares of the machine's CPU time
              that the host stole during the two sets' runs differ by more
              than STEAL_DRIFT: the sets met differently loaded machines
  better      at least ten pairs, the change wins nine in ten of them and
              the medians differ by more than the parent's spread (q3 - q1)
  unresolved  otherwise, when the parent's spread (q3 - q1) / median is
              wider than the metric's bound, unless every run of the change
              beats every run of the parent (then: same)
  worse       otherwise, when the change's median is worse than the
              parent's by more than the bound
  same        no gain shown and no regression beyond the bound

Per-layer metrics of traced runs are listed side by side, without a verdict.
Exits 1 if either set has a failed operation.
"""
from __future__ import annotations

import sys
from collections import defaultdict

from results import by_workload, describe, load_benchmark, load_records, quartiles

MIN_PAIRS = 10
#: on a shared 2-vCPU machine, figure_sweep's job_s rose by about 2% per
#: point of the CPU time the host stole; 3 points shift it by about the
#: smallest parent spread (q3 - q1) / median measured, 7%
STEAL_DRIFT = 0.03


def paired(parent: list[dict], change: list[dict], name: str) -> list[tuple[float, float]]:
    """(parent, change) values of runs with the same seed, in run order."""
    by_seed = defaultdict(list)
    for r in change:
        by_seed[r["seed"]].append(r["metrics"][name])
    pairs = []
    for r in parent:
        if by_seed[r["seed"]]:
            pairs.append((r["metrics"][name], by_seed[r["seed"]].pop(0)))
    return pairs


def verdict(parent: list[float], change: list[float], pairs, bound: float, lower: bool) -> tuple[str, str]:
    sign = 1.0 if lower else -1.0  # sign * (change - parent) < 0 is a gain
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    share = f"{wins}/{len(pairs)} pairs won, {losses} lost"
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * (cmed - pmed) < -(pq3 - pq1):
        return "better", share
    if (pq3 - pq1) / pmed > bound:
        worst_change, best_parent = (max(change), min(parent)) if lower else (min(change), max(parent))
        separated = sign * (worst_change - best_parent) < 0
        return ("same" if separated else "unresolved"), share
    if sign * (cmed - pmed) / pmed > bound:
        return "worse", share
    return "same", share


def median_steal(records: list[dict]) -> float:
    return quartiles(r["steal_share"] for r in records)[1]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    parent_all, change_all = load_records(sys.argv[1]), load_records(sys.argv[2])
    settings = {(r["seconds"], r["smoke"]) for r in parent_all + change_all}
    if len(settings) != 1:
        print(f"refused: the sets mix run settings (seconds, smoke) {sorted(settings)}", file=sys.stderr)
        return 2
    ok = all(r["failed"] == 0 for r in parent_all + change_all)
    parent, change = by_workload(parent_all, 0), by_workload(change_all, 0)
    for workload in sorted(set(parent) & set(change)):
        steal = median_steal(parent[workload]), median_steal(change[workload])
        print(f"{workload}: end to end, parent -> change; median CPU time stolen by the host "
              f"{steal[0]:.1%} -> {steal[1]:.1%}")
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name] for r in parent[workload]]
            c = [r["metrics"][name] for r in change[workload]]
            pairs = paired(parent[workload], change[workload], name)
            result, share = verdict(p, c, pairs, m["bound"], m["better"] == "lower")
            if m["unit"] == "s" and abs(steal[1] - steal[0]) > STEAL_DRIFT:
                result = "unresolved"
            print(f"  {name}: {describe(p, m['unit'])} -> {describe(c, m['unit'])}; "
                  f"{share}; bound {m['bound']}: {result.upper()}")
    parent, change = by_workload(parent_all, 1), by_workload(change_all, 1)
    for workload in sorted(set(parent) & set(change)):
        print(f"{workload}: per layer (median of traced runs), parent -> change")
        for m in bench["per_layer"]:
            name = m["name"]
            p = quartiles([r["metrics"][name] for r in parent[workload]])[1]
            c = quartiles([r["metrics"][name] for r in change[workload]])[1]
            rel = f" ({(c - p) / p:+.1%})" if p else ""
            print(f"  {name} ({m['unit']}): {p:.6g} -> {c:.6g}{rel}")
    if not ok:
        print("a result set has failed operations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
