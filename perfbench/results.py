"""Helpers shared by run.py, suite.py and compare.py: the metric
definitions in BENCHMARK.json, result records and quartiles."""
from __future__ import annotations

import json
import os
import statistics


def load_benchmark(root: str = ".") -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units(bench: dict) -> dict:
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def load_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values, unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out
