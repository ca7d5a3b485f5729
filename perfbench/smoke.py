#!/usr/bin/env python3
"""Fast smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Run from the repository root; it takes about a minute.  For each workload it
runs perfbench/run.py --smoke (300 slots, a 0.25 grid, one sweep value) with
tracing off and on, and checks that the last line names every metric of
BENCHMARK.json with its unit, that no operation failed, and that the traced
run wrote parseable spans.  It then checks that the benchmark refuses, with
a nonzero exit and no result, to run in a directory that holds only
BENCHMARK.json and perfbench/.  Exits 1 on the first problem.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from results import load_benchmark

HERE = os.path.dirname(os.path.abspath(__file__))
SPAN_KEYS = {"id", "name", "parent", "op", "thread", "start", "end"}


class SmokeFailure(Exception):
    pass


def expect(condition, message) -> None:
    if not condition:
        raise SmokeFailure(message)


def run(args: list[str], cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(bench: dict, workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    if proc.returncode != 0:
        raise SmokeFailure(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, set(got) ^ set(wanted))
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), (name, m))
    if trace:
        with open(os.path.join(".perfbench", f"spans-{workload}.jsonl")) as fh:
            spans = [json.loads(line) for line in fh]
        expect(spans, "no spans")
        for s in spans:
            expect(SPAN_KEYS <= set(s) and s["start"] <= s["end"], s)
        ids = {s["id"] for s in spans}
        expect(all(s["parent"] is None or s["parent"] in ids for s in spans), "orphan span")


def check_bare_directory() -> None:
    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(["--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0, "ran without the program")
    expect('"correct"' not in proc.stdout, "printed a result without the program")
    expect("src/ehcog" in proc.stderr, f"refused for another reason: {proc.stderr[-500:]}")


def main() -> int:
    bench = load_benchmark()
    try:
        for w in bench["workloads"]:
            for trace in (0, 1):
                check_run(bench, w["name"], trace)
                print(f"ok {w['name']} trace {trace}", flush=True)
        check_bare_directory()
        print("ok bare directory refused")
    except SmokeFailure as e:
        print(f"smoke test failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
