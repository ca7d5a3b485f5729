#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/suite.py --out FILE [--seeds 1-10] [--trace 0|1]

Runs perfbench/run.py once per seed and workload of BENCHMARK.json, for
its run_seconds, seeds outermost so that slow drift of the machine spreads
over every workload, and appends each run to FILE.  Then prints, for each
workload in FILE, the error rate and every metric by name with its unit:
the median and quartiles over runs and, for end-to-end metrics, the spread
(q3 - q1) / median next to the metric's bound.  Exits 1 if a run did not
finish or any operation failed.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

from results import by_workload, describe, load_benchmark, load_records, quartiles, units

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(records: list[dict], bench: dict) -> bool:
    unit = units(bench)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for trace in (0, 1):
        names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
        for workload, runs in sorted(by_workload(records, trace).items()):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            ok &= failed == 0 and all(r["correct"] for r in runs)
            print(f"{workload}, trace {trace}, {len(runs)} runs: error_rate "
                  f"{failed / attempted:.3g} ({failed} of {attempted} operations failed)")
            for name in names:
                values = [r["metrics"][name] for r in runs]
                line = f"  {name}: {describe(values, unit[name])}"
                if name in bounds:
                    q1, med, q3 = quartiles(values)
                    spread = (q3 - q1) / med
                    flag = "  OVER A THIRD OF THE BOUND" if spread > bounds[name] / 3 else ""
                    line += f", spread {spread:.4f} (bound {bounds[name]}){flag}"
                print(line)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON-lines file the runs are appended to")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = load_benchmark()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    finished = True
    for seed in seed_range(args.seeds):
        for workload in (w["name"] for w in bench["workloads"]):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--record", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"seed {seed} {workload}: exit {proc.returncode} {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                finished = False
    ok = summarize(load_records(args.out), bench)
    return 0 if ok and finished else 1


if __name__ == "__main__":
    sys.exit(main())
