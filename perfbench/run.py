#!/usr/bin/env python3
"""One run of the ehcog benchmark on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE] [--smoke]

Run it from the root of a checkout: the program is imported from ./src, and
scratch files go to ./.perfbench.  Workloads (see worker.py):

  figure_sweep  `ehcog sweep --preset fig4`: 42 solve calls, optimizer-bound
  audit         grid_oracle on criterion 07's problem shape, then `ehcog
                validate` on four points: closed forms and simulator

With --trace 0 the run measures the end-to-end metrics with tracing off:
  job_s        median wall time of one job over the jobs of the run; jobs
               run back to back in one fresh process, at least 3 of them
               and until S seconds pass
  setup_s      median over fresh interpreters of the time to import
               ehcog.cli and build the workload's inputs
  peak_rss_mb  peak resident memory of the process that ran the jobs
With --trace 1 it runs one untraced and one traced job on the reference
inputs and reports the per-layer metrics listed in BENCHMARK.json.

Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give the environment and each metric with its quartiles.
--record appends the whole run, samples included, to FILE as one JSON line
(perfbench/suite.py and perfbench/compare.py read these).  The exit code is
0 when a result was printed, 2 when the harness could not run.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from results import describe, load_benchmark, units

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 4  # fresh interpreters that only set up, besides the timed one
IMPORT_SAMPLES = 3
TIME_LIMIT = 170.0  # seconds for the whole run
WORKLOADS = ("figure_sweep", "audit")


class HarnessError(RuntimeError):
    pass


class Runner:
    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.deadline = time.monotonic() + TIME_LIMIT

    def spawn(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run a fresh interpreter to completion; (monotonic start, result)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise HarnessError("out of time")
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"timed out: {' '.join(args)}") from None
        return t0, proc

    def worker(self, workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
        args = [WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode,
                "--seconds", str(seconds)]
        t0, proc = self.spawn(args + (["--smoke"] if self.smoke else []))
        sys.stderr.write(proc.stderr)  # tracebacks of failed operations
        if proc.returncode != 0:
            raise HarnessError(f"worker exited with {proc.returncode}")
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise HarnessError("worker printed no result") from None
        out["setup_s"] = out["ready"] - t0
        return out

    def wall(self, args: list[str]) -> tuple[float, str]:
        t0, proc = self.spawn(args)
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise HarnessError(f"failed: {' '.join(args)}")
        return elapsed, proc.stderr


def import_times(importtime: str) -> tuple[float, float]:
    """(seconds importing ehcog and ehcog.cli, seconds importing scipy) from
    `python -X importtime` output.  Entries are listed children first, one
    indentation step per level; a module counts with its whole subtree unless
    an ancestor already counts."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) / 1e6))
    ehcog = scipy = 0.0
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack and name.split(".")[0] == "ehcog":
            ehcog += cum
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for _, a in stack):
            scipy += cum
        stack.append((depth, name))
    return ehcog, scipy


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far; (0, 0) if unknown.
    Time the hypervisor gives to other guests slows every run on a shared
    machine, so the share stolen during a run explains outliers."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/ehcog/*.py")):
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    commit = "none: not a git checkout"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "pinning": "unpinned: no CPU affinity, frequency or isolation control; "
                   "the machine may be shared",
    }


def timed_run(runner: Runner, workload: str, seed: int, seconds: float):
    setups = [runner.worker(workload, seed, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    out = runner.worker(workload, seed, "timed", seconds)
    setups.append(out["setup_s"])
    samples = {"job_s": out["job_s"], "setup_s": setups, "peak_rss_mb": [out["peak_rss_mb"]]}
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    return out, samples, metrics


def traced_run(runner: Runner, workload: str):
    from tracing import isolation_violations, layer_metrics

    interpreter = [runner.wall(["-c", "pass"])[0] for _ in range(IMPORT_SAMPLES)]
    code = "import sys; sys.path.insert(0, 'src'); import ehcog.cli"
    imports = [import_times(runner.wall(["-X", "importtime", "-c", code])[1])
               for _ in range(IMPORT_SAMPLES)]
    out = runner.worker(workload, 0, "trace")
    try:
        with open(out["spans"]) as fh:
            spans = [json.loads(line) for line in fh]
    except (OSError, json.JSONDecodeError) as e:
        raise HarnessError(f"unreadable spans: {e}") from None
    metrics = layer_metrics(spans)
    violations = isolation_violations(spans)
    out["failed"] += violations
    metrics.update({
        "setup.interpreter_s": statistics.median(interpreter),
        "setup.import_ehcog_cli_s": statistics.median(e for e, _ in imports),
        "setup.import_scipy_s": statistics.median(s for _, s in imports),
        "simulator.run.peak_bytes_per_slot": out["peak_bytes_per_slot"],
        "trace.job_s": out["traced_job_s"],
        "trace.overhead_s": out["traced_job_s"] - out["job_s"],
        "check.bit_mismatches": out["bit_mismatches"],
        "check.isolation_violations": violations,
        "check.error_rate": out["failed"] / out["attempted"],
    })
    return out, {"job_s": [out["job_s"]], "trace.job_s": [out["traced_job_s"]]}, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="append the whole run to this JSON-lines file")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, to test the harness")
    args = ap.parse_args()
    stolen0, total0 = cpu_ticks()
    try:
        if not os.path.isfile(os.path.join("src", "ehcog", "cli.py")):
            raise HarnessError("no ./src/ehcog here: run from the root of an ehcog checkout")
        bench = load_benchmark()
        runner = Runner(args.smoke)
        if args.trace:
            out, samples, values = traced_run(runner, args.workload)
        else:
            out, samples, values = timed_run(runner, args.workload, args.seed, args.seconds)
        wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
        missing = [name for name in wanted if name not in values]
        if missing:
            raise HarnessError(f"metrics not measured: {missing}")
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    unit = units(bench)
    env = environment()
    stolen1, total1 = cpu_ticks()
    steal = (stolen1 - stolen0) / (total1 - total0) if total1 > total0 else 0.0
    error_rate = out["failed"] / out["attempted"]
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"{steal:.1%} of the machine's CPU time was stolen by the host during the run")
    for name in wanted:
        line = describe(samples[name], unit[name]) if name in samples else f"{values[name]:.6g} {unit[name]}"
        print(f"  {name}: {line}")
    print(f"  error_rate: {error_rate:.6g} ({out['failed']} of {out['attempted']} operations failed)")
    if not args.trace:
        print(f"  check.bit_mismatches: {out['bit_mismatches']} fields")
    correct = out["failed"] == 0
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "smoke": args.smoke, "env": env, "steal_share": steal, "samples": samples,
                "metrics": {name: values[name] for name in wanted},
                "attempted": out["attempted"], "failed": out["failed"], "correct": correct,
            }) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": values[name], "unit": unit[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
