"""The benchmark's workload process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S] [--smoke]

Run from the repository root; ehcog is imported from ./src.  perfbench/run.py
starts this script in a fresh interpreter for every sample, so that start-up,
import and memory are those of one user's process.  Modes:

  setup      import ehcog.cli, build the workload's inputs, report when ready
  timed      setup, then run whole jobs back to back (closed loop, one job
             at a time), at least MIN_JOBS of them and until --seconds
             have passed, then check every output
  trace      setup, one untraced job, one job with perfbench/tracing.py's
             wrappers installed; spans go to .perfbench/spans-NAME.jsonl.
             Always uses the reference inputs (seed 0), so the traced counts
             repeat exactly from run to run and the outputs are compared bit
             for bit with perfbench/reference.json
  reference  run one job on the reference inputs and store its outputs in
             perfbench/reference.json

The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import random
import resource
import sys
import time
import traceback
import tracemalloc

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REF_SEED = 0
MIN_JOBS = 3  # so that the median job time rejects one slow outlier
TOL = 1e-6  # the acceptance tests' tolerance on throughput and delay

#: input sizes; the smoke sizes only exercise the harness
SIZES = {
    "full": {"sweep_grid": None, "grid_step": 0.05, "n_slots": 100_000},
    "smoke": {"sweep_grid": [0.126], "grid_step": 0.25, "n_slots": 300},
}

sys.path.insert(0, SRC)
from ehcog import cli, feedback, nofeedback, optimizer, presets, simulator  # noqa: E402
from ehcog.params import PolicyFb, PolicyNoFb, Scheme, TrafficParams  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"ehcog was imported from {cli.__file__}, not from {SRC}")


def no_op(label):
    return contextlib.nullcontext()


def preset_inputs(preset: str, scheme: str | None = None):
    """(scheme, profile, sensing, policy, traffic) as `ehcog` builds them
    from a preset and an optional --scheme override."""
    cfg = presets.get_preset(preset)
    if scheme:
        cfg["scheme"] = scheme
    scheme = cli._parse_scheme(cfg["scheme"])
    return (scheme, cli._parse_profile(cfg), cli._parse_sensing(cfg),
            cli._parse_policy(cfg, scheme), cli._parse_traffic(cfg))


def consistent(scheme, profile, sensing, policy, traffic, mu_s, feasible) -> bool:
    """The optimizer's answer agrees with the scalar analysis of its policy:
    same mu_s and delay_feasible == feasible, both to TOL."""
    mod = feedback if scheme is Scheme.FEEDBACK else nofeedback
    rep = mod.analyze(profile, policy, sensing, traffic)
    slack = TOL if feasible else -TOL
    meets = rep.primary_stable and rep.delay <= traffic.delay_bound + slack
    return meets == feasible and abs(rep.mu_s - mu_s) <= TOL


def take_csv(path: str) -> list[list[str]]:
    """Data rows of a CSV the job wrote, removing the file so that the next
    job cannot be credited with it; [] if there is none."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    except FileNotFoundError:
        return []
    os.remove(path)
    return rows


def check_opt_row(row: list[str], scheme: Scheme, profile, sensing, traffic) -> bool:
    """A row as cli._opt_row writes it agrees with the scalar analysis."""
    fields = [float(v or 0.0) for v in row[6:11]]
    policy = PolicyFb(*fields) if scheme is Scheme.FEEDBACK else PolicyNoFb(*fields[:4])
    return consistent(scheme, profile, sensing, policy, traffic, float(row[3]), row[11] == "true")


class FigureSweep:
    """`ehcog sweep --preset fig4` through cli.main: 14 lam_p values x 3
    schemes = 42 solve calls on the sweep's thread pool.  The seed is the
    solver's Sobol seed.  One operation is one CSV row."""

    def __init__(self, seed: int, size: dict):
        self.csv = os.path.join(OUT_DIR, "figure_sweep.csv")
        self.argv = ["sweep", "--preset", "fig4", "--seed", str(seed), "--out", self.csv]
        _, self.profile, self.sensing, _, self.traffic = preset_inputs("fig4")
        grid = presets.get_preset("fig4")["sweep"]["grid"]
        if size["sweep_grid"]:
            grid = size["sweep_grid"]
            config = os.path.join(OUT_DIR, "smoke_sweep.yaml")
            with open(config, "w") as fh:
                json.dump({"sweep": {"grid": grid}, "solver": {"n_starts": 32}}, fh)
            self.argv += ["--config", config]
        self.keys = [(cli._fmt(float(v)), s.value) for v in grid for s in cli.SCHEME_ORDER]
        self.n_ops = len(self.keys)

    def call(self, op=no_op):
        with op("sweep fig4"), contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def outputs(self, rc) -> list:
        rows = take_csv(self.csv) if rc == 0 else []
        return rows + [None] * (self.n_ops - len(rows))

    def check(self, i: int, row: list[str]) -> bool:
        lam, scheme = self.keys[i]
        if (row[2], row[0]) != (lam, scheme):
            return False
        traffic = dataclasses.replace(self.traffic, lam_p=float(lam))
        return check_opt_row(row, Scheme(scheme), self.profile, self.sensing, traffic)


class GridAudit:
    """grid_oracle on criterion 07's problem shape: {nofeedback, feedback} x
    delay bound {2, 200, inf} x two lam_p values, each drawn by the seed
    within 0.02 of criterion 07's 0.126 and 0.3.  The jitter is kept small
    because how much of the grid the second pass re-scores depends on lam_p.
    One operation is one grid_oracle call."""

    def __init__(self, seed: int, size: dict):
        rng = random.Random(seed)
        lams = [round(c + rng.uniform(-0.02, 0.02), 3) for c in (0.126, 0.3)]
        _, profile, sensing, _, _ = preset_inputs("fig4")
        self.step = size["grid_step"]
        self.problems = [
            optimizer.OptProblem(scheme, profile, sensing, TrafficParams(lam, 1.0, 0.8, bound))
            for scheme, bound, lam in itertools.product(
                (Scheme.NOFEEDBACK, Scheme.FEEDBACK), (2.0, 200.0, math.inf), lams
            )
        ]
        self.n_ops = len(self.problems)

    def call(self, op=no_op):
        results = []
        for p in self.problems:
            with op(f"grid_oracle {p.scheme.value} {p.traffic.delay_bound} {p.traffic.lam_p}"):
                results.append(optimizer.grid_oracle(p, self.step))
        return results

    def outputs(self, results) -> list:
        return [cli._opt_row(p.scheme, "", "", r) + [cli._fmt(r.meta.n_evals)]
                for p, r in zip(self.problems, results)]

    def check(self, i: int, row: list[str]) -> bool:
        p = self.problems[i]
        return check_opt_row(row, p.scheme, p.profile, p.sensing, p.traffic)


class ValidatePoints:
    """`ehcog validate` through cli.main on the four points of
    scripts/run_validation.py.  The seed is the simulation seed.  One
    operation is one point; its output is the exit code and the CSV."""

    POINTS = (("fig4", None), ("fig4", "feedback"), ("fig7", None), ("fig8", "feedback"))
    #: closed-form predictions in the validate CSV and the analyze field each equals
    PREDICTIONS = {
        "mu_s_hat vs mu_s": "mu_s",
        "mu_p_hat vs mu_p": "mu_p",
        "delay_hat vs delay": "delay",
        "empty_frac_p vs nu0": "nu0",
        "empty_frac_p vs pi0": "nu0",
        "mu_s analytic <= exact + 3se": "mu_s",
    }

    def __init__(self, seed: int, size: dict):
        self.seed, self.n_slots = seed, size["n_slots"]
        self.points = []
        for i, (preset, scheme) in enumerate(self.POINTS):
            path = os.path.join(OUT_DIR, f"validate_{i}.csv")
            argv = ["validate", "--preset", preset, "--slots", str(self.n_slots),
                    "--seed", str(seed), "--out", path]
            if scheme:
                argv += ["--scheme", scheme]
            self.points.append((argv, path, preset_inputs(preset, scheme)))
        self.n_ops = len(self.points)

    def call(self, op=no_op):
        rcs = []
        for argv, _, (scheme, *_) in self.points:
            with op(f"validate {argv[2]} {scheme.value}"), contextlib.redirect_stdout(io.StringIO()):
                rcs.append(cli.main(argv))
        return rcs

    def outputs(self, rcs) -> list:
        return [[str(rc)] + sum(take_csv(path), []) for rc, (_, path, _) in zip(rcs, self.points)]

    def check(self, i: int, out: list[str]) -> bool:
        # 3-standard-error verdicts are not failures: a correct simulator
        # fails about 0.3% of them on a fresh seed
        if out[0] not in ("0", "3"):
            return False
        scheme, profile, sensing, policy, traffic = self.points[i][2]
        mod = feedback if scheme is Scheme.FEEDBACK else nofeedback
        rep = mod.analyze(profile, policy, sensing, traffic)
        rows = [out[j:j + 7] for j in range(1, len(out), 7)]
        if rep.primary_stable and not rows:
            return False
        for kind, name, measured, reference, residual, bound, passed in rows:
            values = [float(v) for v in (measured, reference, residual)]
            if not all(map(math.isfinite, values)) or passed not in ("true", "false"):
                return False
            field = self.PREDICTIONS.get(name)
            predicted = values[0] if kind == "lower-bound" else values[1]
            if field and not math.isclose(predicted, getattr(rep, field), rel_tol=TOL, abs_tol=TOL):
                return False
        return True

    def peak_bytes_per_slot(self) -> float:
        """Peak traced allocation of one simulator.run call, per slot."""
        scheme, profile, sensing, policy, traffic = self.points[0][2]
        tracemalloc.start()
        try:
            simulator.run(scheme, policy, profile, sensing, traffic,
                          simulator.SimSemantics.BACKLOGGED, self.n_slots, self.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / self.n_slots


class Audit:
    """The two audits of the model, one after the other: GridAudit's 12
    grid_oracle calls, then ValidatePoints at 100k slots.  They share one
    workload because the simulator's per-slot loop runs at the speed of the
    Python interpreter, which on a shared machine drifts by up to a third
    from minute to minute; alone it cannot be timed within the bounds."""

    def __init__(self, seed: int, size: dict):
        self.grid, self.validate = GridAudit(seed, size), ValidatePoints(seed, size)
        self.n_ops = self.grid.n_ops + self.validate.n_ops

    def call(self, op=no_op):
        return self.grid.call(op), self.validate.call(op)

    def outputs(self, raw) -> list:
        return self.grid.outputs(raw[0]) + self.validate.outputs(raw[1])

    def check(self, i: int, out: list[str]) -> bool:
        if i < self.grid.n_ops:
            return self.grid.check(i, out)
        return self.validate.check(i - self.grid.n_ops, out)

    def peak_bytes_per_slot(self) -> float:
        return self.validate.peak_bytes_per_slot()


WORKLOADS = {"figure_sweep": FigureSweep, "audit": Audit}


def run_job(wl, op=no_op):
    """One job: (seconds from the first call into ehcog to the last result,
    per-operation outputs, None where the operation failed)."""
    t0 = time.perf_counter()
    try:
        raw = wl.call(op)
    except Exception:
        traceback.print_exc()
        raw = None
    elapsed = time.perf_counter() - t0
    return elapsed, (wl.outputs(raw) if raw is not None else [None] * wl.n_ops)


def compare(got: list[str], ref: list[str]) -> tuple[int, bool]:
    """(fields that differ in any bit, whether all agree to TOL)."""
    bits, close = 0, len(got) == len(ref)
    for a, b in zip(got, ref):
        if a == b:
            continue
        bits += 1
        try:
            close &= math.isclose(float(a), float(b), rel_tol=TOL, abs_tol=TOL)
        except ValueError:
            close = False
    return bits, close


def check_jobs(wl, jobs: list[list], reference: list | None) -> dict:
    """Count failed operations over all jobs.  An operation fails if it
    raised or exited with an undocumented code, if its output disagrees with
    the scalar analysis, or, on the reference inputs, if it is outside TOL
    of the reference.  Bit-level differences are counted separately."""
    verdicts: dict = {}
    failed = bits = 0
    for outputs in jobs:
        for i, out in enumerate(outputs):
            key = (i, None if out is None else tuple(out))
            if key not in verdicts:
                try:
                    ok = out is not None and wl.check(i, out)
                except (ValueError, IndexError):
                    ok = False
                n_bits = 0
                if out is not None and reference is not None:
                    n_bits, close = compare(out, reference[i])
                    ok &= close
                verdicts[key] = (ok, n_bits)
            ok, n_bits = verdicts[key]
            failed += not ok
            bits += n_bits
    return {"attempted": wl.n_ops * len(jobs), "failed": failed, "bit_mismatches": bits}


def load_reference(workload: str, seed: int, size_name: str):
    if seed != REF_SEED or size_name != "full":
        return None
    with open(REFERENCE) as fh:
        ref = json.load(fh)[workload]
    if ref["size"] != SIZES["full"]:
        sys.exit(f"{REFERENCE} holds {workload} at {ref['size']}, not at {SIZES['full']}")
    return ref["ops"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REF_SEED)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace", "reference"))
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = ap.parse_args()
    size_name = "smoke" if args.smoke else "full"
    seed = args.seed if args.mode in ("setup", "timed") else REF_SEED
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload](seed, SIZES[size_name])
    result = {"ready": time.monotonic()}

    if args.mode == "timed":
        times, jobs = [], []
        start = time.monotonic()
        while len(times) < MIN_JOBS or time.monotonic() - start < args.seconds:
            elapsed, outputs = run_job(wl)
            times.append(elapsed)
            jobs.append(outputs)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["job_s"] = times
        result.update(check_jobs(wl, jobs, load_reference(args.workload, seed, size_name)))
    elif args.mode == "trace":
        from tracing import Tracer

        untraced, plain = run_job(wl)
        tracer = Tracer()
        tracer.install()
        try:
            traced, outputs = run_job(wl, tracer.operation)
        finally:
            tracer.uninstall()
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        with open(spans, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
        result.update(
            job_s=untraced,
            traced_job_s=traced,
            spans=spans,
            peak_bytes_per_slot=wl.peak_bytes_per_slot() if isinstance(wl, Audit) else 0.0,
        )
        result.update(check_jobs(wl, [plain, outputs], load_reference(args.workload, seed, size_name)))
    elif args.mode == "reference":
        if args.smoke:
            sys.exit("the reference is recorded at full size")
        _, outputs = run_job(wl)
        if None in outputs:
            sys.exit("an operation failed; no reference written")
        ref = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                ref = json.load(fh)
        ref[args.workload] = {"seed": seed, "size": SIZES["full"], "ops": outputs}
        with open(REFERENCE, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
