"""Command-line front end.

Subcommands: analyze, optimize, sweep, simulate, validate.  Configuration
comes from a preset (--preset), a YAML file (--config), or both (the file is
deep-merged over the preset); --scheme/--seed/--slots/--out override
individual values.  Relative --config paths are also looked up under
$EHCOG_CONFIG_DIR.  CSV output uses a fixed header per command, 17
significant digits and LF line endings so identical configs give byte-
identical files.

Exit codes: 0 ok, 1 config error, 2 infeasible or unstable operating point,
3 validation failure.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import fields, replace

import yaml

from . import feedback, nofeedback, optimizer, simulator
from .outage import CrossSnr, build_profile
from .params import (
    LinkBudget,
    OutageProfile,
    PolicyFb,
    PolicyNoFb,
    PowerMode,
    Scheme,
    SensingQuality,
    TrafficParams,
)
from .presets import get_preset
from .simulator import SimSemantics

CONFIG_DIR_ENV = "EHCOG_CONFIG_DIR"

SCHEME_ORDER = (Scheme.FEEDBACK, Scheme.NOFEEDBACK, Scheme.RANDOM_ACCESS)

ANALYZE_HEADER = [
    "scheme", "lam_p", "lam_s", "lam_e", "delay_bound",
    "mu_p", "mu_s", "nu0", "delay",
    "primary_stable", "delay_feasible", "secondary_stable",
]
OPT_HEADER = [
    "scheme", "sweep_var", "sweep_value",
    "mu_s_opt", "mu_p_at_opt", "delay_at_opt",
    "p_sense", "p_access_free", "p_access_busy", "p_access_direct", "p_access_retx",
    "feasible",
]
SIM_HEADER = [
    "scheme", "semantics", "n_slots", "seed",
    "mu_p_hat", "mu_s_hat", "mu_e_hat", "delay_hat",
    "mean_queue_p", "mean_queue_s", "empty_frac_p", "retx_frac", "lam_p_hat",
    "ci_mu_p_hat", "ci_mu_s_hat", "ci_delay_hat", "ci_empty_frac_p",
]
VALIDATE_HEADER = [
    "kind", "name", "measured", "reference", "residual", "bound", "passed",
]


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.preset:
        try:
            cfg = get_preset(args.preset)
        except KeyError as e:
            raise ConfigError(str(e)) from None
    if args.config:
        path = args.config
        if not os.path.exists(path) and not os.path.isabs(path):
            env_dir = os.environ.get(CONFIG_DIR_ENV)
            if env_dir and os.path.exists(os.path.join(env_dir, path)):
                path = os.path.join(env_dir, path)
        try:
            with open(path) as fh:
                loaded = yaml.safe_load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except yaml.YAMLError as e:
            raise ConfigError(f"config parse error: {e}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a mapping")
        cfg = _deep_merge(cfg, loaded)
    if args.scheme:
        cfg["scheme"] = args.scheme
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.slots is not None:
        cfg["sim"] = dict(_mapping(cfg.get("sim", {}), "sim"), n_slots=args.slots)
    if args.out:
        cfg["out"] = args.out
    return cfg


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}' in {where}")
    return cfg[key]


def _mapping(section, where: str) -> dict:
    """A config section, which must be a mapping before any field is read."""
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    return section


def _check_numbers(section: dict, names, where: str) -> None:
    """Refuse any value in section of a field in names that is not an int or
    a float, bools included: YAML reads 1e-3 or a quoted number as a string,
    and the range checks downstream do not all refuse one."""
    for name, value in section.items():
        if name in names and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"'{where}.{name}' must be a number")


def _build(cls, section: dict, where: str):
    _check_numbers(_mapping(section, where), {f.name for f in fields(cls)}, where)
    try:
        return cls(**section)
    except TypeError as e:
        raise ConfigError(f"bad field in '{where}': {e}") from None
    except ValueError as e:
        raise ConfigError(f"invalid value in '{where}': {e}") from None


def _parse_scheme(value) -> Scheme:
    try:
        return Scheme(str(value).lower())
    except ValueError:
        raise ConfigError(
            f"unknown scheme {value!r}; expected one of "
            f"{[s.value for s in Scheme]}"
        ) from None


def _parse_profile(cfg: dict) -> OutageProfile:
    section = _need(cfg, "profile")
    if not isinstance(section, dict) or len(section) != 1:
        raise ConfigError("'profile' must contain exactly one of: probabilities, physics")
    if "probabilities" in section:
        probs = dict(_mapping(section["probabilities"], "profile.probabilities"))
        if "short_ratio" in probs or "short_ratio_conc" in probs:
            try:
                kwargs = {
                    key: probs.pop(key)
                    for key in (
                        "p_primary", "p_primary_conc", "p_sec_full",
                        "p_sec_full_conc", "short_ratio", "short_ratio_conc",
                    )
                }
            except KeyError as e:
                raise ConfigError(f"profile.probabilities missing field {e}") from None
            if probs:
                raise ConfigError(f"unexpected profile fields: {sorted(probs)}")
            _check_numbers(kwargs, kwargs, "profile.probabilities")
            try:
                return OutageProfile.from_ratios(**kwargs)
            except ValueError as e:
                raise ConfigError(f"invalid value in 'profile.probabilities': {e}") from None
        return _build(OutageProfile, section["probabilities"], "profile.probabilities")
    if "physics" in section:
        phys = _mapping(section["physics"], "profile.physics")
        primary = _build(LinkBudget, _need(phys, "primary", "profile.physics"), "physics.primary")
        secondary = _build(LinkBudget, _need(phys, "secondary", "profile.physics"), "physics.secondary")
        cross = _build(CrossSnr, _need(phys, "cross", "profile.physics"), "physics.cross")
        try:
            mode = PowerMode(phys.get("power_mode", "fixed_energy"))
        except ValueError:
            raise ConfigError(
                f"unknown power_mode {phys.get('power_mode')!r}; expected one of "
                f"{[m.value for m in PowerMode]}"
            ) from None
        try:
            return build_profile(primary, secondary, cross, mode)
        except ValueError as e:
            raise ConfigError(f"invalid value in 'profile.physics': {e}") from None
    raise ConfigError("'profile' must contain 'probabilities' or 'physics'")


def _parse_traffic(cfg: dict) -> TrafficParams:
    section = dict(_mapping(_need(cfg, "traffic"), "traffic"))
    if "delay_bound" in section and section["delay_bound"] in (None, "inf"):
        section["delay_bound"] = math.inf
    return _build(TrafficParams, section, "traffic")


def _parse_policy(cfg: dict, scheme: Scheme) -> PolicyNoFb:
    section = dict(_mapping(_need(cfg, "policy"), "policy"))
    if scheme is Scheme.FEEDBACK:
        return _build(PolicyFb, section, "policy")
    section.pop("p_access_retx", None)
    policy = _build(PolicyNoFb, section, "policy")
    if scheme is Scheme.RANDOM_ACCESS and policy.p_sense != 0:
        raise ConfigError(f"random_access requires 'policy.p_sense' = 0, got {policy.p_sense!r}")
    return policy


def _parse_sensing(cfg: dict) -> SensingQuality:
    return _build(SensingQuality, cfg.get("sensing", {}), "sensing")


def _parse_point(cfg: dict) -> tuple:
    """(scheme, profile, sensing, traffic, policy) of a single-point command."""
    scheme = _parse_scheme(_need(cfg, "scheme"))
    return (scheme, _parse_profile(cfg), _parse_sensing(cfg), _parse_traffic(cfg),
            _parse_policy(cfg, scheme))


def _parse_solver(cfg: dict) -> optimizer.SolverConfig:
    section = dict(_mapping(cfg.get("solver", {}), "solver"))
    section.setdefault("seed", cfg.get("seed", 0))
    return _build(optimizer.SolverConfig, section, "solver")


def _parse_int(value, where: str, minimum: int) -> int:
    """value if it is an int >= minimum.  Floats and bools are refused, as
    SolverConfig refuses them, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"'{where}' must be >= {minimum}, got {value}")
    return value


def _parse_run(cfg: dict) -> tuple[dict, int, int]:
    """(sim section, n_slots, seed) of a simulate/validate config."""
    sim_cfg = _mapping(cfg.get("sim", {}), "sim")
    n_slots = _parse_int(sim_cfg.get("n_slots", 1_000_000), "sim.n_slots", 1)
    return sim_cfg, n_slots, _parse_int(cfg.get("seed", 0), "seed", 0)


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def cmd_analyze(cfg: dict) -> int:
    scheme, profile, sensing, traffic, policy = _parse_point(cfg)
    mod = feedback if scheme is Scheme.FEEDBACK else nofeedback
    report = mod.analyze(profile, policy, sensing, traffic)
    row = [scheme.value,
           *(_fmt(float(getattr(traffic, name))) for name in ANALYZE_HEADER[1:5]),
           *(_fmt(getattr(report, name)) for name in ANALYZE_HEADER[5:])]
    print(f"scheme: {scheme.value}")
    for name, value in zip(ANALYZE_HEADER[5:], row[5:]):
        print(f"{name}: {value}")
    if cfg.get("out"):
        _write_csv(cfg["out"], ANALYZE_HEADER, [row])
    return 0 if report.primary_stable and report.delay_feasible else 2


def _opt_row(scheme, sweep_var, sweep_value, result) -> list:
    pol = result.policy
    retx = pol.p_access_retx if isinstance(pol, PolicyFb) else ""
    return [
        scheme.value, sweep_var, _fmt(sweep_value),
        _fmt(result.mu_s), _fmt(result.mu_p), _fmt(result.delay),
        _fmt(pol.p_sense), _fmt(pol.p_access_free), _fmt(pol.p_access_busy),
        _fmt(pol.p_access_direct), _fmt(retx) if retx != "" else "",
        _fmt(result.feasible),
    ]


def cmd_optimize(cfg: dict) -> int:
    scheme = _parse_scheme(_need(cfg, "scheme"))
    problem = optimizer.OptProblem(
        scheme=scheme,
        profile=_parse_profile(cfg),
        sensing=_parse_sensing(cfg),
        traffic=_parse_traffic(cfg),
    )
    result = optimizer.solve(problem, _parse_solver(cfg))
    print(f"scheme: {scheme.value}")
    print(f"feasible: {_fmt(result.feasible)}")
    print(f"mu_s_opt: {_fmt(result.mu_s)}")
    print(f"mu_p_at_opt: {_fmt(result.mu_p)}")
    print(f"delay_at_opt: {_fmt(result.delay)}")
    for name in optimizer.VAR_NAMES[scheme]:
        print(f"{name}: {_fmt(getattr(result.policy, name))}")
    if cfg.get("out"):
        _write_csv(cfg["out"], OPT_HEADER, [_opt_row(scheme, "", "", result)])
    return 0 if result.feasible else 2


def _sweep_tasks(cfg: dict):
    sweep = _mapping(_need(cfg, "sweep"), "sweep")
    var = _need(sweep, "variable", "sweep")
    grid = _need(sweep, "grid", "sweep")
    if var not in ("lam_p", "lam_e", "delay_bound", "mpr_on"):
        raise ConfigError(f"unknown sweep variable {var!r}")
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ConfigError("sweep grid must be a nonempty list")
    if var == "mpr_on":
        if any(g not in (0, 1, True, False) for g in grid):
            raise ConfigError("mpr_on grid values must be 0 or 1")
    else:
        if any(isinstance(g, bool) or not isinstance(g, (int, float)) for g in grid):
            raise ConfigError(f"sweep grid values must be numbers, got {grid!r}")
        if any(b < a for a, b in zip(grid, grid[1:])) and any(
            b > a for a, b in zip(grid, grid[1:])
        ):
            raise ConfigError("sweep grid must be monotone")
    profile = _parse_profile(cfg)
    sensing = _parse_sensing(cfg)
    traffic = _parse_traffic(cfg)
    solver_cfg = _parse_solver(cfg)
    tasks = []
    for value in grid:
        prof, tr = profile, traffic
        try:
            if var == "mpr_on":
                prof = profile if value else profile.without_mpr()
            else:
                tr = replace(traffic, **{var: float(value)})
        except ValueError as e:
            raise ConfigError(f"invalid sweep value {var}={value!r}: {e}") from None
        for scheme in SCHEME_ORDER:
            tasks.append((var, value, scheme, optimizer.OptProblem(scheme, prof, sensing, tr)))
    return tasks, solver_cfg


def cmd_sweep(cfg: dict) -> int:
    tasks, solver_cfg = _sweep_tasks(cfg)
    results = optimizer.solve_many([problem for *_, problem in tasks], solver_cfg)
    rows = [
        _opt_row(scheme, var, value, result)
        for (var, value, scheme, _), result in zip(tasks, results)
    ]
    out = cfg.get("out")
    if out:
        _write_csv(out, OPT_HEADER, rows)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(OPT_HEADER)
        w.writerows(rows)
    return 0


def cmd_simulate(cfg: dict) -> int:
    scheme, profile, sensing, traffic, policy = _parse_point(cfg)
    sim_cfg, n_slots, seed = _parse_run(cfg)
    try:
        semantics = SimSemantics(str(sim_cfg.get("semantics", "exact")).lower())
    except ValueError:
        raise ConfigError(f"unknown sim semantics {sim_cfg.get('semantics')!r}") from None
    stats = simulator.run(scheme, policy, profile, sensing, traffic, semantics, n_slots, seed)
    # the ci_* columns are the half-widths of the statistics they name
    row = [scheme.value, semantics.value, str(n_slots), str(seed),
           *(_fmt(getattr(stats, name)) for name in SIM_HEADER[4:13]),
           *(_fmt(stats.ci_halfwidths[name[3:]]) for name in SIM_HEADER[13:])]
    for name, value in zip(SIM_HEADER[4:13], row[4:13]):
        print(f"{name}: {value}")
    print(f"drift_detected: {_fmt(stats.drift_detected)}")
    if cfg.get("out"):
        _write_csv(cfg["out"], SIM_HEADER, [row])
    return 0


def cmd_validate(cfg: dict) -> int:
    scheme, profile, sensing, traffic, policy = _parse_point(cfg)
    _, n_slots, seed = _parse_run(cfg)
    bound_report = simulator.validate_lower_bound(
        scheme, policy, profile, sensing, traffic, n_slots, seed
    )
    # the lower-bound run's backlogged half is the run the closed forms
    # describe, so it is checked against them instead of being run again
    checks = simulator.residual_checks(
        bound_report.backlogged,
        simulator.predict(scheme, policy, profile, sensing, traffic),
        traffic.lam_p,
    )
    rows = []
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        all_ok &= c.passed
        print(
            f"[closed-form] {c.name}: measured={_fmt(c.measured)} "
            f"predicted={_fmt(c.predicted)} residual={_fmt(c.residual)} "
            f"bound={_fmt(c.bound)} {status}"
        )
        rows.append(["closed-form", c.name, _fmt(c.measured), _fmt(c.predicted),
                     _fmt(c.residual), _fmt(c.bound), _fmt(c.passed)])
    for c in bound_report.checks:
        status = "PASS" if c.passed else "FAIL"
        all_ok &= c.passed
        print(
            f"[lower-bound] {c.name}: lhs={_fmt(c.lhs)} rhs={_fmt(c.rhs)} "
            f"margin={_fmt(c.margin)} {status}"
        )
        rows.append(["lower-bound", c.name, _fmt(c.lhs), _fmt(c.rhs),
                     _fmt(abs(c.lhs - c.rhs)), _fmt(c.margin), _fmt(c.passed)])
    unstable = bound_report.unstable or not checks
    if cfg.get("out"):
        _write_csv(cfg["out"], VALIDATE_HEADER, rows)
    if unstable:
        print("unstable detected: checks reported, not asserted")
        return 0
    return 0 if all_ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ehcog",
        description="Analytical and Monte Carlo study of an energy-harvesting "
        "secondary link sharing a slotted channel with a primary user.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("analyze", cmd_analyze),
        ("optimize", cmd_optimize),
        ("sweep", cmd_sweep),
        ("simulate", cmd_simulate),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--preset", choices=["fig4", "fig6", "fig7", "fig8"])
        p.add_argument("--scheme", choices=[s.value for s in Scheme])
        p.add_argument("--seed", type=int)
        p.add_argument("--slots", type=int)
        p.add_argument("--out", help="CSV output path")
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = _load_config(args)
        if not args.preset and not args.config:
            raise ConfigError("need --preset and/or --config")
        return args.fn(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
