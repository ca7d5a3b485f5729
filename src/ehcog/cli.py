"""Command-line front end.

Subcommands: analyze, optimize, sweep, simulate, validate.  Configuration
comes from a preset (--preset), a YAML file (--config), or both (the file is
deep-merged over the preset); --out and the flags a command reads override
individual values: --scheme (all but sweep, which solves every scheme),
--seed (all but analyze) and --slots (simulate, validate).  A flag the
command does not read is refused.  Relative --config paths are also looked
up under $EHCOG_CONFIG_DIR.  Each parameter section is built by _build, which
refuses a field value that is not a number; `seed` is the run's one seed,
the Sobol seed of optimize and sweep and the Philox seed of simulate and
validate.  CSV output uses a fixed header per command, 17 significant
digits and LF line endings so identical configs give byte-identical files.
analyze, optimize and simulate print chosen columns of the row they write,
as `name: value` (validate: one `[kind] name: column=value ...` line per
check).

Exit codes: 0 ok, 1 config error, 2 infeasible or unstable operating point,
3 validation failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import math
import os
import sys
from dataclasses import replace

from . import optimizer, simulator
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

#: the top-level keys of a config
CONFIG_KEYS = ("scheme", "seed", "profile", "sensing", "policy", "traffic", "solver", "sim",
               "sweep", "out")

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
    "drift_detected", "ci_mu_p_hat", "ci_mu_s_hat", "ci_delay_hat", "ci_empty_frac_p",
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
        # a preset-only run never reads YAML, so it need not load pyyaml
        import yaml

        path = args.config
        if not os.path.exists(path) and not os.path.isabs(path):
            env_dir = os.environ.get(CONFIG_DIR_ENV)
            if env_dir and os.path.exists(os.path.join(env_dir, path)):
                path = os.path.join(env_dir, path)
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except (OSError, UnicodeDecodeError) as e:
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
    # open() reads an int or a bool as a file descriptor
    if not isinstance(cfg.get("out"), (str, type(None))):
        raise ConfigError("'out' must be a path")
    return _mapping(cfg, "", CONFIG_KEYS)


def _need(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}' in {where}")
    return cfg[key]


def _mapping(section, where: str, keys=None) -> dict:
    """A config section, which must be a mapping before any field is read.
    Given keys, every key of the section must be one of them; the sections
    built by _build leave that to make's signature instead."""
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    unknown = [key for key in section if keys is not None and key not in keys]
    if unknown:
        name = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError(f"unknown field '{name}'; expected one of {list(keys)}")
    return section


def _build(make, section: dict, where: str):
    """make(**section), a class or any other callable.  A value of a
    parameter make takes must be an int or a float, bools refused: YAML
    reads 1e-3 or a quoted number as a string, and the range checks
    downstream do not all refuse one."""
    names = inspect.signature(make).parameters
    for name, value in _mapping(section, where).items():
        if name in names and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"'{where}.{name}' must be a number")
    try:
        return make(**section)
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
        probs = _mapping(section["probabilities"], "profile.probabilities")
        ratios = "short_ratio" in probs or "short_ratio_conc" in probs
        make = OutageProfile.from_ratios if ratios else OutageProfile
        return _build(make, probs, "profile.probabilities")
    if "physics" in section:
        phys = _mapping(section["physics"], "profile.physics",
                        ("primary", "secondary", "cross", "power_mode"))
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
    # one policy section serves every scheme; only feedback reads
    # p_access_retx, so the others take it at 0 alone, as the presets set it
    if "p_access_retx" not in scheme.policy_class.__dataclass_fields__:
        retx = section.pop("p_access_retx", 0.0)
        if isinstance(retx, bool) or retx != 0:
            raise ConfigError(f"{scheme.value} requires 'policy.p_access_retx' = 0, got {retx!r}")
    policy = _build(scheme.policy_class, section, "policy")
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


def _parse_int(value, where: str, minimum: int) -> int:
    """value if it is an int >= minimum.  Floats and bools are refused, as
    SolverConfig refuses them, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"'{where}' must be >= {minimum}, got {value}")
    return value


def _parse_seed(cfg: dict) -> int:
    """The run's one seed: the solver's Sobol seed and the simulator's."""
    return _parse_int(cfg.get("seed", 0), "seed", 0)


def _parse_solver(cfg: dict) -> optimizer.SolverConfig:
    section = _mapping(cfg.get("solver", {}), "solver")
    if "seed" in section:
        raise ConfigError("'solver.seed' is not a solver setting; set the run's 'seed'")
    return _build(optimizer.SolverConfig, {**section, "seed": _parse_seed(cfg)}, "solver")


def _parse_run(cfg: dict) -> tuple[SimSemantics, int, int]:
    """(semantics, n_slots, seed) of a simulate/validate config."""
    sim_cfg = _mapping(cfg.get("sim", {}), "sim", ("n_slots", "semantics"))
    n_slots = _parse_int(sim_cfg.get("n_slots", 1_000_000), "sim.n_slots", 1)
    try:
        semantics = SimSemantics(str(sim_cfg.get("semantics", "exact")).lower())
    except ValueError:
        raise ConfigError(f"unknown sim semantics {sim_cfg.get('semantics')!r}") from None
    return semantics, n_slots, _parse_seed(cfg)


def _write_csv(path, header: list, rows: list) -> None:
    """header and rows as CSV to the file path, or to stdout if path is
    empty or None."""
    try:
        with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}") from None


def _emit(cfg: dict, header: list, row: list, printed) -> None:
    """Print the columns of row named in printed as `name: value`, and write
    the row to the config's out, if it has one."""
    column = dict(zip(header, row))
    for name in printed:
        print(f"{name}: {column[name]}")
    if cfg.get("out"):
        _write_csv(cfg["out"], header, [row])


def cmd_analyze(cfg: dict) -> int:
    scheme, profile, sensing, traffic, policy = _parse_point(cfg)
    report = scheme.analysis.analyze(profile, policy, sensing, traffic)
    row = [scheme.value,
           *(_fmt(float(getattr(traffic, name))) for name in ANALYZE_HEADER[1:5]),
           *(_fmt(getattr(report, name)) for name in ANALYZE_HEADER[5:])]
    _emit(cfg, ANALYZE_HEADER, row, ("scheme", *ANALYZE_HEADER[5:]))
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
    printed = ("scheme", "feasible", "mu_s_opt", "mu_p_at_opt", "delay_at_opt",
               *scheme.variables)
    _emit(cfg, OPT_HEADER, _opt_row(scheme, "", "", result), printed)
    return 0 if result.feasible else 2


def _sweep_tasks(cfg: dict):
    sweep = _mapping(_need(cfg, "sweep"), "sweep", ("variable", "grid"))
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
    _write_csv(out, OPT_HEADER, rows)
    if out:
        print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_simulate(cfg: dict) -> int:
    scheme, profile, sensing, traffic, policy = _parse_point(cfg)
    semantics, n_slots, seed = _parse_run(cfg)
    stats = simulator.run(scheme, policy, profile, sensing, traffic, semantics, n_slots, seed)
    # the ci_* columns are the half-widths of the statistics they name
    row = [scheme.value, semantics.value, str(n_slots), str(seed),
           *(_fmt(getattr(stats, name)) for name in SIM_HEADER[4:14]),
           *(_fmt(stats.ci_halfwidths[name[3:]]) for name in SIM_HEADER[14:])]
    _emit(cfg, SIM_HEADER, row, SIM_HEADER[4:14])
    return 0


def cmd_validate(cfg: dict) -> int:
    scheme, profile, sensing, traffic, policy = _parse_point(cfg)
    _, n_slots, seed = _parse_run(cfg)
    if "semantics" in cfg.get("sim", {}):
        raise ConfigError(
            "'sim.semantics' is not a validate setting; validate runs both semantics"
        )
    report = simulator.validate_lower_bound(
        scheme, policy, profile, sensing, traffic, n_slots, seed
    )
    rows = []
    for c in report.closed_form + report.checks:
        rows.append([_fmt(getattr(c, name)) for name in VALIDATE_HEADER])
        measures = " ".join(f"{n}={v}" for n, v in zip(VALIDATE_HEADER[2:6], rows[-1][2:6]))
        print(f"[{c.kind}] {c.name}: {measures} {'PASS' if c.passed else 'FAIL'}")
    if cfg.get("out"):
        _write_csv(cfg["out"], VALIDATE_HEADER, rows)
    if report.unstable:
        print("unstable detected: checks reported, not asserted")
        return 0
    return 0 if report.all_passed else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ehcog",
        description="Analytical and Monte Carlo study of an energy-harvesting "
        "secondary link sharing a slotted channel with a primary user.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flag_kwargs = {
        "--scheme": {"choices": [s.value for s in Scheme]},
        "--seed": {"type": int},
        "--slots": {"type": int},
    }
    # each command takes only the flags it reads
    for name, fn, flags in (
        ("analyze", cmd_analyze, ("--scheme",)),
        ("optimize", cmd_optimize, ("--scheme", "--seed")),
        ("sweep", cmd_sweep, ("--seed",)),
        ("simulate", cmd_simulate, ("--scheme", "--seed", "--slots")),
        ("validate", cmd_validate, ("--scheme", "--seed", "--slots")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--preset", choices=["fig4", "fig6", "fig7", "fig8"])
        for flag in flags:
            p.add_argument(flag, **flag_kwargs[flag])
        p.add_argument("--out", help="CSV output path")
        p.set_defaults(fn=fn, scheme=None, seed=None, slots=None)
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
