import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from ehcog import OptProblem, Scheme, SolverConfig, solve
from ehcog.cli import (
    ANALYZE_HEADER,
    OPT_HEADER,
    SIM_HEADER,
    VALIDATE_HEADER,
    _opt_row,
    _parse_profile,
    _parse_sensing,
    _parse_traffic,
    main,
)
from ehcog.presets import get_preset


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_python(args):
    """`python ...` in a fresh interpreter that imports the package from
    this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(argv):
    """`python -m ehcog.cli ...` in a fresh interpreter (see run_python)."""
    return run_python(["-m", "ehcog.cli", *argv])


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(stdout):
    vals = {}
    for line in stdout.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            vals[k] = v
    return vals


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_analyze_hand_case(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "--preset", "fig4"])
    vals = parse_kv(out)
    assert vals["scheme"] == "nofeedback"
    assert float(vals["mu_p"]) == pytest.approx(0.252, abs=1e-12)
    assert float(vals["mu_s"]) == pytest.approx(0.3154, abs=1e-12)
    assert float(vals["nu0"]) == 0.5
    assert float(vals["delay"]) == pytest.approx(6.936507936507937, rel=1e-12)
    assert vals["primary_stable"] == "true"
    assert vals["delay_feasible"] == "false"  # 6.94 slots > 2-slot bound
    assert code == 2


def test_analyze_feasible_with_relaxed_bound(tmp_path, capsys):
    overlay = write_yaml(tmp_path / "o.yaml", {"traffic": {"delay_bound": "inf"}})
    code, out, _ = run_cli(capsys, ["analyze", "--preset", "fig4", "--config", overlay])
    assert code == 0
    assert parse_kv(out)["delay_feasible"] == "true"


def test_analyze_scheme_override(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "--preset", "fig4", "--scheme", "feedback"])
    vals = parse_kv(out)
    assert vals["scheme"] == "feedback"
    # the preset policy never attacks retransmissions, so the fresh-phase
    # rate matches the sensing-only service rate
    assert float(vals["mu_p"]) == pytest.approx(0.252, abs=1e-12)
    assert code == 2


def test_analyze_no_energy_kills_throughput(tmp_path, capsys):
    overlay = write_yaml(tmp_path / "o.yaml", {"traffic": {"lam_e": 0.0}})
    _, out, _ = run_cli(capsys, ["analyze", "--preset", "fig4", "--config", overlay])
    assert float(parse_kv(out)["mu_s"]) == 0.0


def test_analyze_csv_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, ["analyze", "--preset", "fig4", "--out", str(out1)])
    run_cli(capsys, ["analyze", "--preset", "fig4", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.reader(out1.read_text().splitlines()))
    assert rows[0] == ANALYZE_HEADER
    assert len(rows) == 2
    row = dict(zip(rows[0], rows[1]))
    assert row["scheme"] == "nofeedback"
    assert float(row["mu_s"]) == pytest.approx(0.3154, abs=1e-12)
    assert row["delay_bound"] == "2"
    assert row["primary_stable"] == "true"


def test_config_errors_exit_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["analyze"])
    assert code == 1 and "need --preset" in err
    bad = write_yaml(tmp_path / "bad.yaml", {"scheme": "nofeedback"})
    code, _, err = run_cli(capsys, ["analyze", "--config", bad])
    assert code == 1 and "profile" in err
    code, _, _ = run_cli(capsys, ["analyze", "--preset", "nope"])
    assert code == 1  # argparse rejects the unknown choice
    code, _, err = run_cli(capsys, ["analyze", "--config", str(tmp_path / "absent.yaml")])
    assert code == 1 and "cannot read config" in err
    noroot = tmp_path / "list.yaml"
    noroot.write_text("- 1\n- 2\n")
    code, _, err = run_cli(capsys, ["analyze", "--config", str(noroot)])
    assert code == 1 and "mapping" in err
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("traffic: {lam_p: 0.1\n")
    code, _, err = run_cli(capsys, ["analyze", "--preset", "fig4", "--config", str(malformed)])
    assert code == 1 and "config parse error" in err


def test_bad_profile_fields_exit_1(tmp_path, capsys):
    cfg = {
        "scheme": "nofeedback",
        "profile": {"probabilities": {"p_primary": 0.7, "short_ratio": 0.9,
                                      "bogus": 1.0}},
        "traffic": {"lam_p": 0.1, "lam_s": 0.1, "lam_e": 0.1},
        "policy": {},
    }
    path = write_yaml(tmp_path / "c.yaml", cfg)
    code, _, err = run_cli(capsys, ["analyze", "--config", path])
    assert code == 1


def test_profile_from_physics(tmp_path, capsys):
    cfg = {
        "scheme": "nofeedback",
        "profile": {
            "physics": {
                "primary": {"bits_per_packet": 1.0, "slot_duration": 1.0,
                            "bandwidth": 1.0, "mean_snr": 2.0},
                "secondary": {"bits_per_packet": 1.0, "slot_duration": 1.0,
                              "sensing_duration": 0.1, "bandwidth": 1.0,
                              "mean_snr": 2.0},
                "cross": {"sec_at_primary_rx": 2.0, "pri_at_sec_rx": 2.0},
            }
        },
        "traffic": {"lam_p": 0.0, "lam_s": 0.0, "lam_e": 0.8},
        "policy": {},  # silent secondary, so mu_p is the solo success rate
    }
    path = write_yaml(tmp_path / "phys.yaml", cfg)
    code, out, _ = run_cli(capsys, ["analyze", "--config", path])
    assert code == 0
    assert float(parse_kv(out)["mu_p"]) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_config_dir_env_fallback(tmp_path, monkeypatch, capsys):
    cfgdir = tmp_path / "cfgs"
    cfgdir.mkdir()
    write_yaml(cfgdir / "relax.yaml", {"traffic": {"delay_bound": None}})
    elsewhere = tmp_path / "cwd"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    monkeypatch.setenv("EHCOG_CONFIG_DIR", str(cfgdir))
    code, out, _ = run_cli(capsys, ["analyze", "--preset", "fig4", "--config", "relax.yaml"])
    assert code == 0
    assert parse_kv(out)["delay_feasible"] == "true"


def test_optimize_random_access(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, ["optimize", "--preset", "fig4", "--scheme", "random_access"]
    )
    vals = parse_kv(out)
    assert code == 0 and vals["feasible"] == "true"
    assert float(vals["mu_s_opt"]) == pytest.approx(0.1251, abs=2e-4)
    assert float(vals["delay_at_opt"]) <= 2.0 + 1e-9
    assert "p_sense" not in vals  # random access has one decision variable
    assert 0.0 <= float(vals["p_access_direct"]) <= 1.0


def test_optimize_infeasible_exit_2(tmp_path, capsys):
    overlay = write_yaml(tmp_path / "o.yaml", {"traffic": {"lam_p": 0.65}})
    code, out, _ = run_cli(
        capsys,
        ["optimize", "--preset", "fig4", "--scheme", "random_access", "--config", overlay],
    )
    vals = parse_kv(out)
    assert code == 2 and vals["feasible"] == "false"
    assert float(vals["mu_s_opt"]) == 0.0


def test_optimize_seed_is_the_solver_seed(tmp_path, capsys):
    cfg = get_preset("fig4")
    problem = OptProblem(
        Scheme.FEEDBACK, _parse_profile(cfg), _parse_sensing(cfg), _parse_traffic(cfg)
    )
    rows = {}
    for seed in (0, 5):
        out = tmp_path / f"seed{seed}.csv"
        argv = ["optimize", "--preset", "fig4", "--scheme", "feedback", "--seed", str(seed)]
        run_cli(capsys, argv + ["--out", str(out)])
        _, rows[seed] = csv.reader(out.read_text().splitlines())
    assert rows[5] == _opt_row(Scheme.FEEDBACK, "", "", solve(problem, SolverConfig(seed=5)))
    assert rows[5] != rows[0]


def test_sweep_csv_schema_and_determinism(tmp_path, capsys):
    overlay = write_yaml(
        tmp_path / "small.yaml",
        {"sweep": {"variable": "lam_p", "grid": [0.1, 0.2]},
         "solver": {"n_starts": 32}},
    )
    args = ["sweep", "--preset", "fig4", "--config", overlay]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    code, _, _ = run_cli(capsys, args + ["--out", str(out1)])
    assert code == 0
    run_cli(capsys, args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.reader(out1.read_text().splitlines()))
    assert rows[0] == OPT_HEADER
    body = [dict(zip(OPT_HEADER, r)) for r in rows[1:]]
    assert [r["scheme"] for r in body] == [
        "feedback", "nofeedback", "random_access",
    ] * 2
    assert [float(r["sweep_value"]) for r in body[:3]] == [0.1] * 3
    for r in body:
        assert r["sweep_var"] == "lam_p" and r["feasible"] == "true"
        assert float(r["mu_s_opt"]) > 0.0
        if r["scheme"] == "random_access":
            assert r["p_sense"] == "0" and r["p_access_retx"] == ""
        if r["scheme"] == "nofeedback":
            assert r["p_access_retx"] == ""
    # feedback can always mimic the sensing-only optimum
    assert float(body[0]["mu_s_opt"]) >= float(body[1]["mu_s_opt"]) - 1e-9
    # no stdout CSV when writing to a file
    code, out, _ = run_cli(capsys, args)
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(OPT_HEADER)
    assert len(lines) == 7


#: the benchmark's recorded outputs, and the tolerance its figure_sweep
#: check allows them (perfbench/worker.py's TOL)
BENCH_REFERENCE = ROOT / "perfbench" / "reference.json"
BENCH_TOL = 1e-6


def agrees_with_reference(got: str, want: str) -> bool:
    """One CSV field as the benchmark compares it: equal strings, or
    numbers within BENCH_TOL."""
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=BENCH_TOL, abs_tol=BENCH_TOL)
    except ValueError:
        return False


def test_fig4_sweep_matches_the_benchmark_reference(tmp_path, capsys):
    """The benchmark refuses a run whose fig4 sweep strays from its recorded
    rows, so a change that moves a policy or a verdict fails here first."""
    ref = json.loads(BENCH_REFERENCE.read_text())["figure_sweep"]
    assert ref["seed"] == 0 and ref["size"]["sweep_grid"] is None
    out = tmp_path / "fig4.csv"
    code, _, _ = run_cli(capsys, ["sweep", "--preset", "fig4", "--seed", "0", "--out", str(out)])
    assert code == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(ref["ops"])
    for got, want in zip(rows, ref["ops"]):
        assert len(got) == len(want)
        assert all(map(agrees_with_reference, got, want)), (got, want)


#: SHA-256 of each preset's `ehcog sweep` CSV at seed 0.  A refactor keeps
#: these bytes; a change that moves them on purpose lists the moved rows in
#: CHANGES.md and records the new hashes here
SWEEP_SHA256 = {
    "fig4": "cb88977948012f6ee70ca83699499d0f7555e4e5dfd51cf992398688d555067a",
    "fig6": "1215e0eb3c9cc889c0a22f0b83e5b9bf0362b9a547cb90cce74e2686c82bd719",
    "fig7": "7266bb1874152af08663c186808dbdf940305926dfbb1f8d5daa58e482b582a3",
    "fig8": "cda8067c610e15af9f4059bc697f502d2101472f3e1efe318c6cfde3c45339dd",
}


@pytest.mark.parametrize("preset", sorted(SWEEP_SHA256))
def test_preset_sweep_csv_bytes_are_pinned(preset, tmp_path, capsys):
    out = tmp_path / f"{preset}.csv"
    code, _, _ = run_cli(capsys, ["sweep", "--preset", preset, "--seed", "0", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[preset]


def test_sweep_grid_validation(tmp_path, capsys):
    for sweep in (
        {"variable": "lam_p", "grid": [0.2, 0.1, 0.3]},
        {"variable": "mpr_on", "grid": [0.5]},
        {"variable": "nope", "grid": [0.1]},
        {"variable": "lam_p", "grid": []},
    ):
        overlay = write_yaml(tmp_path / "o.yaml", {"sweep": sweep})
        code, _, err = run_cli(capsys, ["sweep", "--preset", "fig4", "--config", overlay])
        assert code == 1, sweep


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, stdout, _ = run_cli(
        capsys,
        ["simulate", "--preset", "fig4", "--slots", "20000", "--out", str(out)],
    )
    assert code == 0
    vals = parse_kv(stdout)
    assert float(vals["mu_s_hat"]) == pytest.approx(0.3154, abs=0.02)
    assert vals["drift_detected"] == "false"
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == SIM_HEADER
    row = dict(zip(SIM_HEADER, rows[1]))
    assert row["n_slots"] == "20000" and row["semantics"] == "exact"
    assert float(row["ci_mu_s_hat"]) > 0.0


def test_presets_leave_the_semantics_to_the_default(tmp_path, capsys):
    # validate refuses sim.semantics, so no preset may set it; simulate then
    # runs its default, the exact system
    overlay = write_yaml(tmp_path / "o.yaml", {"sim": {"semantics": "exact"}})
    argv = ["simulate", "--preset", "fig4", "--slots", "2000"]
    assert run_cli(capsys, argv + ["--config", overlay]) == run_cli(capsys, argv)
    code, _, err = run_cli(capsys, ["validate", "--preset", "fig4", "--slots", "2000"])
    assert code != 1 and err == ""


def test_validate_passes_on_stable_point(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--preset", "fig4", "--slots", "100000"])
    assert code == 0
    assert "FAIL" not in out
    assert "[closed-form]" in out and "[lower-bound]" in out


def test_validate_unstable_is_advisory(tmp_path, capsys):
    overlay = write_yaml(tmp_path / "o.yaml", {"traffic": {"lam_p": 0.9}})
    code, out, _ = run_cli(
        capsys,
        ["validate", "--preset", "fig4", "--config", overlay, "--slots", "50000"],
    )
    assert code == 0
    assert "unstable detected" in out


def test_validate_with_too_few_slots_to_measure_passes(capsys):
    # in one slot the primary never transmits: mu_p_hat and delay_hat are
    # nan, and no estimate has a half-width to bound a check with
    code, out, _ = run_cli(capsys, ["validate", "--preset", "fig4", "--slots", "1"])
    assert code == 0
    assert "FAIL" not in out
    assert "bound=inf" in out


@pytest.mark.parametrize(
    "argv, header",
    [
        (["analyze", "--preset", "fig4"], ANALYZE_HEADER),
        (["optimize", "--preset", "fig7", "--scheme", "feedback"], OPT_HEADER),
        (["optimize", "--preset", "fig7", "--scheme", "nofeedback"], OPT_HEADER),
        (["optimize", "--preset", "fig7", "--scheme", "random_access"], OPT_HEADER),
        (["simulate", "--preset", "fig4", "--slots", "20000"], SIM_HEADER),
    ],
    ids=["analyze", "optimize-feedback", "optimize-nofeedback", "optimize-random-access",
         "simulate"],
)
def test_stdout_prints_the_csv_row(tmp_path, capsys, argv, header):
    out = tmp_path / "out.csv"
    _, stdout, _ = run_cli(capsys, argv + ["--out", str(out)])
    header_row, row = csv.reader(out.read_text().splitlines())
    assert header_row == header
    column = dict(zip(header, row))
    vals = parse_kv(stdout)
    assert set(vals) <= set(column)
    for name in vals:
        assert vals[name] == column[name], name


def test_validate_prints_each_csv_row(tmp_path, capsys):
    out = tmp_path / "out.csv"
    _, stdout, _ = run_cli(
        capsys, ["validate", "--preset", "fig4", "--slots", "20000", "--out", str(out)]
    )
    header, *rows = csv.reader(out.read_text().splitlines())
    assert header == VALIDATE_HEADER
    lines = [line for line in stdout.splitlines() if line.startswith("[")]
    assert len(lines) == len(rows) > 0
    for line, row in zip(lines, rows):
        column = dict(zip(header, row))
        label, fields = line.split(": ", 1)
        assert label == f"[{column['kind']}] {column['name']}"
        *pairs, verdict = fields.split(" ")
        assert dict(pair.split("=") for pair in pairs) == {
            name: column[name] for name in ("measured", "reference", "residual", "bound")
        }
        assert verdict == {"true": "PASS", "false": "FAIL"}[column["passed"]]


#: a primary that never fails, so eta = 1, loaded to lam_p = 0.99999
HEAVY_LOAD = {
    "profile": {"probabilities": {"p_primary": 1.0, "p_primary_conc": 1.0}},
    "traffic": {"lam_p": 0.99999},
}

#: a primary that never fails alone but almost always under interference,
#: at lam_p = 0.99: the secondary senses perfectly and leaves fresh heads
#: alone, so alpha = 1, but attacks every retransmission, so gamma = 1e-5
RETX_OUTAGE = {
    "profile": {"probabilities": {"p_primary": 1.0, "p_primary_conc": 1e-5}},
    "sensing": {"p_missed_detection": 0.0},
    "traffic": {"lam_p": 0.99, "lam_e": 1.0},
    "policy": {"p_sense": 1.0, "p_access_free": 1.0, "p_access_busy": 0.0, "p_access_retx": 1.0},
}


@pytest.mark.parametrize(
    "command, overlay",
    [("analyze", HEAVY_LOAD), ("optimize", HEAVY_LOAD), ("analyze", RETX_OUTAGE)],
    ids=["analyze", "optimize", "analyze-retx-outage"],
)
def test_feedback_delay_under_heavy_load_with_a_perfect_primary(
    tmp_path, capsys, command, overlay
):
    # near eta = 1 the delay closed form once summed the geometric queue
    # levels, which overflowed to nan; at alpha = 1 it once read 1 - 5e-10
    # slots; both ended in a traceback
    overlay = write_yaml(tmp_path / "o.yaml", overlay)
    code, out, _ = run_cli(
        capsys, [command, "--preset", "fig4", "--scheme", "feedback", "--config", overlay]
    )
    vals = parse_kv(out)
    assert code == 0
    delay = vals["delay" if command == "analyze" else "delay_at_opt"]
    # a sojourn lasts at least one slot, and here exactly one
    assert float(delay) == 1.0
    if command == "analyze":
        assert vals["delay_feasible"] == "true"


def test_help_and_missing_command():
    assert main(["--help"]) == 0
    assert main([]) == 1


def test_console_entry_point():
    proc = run_module(["analyze", "--preset", "fig4"])
    assert proc.returncode == 2
    assert "mu_s: " in proc.stdout


def test_run_figures_script_writes_the_sweep_csv(tmp_path):
    proc = run_python(
        [str(ROOT / "scripts" / "run_figures.py"), "--presets", "fig8", "--outdir", str(tmp_path)]
    )
    assert proc.returncode == 0, proc.stderr
    direct = tmp_path / "direct.csv"
    assert main(["sweep", "--preset", "fig8", "--out", str(direct)]) == 0
    assert (tmp_path / "fig8_sweep.csv").read_bytes() == direct.read_bytes()


PHYSICS_CONFIG = {
    "scheme": "nofeedback",
    "profile": {
        "physics": {
            "primary": {"bits_per_packet": 1.0, "slot_duration": 1.0,
                        "bandwidth": 1.0, "mean_snr": 2.0},
            "secondary": {"bits_per_packet": 1.0, "slot_duration": 1.0,
                          "sensing_duration": 0.1, "bandwidth": 1.0, "mean_snr": 2.0},
            "cross": {"sec_at_primary_rx": 2.0, "pri_at_sec_rx": 2.0},
            "power_mode": "bogus",
        }
    },
    "traffic": {"lam_p": 0.0, "lam_s": 0.0, "lam_e": 0.8},
    "policy": {},
}


#: PHYSICS_CONFIG with its power mode under a misspelt key
PHYSICS_MISSPELT = {**PHYSICS_CONFIG, "profile": {"physics": {
    **{k: v for k, v in PHYSICS_CONFIG["profile"]["physics"].items() if k != "power_mode"},
    "power_mod": "fixed_power",
}}}


#: a ratio profile (short_ratio, short_ratio_conc) without a preset under it
RATIO_CONFIG = {
    "scheme": "nofeedback",
    "profile": {"probabilities": {"p_primary": 0.7, "p_primary_conc": 0.14,
                                  "p_sec_full": 0.6065, "p_sec_full_conc": 0.182,
                                  "short_ratio": 0.9782, "short_ratio_conc": 0.8}},
    "traffic": {"lam_p": 0.126, "lam_s": 1.0, "lam_e": 0.8},
    "policy": {},
}


def ratio_config(**probabilities):
    """RATIO_CONFIG with the probabilities fields in probabilities replaced,
    or removed where the value is None."""
    probs = {**RATIO_CONFIG["profile"]["probabilities"], **probabilities}
    probs = {name: value for name, value in probs.items() if value is not None}
    return {**RATIO_CONFIG, "profile": {"probabilities": probs}}


def physics_config(cross, **primary):
    """PHYSICS_CONFIG with a valid power mode, the cross SNRs cross, and the
    primary link's fields in primary replaced."""
    physics = dict(PHYSICS_CONFIG["profile"]["physics"], power_mode="fixed_energy", cross=cross)
    physics["primary"] = {**physics["primary"], **primary}
    return {**PHYSICS_CONFIG, "profile": {"physics": physics}}


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["simulate", "--preset", "fig4", "--slots", "0"], None, ""),
        (["validate", "--preset", "fig4", "--slots", "0"], None, ""),
        (["simulate", "--preset", "fig4"], {"sim": {"n_slots": "abc"}}, ""),
        (["sweep", "--preset", "fig4"], {"sweep": {"variable": "lam_p", "grid": [0.1, 1.5]}}, ""),
        (["analyze"], PHYSICS_CONFIG, ""),
        (["optimize", "--preset", "fig4", "--seed", "-1"], None, ""),
        (["analyze", "--preset", "fig4"], {"traffic": 5}, ""),
        (["optimize", "--preset", "fig4"], {"solver": 3}, ""),
        (["analyze", "--preset", "fig4"], {"policy": [1, 2]}, ""),
        (["analyze", "--preset", "fig4"], {"profile": {"probabilities": 7}}, ""),
        (["sweep", "--preset", "fig4"], {"sweep": 4}, ""),
        (["simulate", "--preset", "fig4", "--slots", "10"], {"sim": 5}, ""),
        (["optimize", "--preset", "fig4"], {"solver": {"n_starts": 40.5}}, ""),
        (["optimize", "--preset", "fig4"], {"solver": {"seed": 1.5}}, ""),
        (["optimize", "--preset", "fig4"], {"seed": 2.5}, ""),
        (["optimize", "--preset", "fig4"], {"solver": {"max_sweeps": 0}}, ""),
        (["simulate", "--preset", "fig4"], {"sim": {"n_slots": 1000.7}}, ""),
        (["simulate", "--preset", "fig4", "--slots", "10"], {"seed": 2.5}, ""),
        (["validate", "--preset", "fig4", "--slots", "10"], {"seed": True}, ""),
        # "1e-3" is what YAML makes of an unquoted 1e-3 (no dot)
        (["simulate", "--preset", "fig4", "--slots", "10"], {"traffic": {"lam_e": "1e-3"}},
         "'traffic.lam_e' must be a number"),
        (["analyze", "--preset", "fig4"], {"policy": {"p_sense": "0.5"}},
         "'policy.p_sense' must be a number"),
        (["analyze", "--preset", "fig4"], {"sensing": {"p_false_alarm": "0.1"}},
         "'sensing.p_false_alarm' must be a number"),
        (["analyze", "--preset", "fig4"], {"traffic": {"lam_p": [0.1, 0.2]}},
         "'traffic.lam_p' must be a number"),
        (["analyze", "--preset", "fig4"], {"traffic": {"lam_p": True}},
         "'traffic.lam_p' must be a number"),
        (["analyze", "--preset", "fig4", "--scheme", "random_access"],
         {"policy": {"p_sense": 0.5}}, "random_access requires 'policy.p_sense' = 0"),
        (["simulate", "--preset", "fig4", "--slots", "10", "--scheme", "random_access"],
         {"policy": {"p_sense": 0.5}}, "random_access requires 'policy.p_sense' = 0"),
        (["validate", "--preset", "fig4", "--slots", "10", "--scheme", "random_access"],
         {"policy": {"p_sense": 0.5}}, "random_access requires 'policy.p_sense' = 0"),
        # only feedback reads p_access_retx; it was once dropped without a word
        (["analyze", "--preset", "fig4", "--scheme", "nofeedback"],
         {"policy": {"p_access_retx": 0.7}}, "nofeedback requires 'policy.p_access_retx' = 0"),
        (["simulate", "--preset", "fig4", "--slots", "10", "--scheme", "random_access"],
         {"policy": {"p_access_retx": True}}, "random_access requires 'policy.p_access_retx' = 0"),
        (["sweep", "--preset", "fig4"], {"sweep": {"variable": "lam_p", "grid": [True, 0.1]}},
         "sweep grid values must be numbers"),
        (["sweep", "--preset", "fig4"], {"sweep": {"variable": "lam_p", "grid": [0.05, "0.1"]}},
         "sweep grid values must be numbers"),
        (["analyze"], physics_config({"sec_at_primary_rx": math.nan, "pri_at_sec_rx": 2.0}),
         "invalid value in 'physics.cross'"),
        # 0 bits over an infinitely strong interferer: 0 * inf gives a NaN probability
        (["analyze"],
         physics_config({"sec_at_primary_rx": math.inf, "pri_at_sec_rx": 2.0}, bits_per_packet=0.0),
         "invalid value in 'profile.physics'"),
        # open() takes an int or a bool for a file descriptor
        (["sweep", "--preset", "fig4"], {"out": 2}, "'out' must be a path"),
        (["analyze", "--preset", "fig4"], {"out": True}, "'out' must be a path"),
        (["validate", "--preset", "fig4", "--slots", "10"], {"out": 5}, "'out' must be a path"),
        (["analyze"], ratio_config(short_ratio_conc=None), "short_ratio_conc"),
        (["analyze"], ratio_config(short_ratio="0.9"),
         "'profile.probabilities.short_ratio' must be a number"),
        # the run's seed is the solver's; a second one would silently win
        (["sweep", "--preset", "fig4"], {"solver": {"seed": 1}}, "'seed'"),
        # validate runs both semantics, so a chosen one would be ignored
        (["validate", "--preset", "fig4", "--slots", "10"], {"sim": {"semantics": "backlogged"}},
         "'sim.semantics' is not a validate setting"),
        # a misspelt key of a section read by hand was once ignored: the run
        # went on with the default in its place
        (["simulate", "--preset", "fig4", "--slots", "10"], {"sim": {"semantic": "backlogged"}},
         "unknown field 'sim.semantic'"),
        (["analyze"], PHYSICS_MISSPELT, "unknown field 'profile.physics.power_mod'"),
        (["sweep", "--preset", "fig4"], {"sweep": {"gird": [0.1]}}, "unknown field 'sweep.gird'"),
        (["sweep", "--preset", "fig4"], {"solvr": {"n_starts": 32}}, "unknown field 'solvr'"),
    ],
    ids=["simulate-slots-0", "validate-slots-0", "n-slots-abc", "sweep-lam-p-1.5",
         "power-mode-bogus", "optimize-seed-negative", "traffic-not-a-mapping",
         "solver-not-a-mapping", "policy-not-a-mapping", "probabilities-not-a-mapping",
         "sweep-not-a-mapping", "sim-not-a-mapping", "n-starts-not-an-integer",
         "solver-seed-not-an-integer", "seed-not-an-integer", "max-sweeps-not-a-field",
         "n-slots-not-an-integer", "simulate-seed-not-an-integer", "validate-seed-a-bool",
         "lam-e-a-string", "p-sense-a-string", "p-false-alarm-a-string", "lam-p-a-list",
         "lam-p-a-bool", "random-access-sensing-analyze", "random-access-sensing-simulate",
         "random-access-sensing-validate", "nofeedback-retx", "random-access-retx-a-bool",
         "sweep-grid-a-bool", "sweep-grid-a-string",
         "cross-snr-nan", "physics-zero-times-inf", "out-an-int", "out-a-bool",
         "out-a-closed-fd", "ratio-profile-missing-a-field", "short-ratio-a-string",
         "solver-seed", "validate-semantics", "sim-key-misspelt", "physics-key-misspelt",
         "sweep-key-misspelt", "top-level-key-misspelt"],
)
def test_bad_input_is_a_config_error_not_a_traceback(tmp_path, argv, config, message):
    if config is not None:
        argv = argv + ["--config", write_yaml(tmp_path / "c.yaml", config)]
    proc = run_module(argv)
    assert proc.returncode == 1
    assert any(
        line.startswith("config error: ") and message in line for line in proc.stderr.splitlines()
    )
    assert "Traceback" not in proc.stderr


#: runs cli.main on its arguments and prints the exit code and whether any
#: scipy module got imported
SCIPY_PROBE = """
import contextlib, io, sys
from ehcog.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv",
    [["optimize", "--preset", "fig4", "--scheme", "feedback"], ["sweep", "--preset", "fig8"]],
    ids=["optimize", "sweep"],
)
def test_solver_commands_do_not_import_scipy(argv):
    proc = run_python(["-c", SCIPY_PROBE, *argv])
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_run_validation_script_validates_the_four_points(capsys):
    proc = run_python(
        [str(ROOT / "scripts" / "run_validation.py"), "--slots", "20000", "--seed", "0"]
    )
    want, worst = [], 0
    for preset, extra in (
        ("fig4", []),
        ("fig4", ["--scheme", "feedback"]),
        ("fig7", []),
        ("fig8", ["--scheme", "feedback"]),
    ):
        argv = ["validate", "--preset", preset, "--slots", "20000", "--seed", "0", *extra]
        worst = max(worst, main(argv))
        header = f"== {preset} {' '.join(extra)}".rstrip()
        want.append(f"{header}\n{capsys.readouterr().out}\n")
    assert proc.returncode == worst == 0, proc.stderr
    assert proc.stdout == "".join(want)
