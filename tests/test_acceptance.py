"""End-to-end acceptance gate.

One test per shipped claim, numbered so the -v output reads as a checklist.
Each test carries its own runtime ceiling; all randomness is seeded, so a
green run is green forever on the same dependency set.
"""
import itertools
import math
import time

import numpy as np
import pytest

from ehcog import (
    LinkBudget,
    OptProblem,
    PolicyFb,
    PolicyNoFb,
    PowerMode,
    Scheme,
    SensingQuality,
    SimSemantics,
    SolverConfig,
    TrafficParams,
    closed_form_checks,
    grid_oracle,
    run,
    solve,
)
from ehcog import nofeedback as nofb
from ehcog.outage import success_prob_concurrent, success_prob_solo
from ehcog.cli import main as cli_main
from ehcog.presets import get_preset

from conftest import stable_single_phase_draws, stable_two_phase_draws
from oracles import (
    collect_two_phase,
    mc_success_concurrent,
    mc_success_solo,
    series_delay,
    single_phase_chain,
    stationary,
    stationary_power,
    two_phase_chain,
)

PROFILE = None  # filled by fixture below
SENSING = None


@pytest.fixture(autouse=True)
def _bind_preset(preset_profile, preset_sensing):
    global PROFILE, SENSING
    PROFILE, SENSING = preset_profile, preset_sensing


def random_links(rng, n, b_hi=1.2, tau_hi=0.6):
    """Links whose post-sensing outage stays clear of exp underflow, so
    strict inequalities are meaningful in floating point."""
    out = []
    for _ in range(n):
        out.append(
            (
                rng.uniform(0.1, b_hi),  # bits per packet (unit slot, unit W)
                rng.uniform(0.05, tau_hi),
                rng.uniform(0.5, 50.0),
                rng.uniform(0.5, 2.0),
            )
        )
    return out


def test_criterion_01_chain_masses_match_independent_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260814)
    for lam, mu in stable_single_phase_draws(rng, 1000):
        k_max = max(nofb.tail_k_max(lam, mu, mu), 4) + 8
        pi = stationary(single_phase_chain(lam, mu, k_max))
        pi_c, eps_c = nofb.state_probs(lam, mu, mu, k_max)
        assert np.abs(pi - (pi_c + eps_c)).sum() <= 1e-8
    for lam, alpha, gamma in stable_two_phase_draws(rng, 1000):
        s = nofb.closed_forms(lam, alpha, gamma)
        assert abs(s.pi0 + lam + s.sum_eps - 1.0) <= 1e-12
        k_max = max(nofb.tail_k_max(lam, alpha, gamma), 4) + 8
        P, labels = two_phase_chain(lam, alpha, gamma, k_max)
        pi_o, eps_o = collect_two_phase(stationary(P), labels, k_max)
        pi, eps = nofb.state_probs(lam, alpha, gamma, k_max)
        assert np.abs(pi - pi_o).sum() + np.abs(eps - eps_o).sum() <= 1e-8
    # spot-check the linear-solve oracle against plain power iteration
    for lam, mu in stable_single_phase_draws(np.random.default_rng(1), 40):
        k_max = max(nofb.tail_k_max(lam, mu, mu), 4) + 8
        if k_max > 50:
            continue
        P = single_phase_chain(lam, mu, k_max)
        assert np.abs(stationary(P) - stationary_power(P)).sum() <= 1e-9
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_delay_series_and_collapse():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    for _ in range(1000):
        mu = rng.uniform(0.1, 1.0)
        lam = mu * rng.uniform(0.05, 0.85)
        k_max = max(nofb.tail_k_max(lam, mu, mu, tol=1e-14), 4) + 8
        pi, eps = nofb.state_probs(lam, mu, mu, k_max)
        d_series = series_delay(pi + eps, lam)
        assert d_series == pytest.approx(nofb.primary_delay(lam, mu, mu), rel=1e-8)
    for _ in range(1000):
        alpha = rng.uniform(0.05, 1.0)
        gamma = rng.uniform(0.1, 1.0)
        u = rng.uniform(0.05, 0.85)
        lam = u * gamma / (1.0 + u * (gamma - alpha))
        if nofb.closed_forms(lam, alpha, gamma).eta >= 1.0 - 1e-9:
            continue  # never taken: the largest eta of these draws is 0.9992
        k_max = max(nofb.tail_k_max(lam, alpha, gamma, tol=1e-14), 4) + 8
        pi, eps = nofb.state_probs(lam, alpha, gamma, k_max)
        d_series = series_delay(pi + eps, lam)
        assert d_series == pytest.approx(
            nofb.primary_delay(lam, alpha, gamma), rel=1e-8
        )
    for _ in range(1000):
        mu = rng.uniform(0.1, 1.0 - 1e-6)
        lam = mu * rng.uniform(0.0, 0.85)
        d = nofb.primary_delay(lam, mu, mu)
        geo_geo_1 = (1.0 - lam) / (mu - lam)
        assert abs(d - geo_geo_1) <= 1e-12 * max(1.0, geo_geo_1)
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_sensing_time_strictly_hurts():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    for b, tau, snr, beta in random_links(rng, 10_000):
        tau2 = tau + rng.uniform(0.05, 0.19)
        l1 = LinkBudget(b, 1.0, tau, 1.0, snr, beta)
        l2 = LinkBudget(b, 1.0, tau2, 1.0, snr, beta)
        for mode in PowerMode:
            s1, s2 = success_prob_solo(l1, 1, mode), success_prob_solo(l2, 1, mode)
            assert s2 < s1  # strictly decreasing in sensing time
            full = success_prob_solo(l1, 0, mode)
            assert s1 / full < 1.0
            inr = 2.0 * beta
            ratio_c = success_prob_concurrent(l1, inr, 1, mode) / success_prob_concurrent(
                l1, inr, 0, mode
            )
            assert ratio_c < 1.0
    assert time.monotonic() - t0 < 10.0


def test_criterion_04_outage_matches_monte_carlo():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    n = 1_000_000
    for b, tau, snr, beta in random_links(rng, 20):
        link = LinkBudget(b, 1.0, tau, 1.0, snr, beta)
        i = int(rng.integers(0, 2))
        mode = PowerMode.FIXED_ENERGY if rng.random() < 0.5 else PowerMode.FIXED_POWER
        p_hat, se = mc_success_solo(link, i, mode, n, rng)
        assert abs(p_hat - success_prob_solo(link, i, mode)) <= 3.0 * se
        inr = float(rng.uniform(0.2, 5.0))
        p_hat, se = mc_success_concurrent(link, inr, i, mode, n, rng)
        assert abs(p_hat - success_prob_concurrent(link, inr, i, mode)) <= 3.0 * se
    assert time.monotonic() - t0 < 30.0


NOFB_POLICIES = [
    PolicyNoFb(0.0, 0.0, 0.0, 1.0),  # the hand-evaluated case
    PolicyNoFb(0.0, 0.0, 0.0, 0.5),
    PolicyNoFb(1.0, 1.0, 0.0, 0.0),
    PolicyNoFb(1.0, 0.8, 0.2, 0.0),
    PolicyNoFb(0.5, 1.0, 0.0, 0.5),
    PolicyNoFb(0.3, 0.9, 0.1, 0.7),
    PolicyNoFb(1.0, 1.0, 1.0, 0.0),
    PolicyNoFb(0.7, 0.6, 0.05, 0.25),
    PolicyNoFb(0.2, 0.4, 0.3, 0.9),
    PolicyNoFb(0.9, 1.0, 0.5, 1.0),
]
RETX_PROBS = [0.0, 1.0, 0.5, 0.3, 0.8, 0.6, 1.0, 0.25, 0.4, 0.9]


def test_criterion_05_simulator_reproduces_every_closed_form():
    t0 = time.monotonic()
    traffic = TrafficParams(lam_p=0.126, lam_s=1.0, lam_e=0.8)
    for seed, pol in enumerate(NOFB_POLICIES):
        stats, checks = closed_form_checks(
            Scheme.NOFEEDBACK, pol, PROFILE, SENSING, traffic,
            n_slots=1_000_000, seed=seed,
        )
        assert len(checks) == 4 and not stats.drift_detected
        bad = [c for c in checks if not c.passed]
        assert not bad, (pol, bad)
    for seed, (pol, pr) in enumerate(zip(NOFB_POLICIES, RETX_PROBS)):
        fpol = PolicyFb(
            pol.p_sense, pol.p_access_free, pol.p_access_busy, pol.p_access_direct, pr
        )
        stats, checks = closed_form_checks(
            Scheme.FEEDBACK, fpol, PROFILE, SENSING, traffic,
            n_slots=1_000_000, seed=100 + seed,
        )
        assert len(checks) == 4 and not stats.drift_detected
        bad = [c for c in checks if not c.passed]
        assert not bad, (fpol, bad)
    assert time.monotonic() - t0 < 300.0


def test_criterion_06_exact_system_beats_backlogged_prediction():
    t0 = time.monotonic()
    for i, (lam_p, scheme) in enumerate(
        itertools.product((0.05, 0.1, 0.2), (Scheme.NOFEEDBACK, Scheme.FEEDBACK, Scheme.RANDOM_ACCESS))
    ):
        traffic = TrafficParams(lam_p, 1.0, 0.8, delay_bound=2.0)
        res = solve(OptProblem(scheme, PROFILE, SENSING, traffic))
        assert res.feasible
        stats = run(
            scheme, res.policy, PROFILE, SENSING, traffic,
            SimSemantics.EXACT, n_slots=1_000_000, seed=200 + i,
        )
        slack = 3.0 * stats.stderr("mu_s_hat")
        assert stats.mu_s_hat >= res.mu_s - slack, (scheme, lam_p, stats.mu_s_hat, res.mu_s)
    assert time.monotonic() - t0 < 300.0


def test_criterion_07_solver_never_loses_to_the_fine_grid():
    t0 = time.monotonic()
    for scheme, bound, lam_p in itertools.product(
        (Scheme.NOFEEDBACK, Scheme.FEEDBACK), (2.0, 200.0, math.inf), (0.126, 0.3)
    ):
        problem = OptProblem(
            scheme, PROFILE, SENSING, TrafficParams(lam_p, 1.0, 0.8, bound)
        )
        res = solve(problem)
        ref = grid_oracle(problem, step=0.02)
        assert res.mu_s >= ref.mu_s - 1e-6, (scheme, bound, lam_p, res.mu_s, ref.mu_s)
        assert res.feasible == ref.feasible
    assert time.monotonic() - t0 < 1800.0


def _sweep_curves(bounds, lam_grid, lam_e=0.8):
    curves = {}
    for bound in bounds:
        for scheme in (Scheme.FEEDBACK, Scheme.NOFEEDBACK, Scheme.RANDOM_ACCESS):
            vals = []
            for lam_p in lam_grid:
                problem = OptProblem(
                    scheme, PROFILE, SENSING, TrafficParams(lam_p, 1.0, lam_e, bound)
                )
                vals.append(solve(problem).mu_s)
            curves[scheme, bound] = vals
    return curves


def test_criterion_08_primary_load_sweep_has_the_expected_shape():
    t0 = time.monotonic()
    lam_grid = [round(0.05 * i, 10) for i in range(14)]  # 0.0 .. 0.65
    curves = _sweep_curves((2.0, 200.0), lam_grid)
    slack = 1e-6  # pattern-search termination tolerance
    for bound in (2.0, 200.0):
        fb_c = curves[Scheme.FEEDBACK, bound]
        nf_c = curves[Scheme.NOFEEDBACK, bound]
        ra_c = curves[Scheme.RANDOM_ACCESS, bound]
        for f, nr, r in zip(fb_c, nf_c, ra_c):
            assert f >= nr - slack and nr >= r - slack, (bound, f, nr, r)
        for c in (fb_c, nf_c, ra_c):
            for a, b in zip(c, c[1:]):
                assert b <= a + slack, (bound, c)
    for scheme in (Scheme.FEEDBACK, Scheme.NOFEEDBACK, Scheme.RANDOM_ACCESS):
        for tight, loose in zip(curves[scheme, 2.0], curves[scheme, 200.0]):
            assert loose >= tight - slack, (scheme, tight, loose)
    assert time.monotonic() - t0 < 1800.0


def test_criterion_09_energy_rate_and_mpr_shapes():
    t0 = time.monotonic()
    slack = 1e-6
    schemes = (Scheme.FEEDBACK, Scheme.NOFEEDBACK, Scheme.RANDOM_ACCESS)
    for scheme in schemes:
        vals = []
        for lam_e in [round(0.1 * i, 10) for i in range(1, 11)]:
            problem = OptProblem(
                scheme, PROFILE, SENSING, TrafficParams(0.2, 1.0, lam_e, 2.0)
            )
            vals.append(solve(problem).mu_s)
        for a, b in zip(vals, vals[1:]):
            assert b >= a - slack, (scheme, vals)
    no_mpr = PROFILE.without_mpr()
    for scheme in schemes:
        traffic = TrafficParams(0.2, 1.0, 0.5, 2.0)
        on = solve(OptProblem(scheme, PROFILE, SENSING, traffic)).mu_s
        off = solve(OptProblem(scheme, no_mpr, SENSING, traffic)).mu_s
        assert off <= on + slack, (scheme, off, on)
    assert time.monotonic() - t0 < 900.0


def test_criterion_10_identical_configs_give_identical_bytes(tmp_path):
    import yaml

    overlay = tmp_path / "small.yaml"
    overlay.write_text(
        yaml.safe_dump(
            {"sweep": {"variable": "lam_p", "grid": [0.126]},
             "solver": {"n_starts": 32}}
        )
    )
    pairs = []
    for name, argv in (
        ("analyze", ["analyze", "--preset", "fig4"]),
        ("optimize", ["optimize", "--preset", "fig4", "--scheme", "random_access"]),
        ("sweep", ["sweep", "--preset", "fig4", "--config", str(overlay)]),
        ("simulate", ["simulate", "--preset", "fig4", "--slots", "50000"]),
    ):
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        cli_main(argv + ["--out", str(a)])
        cli_main(argv + ["--out", str(b)])
        pairs.append((name, a.read_bytes(), b.read_bytes()))
    for name, ba, bb in pairs:
        assert ba == bb, f"{name} output not reproducible"
        assert ba  # nonempty
    preset = get_preset("fig4")
    assert preset["seed"] == 0  # a pinned seed is what makes the bytes stable
