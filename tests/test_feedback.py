import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ehcog import PolicyFb, PolicyNoFb, TrafficParams, Unstable
from ehcog import feedback as fb
from ehcog import nofeedback as nofb

from conftest import assert_mass_covers, stable_two_phase_draws
from oracles import collect_two_phase, series_delay, stationary, two_phase_chain

HAND_POLICY = PolicyFb(p_sense=0.0, p_access_direct=1.0, p_access_retx=0.0)


def test_success_probs_hand(preset_profile, preset_sensing):
    alpha, gamma = fb.success_probs(preset_profile, HAND_POLICY, preset_sensing, 0.8)
    assert alpha == pytest.approx(0.252, abs=1e-12)
    assert gamma == 0.7  # secondary never attacks a retransmission
    mirrored = PolicyFb(p_sense=0.0, p_access_direct=0.0, p_access_retx=1.0)
    alpha, gamma = fb.success_probs(preset_profile, mirrored, preset_sensing, 0.8)
    assert alpha == pytest.approx(0.7, abs=1e-12)
    assert gamma == pytest.approx(0.252, abs=1e-12)


def test_hand_chain_stats():
    s = fb.chain_stats(alpha=0.252, gamma=0.7, lam_p=0.126)
    assert s.eta == pytest.approx(0.643552, abs=1e-12)
    assert s.pi0 == pytest.approx(0.73936, abs=1e-12)
    assert s.sum_pi == 0.126
    assert s.sum_eps == pytest.approx(0.13464, abs=1e-12)
    assert s.pi0 + s.sum_pi + s.sum_eps == pytest.approx(1.0, abs=1e-12)


def test_hand_delay():
    d = fb.primary_delay(alpha=0.252, gamma=0.7, lam_p=0.126)
    assert d == pytest.approx(2.3287192011623956, rel=1e-12)


def test_secondary_rate_with_explicit_stats(preset_profile, preset_sensing):
    # silent except in retransmission slots: throughput comes only from the
    # eps mass, transmitted blindly against the busy channel
    pol = PolicyFb(p_sense=0.0, p_access_direct=0.0, p_access_retx=1.0)
    idle, busy = nofb.service_brackets(preset_profile, pol, preset_sensing)
    retx = 1.0 * preset_profile.p_sec_full_conc
    stats = fb.chain_stats(alpha=0.252, gamma=0.7, lam_p=0.126)
    mu_s = nofb.closed_forms(stats.sum_pi, stats.alpha, stats.gamma, idle, busy, retx, 0.8).mu_s
    assert mu_s == pytest.approx(0.8 * 0.13464 * 0.182, abs=1e-12)


def test_chain_stats_validation():
    with pytest.raises(Unstable):
        fb.chain_stats(alpha=0.1, gamma=0.2, lam_p=0.5)
    with pytest.raises(ValueError):
        fb.chain_stats(alpha=1.3, gamma=0.2, lam_p=0.1)
    with pytest.raises(Unstable):
        fb.state_probs(alpha=0.1, gamma=0.2, lam_p=0.5, k_max=10)
    with pytest.raises(ValueError):
        fb.state_probs(alpha=0.5, gamma=0.5, lam_p=0.1, k_max=-1)
    # NaN fails every comparison, so a range check written as two
    # comparisons once let it through: tail_k_max(nan, 0.5, 0.2) gave 1
    chains = (fb.chain_stats, fb.primary_delay, fb.tail_k_max,
              lambda alpha, gamma, lam_p: fb.state_probs(alpha, gamma, lam_p, 4))
    for chain in chains:
        for alpha, gamma, lam_p, name in ((math.nan, 0.5, 0.2, "alpha"),
                                          (0.5, math.nan, 0.2, "gamma"),
                                          (0.5, 0.5, math.nan, "lam_p")):
            with pytest.raises(ValueError, match=rf"{name}=nan outside \[0, 1\]"):
                chain(alpha, gamma, lam_p)


@given(
    st.floats(0.05, 1.0),
    st.floats(0.1, 1.0),
    st.floats(0.0, 0.84),
)
def test_masses_sum_to_one(alpha, gamma, u):
    lam = u * gamma / (1.0 + u * (gamma - alpha))  # keeps lam below eta
    s = fb.chain_stats(alpha, gamma, lam)
    assert s.pi0 + s.sum_pi + s.sum_eps == pytest.approx(1.0, abs=1e-12)
    assert s.sum_pi == lam


def test_state_probs_match_chain_oracle():
    rng = np.random.default_rng(9)
    for lam, alpha, gamma in stable_two_phase_draws(rng, 20):
        k_max = max(fb.tail_k_max(alpha, gamma, lam), 4) + 8
        P, labels = two_phase_chain(lam, alpha, gamma, k_max)
        pi_o, eps_o = collect_two_phase(stationary(P), labels, k_max)
        pi, eps = fb.state_probs(alpha, gamma, lam, k_max)
        assert eps[0] == 0.0
        assert np.abs(pi - pi_o).sum() + np.abs(eps - eps_o).sum() < 1e-8
        assert pi.sum() + eps.sum() == pytest.approx(1.0, abs=1e-10)


def test_per_level_masses_match_aggregates():
    rng = np.random.default_rng(10)
    for lam, alpha, gamma in stable_two_phase_draws(rng, 20):
        k_max = max(fb.tail_k_max(alpha, gamma, lam, tol=1e-14), 4) + 8
        pi, eps = fb.state_probs(alpha, gamma, lam, k_max)
        s = fb.chain_stats(alpha, gamma, lam)
        assert pi[0] == s.pi0
        assert pi[1:].sum() == pytest.approx(s.sum_pi, abs=1e-10)
        assert eps.sum() == pytest.approx(s.sum_eps, abs=1e-10)


def test_delay_matches_level_series():
    rng = np.random.default_rng(11)
    for lam, alpha, gamma in stable_two_phase_draws(rng, 20):
        if lam < 1e-3:
            continue
        k_max = max(fb.tail_k_max(alpha, gamma, lam, tol=1e-14), 4) + 8
        pi, eps = fb.state_probs(alpha, gamma, lam, k_max)
        d = series_delay(pi + eps, lam)
        assert d == pytest.approx(fb.primary_delay(alpha, gamma, lam), rel=1e-8)


@given(st.floats(0.1, 1.0), st.floats(0.0, 0.84))
def test_equal_phase_rates_collapse_to_single_phase(mu, u):
    lam = u * mu
    pi, eps = fb.state_probs(mu, mu, lam, 24)
    nu = nofb.stationary_dist(lam, mu, 24)
    assert np.abs(pi + eps - nu).max() < 1e-12
    if lam > 0:
        assert fb.primary_delay(mu, mu, lam) == pytest.approx(
            nofb.primary_delay(lam, mu), rel=1e-12
        )


def test_degenerate_full_service_delay():
    assert fb.primary_delay(1.0, 1.0, 0.0) == 1.0
    assert fb.primary_delay(1.0, 1.0, 0.3) == pytest.approx(1.0, rel=1e-9)
    # 5e-10 below full service, where the delay once took a level-sum branch
    a = 1.0 - 5e-10
    assert fb.primary_delay(a, a, 0.3) == pytest.approx(1.0, rel=1e-6)
    # near full load r^k of the summed levels overflows, and once gave nan;
    # a sojourn lasts at least one slot, and the sum once gave 1 - 1 ulp
    assert fb.primary_delay(1.0, 1.0, 0.99999) == 1.0
    # within the stability margin the levels decay by rho ~ 0.999, and a sum
    # over the first 64 levels once gave 1.99 slots for a delay near 1000
    for alpha, gamma in ((1.0 - 1e-9, 1.0 - 1e-9), (1.0 - 1e-9, 1.0 - 5e-10)):
        lam = gamma / (1.0 + gamma - alpha) - 1e-12  # 1e-12 below eta
        pi, eps = fb.state_probs(alpha, gamma, lam, fb.tail_k_max(alpha, gamma, lam, 1e-16) + 1)
        delay = fb.primary_delay(alpha, gamma, lam)
        assert delay > 500.0
        assert delay == pytest.approx(series_delay(pi + eps, lam), rel=1e-12)
        if alpha == gamma:
            assert nofb.primary_delay(lam, alpha) == delay


def test_tail_bound_covers_the_mass():
    rng = np.random.default_rng(12)
    for lam, alpha, gamma in stable_two_phase_draws(rng, 20):
        k = fb.tail_k_max(alpha, gamma, lam, tol=1e-10)
        pi, eps = fb.state_probs(alpha, gamma, lam, k)
        assert 1.0 - (pi.sum() + eps.sum()) < 1e-10 + 1e-14


def test_state_probs_stay_finite_under_heavy_load():
    # r = lam_p / ((1-lam_p) eta) = 1.98 here: r^k overflows long before the
    # tail ends, and inf * 0 used to give 3,376 nan masses out of 5,530
    k = fb.tail_k_max(0.5, 0.5, 0.4975)
    pi, eps = fb.state_probs(0.5, 0.5, 0.4975, k)
    assert np.isfinite(pi).all() and np.isfinite(eps).all()
    assert_mass_covers(pi + eps, 1e-12)


def tail_above(pi, eps, k):
    """Mass of the levels above k, smallest first."""
    return (pi + eps)[k + 1 :][::-1].sum()


def test_tail_k_max_is_the_smallest_k():
    # equal phase rates make the sensing-only chain, whose mass above 12 is
    # already below 1e-12
    assert fb.tail_k_max(0.5, 0.5, 0.1) == nofb.tail_k_max(0.1, 0.5) == 12
    assert fb.tail_k_max(0.5, 0.5, 0.0) == 0


@settings(max_examples=60)
@given(
    st.floats(0.01, 1.0),
    st.floats(0.01, 1.0),
    st.floats(0.0, 0.995),
    st.sampled_from([1e-6, 1e-10, 1e-12]),
)
def test_tail_k_max_is_minimal_and_its_levels_are_finite(alpha, gamma, u, tol):
    # lam = u * eta(lam), solved for lam; eta is affine in lam
    lam = u * gamma / (1.0 + u * (gamma - alpha))
    assume(lam < 1.0)
    k = fb.tail_k_max(alpha, gamma, lam, tol)
    pi, eps = fb.state_probs(alpha, gamma, lam, k)
    assert np.isfinite(pi).all() and np.isfinite(eps).all()
    assert_mass_covers(pi + eps, tol)
    # levels far enough out that what lies beyond them is negligible
    pi, eps = fb.state_probs(alpha, gamma, lam, fb.tail_k_max(alpha, gamma, lam, tol * 1e-6) + 1)
    assert tail_above(pi, eps, k) < tol * (1 + 1e-9)
    if k > 0:
        assert tail_above(pi, eps, k - 1) >= tol * (1 - 1e-9)


def test_analyze_composition(preset_profile, preset_sensing):
    pol = PolicyFb(0.3, 0.8, 0.1, 0.2, 0.9)
    traffic = TrafficParams(0.15, 0.2, 0.7, delay_bound=10.0)
    rep = fb.analyze(preset_profile, pol, preset_sensing, traffic)
    alpha, gamma = fb.success_probs(preset_profile, pol, preset_sensing, 0.7)
    stats = fb.chain_stats(alpha, gamma, 0.15)
    assert rep.mu_p == alpha
    assert rep.nu0 == stats.pi0
    idle, busy = nofb.service_brackets(preset_profile, pol, preset_sensing)
    retx = 0.9 * preset_profile.p_sec_full_conc
    assert rep.mu_s == nofb.closed_forms(0.15, alpha, gamma, idle, busy, retx, 0.7).mu_s
    assert rep.delay == fb.primary_delay(alpha, gamma, 0.15)
    assert rep.delay_feasible == (rep.delay <= 10.0)


def test_analyze_unstable_branch(preset_profile, preset_sensing):
    pol = PolicyFb(0.0, 0.0, 0.0, 1.0, 0.5)
    traffic = TrafficParams(0.9, 0.0, 0.8)
    rep = fb.analyze(preset_profile, pol, preset_sensing, traffic)
    assert not rep.primary_stable and rep.delay == math.inf and rep.nu0 == 0.0
    alpha, gamma = fb.success_probs(preset_profile, pol, preset_sensing, 0.8)
    frac = gamma / (gamma + 1.0 - alpha)
    _, busy = nofb.service_brackets(preset_profile, pol, preset_sensing)
    retx = 0.5 * preset_profile.p_sec_full_conc
    assert rep.mu_s == pytest.approx(
        0.8 * (frac * busy + (1.0 - frac) * retx), abs=1e-15
    )


@settings(max_examples=60)
@given(
    ps=st.floats(0.0, 1.0),
    pf=st.floats(0.0, 1.0),
    pb=st.floats(0.0, 1.0),
    pt=st.floats(0.0, 1.0),
    lam_p=st.floats(0.05, 0.2),
    lam_e=st.floats(0.1, 1.0),
)
def test_matching_retx_policy_dominates_sensing_only(
    preset_profile, preset_sensing, ps, pf, pb, pt, lam_p, lam_e
):
    """Attacking retransmissions exactly as often as ordinary busy slots
    leaves the primary chain unchanged but swaps sensing-shortened slots for
    full-slot transmissions, so it can only help the secondary."""
    base = PolicyNoFb(ps, pf, pb, pt)
    iota = nofb.interference_prob(base, preset_sensing)
    lifted = PolicyFb(ps, pf, pb, pt, p_access_retx=iota)
    traffic = TrafficParams(lam_p, 0.0, lam_e)
    rep_n = nofb.analyze(preset_profile, base, preset_sensing, traffic)
    rep_f = fb.analyze(preset_profile, lifted, preset_sensing, traffic)
    alpha, gamma = fb.success_probs(preset_profile, lifted, preset_sensing, lam_e)
    assert gamma == alpha
    assert rep_f.mu_p == rep_n.mu_p
    if abs(lam_p - rep_n.mu_p) > 1e-9:  # away from the stability knife edge
        assert rep_f.delay == pytest.approx(rep_n.delay, rel=1e-9)
    assert rep_f.mu_s >= rep_n.mu_s - 1e-12
