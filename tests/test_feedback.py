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
    s = nofb.closed_forms(0.126, 0.252, 0.7)
    assert s.eta == pytest.approx(0.643552, abs=1e-12)
    assert s.pi0 == pytest.approx(0.73936, abs=1e-12)
    assert s.sum_eps == pytest.approx(0.13464, abs=1e-12)
    # the fresh-head busy mass is lam_p
    assert s.pi0 + 0.126 + s.sum_eps == pytest.approx(1.0, abs=1e-12)


def test_hand_delay():
    d = nofb.primary_delay(0.126, 0.252, 0.7)
    assert d == pytest.approx(2.3287192011623956, rel=1e-12)


def test_secondary_rate_with_explicit_stats(preset_profile, preset_sensing):
    # silent except in retransmission slots: throughput comes only from the
    # eps mass, transmitted blindly against the busy channel
    pol = PolicyFb(p_sense=0.0, p_access_direct=0.0, p_access_retx=1.0)
    idle, busy = nofb.service_brackets(preset_profile, pol, preset_sensing)
    retx = 1.0 * preset_profile.p_sec_full_conc
    mu_s = nofb.closed_forms(0.126, 0.252, 0.7, idle, busy, retx, 0.8).mu_s
    assert mu_s == pytest.approx(0.8 * 0.13464 * 0.182, abs=1e-12)


def test_chain_stats_validation():
    chains = (nofb.primary_delay, nofb.tail_k_max,
              lambda lam_p, alpha, gamma: nofb.state_probs(lam_p, alpha, gamma, 4))
    for chain in chains:
        with pytest.raises(Unstable):
            chain(0.5, 0.1, 0.2)
        # NaN fails every comparison, so a range check written as two
        # comparisons once let it through: tail_k_max at a NaN alpha gave 1
        for lam_p, alpha, gamma, message in ((0.1, 1.3, 0.2, "alpha=1.3"),
                                             (0.1, 0.5, 1.2, "gamma=1.2"),
                                             (0.2, math.nan, 0.5, "alpha=nan"),
                                             (0.2, 0.5, math.nan, "gamma=nan"),
                                             (math.nan, 0.5, 0.2, "lam_p=nan")):
            with pytest.raises(ValueError, match=rf"{message} outside \[0, 1\]"):
                chain(lam_p, alpha, gamma)
    with pytest.raises(ValueError, match="k_max"):
        nofb.state_probs(0.1, 0.5, 0.2, -1)


@given(
    st.floats(0.05, 1.0),
    st.floats(0.1, 1.0),
    st.floats(0.0, 0.84),
)
def test_masses_sum_to_one(alpha, gamma, u):
    lam = u * gamma / (1.0 + u * (gamma - alpha))  # keeps lam below eta
    s = nofb.closed_forms(lam, alpha, gamma)
    for v in (s.eta, s.pi0, s.sum_eps):
        assert 0.0 <= v <= 1.0
    # the fresh-head busy mass is lam
    assert s.pi0 + lam + s.sum_eps == pytest.approx(1.0, abs=1e-12)


def test_state_probs_match_chain_oracle():
    rng = np.random.default_rng(9)
    for lam, alpha, gamma in stable_two_phase_draws(rng, 20):
        k_max = max(nofb.tail_k_max(lam, alpha, gamma), 4) + 8
        P, labels = two_phase_chain(lam, alpha, gamma, k_max)
        pi_o, eps_o = collect_two_phase(stationary(P), labels, k_max)
        pi, eps = nofb.state_probs(lam, alpha, gamma, k_max)
        assert eps[0] == 0.0
        assert np.abs(pi - pi_o).sum() + np.abs(eps - eps_o).sum() < 1e-8
        assert pi.sum() + eps.sum() == pytest.approx(1.0, abs=1e-10)


def test_per_level_masses_match_aggregates():
    rng = np.random.default_rng(10)
    for lam, alpha, gamma in stable_two_phase_draws(rng, 20):
        k_max = max(nofb.tail_k_max(lam, alpha, gamma, tol=1e-14), 4) + 8
        pi, eps = nofb.state_probs(lam, alpha, gamma, k_max)
        s = nofb.closed_forms(lam, alpha, gamma)
        assert pi[0] == s.pi0
        assert pi[1:].sum() == pytest.approx(lam, abs=1e-10)
        assert eps.sum() == pytest.approx(s.sum_eps, abs=1e-10)


def test_delay_matches_level_series():
    rng = np.random.default_rng(11)
    for lam, alpha, gamma in stable_two_phase_draws(rng, 20):
        if lam < 1e-3:
            continue
        k_max = max(nofb.tail_k_max(lam, alpha, gamma, tol=1e-14), 4) + 8
        pi, eps = nofb.state_probs(lam, alpha, gamma, k_max)
        d = series_delay(pi + eps, lam)
        assert d == pytest.approx(nofb.primary_delay(lam, alpha, gamma), rel=1e-8)


@given(st.floats(0.1, 1.0), st.floats(0.0, 0.84))
def test_equal_phase_rates_collapse_to_single_phase(mu, u):
    """At alpha = gamma = mu the chain is the Geo/Geo/1 queue with
    arrivals at slot end, whose pmf and delay are written out here."""
    lam = u * mu
    pi, eps = nofb.state_probs(lam, mu, mu, 24)
    r = lam / ((1.0 - lam) * mu)
    nu = (mu - lam) / mu * np.r_[1.0, r * (r * (1.0 - mu)) ** np.arange(24)]
    assert np.abs(pi + eps - nu).max() < 1e-12
    assert nofb.primary_delay(lam, mu, mu) == pytest.approx((1.0 - lam) / (mu - lam), rel=1e-12)


def test_degenerate_full_service_delay():
    assert nofb.primary_delay(0.0, 1.0, 1.0) == 1.0
    assert nofb.primary_delay(0.3, 1.0, 1.0) == pytest.approx(1.0, rel=1e-9)
    # 5e-10 below full service, where the delay once took a level-sum branch
    a = 1.0 - 5e-10
    assert nofb.primary_delay(0.3, a, a) == pytest.approx(1.0, rel=1e-6)
    # near full load r^k of the summed levels overflows, and once gave nan;
    # a sojourn lasts at least one slot, and the sum once gave 1 - 1 ulp
    assert nofb.primary_delay(0.99999, 1.0, 1.0) == 1.0
    # within the stability margin the levels decay by rho ~ 0.999, and a sum
    # over the first 64 levels once gave 1.99 slots for a delay near 1000
    for alpha, gamma in ((1.0 - 1e-9, 1.0 - 1e-9), (1.0 - 1e-9, 1.0 - 5e-10)):
        lam = gamma / (1.0 + gamma - alpha) - 1e-12  # 1e-12 below eta
        pi, eps = nofb.state_probs(lam, alpha, gamma, nofb.tail_k_max(lam, alpha, gamma, 1e-16) + 1)
        delay = nofb.primary_delay(lam, alpha, gamma)
        assert delay > 500.0
        assert delay == pytest.approx(series_delay(pi + eps, lam), rel=1e-12)


def test_tail_bound_covers_the_mass():
    rng = np.random.default_rng(12)
    for lam, alpha, gamma in stable_two_phase_draws(rng, 20):
        k = nofb.tail_k_max(lam, alpha, gamma, tol=1e-10)
        pi, eps = nofb.state_probs(lam, alpha, gamma, k)
        assert 1.0 - (pi.sum() + eps.sum()) < 1e-10 + 1e-14


def test_state_probs_stay_finite_under_heavy_load():
    # r = lam_p / ((1-lam_p) eta) = 2.09 here, with a slower retransmitted
    # head: r^k overflows long before the tail ends, where inf * 0 once gave
    # nan masses
    k = nofb.tail_k_max(0.525, 0.6, 0.45)
    pi, eps = nofb.state_probs(0.525, 0.6, 0.45, k)
    assert np.isfinite(pi).all() and np.isfinite(eps).all()
    assert_mass_covers(pi + eps, 1e-12)


def tail_above(pi, eps, k):
    """Mass of the levels above k, smallest first."""
    return (pi + eps)[k + 1 :][::-1].sum()


def test_tail_k_max_is_the_smallest_k():
    # a slower retransmitted head than fresh head
    k = nofb.tail_k_max(0.1, 0.5, 0.3)
    pi, eps = nofb.state_probs(0.1, 0.5, 0.3, 80)
    assert tail_above(pi, eps, k) < 1e-12 <= tail_above(pi, eps, k - 1)
    assert nofb.tail_k_max(0.0, 0.5, 0.3) == 0


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
    k = nofb.tail_k_max(lam, alpha, gamma, tol)
    pi, eps = nofb.state_probs(lam, alpha, gamma, k)
    assert np.isfinite(pi).all() and np.isfinite(eps).all()
    assert_mass_covers(pi + eps, tol)
    # levels far enough out that what lies beyond them is negligible
    pi, eps = nofb.state_probs(lam, alpha, gamma, nofb.tail_k_max(lam, alpha, gamma, tol * 1e-6) + 1)
    assert tail_above(pi, eps, k) < tol * (1 + 1e-9)
    if k > 0:
        assert tail_above(pi, eps, k - 1) >= tol * (1 - 1e-9)


def test_analyze_composition(preset_profile, preset_sensing):
    pol = PolicyFb(0.3, 0.8, 0.1, 0.2, 0.9)
    traffic = TrafficParams(0.15, 0.2, 0.7, delay_bound=10.0)
    rep = fb.analyze(preset_profile, pol, preset_sensing, traffic)
    alpha, gamma = fb.success_probs(preset_profile, pol, preset_sensing, 0.7)
    stats = nofb.closed_forms(0.15, alpha, gamma)
    assert rep.mu_p == alpha
    assert rep.nu0 == stats.pi0
    idle, busy = nofb.service_brackets(preset_profile, pol, preset_sensing)
    retx = 0.9 * preset_profile.p_sec_full_conc
    assert rep.mu_s == nofb.closed_forms(0.15, alpha, gamma, idle, busy, retx, 0.7).mu_s
    assert rep.delay == nofb.primary_delay(0.15, alpha, gamma)
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
