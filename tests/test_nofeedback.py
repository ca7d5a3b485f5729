import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ehcog import (
    OutageProfile,
    PolicyFb,
    PolicyNoFb,
    SensingQuality,
    TrafficParams,
    Unstable,
    feedback,
    nofeedback,
)
from ehcog.nofeedback import (
    STABILITY_MARGIN,
    access_masses,
    analyze,
    closed_forms,
    interference_prob,
    operating_point,
    primary_delay,
    primary_service_rate,
    service_brackets,
    state_probs,
    tail_k_max,
)

from conftest import assert_mass_covers, stable_single_phase_draws
from oracles import series_delay, single_phase_chain, stationary

unit = st.floats(0.0, 1.0)
policies = st.builds(PolicyNoFb, unit, unit, unit, unit)
sensings = st.builds(SensingQuality, unit, unit)


@st.composite
def profiles(draw):
    p = draw(st.floats(0.1, 1.0))
    s0 = draw(st.floats(0.1, 1.0))
    ratio = draw(unit)
    return OutageProfile.from_ratios(
        p_primary=p,
        p_primary_conc=p * draw(unit),
        p_sec_full=s0,
        p_sec_full_conc=s0 * draw(unit),
        short_ratio=ratio,
        # keep the concurrent penalty at least as harsh so the profile
        # invariants (short_conc <= short) hold for any full_conc <= full
        short_ratio_conc=ratio * draw(unit),
    )


HAND_POLICY = PolicyNoFb(p_sense=0.0, p_access_direct=1.0)


def test_hand_example(preset_profile, preset_sensing):
    assert access_masses(HAND_POLICY) == (1.0, 0.0, 0.0)
    sensing_policy = PolicyNoFb(
        p_sense=0.5, p_access_free=0.8, p_access_busy=0.2, p_access_direct=0.4
    )
    assert access_masses(sensing_policy) == (0.2, 0.4, 0.1)
    traffic = TrafficParams(lam_p=0.126, lam_s=1.0, lam_e=0.8)
    mu_p = primary_service_rate(preset_profile, HAND_POLICY, preset_sensing, 0.8)
    assert mu_p == pytest.approx(0.252, abs=1e-12)
    idle, busy = service_brackets(preset_profile, HAND_POLICY, preset_sensing)
    assert (idle, busy) == pytest.approx((0.6065, 0.182), abs=1e-12)
    rep = analyze(preset_profile, HAND_POLICY, preset_sensing, traffic)
    assert rep.nu0 == pytest.approx(0.5, abs=1e-12)
    assert rep.mu_s == pytest.approx(0.3154, abs=1e-12)
    assert rep.delay == pytest.approx(6.936507936507937, rel=1e-12)
    assert rep.primary_stable and not rep.secondary_stable
    assert not analyze(
        preset_profile,
        HAND_POLICY,
        preset_sensing,
        TrafficParams(0.126, 1.0, 0.8, delay_bound=2.0),
    ).delay_feasible


def test_interference_prob_branches():
    q = SensingQuality(p_false_alarm=0.3, p_missed_detection=0.08)
    assert interference_prob(HAND_POLICY, q) == 1.0
    pol = PolicyNoFb(p_sense=1.0, p_access_free=0.5, p_access_busy=0.25)
    # busy slot: missed detection routes to the "free" branch
    assert interference_prob(pol, q) == pytest.approx(0.08 * 0.5 + 0.92 * 0.25)


@given(profiles(), policies, sensings, unit)
def test_primary_rate_between_concurrent_and_solo(profile, policy, sensing, lam_e):
    mu_p = primary_service_rate(profile, policy, sensing, lam_e)
    assert profile.p_primary_conc - 1e-12 <= mu_p <= profile.p_primary + 1e-12


@given(profiles(), policies, sensings)
def test_primary_rate_affine_in_energy_rate(profile, policy, sensing):
    lo = primary_service_rate(profile, policy, sensing, 0.0)
    hi = primary_service_rate(profile, policy, sensing, 1.0)
    mid = primary_service_rate(profile, policy, sensing, 0.5)
    assert lo == profile.p_primary
    assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-14, abs=1e-15)


@given(profiles(), policies, sensings, unit)
def test_primary_rate_is_solo_when_interference_is_harmless(profile, policy, sensing, lam_e):
    # a secondary that cannot hurt the primary leaves it its solo rate
    harmless = dataclasses.replace(profile, p_primary_conc=profile.p_primary)
    assert primary_service_rate(harmless, policy, sensing, lam_e) == profile.p_primary


@given(profiles(), policies, sensings, st.floats(0.0, 0.95))
def test_secondary_rate_bounds(profile, policy, sensing, lam_e):
    traffic = TrafficParams(lam_p=0.0, lam_s=0.0, lam_e=lam_e)
    mu_s = operating_point(profile, policy, sensing, traffic).mu_s
    assert -1e-15 <= mu_s <= lam_e * profile.p_sec_full + 1e-12


@settings(max_examples=200)
@given(
    profiles(),
    st.builds(PolicyFb, st.floats(1e-3, 1.0), unit, unit, unit, unit),
    sensings,
    unit,
    unit,
    unit,
    st.floats(1.0, 100.0),
)
def test_policy_enters_only_through_access_masses(
    profile, policy, sensing, u, lam_p, lam_e, delay_bound
):
    """A policy re-expressed at another p_sense with the same (a, b, c) and
    p_access_retx has the same operating point under both schemes."""
    a, b, c = access_masses(policy)
    # any p_sense in [max(b, c), 1 - a] keeps the masses reachable
    lo, hi = max(b, c), 1.0 - a
    ps = min(lo + u * (hi - lo), hi)
    assume(0.0 < ps < 1.0)
    twin = PolicyFb(ps, b / ps, c / ps, min(a / (1.0 - ps), 1.0), policy.p_access_retx)
    traffic = TrafficParams(lam_p, 0.0, lam_e, delay_bound=delay_bound)
    for module in (nofeedback, feedback):
        point = module.operating_point(profile, policy, sensing, traffic)
        # away from the stability and delay knife edges, where a last-ulp
        # move may flip a constraint or blow up the delay
        assume(point.eta - lam_p > 1e-3)
        assume(abs(point.delay - delay_bound) > 1e-9 * delay_bound)
        other = module.operating_point(profile, twin, sensing, traffic)
        for name, value in point._asdict().items():
            # probabilities to 1e-12 of their unit scale, the delay relative
            assert getattr(other, name) == pytest.approx(value, rel=1e-12, abs=1e-12), name


def test_unstable_is_a_value_error():
    assert issubclass(Unstable, ValueError)


def test_delay_validation():
    # the chain's three functions share one range check; tail_k_max once
    # returned 0 and 1 for these rates, and 0 for a NaN lam_p
    bad = (
        ((-0.1, 0.5, 0.5), "lam_p=-0.1"),
        ((0.3, 1.5, 1.5), "alpha=1.5"),
        ((math.nan, 0.5, 0.5), "lam_p=nan"),
        ((0.2, math.nan, math.nan), "alpha=nan"),
    )
    for chain in (primary_delay, tail_k_max, lambda *rates: state_probs(*rates, 4)):
        with pytest.raises(Unstable):
            chain(0.5, 0.5, 0.5)
        for rates, message in bad:
            with pytest.raises(ValueError, match=rf"{message} outside \[0, 1\]"):
                chain(*rates)


@st.composite
def geo_geo_1_points(draw):
    """(lam, mu, idle, busy, lam_e) of a stable Geo/Geo/1 queue."""
    mu = draw(st.floats(1e-3, 1.0))
    lam = mu * draw(st.floats(0.0, 1.0, exclude_max=True))
    assume(lam <= mu - STABILITY_MARGIN)
    return lam, mu, draw(unit), draw(unit), draw(unit)


@given(geo_geo_1_points())
@example((0.0, 0.6, 0.5, 0.2, 0.8))
@example((0.3, 1.0, 0.5, 0.2, 0.8))  # delay exactly 1 slot
@example((0.5 - 1e-6, 0.5, 0.5, 0.2, 0.8))
@example((0.2, 0.6, 0.5, 0.2, 0.0))
def test_one_chain_at_equal_phases_is_the_geo_geo_1_queue(point):
    """The chain at gamma = alpha = mu, retx = busy against the textbook
    Geo/Geo/1 expressions, written out here.  At alpha = gamma the chain's
    eta is gamma and its gap gamma - lam, both exact, so the tolerance
    stays 1e-12 up to the stability edge."""
    lam, mu, idle, busy, lam_e = point
    got = closed_forms(lam, mu, mu, idle, busy, busy, lam_e)
    rel = 1e-12
    # the empty probability 1 - lam / mu, written as (mu - lam) / mu, which
    # does not cancel near the edge
    nu0 = (mu - lam) / mu
    assert got.eta == mu
    assert got.pi0 == pytest.approx(nu0, rel=rel)
    assert got.delay == pytest.approx((1.0 - lam) / (mu - lam), rel=rel)
    assert got.mu_s == pytest.approx(lam_e * (nu0 * idle + lam / mu * busy), rel=rel)
    assert got.stable


@st.composite
def stable_chains(draw):
    """(lam, alpha, gamma) of a stable two-phase chain, up to its edge."""
    alpha, gamma = draw(unit), draw(unit)
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    # lam = u * eta(lam), solved for lam; eta is affine in lam
    lam = u * gamma / (1.0 + u * (gamma - alpha))
    assume(closed_forms(lam, alpha, gamma).stable)
    return lam, alpha, gamma


def exact_delay(lam, alpha, gamma) -> Fraction:
    """The chain's mean delay in exact arithmetic, from the ratio form
    ((alpha - eta) gap^2 + (1 - lam)^2 (1 - alpha) eta)
    / (gap (1 - lam) (1 - eta) gamma), which is 0/0 at eta = 1."""
    lam, alpha, gamma = map(Fraction, (lam, alpha, gamma))
    eta = lam * alpha + (1 - lam) * gamma
    gap = eta - lam
    den = gap * (1 - lam) * (1 - eta) * gamma
    if den == 0:
        # eta = 1: gamma = 1 at lam = 0, and alpha = gamma = 1 otherwise
        return 1 + (1 - alpha) / gamma if lam == 0 else Fraction(1)
    return ((alpha - eta) * gap * gap + (1 - lam) ** 2 * (1 - alpha) * eta) / den


@given(stable_chains())
@example((0.99, 1.0, 1e-5))  # alpha = 1; once read 1 - 5e-10 slots
@example((0.3, 0.6, 0.6))  # alpha = gamma
@example((0.0, 0.3, 0.7))  # lam = 0
@example((0.0, 1.0, 1.0))  # eta = 1 at lam = 0
@example((0.4, 1.0, 1.0))  # eta = 1
@example((0.55555554, 0.2, 1.0))  # 2.8e-8 below eta
def test_delay_is_at_least_one_slot_and_accurate(point):
    lam, alpha, gamma = point
    got = closed_forms(lam, alpha, gamma)
    assert got.stable
    assert got.delay >= 1.0
    exact = exact_delay(lam, alpha, gamma)
    eta = Fraction(float(got.eta))
    amplification = 1 + eta / (eta - Fraction(lam))
    assert abs(Fraction(float(got.delay)) - exact) <= 4 * Fraction(2) ** -52 * amplification * exact


@given(st.floats(0.0, 0.9), st.floats(1.0, 100.0))
def test_delay_hits_bound_at_threshold_rate(lam, bound):
    # the service rate that makes the delay exactly equal to the bound
    mu = lam + (1.0 - lam) / bound
    assert mu <= 1.0 + 1e-12
    mu = min(mu, 1.0)
    assert primary_delay(lam, mu, mu) == pytest.approx(bound, rel=1e-9)


@given(st.floats(0.0, 0.9))
def test_empty_queue_delay_is_one_slot(lam):
    assert primary_delay(lam, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def pmf(lam, alpha, gamma, k_max):
    """Queue-length pmf of the chain for lengths 0..k_max."""
    pi, eps = state_probs(lam, alpha, gamma, k_max)
    return pi + eps


def test_stationary_dist_at_full_service():
    assert pmf(0.3, 1.0, 1.0, 5) == pytest.approx([0.7, 0.3, 0.0, 0.0, 0.0, 0.0], abs=1e-15)


def test_stationary_dist_matches_chain_oracle():
    rng = np.random.default_rng(5)
    for lam, mu in stable_single_phase_draws(rng, 25):
        k_max = max(tail_k_max(lam, mu, mu), 4) + 8
        pi = stationary(single_phase_chain(lam, mu, k_max))
        nu = pmf(lam, mu, mu, k_max)
        assert np.abs(pi - nu).sum() < 1e-8
        assert nu.sum() == pytest.approx(1.0, abs=1e-10)
        if lam > 1e-3:
            assert series_delay(pi, lam) == pytest.approx(
                primary_delay(lam, mu, mu), rel=1e-8, abs=1e-8
            )


def test_tail_bound_actually_covers_the_mass():
    rng = np.random.default_rng(6)
    for lam, mu in stable_single_phase_draws(rng, 25):
        k = tail_k_max(lam, mu, mu, tol=1e-10)
        assert 1.0 - pmf(lam, mu, mu, k).sum() < 1e-10 + 1e-14
    assert tail_k_max(0.0, 0.5, 0.5) == 0


@pytest.mark.parametrize(
    "rates, tol, estimate, k",
    [
        # the log estimate lands a level above the answer: k -= 1 runs
        ((0.749, 0.969, 0.39), 1.111120114318605e-12, 60, 59),
        # it lands a level below: k += 1 runs
        ((0.325, 0.35, 0.658), 3.838896769028738e-07, 15, 16),
    ],
)
def test_tail_k_max_steps_its_log_estimate_onto_the_float_comparison(rates, tol, estimate, k):
    # tol is within an ulp of the mass above some level, where rounding in
    # the logs and in the power disagree on which side of tol it falls
    point = closed_forms(*rates)
    r, rho = nofeedback._ratios(point, rates[0])
    head = float(point.pi0) * (1.0 - rates[1]) * r * r

    def above(level):
        return head * rho ** (level - 1) / (1.0 - rho)

    assert max(2, math.floor(math.log(tol * (1.0 - rho) / head) / math.log(rho)) + 2) == estimate
    assert tail_k_max(*rates, tol=tol) == k
    assert above(k) < tol <= above(k - 1)


def test_stationary_dist_stays_finite_under_heavy_load():
    # r = lam_p / ((1-lam_p) mu_p) = 2.48 at the first point and 1.98 at
    # the second: r^k overflows long before the tail ends, and inf * 0 used
    # to give 522 nan levels at the first and 3,376 nan masses out of 5,530
    # at the second
    for lam, mu in ((0.6, 0.605), (0.4975, 0.5)):
        pi, eps = state_probs(lam, mu, mu, tail_k_max(lam, mu, mu))
        assert np.isfinite(pi).all() and np.isfinite(eps).all()
        assert_mass_covers(pi + eps, 1e-12)


def tail_above(nu, k):
    """Mass of the levels above k, smallest first."""
    return nu[k + 1 :][::-1].sum()


def test_tail_k_max_is_the_smallest_k():
    # the mass above 12 is already below 1e-12
    assert tail_k_max(0.1, 0.5, 0.5) == 12
    nu = pmf(0.1, 0.5, 0.5, 60)
    assert tail_above(nu, 12) < 1e-12 <= tail_above(nu, 11)
    assert tail_k_max(0.0, 0.5, 0.5) == 0


@pytest.mark.parametrize(
    "gap, k_max", [(1e-5, 690_776), (1e-6, 6_907_755), (1e-7, 69_077_553)]
)
def test_tail_k_max_near_the_stability_edge(gap, k_max):
    # a walk over the levels once took 0.7 s at gap 1e-6 and gave up at
    # 1e-7, where lam_p < eta still holds
    lam, mu = 0.5 - gap, 0.5
    pi0, r = (mu - lam) / mu, lam / ((1.0 - lam) * mu)
    rho = r * (1.0 - mu)

    def above(k):  # the mass above level k >= 1
        return pi0 * (1.0 - mu) * r * r * rho ** (k - 1) / (1.0 - rho)

    assert tail_k_max(lam, mu, mu) == k_max
    assert above(k_max) < 1e-12 <= above(k_max - 1)


def test_tail_k_max_needs_a_positive_tol():
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError, match="must be > 0"):
            tail_k_max(0.1, 0.5, 0.5, tol)


@settings(max_examples=60)
@given(st.floats(0.01, 1.0), st.floats(0.0, 0.995), st.sampled_from([1e-6, 1e-10, 1e-12]))
@example(0.01, 0.995, 1e-12)  # slowest decay
@example(1.0, 0.5, 1e-12)  # full service
def test_tail_k_max_is_minimal_and_its_levels_are_finite(mu, u, tol):
    lam = mu * u
    k = tail_k_max(lam, mu, mu, tol)
    nu = pmf(lam, mu, mu, k)
    assert np.isfinite(nu).all()
    assert_mass_covers(nu, tol)
    # levels far enough out that what lies beyond them is negligible
    nu = pmf(lam, mu, mu, tail_k_max(lam, mu, mu, tol * 1e-6) + 1)
    assert tail_above(nu, k) < tol * (1 + 1e-9)
    if k > 0:
        assert tail_above(nu, k - 1) >= tol * (1 - 1e-9)


def test_analyze_matches_parts_bitwise(preset_profile, preset_sensing):
    pol = PolicyNoFb(0.4, 0.9, 0.05, 0.2)
    traffic = TrafficParams(0.1, 0.2, 0.6, delay_bound=30.0)
    rep = analyze(preset_profile, pol, preset_sensing, traffic)
    assert rep.mu_p == primary_service_rate(preset_profile, pol, preset_sensing, 0.6)
    idle, busy = service_brackets(preset_profile, pol, preset_sensing)
    # the sensing-only scheme is the one chain at gamma = alpha, retx = busy
    point = closed_forms(0.1, rep.mu_p, rep.mu_p, idle, busy, busy, 0.6)
    assert rep.mu_s == point.mu_s
    assert rep.delay == point.delay == primary_delay(0.1, rep.mu_p, rep.mu_p)
    assert rep.nu0 == point.pi0
    assert rep.delay_feasible == (rep.delay <= 30.0)
    assert rep.secondary_stable == (0.2 < rep.mu_s)


def test_analyze_unstable_branch(preset_profile, preset_sensing):
    # a saturating arrival rate: mu_p for this policy is 0.252
    traffic = TrafficParams(0.9, 0.0, 0.8)
    rep = analyze(preset_profile, HAND_POLICY, preset_sensing, traffic)
    assert not rep.primary_stable and not rep.delay_feasible
    assert rep.delay == math.inf
    assert rep.nu0 == 0.0
    _, busy = service_brackets(preset_profile, HAND_POLICY, preset_sensing)
    assert rep.mu_s == pytest.approx(0.8 * busy, abs=1e-15)


def test_analyze_stability_margin(preset_profile, preset_sensing):
    lam = 0.252 - 5e-10  # inside the margin used to call a point stable
    rep = analyze(
        preset_profile, HAND_POLICY, preset_sensing, TrafficParams(lam, 0.0, 0.8)
    )
    assert not rep.primary_stable
    assert math.isfinite(rep.delay)


@settings(max_examples=50)
@given(profiles(), policies, sensings)
def test_brackets_are_probabilities(profile, policy, sensing):
    idle, busy = service_brackets(profile, policy, sensing)
    assert -1e-15 <= idle <= profile.p_sec_full + 1e-12
    assert -1e-15 <= busy <= profile.p_sec_full_conc + 1e-12
