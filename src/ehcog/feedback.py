"""Closed-form analysis of the retransmission-aware access scheme.

The secondary overhears the primary's ACK/NACK feedback.  After a NACK it
knows the next primary slot carries a retransmission, so it skips sensing and
transmits with its own probability p_access_retx.  In all other slots it
behaves exactly as in the sensing-only scheme.

The primary queue is then a two-phase chain: the queue length together with
whether the head packet is fresh (success prob alpha per slot) or a
retransmission (success prob gamma per slot).  Fresh slots see the
sensing-policy interference pattern; retransmission slots see interference
with probability lam_e * p_access_retx.  pi_k below is the stationary
probability of queue length k with a fresh head, eps_k the same with a
retransmission head; eta = lam_p * alpha + (1 - lam_p) * gamma is the
aggregate service rate that governs stability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nofeedback
from .params import (
    PROB_TOL,
    OutageProfile,
    PolicyFb,
    SensingQuality,
    TrafficParams,
    Unstable,
)
from .nofeedback import AnalysisReport, TAIL_TOL


@dataclass(frozen=True)
class FeedbackChainStats:
    """Aggregate stationary quantities of the two-phase primary chain.

    alpha    per-slot success probability of a fresh transmission
    gamma    per-slot success probability of a retransmission
    eta      lam_p * alpha + (1 - lam_p) * gamma, the stability threshold
    pi0      probability the primary queue is empty
    sum_pi   probability of a busy slot with a fresh head packet
    sum_eps  probability of a busy slot with a retransmitted head packet
    """

    alpha: float
    gamma: float
    eta: float
    pi0: float
    sum_pi: float
    sum_eps: float

    def __post_init__(self):
        for name in ("alpha", "gamma", "eta", "pi0", "sum_pi", "sum_eps"):
            v = getattr(self, name)
            if not -PROB_TOL <= v <= 1.0 + PROB_TOL:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
        total = self.pi0 + self.sum_pi + self.sum_eps
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"stationary masses sum to {total!r}, not 1")


def success_probs(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    lam_e: float,
):
    """(alpha, gamma): success probability of a fresh / retransmitted
    primary packet per slot.

    A fresh slot is indistinguishable from a sensing-only busy slot, so alpha
    reuses that service rate.  In a retransmission slot the secondary never
    senses and attacks with p_access_retx when it has energy.
    """
    alpha = nofeedback.primary_service_rate(profile, policy, sensing, lam_e)
    p, pc = profile.p_primary, profile.p_primary_conc
    pr = policy.p_access_retx
    gamma = (1.0 - lam_e) * p + lam_e * (pr * pc + (1.0 - pr) * p)
    return alpha, gamma


def _check_chain_inputs(alpha, gamma, lam_p) -> None:
    for name, v in (("alpha", alpha), ("gamma", gamma), ("lam_p", lam_p)):
        if np.any(np.asarray(v) < -PROB_TOL) or np.any(np.asarray(v) > 1.0 + PROB_TOL):
            raise ValueError(f"{name}={v!r} outside [0, 1]")


def chain_stats(alpha: float, gamma: float, lam_p: float) -> FeedbackChainStats:
    """Stationary aggregates of the two-phase chain.  Raises Unstable when
    lam_p >= eta."""
    _check_chain_inputs(alpha, gamma, lam_p)
    eta = lam_p * alpha + (1.0 - lam_p) * gamma
    if lam_p >= eta:
        raise Unstable(f"lam_p={lam_p} >= eta={eta}")
    pi0 = (eta - lam_p) / gamma
    # The fresh-head busy mass telescopes to lam_p exactly (each departure of
    # a fresh head is preceded by exactly one arrival in the long run).
    sum_pi = lam_p
    sum_eps = lam_p * (1.0 - alpha) / gamma
    return FeedbackChainStats(
        alpha=float(alpha),
        gamma=float(gamma),
        eta=float(eta),
        pi0=float(pi0),
        sum_pi=float(sum_pi),
        sum_eps=float(sum_eps),
    )


def state_probs(alpha: float, gamma: float, lam_p: float, k_max: int):
    """Stationary per-level masses (pi, eps) for queue lengths 0..k_max.

    pi[k] is the probability of k queued packets with a fresh head, eps[k]
    with a retransmitted head.  eps[0] is zero by convention: an empty queue
    has no head packet.
    """
    _check_chain_inputs(alpha, gamma, lam_p)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    eta = lam_p * alpha + (1.0 - lam_p) * gamma
    if lam_p >= eta:
        raise Unstable(f"lam_p={lam_p} >= eta={eta}")
    pi = np.zeros(k_max + 1)
    eps = np.zeros(k_max + 1)
    pi0 = (eta - lam_p) / gamma
    pi[0] = pi0
    if k_max >= 1:
        pi[1] = pi0 * (lam_p / (1.0 - lam_p)) * (lam_p + (1.0 - lam_p) * gamma) / eta
        eps[1] = pi0 * (lam_p / eta) * (1.0 - alpha)
    if k_max >= 2:
        k = np.arange(2, k_max + 1)
        # geometric levels: ratio rho = lam_p (1-eta) / ((1-lam_p) eta),
        # factored as r^k (1-eta)^(k-2) so eta = 1 stays finite
        r = lam_p / ((1.0 - lam_p) * eta)
        shape = r**k * (1.0 - eta) ** (k - 2)
        pi[2:] = pi0 * lam_p * (1.0 - alpha) * shape
        eps[2:] = pi0 * (1.0 - lam_p) * (1.0 - alpha) * shape
    return pi, eps


def tail_k_max(alpha: float, gamma: float, lam_p: float, tol: float = TAIL_TOL) -> int:
    """Smallest K with stationary mass above level K provably below tol."""
    _check_chain_inputs(alpha, gamma, lam_p)
    eta = lam_p * alpha + (1.0 - lam_p) * gamma
    if lam_p >= eta:
        raise Unstable(f"lam_p={lam_p} >= eta={eta}")
    if lam_p == 0.0:
        return 0
    rho = lam_p * (1.0 - eta) / ((1.0 - lam_p) * eta)
    pi0 = (eta - lam_p) / gamma
    # total mass of level k >= 2 is pi0 (1-alpha) r^k (1-eta)^(k-2); these
    # levels decay geometrically with ratio rho < 1
    level = pi0 * (1.0 - alpha) * (lam_p / ((1.0 - lam_p) * eta)) ** 2
    k = 2
    if rho == 0.0:
        return max(k, 1)
    while level / (1.0 - rho) >= tol:
        level *= rho
        k += 1
        if k > 10_000_000:  # pragma: no cover
            raise RuntimeError("tail does not shrink; check parameters")
    return k


def secondary_service_rate(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    lam_e: float,
    stats: FeedbackChainStats,
):
    """Saturated secondary throughput under the retransmission-aware scheme.

    Empty and fresh-head slots reuse the sensing-only brackets; in
    retransmission slots the secondary transmits blindly over the full slot
    against a busy channel.
    """
    idle, busy = nofeedback.service_brackets(profile, policy, sensing)
    retx = policy.p_access_retx * profile.p_sec_full_conc
    return lam_e * (stats.pi0 * idle + stats.sum_pi * busy + stats.sum_eps * retx)


def degenerate_delay(alpha, gamma, lam_p: float):
    """Mean primary delay at eta ~ 1, where the closed form of primary_delay
    is 0/0.  eta ~ 1 forces alpha ~ 1 and gamma ~ 1, so almost every packet
    departs in one slot.  alpha and gamma may be arrays of one shape."""
    if lam_p == 0.0:
        return 1.0 + (1.0 - alpha) / gamma

    def series(a, g):
        pi, eps = state_probs(a, g, lam_p, 64)
        return np.sum(np.arange(len(pi)) * (pi + eps)) / lam_p

    return np.vectorize(series, otypes=[float])(alpha, gamma)


def primary_delay(alpha: float, gamma: float, lam_p: float) -> float:
    """Mean primary queueing delay in slots under the two-phase chain."""
    _check_chain_inputs(alpha, gamma, lam_p)
    eta = lam_p * alpha + (1.0 - lam_p) * gamma
    if lam_p >= eta:
        raise Unstable(f"lam_p={lam_p} >= eta={eta}")
    if eta >= 1.0 - 1e-9:
        return float(degenerate_delay(alpha, gamma, lam_p))
    num = (alpha - eta) * (eta - lam_p) ** 2 + (1.0 - lam_p) ** 2 * (1.0 - alpha) * eta
    den = (eta - lam_p) * (1.0 - lam_p) * (1.0 - eta) * gamma
    return float(num / den)


def analyze(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
    eps_stab: float = 1e-9,
) -> AnalysisReport:
    """Full operating-point summary for the retransmission-aware scheme.

    mu_p in the report is alpha (the fresh-phase service rate); nu0 is pi0.
    If the queue is unstable the secondary rate is computed for a saturated
    primary, whose head packet is then fresh a fraction
    gamma / (gamma + 1 - alpha) of the time.
    """
    lam_p, lam_e = traffic.lam_p, traffic.lam_e
    alpha, gamma = success_probs(profile, policy, sensing, lam_e)
    alpha, gamma = float(alpha), float(gamma)
    eta = lam_p * alpha + (1.0 - lam_p) * gamma
    if lam_p < eta:
        stats = chain_stats(alpha, gamma, lam_p)
        mu_s = float(secondary_service_rate(profile, policy, sensing, lam_e, stats))
        delay = primary_delay(alpha, gamma, lam_p)
        nu0 = stats.pi0
    else:
        idle, busy = nofeedback.service_brackets(profile, policy, sensing)
        retx = policy.p_access_retx * profile.p_sec_full_conc
        denom = gamma + 1.0 - alpha
        frac_fresh = gamma / denom if denom > 0 else 1.0
        mu_s = float(lam_e * (frac_fresh * busy + (1.0 - frac_fresh) * retx))
        delay = math.inf
        nu0 = 0.0
    stable = lam_p <= eta - eps_stab
    return AnalysisReport(
        mu_p=alpha,
        mu_s=mu_s,
        nu0=float(nu0),
        delay=delay,
        primary_stable=bool(stable),
        delay_feasible=bool(stable and delay <= traffic.delay_bound),
        secondary_stable=bool(traffic.lam_s < mu_s),
    )
