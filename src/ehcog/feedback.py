"""Closed-form analysis of the retransmission-aware access scheme.

The secondary overhears the primary's ACK/NACK feedback.  After a NACK it
knows the next primary slot carries a retransmission, so it skips sensing and
transmits with its own probability p_access_retx.  In all other slots it
behaves exactly as in the sensing-only scheme.

The primary queue is the two-phase chain of nofeedback, whose closed_forms
this module reads: the queue length together with whether the head packet
is fresh (success prob alpha per slot) or a retransmission (success prob
gamma per slot).  In the access masses of nofeedback, a fresh slot sees
interference mass I and a retransmission slot mass p_access_retx, so
alpha = p - lam_e (p - pc) I and gamma = p - lam_e (p - pc) p_access_retx
are one expression, nofeedback.primary_success.  The secondary's brackets
are the sensing-only idle and busy ones plus
retx = p_access_retx p_sec_full_conc.  pi_k below is the stationary
probability of queue length k with a fresh head, eps_k the same with a
retransmission head.  eta, the mean of alpha and gamma weighted by lam_p
and 1 - lam_p, is the aggregate service rate that governs stability.  At
p_access_retx = I the chain is the sensing-only one.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import nofeedback
from .params import PROB_TOL, OutageProfile, PolicyFb, PolicyNoFb, SensingQuality, TrafficParams
from .nofeedback import TAIL_TOL, AnalysisReport


@dataclass(frozen=True)
class FeedbackChainStats:
    """Aggregate stationary quantities of the two-phase primary chain.

    alpha    per-slot success probability of a fresh transmission
    gamma    per-slot success probability of a retransmission
    eta      the aggregate service rate, the stability threshold
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
    is that service rate, the primary success at interference mass
    I = interference_prob.  In a retransmission slot the secondary never
    senses and attacks with p_access_retx when it has energy, so gamma is the
    same expression at mass p_access_retx.
    """
    alpha = nofeedback.primary_service_rate(profile, policy, sensing, lam_e)
    gamma = nofeedback.primary_success(profile, lam_e, policy.p_access_retx)
    return alpha, gamma


def fresh_rates(
    profile: OutageProfile,
    policy: PolicyNoFb,
    sensing: SensingQuality,
    lam_e: float,
):
    """(alpha, idle, busy): the rates of empty and fresh-head slots, which
    are the sensing-only ones.  They read only the sensing/access fields of
    policy, so p_access_retx does not move them."""
    alpha = nofeedback.primary_service_rate(profile, policy, sensing, lam_e)
    idle, busy = nofeedback.service_brackets(profile, policy, sensing)
    return alpha, idle, busy


def chain_at(profile: OutageProfile, alpha, idle, busy, p_access_retx, traffic: TrafficParams):
    """nofeedback.closed_forms of the chain with fresh_rates alpha, idle and
    busy at retransmission access p_access_retx.  In a retransmission slot
    the secondary transmits blindly over the full slot against a busy
    channel, so gamma is the primary success at mass p_access_retx."""
    gamma = nofeedback.primary_success(profile, traffic.lam_e, p_access_retx)
    retx = p_access_retx * profile.p_sec_full_conc
    lam_p, lam_e, bound = traffic.lam_p, traffic.lam_e, traffic.delay_bound
    return nofeedback.closed_forms(lam_p, alpha, gamma, idle, busy, retx, lam_e, bound)


def operating_point(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> nofeedback.OperatingPoint:
    """nofeedback.closed_forms of a policy (scalar or batched) under
    traffic."""
    rates = fresh_rates(profile, policy, sensing, traffic.lam_e)
    return chain_at(profile, *rates, policy.p_access_retx, traffic)


def chain_stats(alpha: float, gamma: float, lam_p: float) -> FeedbackChainStats:
    """Stationary aggregates of the two-phase chain.  Raises Unstable when
    lam_p >= eta."""
    point = nofeedback._stable_point(lam_p, alpha, gamma)
    return FeedbackChainStats(
        alpha=float(alpha),
        gamma=float(gamma),
        eta=float(point.eta),
        pi0=float(point.pi0),
        sum_pi=float(lam_p),
        sum_eps=float(point.sum_eps),
    )


def state_probs(alpha: float, gamma: float, lam_p: float, k_max: int):
    """Stationary per-level masses (pi, eps) for queue lengths 0..k_max.

    pi[k] is the probability of k queued packets with a fresh head, eps[k]
    with a retransmitted head.  eps[0] is zero by convention: an empty queue
    has no head packet.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return nofeedback._levels(nofeedback._stable_point(lam_p, alpha, gamma), lam_p, k_max)


def tail_k_max(alpha: float, gamma: float, lam_p: float, tol: float = TAIL_TOL) -> int:
    """Smallest K >= 0 with stationary mass above level K below tol; 0 at
    lam_p = 0."""
    return nofeedback._tail_k(nofeedback._stable_point(lam_p, alpha, gamma), lam_p, tol)


def primary_delay(alpha: float, gamma: float, lam_p: float) -> float:
    """Mean primary queueing delay in slots under the two-phase chain."""
    return float(nofeedback._stable_point(lam_p, alpha, gamma).delay)


def analyze(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> AnalysisReport:
    """Full operating-point summary for the retransmission-aware scheme."""
    return nofeedback.report(operating_point(profile, policy, sensing, traffic), traffic)
