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
retransmission head.  eta, the mean of alpha and gamma weighted by lam_p and
1 - lam_p, is the aggregate service rate that governs stability.

closed_forms() is the one place the queue-level formulas are written;
everything else here, analyze, the optimizer and the simulator checks read
them from it, through operating_point() when they start from a policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .nofeedback import DELAY_SLACK, STABILITY_MARGIN, TAIL_TOL, AnalysisReport


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
    reuses that service rate.  In a retransmission slot the secondary never
    senses and attacks with p_access_retx when it has energy.
    """
    alpha = nofeedback.primary_service_rate(profile, policy, sensing, lam_e)
    p, pc = profile.p_primary, profile.p_primary_conc
    pr = policy.p_access_retx
    gamma = (1.0 - lam_e) * p + lam_e * (pr * pc + (1.0 - pr) * p)
    return alpha, gamma


def _brackets(profile: OutageProfile, policy: PolicyFb, sensing: SensingQuality):
    """(idle, busy, retx): secondary success probability per energy-endowed
    slot in which the primary queue is empty, sends a fresh packet, or
    retransmits.  Empty and fresh-head slots reuse the sensing-only
    brackets; in a retransmission slot the secondary transmits blindly over
    the full slot against a busy channel."""
    idle, busy = nofeedback.service_brackets(profile, policy, sensing)
    return idle, busy, policy.p_access_retx * profile.p_sec_full_conc


class OperatingPoint(NamedTuple):
    """Closed forms of the retransmission-aware scheme at one operating
    point, or at a batch of them when the inputs are arrays.

    alpha, gamma           building blocks from success_probs
    busy, retx             building blocks from _brackets
    eta                    aggregate service rate, the stability threshold
    pi0, sum_eps           probability of an empty queue and of a busy slot
                           with a retransmitted head (the fresh-head busy
                           mass is lam_p)
    mu_s                   saturated secondary throughput in packets/slot
    delay                  mean primary queueing delay in slots
    stable                 lam_p <= eta - STABILITY_MARGIN
    feasible               stable and delay <= delay_bound + DELAY_SLACK

    pi0, sum_eps, mu_s and delay mean something only where lam_p < eta.
    """

    alpha: np.ndarray
    gamma: np.ndarray
    busy: np.ndarray
    retx: np.ndarray
    eta: np.ndarray
    pi0: np.ndarray
    sum_eps: np.ndarray
    mu_s: np.ndarray
    delay: np.ndarray
    stable: np.ndarray
    feasible: np.ndarray

    @property
    def mu_eff(self):
        """The service rate lam_p must stay below."""
        return self.eta


def square_no_arrival(lam_p: float) -> float:
    """(1 - lam_p) ** 2 for one lam_p value: the factor of the delay closed
    form that a batch must take per lam_p value, not per point.

    Python squares a float through pow() but numpy squares an array by
    multiplying, and the two round differently for ~0.1% of inputs.  A
    batch whose points carry different lam_p therefore computes this once
    per value and gathers it per point, so each point keeps the bits of
    its scalar evaluation.
    """
    if np.ndim(lam_p):
        raise ValueError("square_no_arrival takes one lam_p; gather it per point")
    return (1.0 - lam_p) ** 2


def closed_forms(
    lam_p: float,
    alpha,
    gamma,
    idle=0.0,
    busy=0.0,
    retx=0.0,
    lam_e: float = 0.0,
    delay_bound: float = math.inf,
    no_arrival_sq=None,
) -> OperatingPoint:
    """The queue-level closed forms of the retransmission-aware scheme.  This
    is the only place they are written.

    The inputs may be arrays of broadcastable shapes, lam_p, lam_e and
    delay_bound included.  no_arrival_sq is square_no_arrival(lam_p); it
    is computed here when lam_p is a scalar and must be given, gathered
    per point, when lam_p is an array.  Only elementwise IEEE operations,
    so each entry of a batch has the same bits as its point evaluated
    alone.  Scalar inputs give numpy scalars.  Where lam_p >= eta the
    divisions give inf or nan instead of raising.
    """
    if no_arrival_sq is None:
        no_arrival_sq = square_no_arrival(lam_p)
    alpha = np.asarray(alpha, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta = lam_p * alpha + (1.0 - lam_p) * gamma
        gap = eta - lam_p
        pi0 = gap / gamma
        sum_eps = lam_p * (1.0 - alpha) / gamma
        # The fresh-head busy mass telescopes to lam_p exactly (each departure
        # of a fresh head is preceded by exactly one arrival in the long run).
        mu_s = lam_e * (pi0 * idle + lam_p * busy + sum_eps * retx)
        # gap * gap, not gap ** 2: numpy squares an array by multiplying but
        # a scalar through pow(), which rounds differently for ~0.1% of
        # inputs, and the scalar and batched delays must carry the same bits
        delay = (
            (alpha - eta) * (gap * gap) + no_arrival_sq * (1.0 - alpha) * eta
        ) / (gap * (1.0 - lam_p) * (1.0 - eta) * gamma)
        # eta ~ 1 makes that 0/0; the rare stable points there are summed
        degen = (eta >= 1.0 - 1e-9) & (lam_p < eta)
        if np.any(degen):
            delay = np.asarray(delay)
            delay[degen] = _degenerate_delay(
                *(np.broadcast_to(v, delay.shape)[degen] for v in (lam_p, alpha, gamma, eta, pi0))
            )
        stable = lam_p <= eta - STABILITY_MARGIN
        feasible = stable & (delay <= delay_bound + DELAY_SLACK)
    return OperatingPoint(
        alpha, gamma, busy, retx, eta, pi0, sum_eps, mu_s, delay, stable, feasible
    )


def operating_point(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
    no_arrival_sq=None,
) -> OperatingPoint:
    """closed_forms of a policy (scalar or batched) under traffic.  A batch
    whose traffic holds lam_p per point passes no_arrival_sq per point too
    (see closed_forms)."""
    alpha, gamma = success_probs(profile, policy, sensing, traffic.lam_e)
    idle, busy, retx = _brackets(profile, policy, sensing)
    lam_p, lam_e, bound = traffic.lam_p, traffic.lam_e, traffic.delay_bound
    return closed_forms(lam_p, alpha, gamma, idle, busy, retx, lam_e, bound, no_arrival_sq)


def _levels(lam_p, alpha, gamma, eta, pi0, k_max: int):
    """Per-level masses (pi, eps) of stable chains for queue lengths
    0..k_max, from their aggregates eta and pi0.  lam_p, alpha, gamma, eta
    and pi0 may be 1-d arrays over points, which become the leading axis of
    pi and eps."""
    pi = np.zeros(np.shape(pi0) + (k_max + 1,))
    eps = np.zeros_like(pi)
    pi[..., 0] = pi0
    lam_p, alpha, gamma, eta, pi0 = (
        np.asarray(v)[..., None] for v in (lam_p, alpha, gamma, eta, pi0)
    )
    if k_max >= 1:
        pi[..., 1:2] = pi0 * (lam_p / (1.0 - lam_p)) * (lam_p + (1.0 - lam_p) * gamma) / eta
        eps[..., 1:2] = pi0 * (lam_p / eta) * (1.0 - alpha)
    if k_max >= 2:
        k = np.arange(2, k_max + 1)
        # geometric levels: ratio rho = lam_p (1-eta) / ((1-lam_p) eta),
        # factored as r^k (1-eta)^(k-2) so eta = 1 stays finite
        r = lam_p / ((1.0 - lam_p) * eta)
        shape = r**k * (1.0 - eta) ** (k - 2)
        pi[..., 2:] = pi0 * lam_p * (1.0 - alpha) * shape
        eps[..., 2:] = pi0 * (1.0 - lam_p) * (1.0 - alpha) * shape
    return pi, eps


def _degenerate_delay(lam_p, alpha, gamma, eta, pi0):
    """Mean primary delay at eta ~ 1, where the delay closed form is 0/0.
    eta ~ 1 forces alpha ~ 1 and gamma ~ 1, so almost every packet departs
    in one slot; Little's law over the first 64 levels is exact to double
    precision.  The inputs are 1-d arrays of the affected points."""
    # at lam_p = 0 a packet only waits out its own transmissions
    out = 1.0 + (1.0 - alpha) / gamma
    arrivals = lam_p != 0.0
    if np.any(arrivals):
        lam_p, alpha, gamma, eta, pi0 = (v[arrivals] for v in (lam_p, alpha, gamma, eta, pi0))
        pi, eps = _levels(lam_p, alpha, gamma, eta, pi0, 64)
        out[arrivals] = np.sum(np.arange(pi.shape[-1]) * (pi + eps), axis=-1) / lam_p
    return out


def _check_chain_inputs(alpha, gamma, lam_p) -> None:
    for name, v in (("alpha", alpha), ("gamma", gamma), ("lam_p", lam_p)):
        if np.any(np.asarray(v) < -PROB_TOL) or np.any(np.asarray(v) > 1.0 + PROB_TOL):
            raise ValueError(f"{name}={v!r} outside [0, 1]")


def _stable_point(alpha, gamma, lam_p) -> OperatingPoint:
    """closed_forms of a chain given by its rates; raises ValueError on
    rates outside [0, 1] and Unstable when lam_p >= eta."""
    _check_chain_inputs(alpha, gamma, lam_p)
    point = closed_forms(lam_p, alpha, gamma)
    if lam_p >= point.eta:
        raise Unstable(f"lam_p={lam_p} >= eta={point.eta}")
    return point


def chain_stats(alpha: float, gamma: float, lam_p: float) -> FeedbackChainStats:
    """Stationary aggregates of the two-phase chain.  Raises Unstable when
    lam_p >= eta."""
    point = _stable_point(alpha, gamma, lam_p)
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
    point = _stable_point(alpha, gamma, lam_p)
    return _levels(lam_p, alpha, gamma, point.eta, point.pi0, k_max)


def tail_k_max(alpha: float, gamma: float, lam_p: float, tol: float = TAIL_TOL) -> int:
    """Smallest K with stationary mass above level K provably below tol."""
    point = _stable_point(alpha, gamma, lam_p)
    if lam_p == 0.0:
        return 0
    eta, pi0 = float(point.eta), float(point.pi0)
    rho = lam_p * (1.0 - eta) / ((1.0 - lam_p) * eta)
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
    """Saturated secondary throughput under the retransmission-aware scheme,
    for the chain of stats (alpha, gamma and lam_p = sum_pi, as chain_stats
    returns them)."""
    idle, busy, retx = _brackets(profile, policy, sensing)
    return closed_forms(stats.sum_pi, stats.alpha, stats.gamma, idle, busy, retx, lam_e).mu_s


def primary_delay(alpha: float, gamma: float, lam_p: float) -> float:
    """Mean primary queueing delay in slots under the two-phase chain."""
    return float(_stable_point(alpha, gamma, lam_p).delay)


def analyze(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> AnalysisReport:
    """Full operating-point summary for the retransmission-aware scheme.

    mu_p in the report is alpha (the fresh-phase service rate); nu0 is pi0.
    If the queue is unstable the secondary rate is computed for a saturated
    primary, whose head packet is then fresh a fraction
    gamma / (gamma + 1 - alpha) of the time.
    """
    point = operating_point(profile, policy, sensing, traffic)
    alpha, gamma = float(point.alpha), float(point.gamma)
    if traffic.lam_p < point.eta:
        nu0, mu_s, delay = point.pi0, point.mu_s, point.delay
    else:
        denom = gamma + 1.0 - alpha
        frac_fresh = gamma / denom if denom > 0 else 1.0
        saturated = frac_fresh * point.busy + (1.0 - frac_fresh) * point.retx
        nu0, mu_s, delay = 0.0, traffic.lam_e * saturated, math.inf
    return AnalysisReport(
        mu_p=alpha,
        mu_s=float(mu_s),
        nu0=float(nu0),
        delay=float(delay),
        primary_stable=bool(point.stable),
        delay_feasible=bool(point.feasible),
        secondary_stable=bool(traffic.lam_s < mu_s),
    )
