"""Closed-form queue analysis for the sensing-only access scheme.

Model recap.  Time is slotted.  The primary transmits the head of its queue
whenever the queue is nonempty.  The secondary is treated as saturated (it
always has data) and, whenever its battery is nonempty, it burns one energy
unit per slot: it either senses and then maybe transmits, or transmits
outright, according to the policy.  Under that dissipation rule the battery
is nonempty in a slot with probability lam_e, independently of everything
else, so the primary queue evolves as a discrete-time single-server queue
with Bernoulli arrivals (arrivals join at the end of their slot and cannot
leave in it) and an i.i.d. per-slot success probability mu_p.

All rate expressions below are plain numpy arithmetic, so policy fields may
be numpy arrays of broadcastable shapes; every public function then returns
arrays of their broadcast shape.
closed_forms() is the one place the queue-level formulas are written; the
functions here, analyze, the optimizer and the simulator checks read them
from it, through operating_point() when they start from a policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import (
    PROB_TOL,
    OutageProfile,
    PolicyNoFb,
    SensingQuality,
    TrafficParams,
    Unstable,
)

#: default truncation tolerance for queue-length tails
TAIL_TOL = 1e-12
#: the primary counts as stable when lam_p <= mu - STABILITY_MARGIN, where mu
#: is the service rate of its queue (mu_p here, eta in the feedback scheme)
STABILITY_MARGIN = 1e-9
#: a stable point meets the delay constraint when delay <= bound + DELAY_SLACK
DELAY_SLACK = 1e-9


@dataclass(frozen=True)
class AnalysisReport:
    """Joint summary of one operating point.

    mu_p             primary service rate (probability a slot serving the
                     queue head succeeds); for the retransmission-aware
                     scheme this slot is the success rate of the
                     fresh-transmission phase
    mu_s             secondary throughput in packets/slot (saturated data)
    nu0              stationary probability the primary queue is empty
    delay            mean primary queueing delay in slots (inf if unstable)
    primary_stable   lam_p <= service rate - STABILITY_MARGIN
    delay_feasible   primary_stable and delay <= delay_bound + DELAY_SLACK,
                     the test the optimizer applies to every candidate
    secondary_stable lam_s < mu_s
    """

    mu_p: float
    mu_s: float
    nu0: float
    delay: float
    primary_stable: bool
    delay_feasible: bool
    secondary_stable: bool

    def __post_init__(self):
        for name in ("mu_p", "mu_s", "nu0"):
            v = getattr(self, name)
            if not -PROB_TOL <= v <= 1.0 + PROB_TOL:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
        if self.primary_stable and not self.delay >= 1.0 - PROB_TOL:
            raise ValueError("delay must be >= 1 slot when stable")


def interference_prob(policy: PolicyNoFb, sensing: SensingQuality):
    """Probability an energy-endowed secondary transmits in a busy slot."""
    ps = policy.p_sense
    return (
        (1.0 - ps) * policy.p_access_direct
        + ps * sensing.p_missed_detection * policy.p_access_free
        + ps * (1.0 - sensing.p_missed_detection) * policy.p_access_busy
    )


def primary_service_rate(
    profile: OutageProfile,
    policy: PolicyNoFb,
    sensing: SensingQuality,
    lam_e: float,
):
    """Per-slot success probability of a primary transmission.

    Conditions on whether the secondary holds energy (prob lam_e) and, if so,
    on its sense/no-sense branch and the sensing outcome (the channel is busy,
    so a correct detection happens with prob 1 - p_missed_detection).
    """
    p, pc = profile.p_primary, profile.p_primary_conc
    ps = policy.p_sense
    pt, pf, pb = policy.p_access_direct, policy.p_access_free, policy.p_access_busy
    pmd = sensing.p_missed_detection
    with_energy = (
        (1.0 - ps) * (pt * pc + (1.0 - pt) * p)
        + ps * pmd * (pf * pc + (1.0 - pf) * p)
        + ps * (1.0 - pmd) * (pb * pc + (1.0 - pb) * p)
    )
    return (1.0 - lam_e) * p + lam_e * with_energy


def service_brackets(
    profile: OutageProfile, policy: PolicyNoFb, sensing: SensingQuality
):
    """Secondary success probability per energy-endowed slot, conditioned on
    the primary queue being (idle, busy).  Shared by both access schemes."""
    ps = policy.p_sense
    pt, pf, pb = policy.p_access_direct, policy.p_access_free, policy.p_access_busy
    pfa, pmd = sensing.p_false_alarm, sensing.p_missed_detection
    idle = (
        (1.0 - ps) * pt * profile.p_sec_full
        + ps * (1.0 - pfa) * pf * profile.p_sec_short
        + ps * pfa * pb * profile.p_sec_short
    )
    busy = (
        (1.0 - ps) * pt * profile.p_sec_full_conc
        + ps * pmd * pf * profile.p_sec_short_conc
        + ps * (1.0 - pmd) * pb * profile.p_sec_short_conc
    )
    return idle, busy


class OperatingPoint(NamedTuple):
    """Closed forms of the sensing-only scheme at one operating point, or at
    a batch of them when the inputs are arrays.

    mu_p, busy        building blocks: the primary service rate and the
                      busy bracket of service_brackets
    nu0               probability the primary queue is empty
    mu_s              saturated secondary throughput in packets/slot
    delay             mean primary queueing delay in slots
    stable            lam_p <= mu_p - STABILITY_MARGIN
    feasible          stable and delay <= delay_bound + DELAY_SLACK

    nu0, mu_s and delay mean something only where lam_p < mu_p.
    """

    mu_p: np.ndarray
    busy: np.ndarray
    nu0: np.ndarray
    mu_s: np.ndarray
    delay: np.ndarray
    stable: np.ndarray
    feasible: np.ndarray

    @property
    def mu_eff(self):
        """The service rate lam_p must stay below."""
        return self.mu_p


def closed_forms(
    lam_p, mu_p, idle=0.0, busy=0.0, lam_e=0.0, delay_bound=math.inf
) -> OperatingPoint:
    """The queue-level closed forms of the sensing-only scheme.  This is the
    only place they are written.

    The inputs may be arrays of broadcastable shapes, lam_p, lam_e and
    delay_bound included.  Only elementwise IEEE operations, so each entry
    of a batch has the same bits as its point evaluated alone.  Scalar inputs give numpy scalars.  Where lam_p >= mu_p
    the divisions give inf or nan instead of raising.
    """
    mu_p = np.asarray(mu_p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        occ = lam_p / mu_p  # busy probability
        nu0 = 1.0 - occ
        mu_s = lam_e * (nu0 * idle + occ * busy)
        del occ  # not returned: one less batch-sized array alive below
        delay = (1.0 - lam_p) / (mu_p - lam_p)
        stable = lam_p <= mu_p - STABILITY_MARGIN
        feasible = stable & (delay <= delay_bound + DELAY_SLACK)
    return OperatingPoint(mu_p, busy, nu0, mu_s, delay, stable, feasible)


def operating_point(
    profile: OutageProfile,
    policy: PolicyNoFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> OperatingPoint:
    """closed_forms of a policy (scalar or batched) under traffic."""
    mu_p = primary_service_rate(profile, policy, sensing, traffic.lam_e)
    idle, busy = service_brackets(profile, policy, sensing)
    return closed_forms(traffic.lam_p, mu_p, idle, busy, traffic.lam_e, traffic.delay_bound)


def secondary_service_rate(
    profile: OutageProfile,
    policy: PolicyNoFb,
    sensing: SensingQuality,
    lam_e: float,
    lam_p: float,
):
    """Saturated secondary throughput in packets per slot.

    Requires a stable primary queue; its busy probability is lam_p / mu_p.
    Raises Unstable otherwise.
    """
    mu_p = primary_service_rate(profile, policy, sensing, lam_e)
    if np.any(lam_p >= mu_p):
        raise Unstable(f"lam_p={lam_p!r} >= mu_p={mu_p!r}")
    idle, busy = service_brackets(profile, policy, sensing)
    return closed_forms(lam_p, mu_p, idle, busy, lam_e).mu_s


def primary_delay(lam_p: float, mu_p: float):
    """Mean primary queueing delay (arrival slot to departure slot) in slots."""
    if np.any(np.asarray(lam_p) < 0) or np.any(np.asarray(mu_p) > 1.0 + PROB_TOL):
        raise ValueError("need 0 <= lam_p and mu_p <= 1")
    if np.any(lam_p >= mu_p):
        raise Unstable(f"lam_p={lam_p!r} >= mu_p={mu_p!r}")
    return closed_forms(lam_p, mu_p).delay


def stationary_dist(lam_p: float, mu_p: float, k_max: int) -> np.ndarray:
    """Stationary queue-length pmf nu_0..nu_k_max of the primary queue.

    Arrivals are counted at slot end, so a packet arriving to an empty queue
    is first served in the next slot.
    """
    if not 0.0 <= lam_p <= 1.0 or not 0.0 <= mu_p <= 1.0:
        raise ValueError("lam_p and mu_p must be probabilities")
    if lam_p >= mu_p:
        raise Unstable(f"lam_p={lam_p} >= mu_p={mu_p}")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    nu0 = float(closed_forms(lam_p, mu_p).nu0)
    out = np.empty(k_max + 1)
    out[0] = nu0
    if k_max >= 1:
        k = np.arange(1, k_max + 1)
        # nu_k = nu0 * r^k * (1-mu_p)^(k-1) with r = lam_p / ((1-lam_p) mu_p);
        # written this way it stays finite at mu_p = 1.
        r = lam_p / ((1.0 - lam_p) * mu_p)
        out[1:] = nu0 * r**k * (1.0 - mu_p) ** (k - 1)
    return out


def tail_k_max(lam_p: float, mu_p: float, tol: float = TAIL_TOL) -> int:
    """Smallest K with stationary mass above K provably below tol."""
    if lam_p >= mu_p:
        raise Unstable(f"lam_p={lam_p} >= mu_p={mu_p}")
    if lam_p == 0.0:
        return 0
    nu0 = float(closed_forms(lam_p, mu_p).nu0)
    r = lam_p / ((1.0 - lam_p) * mu_p)
    rho = r * (1.0 - mu_p)  # geometric decay of the tail, < 1 when stable
    # mass above K is nu_{K+1} / (1 - rho) = nu0 * r * rho^K / (1 - rho)
    k = 1
    head = nu0 * r
    while head / (1.0 - rho) >= tol:
        head *= rho
        k += 1
        if k > 10_000_000:  # pragma: no cover
            raise RuntimeError("tail does not shrink; check parameters")
    return k


def analyze(
    profile: OutageProfile,
    policy: PolicyNoFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> AnalysisReport:
    """Full operating-point summary for the sensing-only scheme.

    If the primary queue is unstable the secondary rates are reported for the
    saturated primary (always busy) and the delay is infinite.
    """
    point = operating_point(profile, policy, sensing, traffic)
    if traffic.lam_p < point.mu_p:
        nu0, mu_s, delay = point.nu0, point.mu_s, point.delay
    else:
        nu0, mu_s, delay = 0.0, traffic.lam_e * point.busy, math.inf
    return AnalysisReport(
        mu_p=float(point.mu_p),
        mu_s=float(mu_s),
        nu0=float(nu0),
        delay=float(delay),
        primary_stable=bool(point.stable),
        delay_feasible=bool(point.feasible),
        secondary_stable=bool(traffic.lam_s < mu_s),
    )
