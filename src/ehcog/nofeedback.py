"""Closed-form queue analysis of the primary chain both access schemes
share, and the sensing-only scheme itself.

Model recap.  Time is slotted.  The primary transmits the head of its queue
whenever the queue is nonempty.  The secondary is treated as saturated (it
always has data) and, whenever its battery is nonempty, it burns one energy
unit per slot: it either senses and then maybe transmits, or transmits
outright, according to the policy.  Under that dissipation rule the battery
is nonempty in a slot with probability lam_e, independently of everything
else.  Arrivals are Bernoulli and join at the end of their slot, so they
cannot leave in it.

The policy enters only through three access masses (access_masses): the
probability a = (1 - ps) pt that an energy-endowed secondary transmits
without sensing, b = ps pf that it senses and transmits on a free verdict,
and c = ps pb that it senses and transmits on a busy verdict.  A busy slot
then sees interference with probability I = a + pmd b + (1 - pmd) c
(interference_prob), the primary succeeds with probability
mu_p = p - lam_e (p - pc) I (primary_success), and the secondary's
per-slot success brackets are linear in (a, b, c) (service_brackets).

The primary queue is one chain for both schemes: the queue length together
with whether the head packet is fresh (success prob alpha per slot) or a
retransmission after a NACK (success prob gamma per slot).  The secondary
succeeds with prob idle, busy and retx per energy-endowed slot with an
empty queue, a fresh head and a retransmitted head.  The retransmission-
aware scheme (feedback) reads gamma and retx off p_access_retx.  A
sensing-only secondary ignores the NACK and treats a retransmission slot as
any busy slot, so its chain is the same one at gamma = alpha = mu_p and
retx = busy, the discrete-time Geo/Geo/1 queue with service prob mu_p.

All rate expressions below are plain numpy arithmetic, so policy fields may
be numpy arrays of broadcastable shapes; every public function then returns
arrays of their broadcast shape.
closed_forms() is the one place the queue-level formulas are written, and
report() the one place an AnalysisReport is built; both schemes' analyze,
the optimizer and the simulator checks read them, through each scheme's
operating_point() when they start from a policy.  primary_delay,
state_probs and tail_k_max read one stable scalar point of the chain, and
take (lam_p, alpha, gamma) in closed_forms' order; the sensing-only chain
passes mu_p twice.
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
#: the primary counts as stable when lam_p <= eta - STABILITY_MARGIN, where
#: eta is the aggregate service rate of its chain (mu_p for sensing only)
STABILITY_MARGIN = 1e-9
#: a stable point meets the delay constraint when delay <= bound + DELAY_SLACK
DELAY_SLACK = 1e-9


@dataclass(frozen=True)
class AnalysisReport:
    """Joint summary of one operating point.

    mu_p             primary service rate (probability a slot serving the
                     queue head succeeds): alpha, the success rate of the
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


def access_masses(policy: PolicyNoFb):
    """(a, b, c): the probabilities that an energy-endowed secondary
    transmits without sensing (a), senses and transmits on a free verdict
    (b), and senses and transmits on a busy verdict (c).  Every closed form
    reads the sensing/access policy only through these three masses (and
    p_access_retx under feedback)."""
    ps = policy.p_sense
    a = (1.0 - ps) * policy.p_access_direct
    return a, ps * policy.p_access_free, ps * policy.p_access_busy


def interference_prob(policy: PolicyNoFb, sensing: SensingQuality):
    """Probability an energy-endowed secondary transmits in a busy slot:
    I = a + pmd b + (1 - pmd) c, since a missed detection reads as free."""
    a, b, c = access_masses(policy)
    pmd = sensing.p_missed_detection
    return a + pmd * b + (1.0 - pmd) * c


def primary_success(profile: OutageProfile, lam_e, mass):
    """Per-slot success probability p - lam_e (p - pc) mass of a primary
    transmission that an energy-endowed secondary interferes with at
    probability mass."""
    p = profile.p_primary
    return p - lam_e * (p - profile.p_primary_conc) * mass


def primary_service_rate(
    profile: OutageProfile,
    policy: PolicyNoFb,
    sensing: SensingQuality,
    lam_e: float,
):
    """Per-slot success probability of a primary transmission: the secondary
    holds energy with prob lam_e and then interferes with prob
    interference_prob."""
    return primary_success(profile, lam_e, interference_prob(policy, sensing))


def service_brackets(
    profile: OutageProfile, policy: PolicyNoFb, sensing: SensingQuality
):
    """Secondary success probability per energy-endowed slot, conditioned on
    the primary queue being (idle, busy).  Shared by both access schemes.

    A sensed transmission uses the short part of the slot and follows a free
    verdict with prob 1 - pfa in an idle slot and pmd in a busy one."""
    a, b, c = access_masses(policy)
    pfa, pmd = sensing.p_false_alarm, sensing.p_missed_detection
    idle = a * profile.p_sec_full + ((1.0 - pfa) * b + pfa * c) * profile.p_sec_short
    busy = a * profile.p_sec_full_conc + (pmd * b + (1.0 - pmd) * c) * profile.p_sec_short_conc
    return idle, busy


class OperatingPoint(NamedTuple):
    """Closed forms of the primary chain at one operating point, or at a
    batch of them when the inputs are arrays.

    alpha, gamma           per-slot success probability of a fresh and of a
                           retransmitted head packet
    busy, retx             secondary success probability per energy-endowed
                           slot with a fresh and with a retransmitted head
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


def closed_forms(
    lam_p,
    alpha,
    gamma,
    idle=0.0,
    busy=0.0,
    retx=0.0,
    lam_e=0.0,
    delay_bound=math.inf,
) -> OperatingPoint:
    """The queue-level closed forms of the primary chain.  This is the only
    place they are written.

    The mean primary delay, arrival slot to departure slot, is
    D = 1 + (1 - alpha) eta / ((eta - lam_p) gamma).  At alpha = gamma = mu_p
    it is the Geo/Geo/1 delay (1 - lam_p) / (mu_p - lam_p), and at lam_p = 0
    it is 1 + (1 - alpha) / gamma: one fresh attempt and, if that fails, a
    geometric wait for the retransmission to succeed.

    The inputs may be arrays of broadcastable shapes, lam_p, lam_e and
    delay_bound included.  Only elementwise IEEE operations, so each entry
    of a batch has the same bits as its point evaluated alone.  Scalar
    inputs give numpy scalars.  Where lam_p >= eta the divisions give inf
    or nan instead of raising.
    """
    alpha = np.asarray(alpha, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # eta = lam_p alpha + (1 - lam_p) gamma, and the gap eta - lam_p,
        # written around gamma: at alpha = gamma both are exact
        shift = lam_p * (alpha - gamma)
        eta = gamma + shift
        gap = (gamma - lam_p) + shift
        pi0 = gap / gamma
        sum_eps = lam_p * (1.0 - alpha) / gamma
        # The fresh-head busy mass telescopes to lam_p exactly (each departure
        # of a fresh head is preceded by exactly one arrival in the long run).
        mu_s = lam_e * (pi0 * idle + lam_p * busy + sum_eps * retx)
        delay = 1.0 + (1.0 - alpha) * eta / (gap * gamma)
        stable = lam_p <= eta - STABILITY_MARGIN
        feasible = stable & (delay <= delay_bound + DELAY_SLACK)
    return OperatingPoint(
        alpha, gamma, busy, retx, eta, pi0, sum_eps, mu_s, delay, stable, feasible
    )


def operating_point(
    profile: OutageProfile,
    policy: PolicyNoFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> OperatingPoint:
    """closed_forms of a sensing-only policy (scalar or batched) under
    traffic: both phases serve at mu_p, and a retransmission slot is an
    ordinary busy slot."""
    mu_p = primary_service_rate(profile, policy, sensing, traffic.lam_e)
    idle, busy = service_brackets(profile, policy, sensing)
    lam_p, lam_e, bound = traffic.lam_p, traffic.lam_e, traffic.delay_bound
    return closed_forms(lam_p, mu_p, mu_p, idle, busy, busy, lam_e, bound)


def _ratios(point: OperatingPoint, lam_p: float):
    """(r, rho) of the stable scalar chain point at arrival rate lam_p, with
    r = lam_p / ((1 - lam_p) eta) and rho = r (1 - eta) < 1: level k >= 2
    holds pi0 (1 - alpha) r^2 rho^(k-2) in all.  1 - eta is computed as
    (1 - gamma) - lam_p (alpha - gamma), not from eta, whose rounding would
    swamp it near eta = 1; it is exact at alpha = gamma."""
    alpha, gamma = float(point.alpha), float(point.gamma)
    r = lam_p / ((1.0 - lam_p) * float(point.eta))
    return r, r * ((1.0 - gamma) - lam_p * (alpha - gamma))


def report(point: OperatingPoint, traffic: TrafficParams) -> AnalysisReport:
    """The AnalysisReport of one scalar operating point under traffic, for
    either scheme.

    mu_p in the report is alpha (the fresh-phase service rate); nu0 is pi0.
    If the queue is unstable the secondary rate is computed for a saturated
    primary, whose head packet is then fresh a fraction
    gamma / (gamma + 1 - alpha) of the time, and the delay is infinite.
    """
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


def analyze(
    profile: OutageProfile,
    policy: PolicyNoFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> AnalysisReport:
    """Full operating-point summary for the sensing-only scheme."""
    return report(operating_point(profile, policy, sensing, traffic), traffic)


def _stable_point(lam_p, alpha, gamma) -> OperatingPoint:
    """closed_forms of the chain with the given rates.  Raises ValueError
    on a rate outside [0, 1], NaN included, and Unstable when
    lam_p >= eta."""
    for name, v in (("lam_p", lam_p), ("alpha", alpha), ("gamma", gamma)):
        arr = np.asarray(v, dtype=float)
        if not np.all((arr >= -PROB_TOL) & (arr <= 1.0 + PROB_TOL)):
            raise ValueError(f"{name}={v!r} outside [0, 1]")
    point = closed_forms(lam_p, alpha, gamma)
    if np.any(lam_p >= point.eta):
        raise Unstable(f"lam_p={lam_p!r} >= eta={point.eta}")
    return point


def primary_delay(lam_p: float, alpha: float, gamma: float) -> float:
    """Mean primary queueing delay (arrival slot to departure slot) in
    slots of the chain; the sensing-only chain is alpha = gamma = mu_p."""
    return float(_stable_point(lam_p, alpha, gamma).delay)


def state_probs(lam_p: float, alpha: float, gamma: float, k_max: int):
    """Stationary per-level masses (pi, eps) of the chain for queue lengths
    0..k_max; pi + eps is the queue-length pmf.

    pi[k] is the probability of k queued packets with a fresh head, eps[k]
    with a retransmitted head.  eps[0] is zero by convention: an empty queue
    has no head packet.  Arrivals are counted at slot end, so a packet
    arriving to an empty queue is first served in the next slot.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    point = _stable_point(lam_p, alpha, gamma)
    alpha, gamma, eta, pi0 = (float(v) for v in (point.alpha, point.gamma, point.eta, point.pi0))
    pi = np.zeros(k_max + 1)
    eps = np.zeros_like(pi)
    pi[0] = pi0
    if k_max >= 1:
        pi[1] = pi0 * (lam_p / (1.0 - lam_p)) * (lam_p + (1.0 - lam_p) * gamma) / eta
        eps[1] = pi0 * (lam_p / eta) * (1.0 - alpha)
    if k_max >= 2:
        # r^2 rho^(k-2) rather than r^k (1-eta)^(k-2) stays finite at eta = 1
        # and where r^k alone would overflow
        r, rho = _ratios(point, lam_p)
        shape = r * r * rho ** np.arange(k_max - 1)
        pi[2:] = pi0 * lam_p * (1.0 - alpha) * shape
        eps[2:] = pi0 * (1.0 - lam_p) * (1.0 - alpha) * shape
    return pi, eps


def tail_k_max(lam_p: float, alpha: float, gamma: float, tol: float = TAIL_TOL) -> int:
    """Smallest K >= 0 whose stationary mass above level K is below tol;
    0 at lam_p = 0."""
    point = _stable_point(lam_p, alpha, gamma)
    # the mass above level 0 is sum_pi + sum_eps, and sum_pi = lam_p
    if lam_p + point.sum_eps < tol:
        return 0
    r, rho = _ratios(point, lam_p)
    # the mass above level k >= 1 is head / (1 - rho), head the mass of
    # level k + 1
    head, k = float(point.pi0) * (1.0 - float(point.alpha)) * r * r, 1
    while head / (1.0 - rho) >= tol:
        head *= rho
        k += 1
        if k > 10_000_000:  # pragma: no cover
            raise RuntimeError("tail does not shrink; check parameters")
    return k
