"""Slot-level Monte Carlo of the interacting primary/data/energy queues.

This runs the true system, without the approximations behind the closed
forms, and is the ground truth everything else is validated against.

Per-slot sequence:
  1. the primary transmits its head packet iff Q_p > 0 (a retransmission if
     the previous attempt was NACKed);
  2. the secondary decides: under the retransmission-aware scheme a NACK in
     the previous slot short-circuits to a blind full-slot access with
     probability p_access_retx; otherwise it senses with probability p_sense
     (the verdict is busy with probability 1 - p_missed_detection when the
     primary is on, p_false_alarm when it is off) and accesses with
     p_access_busy / p_access_free / p_access_direct as applicable;
  3. success draws, with the secondary's probability picked from the profile
     by (primary on?, sensed?) and the primary's degraded to the concurrent
     value iff the secondary transmitted;
  4. queue and battery updates; arrivals join at the end of their slot and
     cannot be served within it.

Semantics variants:
  EXACT       the secondary acts only when it has data, and energy is spent
              only on an actual transmission;
  BACKLOGGED  the secondary acts in every energy-endowed slot (sending a
              dummy packet when its data queue is empty) and one energy unit
              drains every slot in which the battery is nonempty.  The
              closed-form rate/delay expressions describe exactly this
              variant.

Randomness comes from one Philox substream per decision category, all drawn
up front, so runs with the same seed see identical inputs in both semantics
(common random numbers) and results are reproducible bit for bit.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import feedback, nofeedback
from .params import (
    OutageProfile,
    PolicyFb,
    PolicyNoFb,
    Scheme,
    SensingQuality,
    TrafficParams,
)

#: decision categories, each with its own RNG substream
STREAMS = (
    "arrival_p",
    "arrival_s",
    "arrival_e",
    "sense",
    "sense_outcome",
    "access",
    "success_s",
    "success_p",
)

RNG_NAME = "philox(seed).spawn per category: " + ",".join(STREAMS)

N_BATCHES = 30
Z95 = 1.959963984540054  # two-sided 95% normal quantile


class SimSemantics(enum.Enum):
    EXACT = "exact"
    BACKLOGGED = "backlogged"


@dataclass(frozen=True)
class SimStats:
    """Empirical rates and queue statistics of one run.

    Rates are per-slot unless stated otherwise: mu_p_hat is successes per
    primary transmission attempt, mu_s_hat successes per slot, mu_e_hat
    energy units consumed per slot with a nonempty battery.  delay_hat is
    the mean sojourn (departure slot minus arrival slot) of departed primary
    packets.  Half-widths are 95% batch-means intervals (ddof=1, 30
    batches); nan when a quantity has no samples.
    """

    n_slots: int
    semantics: SimSemantics
    scheme: Scheme
    mu_p_hat: float
    mu_s_hat: float
    mu_e_hat: float
    delay_hat: float
    mean_queue_p: float
    mean_queue_s: float
    empty_frac_p: float
    retx_frac: float
    lam_p_hat: float
    ci_halfwidths: dict = field(repr=False)
    qp_decile_means: tuple = field(repr=False)
    sense_counts: dict = field(repr=False)
    rng_name: str = RNG_NAME

    def stderr(self, name: str) -> float:
        return self.ci_halfwidths[name] / Z95

    @property
    def drift_detected(self) -> bool:
        """Heuristic primary-queue divergence flag: the mean queue over the
        last decile of the run exceeds 10x the first decile and 1 packet."""
        first, last = self.qp_decile_means[0], self.qp_decile_means[-1]
        return last > 10.0 * max(first, 0.1) and last > 1.0


def _batch_mean_ci(values, weights) -> tuple[float, float]:
    """(point estimate, 95% half-width) from per-batch sums and weights."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total_w = weights.sum()
    if total_w <= 0:
        return math.nan, math.nan
    est = values.sum() / total_w
    mask = weights > 0
    per_batch = values[mask] / weights[mask]
    if per_batch.size < 2:
        return est, math.nan
    half = Z95 * per_batch.std(ddof=1) / math.sqrt(per_batch.size)
    return est, half


def run(
    scheme: Scheme,
    policy: PolicyNoFb,
    profile: OutageProfile,
    sensing: SensingQuality,
    traffic: TrafficParams,
    semantics: SimSemantics = SimSemantics.EXACT,
    n_slots: int = 1_000_000,
    seed: int = 0,
) -> SimStats:
    """Simulate n_slots slots and return the measured statistics."""
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    use_feedback = scheme is Scheme.FEEDBACK
    if scheme is Scheme.RANDOM_ACCESS and policy.p_sense != 0.0:
        raise ValueError("random access requires p_sense = 0")
    if use_feedback and not isinstance(policy, PolicyFb):
        raise ValueError("feedback scheme needs a PolicyFb")
    backlogged = semantics is SimSemantics.BACKLOGGED

    streams = np.random.SeedSequence(seed).spawn(len(STREAMS))
    u = {
        name: np.random.Generator(np.random.Philox(s)).random(n_slots)
        for name, s in zip(STREAMS, streams)
    }
    arr_p = u["arrival_p"] < traffic.lam_p
    arr_s = u["arrival_s"] < traffic.lam_s
    arr_e = u["arrival_e"] < traffic.lam_e
    do_sense = u["sense"] < policy.p_sense
    u_out, u_acc = u["sense_outcome"], u["access"]
    u_ss, u_sp = u["success_s"], u["success_p"]

    ps_full, ps_short = profile.p_sec_full, profile.p_sec_short
    ps_full_c, ps_short_c = profile.p_sec_full_conc, profile.p_sec_short_conc
    pp, pp_c = profile.p_primary, profile.p_primary_conc
    pf, pb, pt = policy.p_access_free, policy.p_access_busy, policy.p_access_direct
    pr = policy.p_access_retx if use_feedback else 0.0
    pfa, pmd = sensing.p_false_alarm, sensing.p_missed_detection

    B = min(N_BATCHES, n_slots)
    zeros = lambda: [0.0] * B
    slots_b = zeros()
    qp_sum_b, qs_sum_b = zeros(), zeros()
    empty_b, retx_b = zeros(), zeros()
    succ_p_b, att_p_b = zeros(), zeros()
    succ_s_b = zeros()
    consumed_b, energized_b = zeros(), zeros()
    delay_sum_b, departed_b = zeros(), zeros()
    arrivals_b = zeros()
    dec_sum, dec_n = [0.0] * 10, [0] * 10
    sense_counts = {
        "slots_sensed_busy_primary_on": 0,
        "slots_sensed_primary_on": 0,
        "slots_sensed_busy_primary_off": 0,
        "slots_sensed_primary_off": 0,
    }

    qp: deque[int] = deque()  # arrival slot of each queued primary packet
    qs = 0
    qe = 0
    prev_nack = False

    for t in range(n_slots):
        b = t * B // n_slots
        d = t * 10 // n_slots
        qlen = len(qp)
        primary_on = qlen > 0
        slots_b[b] += 1
        qp_sum_b[b] += qlen
        qs_sum_b[b] += qs
        dec_sum[d] += qlen
        dec_n[d] += 1
        if not primary_on:
            empty_b[b] += 1
        retx_slot = use_feedback and prev_nack
        if retx_slot:
            retx_b[b] += 1

        has_energy = qe > 0
        may_act = has_energy and (backlogged or qs > 0)
        sec_tx = False
        sensed = False
        if may_act:
            if retx_slot:
                sec_tx = u_acc[t] < pr
            elif do_sense[t]:
                sensed = True
                verdict_busy = u_out[t] < ((1.0 - pmd) if primary_on else pfa)
                sec_tx = u_acc[t] < (pb if verdict_busy else pf)
                if primary_on:
                    sense_counts["slots_sensed_primary_on"] += 1
                    if verdict_busy:
                        sense_counts["slots_sensed_busy_primary_on"] += 1
                else:
                    sense_counts["slots_sensed_primary_off"] += 1
                    if verdict_busy:
                        sense_counts["slots_sensed_busy_primary_off"] += 1
            else:
                sec_tx = u_acc[t] < pt

        if sec_tx:
            if primary_on:
                p_succ = ps_short_c if sensed else ps_full_c
            else:
                p_succ = ps_short if sensed else ps_full
            if u_ss[t] < p_succ:
                succ_s_b[b] += 1
                if qs > 0:
                    qs -= 1  # under BACKLOGGED a success with qs == 0 was a dummy

        if primary_on:
            att_p_b[b] += 1
            if u_sp[t] < (pp_c if sec_tx else pp):
                succ_p_b[b] += 1
                arr_slot = qp.popleft()
                delay_sum_b[b] += t - arr_slot
                departed_b[b] += 1
                prev_nack = False
            else:
                prev_nack = True
        else:
            prev_nack = False

        if backlogged:
            if has_energy:
                qe -= 1
                consumed_b[b] += 1
                energized_b[b] += 1
        else:
            if has_energy:
                energized_b[b] += 1
            if sec_tx:
                qe -= 1
                consumed_b[b] += 1

        if arr_p[t]:
            qp.append(t)
            arrivals_b[b] += 1
        if arr_s[t]:
            qs += 1
        if arr_e[t]:
            qe += 1

    ci = {}
    mu_p_hat, ci["mu_p_hat"] = _batch_mean_ci(succ_p_b, att_p_b)
    mu_s_hat, ci["mu_s_hat"] = _batch_mean_ci(succ_s_b, slots_b)
    mu_e_hat, ci["mu_e_hat"] = _batch_mean_ci(consumed_b, energized_b)
    delay_hat, ci["delay_hat"] = _batch_mean_ci(delay_sum_b, departed_b)
    empty_frac, ci["empty_frac_p"] = _batch_mean_ci(empty_b, slots_b)
    retx_frac, ci["retx_frac"] = _batch_mean_ci(retx_b, slots_b)
    mean_qp, ci["mean_queue_p"] = _batch_mean_ci(qp_sum_b, slots_b)
    mean_qs, ci["mean_queue_s"] = _batch_mean_ci(qs_sum_b, slots_b)
    lam_p_hat, ci["lam_p_hat"] = _batch_mean_ci(arrivals_b, slots_b)
    return SimStats(
        n_slots=n_slots,
        semantics=semantics,
        scheme=scheme,
        mu_p_hat=mu_p_hat,
        mu_s_hat=mu_s_hat,
        mu_e_hat=mu_e_hat,
        delay_hat=delay_hat,
        mean_queue_p=mean_qp,
        mean_queue_s=mean_qs,
        empty_frac_p=empty_frac,
        retx_frac=retx_frac,
        lam_p_hat=lam_p_hat,
        ci_halfwidths=ci,
        qp_decile_means=tuple(
            s / n if n else math.nan for s, n in zip(dec_sum, dec_n)
        ),
        sense_counts=sense_counts,
    )


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class LowerBoundReport:
    """Outcome of the dummy-packet/always-drain lower-bound validation.

    checks compare the exact-semantics run against the backlogged one and
    against the closed forms; they are asserted only when neither run shows
    queue drift (unstable=False).
    """

    exact: SimStats
    backlogged: SimStats
    mu_s_analytic: float
    unstable: bool
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def predict(scheme, policy, profile, sensing, traffic):
    """The closed forms' operating point of a simulated configuration: the
    nofeedback or feedback OperatingPoint that analyze reads too."""
    mod = feedback if scheme is Scheme.FEEDBACK else nofeedback
    return mod.operating_point(profile, policy, sensing, traffic)


def validate_lower_bound(
    scheme: Scheme,
    policy: PolicyNoFb,
    profile: OutageProfile,
    sensing: SensingQuality,
    traffic: TrafficParams,
    n_slots: int = 1_000_000,
    seed: int = 0,
) -> LowerBoundReport:
    """Run both semantics with common random numbers and check the claimed
    ordering: the backlogged variant never beats the exact system, and the
    closed form never exceeds the exact system (beyond Monte Carlo noise).

    With lam_s = 0 the secondary never sends real packets, so the secondary-
    side checks are vacuous; the primary side is checked instead (dummy
    packets can only hurt the primary).
    """
    exact = run(scheme, policy, profile, sensing, traffic, SimSemantics.EXACT, n_slots, seed)
    blg = run(scheme, policy, profile, sensing, traffic, SimSemantics.BACKLOGGED, n_slots, seed)
    point = predict(scheme, policy, profile, sensing, traffic)
    mu_s_analytic = float(point.mu_s) if traffic.lam_p < point.mu_eff else math.nan
    unstable = exact.drift_detected or blg.drift_detected
    checks = []
    if traffic.lam_s > 0:
        margin = 3.0 * math.hypot(exact.stderr("mu_s_hat"), blg.stderr("mu_s_hat"))
        checks.append(
            BoundCheck(
                name="mu_s exact >= backlogged - 3se",
                lhs=exact.mu_s_hat,
                rhs=blg.mu_s_hat,
                margin=margin,
                passed=bool(exact.mu_s_hat >= blg.mu_s_hat - margin),
            )
        )
        if math.isfinite(mu_s_analytic):
            margin = 3.0 * exact.stderr("mu_s_hat")
            checks.append(
                BoundCheck(
                    name="mu_s analytic <= exact + 3se",
                    lhs=mu_s_analytic,
                    rhs=exact.mu_s_hat,
                    margin=margin,
                    passed=bool(mu_s_analytic <= exact.mu_s_hat + margin),
                )
            )
    if traffic.lam_s == 0 and traffic.lam_p > 0:
        margin = 3.0 * math.hypot(exact.stderr("mu_p_hat"), blg.stderr("mu_p_hat"))
        checks.append(
            BoundCheck(
                name="mu_p exact >= backlogged - 3se",
                lhs=exact.mu_p_hat,
                rhs=blg.mu_p_hat,
                margin=margin,
                passed=bool(exact.mu_p_hat >= blg.mu_p_hat - margin),
            )
        )
    return LowerBoundReport(
        exact=exact,
        backlogged=blg,
        mu_s_analytic=mu_s_analytic,
        unstable=unstable,
        checks=tuple(checks),
    )


@dataclass(frozen=True)
class ResidualCheck:
    name: str
    measured: float
    predicted: float
    residual: float
    bound: float
    passed: bool


def residual_checks(stats: SimStats, point, lam_p: float) -> tuple:
    """Compare a backlogged run with the closed forms' predictions (point,
    from predict() at the run's configuration) at 3 standard errors.

    For the sensing-only scheme the predictions are the service rates, the
    empty-queue probability and the delay; the retransmission-aware scheme
    additionally pins the retransmission-slot mass, with the empty fraction
    compared against pi0.  Unstable configurations yield no checks.
    """
    pairs = []  # (name, measured, predicted, halfwidth)
    ci = stats.ci_halfwidths
    if lam_p < point.mu_eff:
        if stats.scheme is Scheme.FEEDBACK:
            pairs.append(("empty_frac_p vs pi0", stats.empty_frac_p, point.pi0, ci["empty_frac_p"]))
            pairs.append(("retx_frac vs sum_eps", stats.retx_frac, point.sum_eps, ci["retx_frac"]))
            pairs.append(("mu_s_hat vs mu_s", stats.mu_s_hat, point.mu_s, ci["mu_s_hat"]))
            if lam_p > 0:
                pairs.append(("delay_hat vs delay", stats.delay_hat, point.delay, ci["delay_hat"]))
        else:
            if lam_p > 0:
                pairs.append(("mu_p_hat vs mu_p", stats.mu_p_hat, point.mu_p, ci["mu_p_hat"]))
                pairs.append(("delay_hat vs delay", stats.delay_hat, point.delay, ci["delay_hat"]))
            pairs.append(("mu_s_hat vs mu_s", stats.mu_s_hat, point.mu_s, ci["mu_s_hat"]))
            pairs.append(("empty_frac_p vs nu0", stats.empty_frac_p, point.nu0, ci["empty_frac_p"]))
    checks = []
    for name, measured, predicted, half in pairs:
        predicted = float(predicted)
        bound = 3.0 * half / Z95 if math.isfinite(half) else math.inf
        residual = abs(measured - predicted)
        # an exact-zero sampling variance means the quantity is deterministic
        if bound == 0.0:
            bound = 1e-12
        checks.append(
            ResidualCheck(
                name=name,
                measured=measured,
                predicted=predicted,
                residual=residual,
                bound=bound,
                passed=bool(residual <= bound),
            )
        )
    return tuple(checks)


def closed_form_checks(
    scheme: Scheme,
    policy: PolicyNoFb,
    profile: OutageProfile,
    sensing: SensingQuality,
    traffic: TrafficParams,
    n_slots: int = 1_000_000,
    seed: int = 0,
) -> tuple[SimStats, tuple]:
    """Backlogged-semantics run compared against every applicable closed
    form by residual_checks.  Returns (stats, checks)."""
    stats = run(scheme, policy, profile, sensing, traffic, SimSemantics.BACKLOGGED, n_slots, seed)
    point = predict(scheme, policy, profile, sensing, traffic)
    return stats, residual_checks(stats, point, traffic.lam_p)
