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

Randomness comes from one Philox substream per decision category, so runs
with the same seed see identical inputs in both semantics (common random
numbers) and results are reproducible bit for bit.

Streaming: a run walks its slots in blocks of BLOCK_SLOTS.  Each block draws
its slice of every stream (a Philox stream drawn in pieces continues
exactly, so the draws do not depend on the block size) and turns the draws
into per-slot flags, including the secondary's outcome in each state it can
find (primary on, primary off, retransmission slot).  The slot loop carries
only the queue lengths, the battery and the NACK flag from slot to slot and
block to block, and writes one record byte per slot.  The block's
statistics are then computed from its record with numpy and folded into
running sums: queue lengths from cumulative sums started at the block's
first queue lengths, delays by matching the k-th departure with the k-th
arrival (the queue is FIFO; the arrival slots of packets still queued cross
to the next block), and batch and decile sums with np.add.reduceat.  Each
sum is a float sum of integers below 2**53, which is exact in any order, so
the figures carry the same bits as sums made slot by slot.  A run's memory
is one block's, plus 8 bytes per packet in the primary queue.
"""
from __future__ import annotations

import enum
import math
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
BLOCK_SLOTS = 1 << 14  # slots per streamed block
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


def _length_at_start(joins, leaves, first):
    """Queue length at the start of each slot of a block from its per-slot
    0/1 joins and departures, given the length at the block's first slot; a
    join counts from the next slot on."""
    q = np.empty(joins.size, np.int64)
    q[0] = first
    np.cumsum(np.subtract(joins[:-1], leaves[:-1], dtype=np.int8), dtype=np.int64, out=q[1:])
    q[1:] += first
    return q


def _segment_sums(x, bounds):
    """Sums of x over the slots [bounds[i], bounds[i + 1]), 0 where empty.
    Float sums of integers below 2**53 are exact in any order."""
    sums = np.zeros(len(bounds) - 1)
    full = np.diff(bounds) > 0
    sums[full] = np.add.reduceat(x, bounds[:-1][full], dtype=float)
    return sums


def _block_inputs(gens, n, use_feedback, policy, profile, sensing, traffic):
    """The per-slot flags of the next n slots, from the next n draws of
    every stream: the three arrivals, the sensing decision and its busy
    verdicts (primary on, off), the secondary's outcome (0 silent, 1 sent
    and lost, 2 delivered) with the primary on, off and in a retransmission
    slot, and the primary's success alone and beside a transmission."""

    def below(name, *thresholds):
        u = gens[name].random(n)
        return [u < x for x in thresholds]

    def outcome(tx, success):
        return np.add(tx, tx & success, dtype=np.uint8)

    pr = policy.p_access_retx if use_feedback else 0.0
    (arr_p,) = below("arrival_p", traffic.lam_p)
    (arr_s,) = below("arrival_s", traffic.lam_s)
    (arr_e,) = below("arrival_e", traffic.lam_e)
    (sense,) = below("sense", policy.p_sense)
    busy_on, busy_off = below(
        "sense_outcome", 1.0 - sensing.p_missed_detection, sensing.p_false_alarm
    )
    free, busy, direct, retx = below(
        "access", policy.p_access_free, policy.p_access_busy, policy.p_access_direct, pr
    )
    full, short, full_c, short_c = below(
        "success_s",
        profile.p_sec_full,
        profile.p_sec_short,
        profile.p_sec_full_conc,
        profile.p_sec_short_conc,
    )
    win, win_c = below("success_p", profile.p_primary, profile.p_primary_conc)
    out_on = outcome(
        np.where(sense, np.where(busy_on, busy, free), direct), np.where(sense, short_c, full_c)
    )
    out_off = outcome(
        np.where(sense, np.where(busy_off, busy, free), direct), np.where(sense, short, full)
    )
    out_rx = outcome(retx, full_c) if use_feedback else out_on
    return arr_p, arr_s, arr_e, sense, busy_on, busy_off, out_on, out_off, out_rx, win, win_c


def _slot_loop(state, backlogged, arr_p, arr_s, arr_e, out_on, out_off, out_rx, win, win_c):
    """Walk one block's slots from state (q, qs, qe, nack) and return the
    state after its last slot and one record byte per slot: battery
    nonempty, secondary outcome << 1, primary departure << 3 and data
    packet served << 4."""
    q, qs, qe, nack = state
    record = bytearray()
    put = record.append
    for ap, as_, ae, on, off, rx, w, w_c in zip(
        *(x.tobytes() for x in (arr_p, arr_s, arr_e, out_on, out_off, out_rx, win, win_c))
    ):
        e = qe > 0
        o = ((rx if nack else on) if q else off) if e and (backlogged or qs) else 0
        s = o == 2 and qs > 0
        d = (w_c if o else w) if q else 0
        nack = q > 0 and not d
        q += ap - d
        qs += as_ - s
        qe += ae - (e if backlogged else o > 0)
        put(e | o << 1 | d << 3 | s << 4)
    return (q, qs, qe, nack), np.frombuffer(record, np.uint8)


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
    """Simulate n_slots slots, BLOCK_SLOTS at a time, and return the
    measured statistics."""
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    use_feedback = scheme is Scheme.FEEDBACK
    if scheme is Scheme.RANDOM_ACCESS and policy.p_sense != 0.0:
        raise ValueError("random access requires p_sense = 0")
    if use_feedback and not isinstance(policy, PolicyFb):
        raise ValueError("feedback scheme needs a PolicyFb")
    backlogged = semantics is SimSemantics.BACKLOGGED

    gens = {
        name: np.random.Generator(np.random.Philox(s))
        for name, s in zip(STREAMS, np.random.SeedSequence(seed).spawn(len(STREAMS)))
    }
    n_batches = min(N_BATCHES, n_slots)
    bounds = -(-np.arange(n_batches + 1) * n_slots // n_batches)  # ceil(b n / B)
    deciles = -(-np.arange(11) * n_slots // 10)
    batch, dec_sum, sense_counts = {}, 0.0, {}  # running sums, filled by the first block
    state = (0, 0, 0, False)  # (q, qs, qe, nack) at the start of the next block
    queued = np.zeros(0, np.int64)  # arrival slots of the queued primary packets

    for start in range(0, n_slots, BLOCK_SLOTS):
        n = min(BLOCK_SLOTS, n_slots - start)
        arr_p, arr_s, arr_e, sense, busy_on, busy_off, *loop_inputs = _block_inputs(
            gens, n, use_feedback, policy, profile, sensing, traffic
        )
        q0, qs0, _, nack0 = state
        state, r = _slot_loop(state, backlogged, arr_p, arr_s, arr_e, *loop_inputs)
        del arr_e, loop_inputs
        energized = (r & 1).astype(bool)
        sent = (r >> 1) & 3
        dep = (r >> 3) & 1

        qp = _length_at_start(arr_p, dep, q0)
        dec_sum += _segment_sums(qp, np.clip(deciles - start, 0, n))
        primary_on = qp > 0
        retx_slot = np.zeros(n, bool)
        if use_feedback:
            retx_slot[0] = nack0
            retx_slot[1:] = primary_on[:-1] & (dep[:-1] == 0)
        qs_len = _length_at_start(arr_s, r >> 4, qs0)
        sensed = energized & (backlogged | (qs_len > 0)) & sense & ~retx_slot
        # FIFO: the k-th departure carries the k-th queued arrival
        queued = np.concatenate((queued, start + np.flatnonzero(arr_p)))
        dep_slots = np.flatnonzero(dep)
        wait = np.zeros(n)
        wait[dep_slots] = start + dep_slots - queued[: dep_slots.size]
        queued = queued[dep_slots.size :]

        local = np.clip(bounds - start, 0, n)
        for name, x in (
            ("dep", dep),
            ("on", primary_on),
            ("delivered", sent == 2),
            ("spent", energized if backlogged else sent > 0),
            ("energized", energized),
            ("wait", wait),
            ("retx", retx_slot),
            ("qp", qp),
            ("qs", qs_len),
            ("arr_p", arr_p),
        ):
            batch[name] = batch.get(name, 0.0) + _segment_sums(x, local)
        for name, mask in (
            ("slots_sensed_busy_primary_on", sensed & primary_on & busy_on),
            ("slots_sensed_primary_on", sensed & primary_on),
            ("slots_sensed_busy_primary_off", sensed & ~primary_on & busy_off),
            ("slots_sensed_primary_off", sensed & ~primary_on),
        ):
            sense_counts[name] = sense_counts.get(name, 0) + int(np.count_nonzero(mask))

    slots_b = np.diff(bounds).astype(float)
    rates, ci = {}, {}
    for name, values, weights in (
        ("mu_p_hat", batch["dep"], batch["on"]),
        ("mu_s_hat", batch["delivered"], slots_b),
        ("mu_e_hat", batch["spent"], batch["energized"]),
        ("delay_hat", batch["wait"], batch["dep"]),
        ("empty_frac_p", slots_b - batch["on"], slots_b),
        ("retx_frac", batch["retx"], slots_b),
        ("mean_queue_p", batch["qp"], slots_b),
        ("mean_queue_s", batch["qs"], slots_b),
        ("lam_p_hat", batch["arr_p"], slots_b),
    ):
        rates[name], ci[name] = _batch_mean_ci(values, weights)
    dec_n = np.diff(deciles)
    with np.errstate(invalid="ignore"):
        dec_means = np.where(dec_n > 0, dec_sum / dec_n, math.nan)
    return SimStats(
        n_slots=n_slots,
        semantics=semantics,
        scheme=scheme,
        **rates,
        ci_halfwidths=ci,
        qp_decile_means=tuple(dec_means.tolist()),
        sense_counts=sense_counts,
    )


@dataclass(frozen=True)
class Check:
    """One validation check, laid out as the row ehcog validate writes.

    kind is "closed-form" (a backlogged run against the closed forms) or
    "lower-bound" (an ordering the exact system must keep); residual is
    |measured - reference|, and the check passes where its claim holds
    within bound.
    """

    kind: str
    name: str
    measured: float
    reference: float
    residual: float
    bound: float
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


def _bound(margin: float) -> float:
    """A check's margin, with nan read as inf: a quantity averaged over
    fewer than two weighted batches has no half-width, so it bounds
    nothing."""
    return math.inf if math.isnan(margin) else margin


def _check(kind: str, name: str, measured, reference, bound: float, holds) -> Check:
    """The Check of a claim that holds or not.  It passes where the claim
    holds, and always at an inf bound, where its estimates (nan when they
    have no samples) bound nothing."""
    residual = abs(measured - reference)
    return Check(kind, name, measured, reference, residual, bound, bool(holds or bound == math.inf))


def predict(scheme, policy, profile, sensing, traffic):
    """The closed forms' operating point of a simulated configuration: the
    scheme's operating_point, which analyze reads too."""
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
    mu_s_analytic = float(point.mu_s) if traffic.lam_p < point.eta else math.nan
    unstable = exact.drift_detected or blg.drift_detected
    checks = []
    if traffic.lam_s > 0:
        margin = _bound(3.0 * math.hypot(exact.stderr("mu_s_hat"), blg.stderr("mu_s_hat")))
        checks.append(_check(
            "lower-bound", "mu_s exact >= backlogged - 3se", exact.mu_s_hat, blg.mu_s_hat,
            margin, exact.mu_s_hat >= blg.mu_s_hat - margin,
        ))
        if math.isfinite(mu_s_analytic):
            margin = _bound(3.0 * exact.stderr("mu_s_hat"))
            checks.append(_check(
                "lower-bound", "mu_s analytic <= exact + 3se", mu_s_analytic, exact.mu_s_hat,
                margin, mu_s_analytic <= exact.mu_s_hat + margin,
            ))
    if traffic.lam_s == 0 and traffic.lam_p > 0:
        margin = _bound(3.0 * math.hypot(exact.stderr("mu_p_hat"), blg.stderr("mu_p_hat")))
        checks.append(_check(
            "lower-bound", "mu_p exact >= backlogged - 3se", exact.mu_p_hat, blg.mu_p_hat,
            margin, exact.mu_p_hat >= blg.mu_p_hat - margin,
        ))
    return LowerBoundReport(
        exact=exact,
        backlogged=blg,
        mu_s_analytic=mu_s_analytic,
        unstable=unstable,
        checks=tuple(checks),
    )


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
    if lam_p < point.eta:
        if stats.scheme is Scheme.FEEDBACK:
            pairs.append(("empty_frac_p vs pi0", stats.empty_frac_p, point.pi0, ci["empty_frac_p"]))
            pairs.append(("retx_frac vs sum_eps", stats.retx_frac, point.sum_eps, ci["retx_frac"]))
            pairs.append(("mu_s_hat vs mu_s", stats.mu_s_hat, point.mu_s, ci["mu_s_hat"]))
            if lam_p > 0:
                pairs.append(("delay_hat vs delay", stats.delay_hat, point.delay, ci["delay_hat"]))
        else:
            if lam_p > 0:
                pairs.append(("mu_p_hat vs mu_p", stats.mu_p_hat, point.alpha, ci["mu_p_hat"]))
                pairs.append(("delay_hat vs delay", stats.delay_hat, point.delay, ci["delay_hat"]))
            pairs.append(("mu_s_hat vs mu_s", stats.mu_s_hat, point.mu_s, ci["mu_s_hat"]))
            pairs.append(("empty_frac_p vs nu0", stats.empty_frac_p, point.pi0, ci["empty_frac_p"]))
    checks = []
    for name, measured, predicted, half in pairs:
        predicted = float(predicted)
        bound = _bound(3.0 * half / Z95)
        # an exact-zero sampling variance means the quantity is deterministic
        if bound == 0.0:
            bound = 1e-12
        holds = abs(measured - predicted) <= bound
        checks.append(_check("closed-form", name, measured, predicted, bound, holds))
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
