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
its slice of every stream it reads (a Philox stream drawn in pieces continues
exactly, so the draws do not depend on the block size) and turns the draws
into per-slot flags, including the secondary's outcome in each state it can
find (primary on, primary off, retransmission slot).  random() lies in
[0, 1), so a threshold of 0 or 1 decides every slot: a stream whose compared
thresholds are all 0 or 1 is not drawn, and the streams are independent
generators, so the others do not move.

A queue x' = max(x - s, 0) + a with known 0/1 arrivals a and services s is
a Lindley recursion, x_t = C_t + max(x0, max_{k<t} (a_k - C_{k+1})) with C
the prefix sums of a - s, so a cumulative sum and a running maximum give it
exactly (_lindley).  Under BACKLOGGED the battery drains in every energized
slot, so it is one scan on its own.  That fixes the primary's service in
every slot, so the primary queue is one scan too; under feedback a walk over
the primary length and the NACK flag alone first finds the retransmission
slots.  The data queue is the last scan.  Under EXACT the three queues
depend on each other through three flags per slot: battery nonempty,
primary busy and data queue nonempty.  Given the flags, each queue is one
scan, and a round of three scans gives new flags; rounds repeat, at most
FIXPOINT_ROUNDS times, until a round gives back the flags it was given.  A
block is scanned whole or walked whole: where the scans cannot solve it
(the feedback scheme under EXACT, whose retransmission slots depend on all
three flags, or an EXACT block whose rounds run out), the slot loop
(_slot_loop) walks the block, and the run's later blocks go straight to the
loop, which caps the cost of configurations that need many rounds.  The
loop carries only the queue lengths, the battery and the NACK flag from
slot to slot, and the scans and the loop both give one record byte per
slot.

The block's statistics are then computed from its record with numpy and
folded into running sums: queue lengths from the scans (after the loop,
from a scan of its joins and departures), delays by matching the k-th
departure with the k-th arrival (the queue is FIFO; the arrival slots of
packets still queued cross to the next block), and batch and decile sums
with np.add.reduceat.  Each sum is a float sum of integers below 2**53,
which is exact in any order, so the figures carry the same bits as sums
made slot by slot.  A run's memory is one block's, plus 8 bytes per packet
in the primary queue.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .params import (
    OutageProfile,
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
FIXPOINT_ROUNDS = 8  # scan rounds of an EXACT block before the loop walks it
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


def _generators(seed: int) -> dict:
    """One Philox generator per decision category, spawned from seed."""
    return {
        name: np.random.Generator(np.random.Philox(s))
        for name, s in zip(STREAMS, np.random.SeedSequence(seed).spawn(len(STREAMS)))
    }


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


def _segment_sums(x, bounds):
    """Sums of x over the slots [bounds[i], bounds[i + 1]), 0 where empty.
    Float sums of integers below 2**53 are exact in any order."""
    sums = np.zeros(len(bounds) - 1)
    full = np.diff(bounds) > 0
    sums[full] = np.add.reduceat(x, bounds[:-1][full], dtype=float)
    return sums


def _lindley(x0, a, s, out=None):
    """Queue length at the start of slots 0..n of x' = max(x - s, 0) + a, from
    the length x0 at slot 0 and per-slot 0/1 arrivals a and services s
    (Lindley 1952): x_t = C_t + max(x0, max_{k<t} (a_k - C_{k+1})), with C
    the prefix sums of a - s.  Exact: C and a_k - C_{k+1} lie within
    [-n, n] and are kept in int32, the lengths in int64."""
    n = a.size
    x = np.empty(n + 1, np.int64) if out is None else out
    c = np.cumsum(np.subtract(a, s, dtype=np.int8), dtype=np.int32)
    x[0] = x0
    x[1:] = c
    if x0 < n:  # else x0 beats every a_k - C_{k+1}, which is at most k + 1
        np.subtract(a, c, out=c)
        x[1:] += np.maximum(np.maximum.accumulate(c, out=c), x0, out=c)
    else:
        x[1:] += x0
    return x


def _block_inputs(gens, n, use_feedback, policy, profile, sensing, traffic):
    """The per-slot flags of the next n slots, from the next n draws of
    every stream that decides some slot: the three arrivals, the sensing
    decision and its busy verdicts (primary on, off), the secondary's
    outcome (0 silent, 1 sent and lost, 2 delivered) with the primary on,
    off and in a retransmission slot, and the primary's success alone and
    beside a transmission.  A threshold that no slot compares is passed as
    0."""

    def below(name, *thresholds):
        # random() lies in [0, 1), so a threshold of 0 or 1 decides every
        # slot, and a stream with no other threshold is not drawn at all
        if any(0.0 < x < 1.0 for x in thresholds):
            u = gens[name].random(n)
            return [u < x for x in thresholds]
        return [np.full(n, x >= 1.0) for x in thresholds]

    def outcome(tx, success):
        return np.add(tx, tx & success, dtype=np.uint8)

    pr = policy.p_access_retx if use_feedback else 0.0
    sensed = policy.p_sense > 0.0  # some slot senses
    direct = policy.p_sense < 1.0  # some slot accesses without sensing
    (arr_p,) = below("arrival_p", traffic.lam_p)
    (arr_s,) = below("arrival_s", traffic.lam_s)
    (arr_e,) = below("arrival_e", traffic.lam_e)
    (sense,) = below("sense", policy.p_sense)
    busy_on, busy_off = below(
        "sense_outcome",
        sensed * (1.0 - sensing.p_missed_detection),
        sensed * sensing.p_false_alarm,
    )
    free, busy, direct_tx, retx = below(
        "access",
        sensed * policy.p_access_free,
        sensed * policy.p_access_busy,
        direct * policy.p_access_direct,
        pr,
    )
    full, short, full_c, short_c = below(
        "success_s",
        direct * profile.p_sec_full,
        sensed * profile.p_sec_short,
        (direct or pr > 0.0) * profile.p_sec_full_conc,
        sensed * profile.p_sec_short_conc,
    )
    win, win_c = below("success_p", profile.p_primary, profile.p_primary_conc)
    out_on = outcome(
        np.where(sense, np.where(busy_on, busy, free), direct_tx), np.where(sense, short_c, full_c)
    )
    out_off = outcome(
        np.where(sense, np.where(busy_off, busy, free), direct_tx), np.where(sense, short, full)
    )
    out_rx = outcome(retx, full_c) if use_feedback else out_on
    return arr_p, arr_s, arr_e, sense, busy_on, busy_off, out_on, out_off, out_rx, win, win_c


def _nack_walk(q, nack, arr_p, svc_on, svc_rx):
    """The primary queue under feedback, walked over its length and NACK
    flag alone: svc_on and svc_rx are the primary's success in a fresh and
    in a retransmission slot.  Returns the per-slot retransmission flags
    and the NACK flag after the block."""
    retx = bytearray()
    put = retx.append
    for ap, on, rx in zip(arr_p.tobytes(), svc_on.tobytes(), svc_rx.tobytes()):
        put(nack)
        if q:
            d = rx if nack else on
            nack = not d
            q += ap - d
        else:
            q = ap
    return np.frombuffer(retx, bool), nack


def _scan_block(
    state, backlogged, use_feedback, arr_p, arr_s, arr_e, out_on, out_off, out_rx, win, win_c
):
    """Solve a block from state (q, qs, qe, nack) by Lindley scans.  Returns
    (state after the block, record, qp, qs): record holds the record byte
    (as _slot_loop's) and qp and qs the primary and data queue lengths at
    the start of each slot.  Returns None where the scans cannot solve the
    block: feedback under EXACT, and an EXACT block whose rounds end
    without one that gives back its own flags."""
    if use_feedback and not backlogged:
        return None
    q0, qs0, qe0, nack = state
    n = arr_p.size
    qe, q, qs = (np.empty(n + 1, np.int64) for _ in range(3))
    tx_on = out_on > 0
    if backlogged:  # the battery drains in every energized slot, on its own
        energized = _lindley(qe0, arr_e, 1, qe)[:-1] > 0
        svc = np.where(energized & tx_on, win_c, win)
        if use_feedback:
            svc_rx = np.where(energized & (out_rx > 0), win_c, win)
            retx, nack = _nack_walk(q0, nack, arr_p, svc, svc_rx)
            svc = np.where(retx, svc_rx, svc)
            out_on = np.where(retx, out_rx, out_on)
        busy = _lindley(q0, arr_p, svc, q)[:-1] > 0
        sent = np.where(energized, np.where(busy, out_on, out_off), 0)
        served = (sent == 2) & (_lindley(qs0, arr_s, sent == 2, qs)[:-1] > 0)
    else:
        # EXACT, sensing-only: iterate the battery, primary-busy and data
        # flags to their fixed point, from a first guess with the primary
        # alone and a data queue that never runs out of energy
        busy = _lindley(q0, arr_p, win, q)[:-1] > 0
        data = _lindley(qs0, arr_s, np.where(busy, out_on, out_off) == 2, qs)[:-1] > 0
        for _ in range(FIXPOINT_ROUNDS):
            spent = data & (np.where(busy, out_on, out_off) > 0)
            energized = _lindley(qe0, arr_e, spent, qe)[:-1] > 0
            svc = np.where(energized & data & tx_on, win_c, win)
            new_busy = _lindley(q0, arr_p, svc, q)[:-1] > 0
            sent = np.where(energized, np.where(new_busy, out_on, out_off), 0)
            new_data = _lindley(qs0, arr_s, sent == 2, qs)[:-1] > 0
            if np.array_equal(new_busy, busy) and np.array_equal(new_data, data):
                break
            busy, data = new_busy, new_data
        else:
            return None
        sent[~data] = 0
        served = sent == 2
    record = sent << 1 | energized
    record |= np.left_shift(busy & svc, 3, dtype=np.uint8)
    record |= np.left_shift(served, 4, dtype=np.uint8)
    return (int(q[n]), int(qs[n]), int(qe[n]), nack), record, q[:-1], qs[:-1]


def _slot_loop(state, arr_p, arr_s, arr_e, out_on, out_off, out_rx, win, win_c):
    """Walk one EXACT block's slots from state (q, qs, qe, nack) and return
    the state after its last slot and one record byte per slot: battery
    nonempty, secondary outcome << 1, primary departure << 3 and data
    packet served << 4.  The secondary acts only with data, and the battery
    drains only on a transmission."""
    q, qs, qe, nack = state
    record = bytearray()
    put = record.append
    for ap, as_, ae, on, off, rx, w, w_c in zip(
        *(x.tobytes() for x in (arr_p, arr_s, arr_e, out_on, out_off, out_rx, win, win_c))
    ):
        e = qe > 0
        o = ((rx if nack else on) if q else off) if e and qs else 0
        s = o == 2
        d = (w_c if o else w) if q else 0
        nack = q > 0 and not d
        q += ap - d
        qs += as_ - s
        qe += ae - (o > 0)
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
    if not isinstance(policy, scheme.policy_class):
        raise ValueError(f"{scheme.value} scheme needs a {scheme.policy_class.__name__}")
    if not use_feedback and getattr(policy, "p_access_retx", 0.0) != 0.0:
        raise ValueError(f"{scheme.value} scheme never retransmits: p_access_retx must be 0")
    backlogged = semantics is SimSemantics.BACKLOGGED

    gens = _generators(seed)
    n_batches = min(N_BATCHES, n_slots)
    bounds = -(-np.arange(n_batches + 1) * n_slots // n_batches)  # ceil(b n / B)
    deciles = -(-np.arange(11) * n_slots // 10)
    batch, dec_sum, sense_counts = {}, 0.0, {}  # running sums, filled by the first block
    state = (0, 0, 0, False)  # (q, qs, qe, nack) at the start of the next block
    queued = np.zeros(0, np.int64)  # arrival slots of the queued primary packets

    looping = False  # set once a block goes to the loop: every later block does too
    for start in range(0, n_slots, BLOCK_SLOTS):
        n = min(BLOCK_SLOTS, n_slots - start)
        arr_p, arr_s, arr_e, sense, busy_on, busy_off, *loop_inputs = _block_inputs(
            gens, n, use_feedback, policy, profile, sensing, traffic
        )
        q0, qs0, _, nack0 = state
        scanned = None
        if not looping:
            scanned = _scan_block(
                state, backlogged, use_feedback, arr_p, arr_s, arr_e, *loop_inputs
            )
        if scanned is None:
            looping = True
            state, r = _slot_loop(state, arr_p, arr_s, arr_e, *loop_inputs)
            qp = _lindley(q0, arr_p, (r >> 3) & 1)[:-1]
            qs_len = _lindley(qs0, arr_s, r >> 4)[:-1]
        else:
            state, r, qp, qs_len = scanned
        del arr_e, loop_inputs, scanned
        energized = (r & 1).astype(bool)
        sent = (r >> 1) & 3
        dep = (r >> 3) & 1

        dec_sum += _segment_sums(qp, np.clip(deciles - start, 0, n))
        primary_on = qp > 0
        retx_slot = np.zeros(n, bool)
        if use_feedback:
            retx_slot[0] = nack0
            retx_slot[1:] = primary_on[:-1] & (dep[:-1] == 0)
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
        # drop the block's arrays before the next one draws: a run holds one block
        del arr_p, arr_s, sense, busy_on, busy_off, r, qp, qs_len, energized, sent, dep
        del primary_on, retx_slot, sensed, wait, x, mask

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
    against the closed forms, and closed_form holds the backlogged run's
    residual checks against the closed forms (closed_form_checks).
    unstable is set where either run shows queue drift or the closed forms
    call the point unstable, which leaves closed_form empty; the checks are
    then reported, not asserted.  all_passed reads every check of both.
    """

    exact: SimStats
    backlogged: SimStats
    mu_s_analytic: float
    unstable: bool
    checks: tuple
    closed_form: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.closed_form + self.checks)


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
    ordering of mu_s: the backlogged variant never beats the exact system,
    and, away from the primary's stability edge, the closed form never
    exceeds the exact system (beyond Monte Carlo noise).  Near the edge the
    second claim fails: at fig6's sensing-only optimum at lam_p 0.65
    (mu_p 0.667) the closed form gives mu_s 0.018386, and at 1M slots the
    exact run reads 0.016333 (SE 0.00049) at seed 0, which fails
    "mu_s analytic <= exact + 3se", and 0.017579 at seed 1, which passes.
    The backlogged run is closed_form_checks', so the report also carries
    its residual checks (closed_form) without a second run.

    With lam_s = 0 the secondary never sends real packets, so the secondary-
    side checks are vacuous; the primary side is checked instead, since
    there the backlogged secondary's dummy packets can only hurt the
    primary.  The mu_p ordering is claimed and checked only at lam_s = 0.
    At lam_s > 0 the exact system spends energy only on a transmission, so
    its battery is nonempty more often than the backlogged model's, and its
    primary can be served more slowly: at fig4's solved optima (delay bound
    2, lam_s 1) the exact primary's mean delay reads 2.09-2.20.
    """
    exact = run(scheme, policy, profile, sensing, traffic, SimSemantics.EXACT, n_slots, seed)
    blg, closed_form = closed_form_checks(scheme, policy, profile, sensing, traffic, n_slots, seed)
    point = scheme.analysis.operating_point(profile, policy, sensing, traffic)
    mu_s_analytic = float(point.mu_s) if traffic.lam_p < point.eta else math.nan
    unstable = exact.drift_detected or blg.drift_detected or not closed_form
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
        closed_form=closed_form,
    )


def residual_checks(stats: SimStats, point, lam_p: float) -> tuple:
    """Compare a backlogged run with the closed forms' predictions (point,
    the scheme's operating_point() at the run's configuration) at 3
    standard errors.

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
    point = scheme.analysis.operating_point(profile, policy, sensing, traffic)
    return stats, residual_checks(stats, point, traffic.lam_p)
