"""Independent reference implementations used only by the tests.

Everything here is built directly from the slot dynamics (explicit
transition matrices, Monte Carlo of the fading events, brute series
summation), deliberately avoiding the closed forms under test.
"""
from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from ehcog.params import (
    OutageProfile,
    PolicyFb,
    PolicyNoFb,
    Scheme,
    SensingQuality,
    TrafficParams,
)
from ehcog.simulator import (
    N_BATCHES,
    STREAMS,
    SimSemantics,
    SimStats,
    _batch_mean_ci,
)


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of a finite stochastic matrix via the linear
    system pi (P - I) = 0, sum(pi) = 1, with a residual self-check."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    assert np.max(np.abs(pi @ P - pi)) < 1e-10
    return pi


def stationary_power(P: np.ndarray, iters: int = 200_000, tol: float = 1e-14):
    """Plain power iteration; slower, used to spot-check stationary() on
    small chains."""
    n = P.shape[0]
    v = np.full(n, 1.0 / n)
    for i in range(iters):
        w = v @ P
        if i % 50 == 0 and np.abs(w - v).sum() < tol:
            return w / w.sum()
        v = w
    return v / v.sum()


def single_phase_chain(lam: float, mu: float, k_max: int) -> np.ndarray:
    """Truncated transition matrix of the primary queue under the sensing-
    only scheme: one departure attempt per busy slot (success prob mu),
    Bernoulli(lam) arrivals joining at slot end.  Up-moves at the truncation
    level fold into staying."""
    n = k_max + 1
    P = np.zeros((n, n))
    P[0, 0] = 1.0 - lam
    if n > 1:
        P[0, 1] = lam
    for k in range(1, n):
        down = mu * (1.0 - lam)
        up = (1.0 - mu) * lam
        stay = 1.0 - down - up
        P[k, k - 1] = down
        if k + 1 < n:
            P[k, k] = stay
            P[k, k + 1] = up
        else:
            P[k, k] = stay + up
    return P


def two_phase_chain(lam: float, alpha: float, gamma: float, k_max: int):
    """Truncated transition matrix of the primary queue under the
    retransmission-aware scheme, plus the state labels.

    States: 0 (empty), then (k, F) and (k, R) for k = 1..k_max, where F
    means the head packet has not been attempted before (success prob
    alpha) and R means it was NACKed at least once (success prob gamma).
    A failure turns the head into R; a success promotes the next packet
    (fresh) or empties the queue.  Arrivals Bernoulli(lam) at slot end.
    """
    idx = {0: 0}
    labels = [0]
    for k in range(1, k_max + 1):
        idx[(k, "F")] = len(labels)
        labels.append((k, "F"))
        idx[(k, "R")] = len(labels)
        labels.append((k, "R"))
    n = len(labels)
    P = np.zeros((n, n))

    def add(src, dst, p):
        P[idx[src], idx[dst]] += p

    add(0, 0, 1.0 - lam)
    add(0, (1, "F"), lam)
    for k in range(1, k_max + 1):
        for phase, succ in (("F", alpha), ("R", gamma)):
            src = (k, phase)
            down = 0 if k == 1 else (k - 1, "F")
            add(src, down, succ * (1.0 - lam))
            add(src, (k, "F"), succ * lam)
            up_k = min(k + 1, k_max)  # fold the top level's up-move
            add(src, (k, "R"), (1.0 - succ) * (1.0 - lam))
            add(src, (up_k, "R"), (1.0 - succ) * lam)
    return P, labels


def collect_two_phase(pi_vec: np.ndarray, labels, k_max: int):
    """Split a stationary vector of two_phase_chain into per-level (pi, eps)
    arrays indexed by queue length."""
    pi = np.zeros(k_max + 1)
    eps = np.zeros(k_max + 1)
    for prob, label in zip(pi_vec, labels):
        if label == 0:
            pi[0] = prob
        elif label[1] == "F":
            pi[label[0]] = prob
        else:
            eps[label[0]] = prob
    return pi, eps


def mc_success_solo(link, i, mode, n_draws: int, rng: np.random.Generator):
    """Monte Carlo estimate (p_hat, stderr) of the solo success event:
    exponential channel gain supports rate r_i."""
    from ehcog.outage import _effective_snr, _snr_threshold

    thr = _snr_threshold(link, i)
    snr = _effective_snr(link, i, mode)
    beta = rng.exponential(link.fading_mean, n_draws)
    hits = snr * beta > thr
    p = hits.mean()
    return p, np.sqrt(max(p * (1.0 - p), 1e-300) / n_draws)


def mc_success_concurrent(link, interferer_snr, i, mode, n_draws, rng):
    """Monte Carlo estimate of the success event under one exponentially
    faded interferer: SINR = snr*beta / (1 + X), X ~ Exp(interferer_snr)."""
    from ehcog.outage import _effective_snr, _snr_threshold

    thr = _snr_threshold(link, i)
    snr = _effective_snr(link, i, mode)
    beta = rng.exponential(link.fading_mean, n_draws)
    interference = (
        rng.exponential(interferer_snr, n_draws)
        if interferer_snr > 0
        else np.zeros(n_draws)
    )
    hits = snr * beta > thr * (1.0 + interference)
    p = hits.mean()
    return p, np.sqrt(max(p * (1.0 - p), 1e-300) / n_draws)


def series_delay(level_masses: np.ndarray, lam: float) -> float:
    """Mean delay via Little's law from per-level stationary masses."""
    k = np.arange(len(level_masses))
    return float(np.sum(k * level_masses) / lam)


def pattern_search_one(problem, x0):
    """Pattern search from a single start, one sweep loop per start: the
    reference for the lockstep search in ehcog.optimizer, with the search
    constants read from that module at call time.  Returns
    (x, merit, n_evals)."""
    from ehcog import optimizer

    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    m = float(optimizer._merit(problem, x[:, None])[0])
    n_evals = 1
    dirs = optimizer._directions(x.size)
    h = optimizer.INIT_STEP
    for _ in range(optimizer.MAX_SWEEPS):
        P = np.clip(x + h * dirs, 0.0, 1.0)
        keep = np.any(P != x, axis=1)
        P = P[keep]
        scores = optimizer._merit(problem, P.T)
        n_evals += P.shape[0]
        i = int(np.argmax(scores))
        if scores[i] > m + 1e-15:
            x, m = P[i], float(scores[i])
        else:
            h *= optimizer.SHRINK
            if h < optimizer.MIN_STEP:
                break
    return x, m, n_evals


def _grid_points(vals, d, chunk):
    """The Cartesian grid as (n, d) point matrices of at most chunk rows (or
    single points when one axis alone exceeds it), in lexicographic order."""
    m = len(vals)
    inner = 0
    while inner < d and m ** (inner + 1) <= chunk:
        inner += 1
    outer = d - inner
    mesh = np.meshgrid(*([vals] * inner), indexing="ij") if inner else []
    tail = np.column_stack([g.ravel(order="C") for g in mesh]) if inner else None
    for prefix in itertools.product(vals, repeat=outer):
        if inner == 0:
            yield np.array(prefix)[None, :]
        elif outer == 0:
            yield tail
        else:
            X = np.empty((tail.shape[0], d))
            X[:, :outer] = prefix
            X[:, outer:] = tail
            yield X


def scan_grid_points(problem, step, feasible_only):
    """Two-pass grid scan over materialised (n, d) point matrices: the
    reference for the broadcast one-pass scan in ehcog.optimizer, with
    GRID_CHUNK and TIE_TOL read from that module at call time.

    Pass 1 finds the best score (mu_s over feasible points if feasible_only,
    else the merit); pass 2 returns the first point in lexicographic order
    scoring within TIE_TOL of it.  Returns (x or None, best, n_evals).
    """
    from ehcog import optimizer

    d = optimizer._dim(problem.scheme)
    vals = optimizer._grid_values(step)
    best = -math.inf
    n_evals = 0
    for X in _grid_points(vals, d, optimizer.GRID_CHUNK):
        n_evals += X.shape[0]
        if feasible_only:
            mu_s, _, _, _, feas = optimizer._evaluate(problem, X.T)
            if np.any(feas):
                best = max(best, float(np.max(mu_s[feas])))
        else:
            best = max(best, float(np.max(optimizer._merit(problem, X.T))))
    if not math.isfinite(best):
        return None, best, n_evals
    for X in _grid_points(vals, d, optimizer.GRID_CHUNK):
        if feasible_only:
            mu_s, _, _, _, feas = optimizer._evaluate(problem, X.T)
            score = np.where(feas, mu_s, -math.inf)
        else:
            score = optimizer._merit(problem, X.T)
        hits = np.flatnonzero(score >= best - optimizer.TIE_TOL)
        if hits.size:
            return X[hits[0]].copy(), best, n_evals
    raise AssertionError("second grid pass lost the winner")


def solve_per_start(problem, cfg):
    """solve() with every start searched on its own by pattern_search_one."""
    from ehcog.optimizer import _pick, _start_points

    starts, audit_evals = _start_points(problem, cfg)
    runs = [pattern_search_one(problem, x0) for x0 in starts]
    X = np.array([x for x, _, _ in runs])
    M = [m for _, m, _ in runs]
    return _pick(problem, X, M, audit_evals + sum(n for _, _, n in runs))


def run_slots(
    scheme: Scheme,
    policy: PolicyNoFb,
    profile: OutageProfile,
    sensing: SensingQuality,
    traffic: TrafficParams,
    semantics: SimSemantics = SimSemantics.EXACT,
    n_slots: int = 1_000_000,
    seed: int = 0,
) -> SimStats:
    """The slot simulator with every statistic accumulated inside its loop:
    the reference for ehcog.simulator.run, which must match it bit for bit."""
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
