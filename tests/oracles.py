"""Independent reference implementations used only by the tests.

Everything here is built directly from the slot dynamics (explicit
transition matrices, Monte Carlo of the fading events, brute series
summation), deliberately avoiding the closed forms under test.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


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
