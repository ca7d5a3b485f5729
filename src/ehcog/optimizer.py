"""Constrained maximisation of the secondary throughput over policy vectors.

Decision variables are the sensing/access probabilities in the fixed order
(p_sense, p_access_free, p_access_busy, p_access_direct[, p_access_retx]);
the random-access scheme collapses to the single variable p_access_direct.
Constraints: primary stability lam_p <= mu - STABILITY_MARGIN (mu is mu_p
for the sensing-only scheme, eta for the retransmission-aware one) and mean
primary delay <= delay_bound + DELAY_SLACK.  Both tests, like the rates and
the delay, come from the scheme's operating_point(), the closed forms that
analyze() reads too, so a result is feasible exactly when analyze() calls
its policy delay_feasible.

solve() is a multi-start pattern search over a tiered merit function
(feasible points score their throughput, delay violators score in [-2,-1),
unstable points below -2), seeded with scrambled Sobol points plus the all-
zero and all-one corners plus the best point of a coarse internal audit
grid, so the result can never fall below that grid.  grid_oracle() is the
brute-force reference used by the acceptance tests.  Both are deterministic
for a fixed config.  The objective is smooth but nonconvex, hence the
derivative-free search; dimension is at most 5.

The pattern search moves all starts in lockstep: each sweep scores the
moved probes of every still-active start in one closed-form batch, then
applies the accept / shrink / retire rules to each start on its own.  The
batch changes nothing numerically: _evaluate and _merit use only
elementwise IEEE operations (+, -, *, /, clip, where) and no reduction
mixes points, so a point scores the same bits in any batch, and a row-wise
argmax over scores with unmoved probes masked to -inf picks the same first
index as an argmax over the moved probes alone.  Each start therefore
follows exactly the path it would follow searched by itself.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import feedback, nofeedback
from .nofeedback import STABILITY_MARGIN
from .params import (
    OutageProfile,
    PolicyFb,
    PolicyNoFb,
    Scheme,
    SensingQuality,
    TrafficParams,
)

#: policy-vector component names per scheme, in lexicographic-tie-break order
VAR_NAMES = {
    Scheme.NOFEEDBACK: ("p_sense", "p_access_free", "p_access_busy", "p_access_direct"),
    Scheme.FEEDBACK: (
        "p_sense",
        "p_access_free",
        "p_access_busy",
        "p_access_direct",
        "p_access_retx",
    ),
    Scheme.RANDOM_ACCESS: ("p_access_direct",),
}


@dataclass(frozen=True)
class OptProblem:
    scheme: Scheme
    profile: OutageProfile
    sensing: SensingQuality
    traffic: TrafficParams

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of solve().  Identical configs give identical results.

    n_starts    number of scrambled-Sobol initial points (>= 32)
    seed        seed for the Sobol scrambling
    max_sweeps  pattern-search sweep budget per start
    init_step / shrink / min_step  probe step schedule
    audit_step  internal coarse grid whose best point seeds one start
    tie_tol     throughput window treated as a tie (broken lexicographically)

    The stability margin and the delay slack are not knobs: they are
    nofeedback.STABILITY_MARGIN and DELAY_SLACK, which analyze() applies too.
    """

    n_starts: int = 64
    seed: int = 0
    max_sweeps: int = 500
    init_step: float = 0.25
    shrink: float = 0.5
    min_step: float = 1e-6
    audit_step: float = 0.1
    tie_tol: float = 1e-12

    def __post_init__(self):
        if self.n_starts < 32:
            raise ValueError("n_starts must be >= 32")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.audit_step <= 0.5:
            raise ValueError("audit_step must be in (0, 0.5]")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must be in (0, 1)")
        if not 0.0 < self.min_step <= self.init_step <= 0.5:
            raise ValueError("need 0 < min_step <= init_step <= 0.5")


@dataclass(frozen=True)
class SolverMeta:
    n_starts: int
    n_evals: int
    best_start: int  # index into the start list; -1 for grid_oracle results


@dataclass(frozen=True)
class OptResult:
    policy: PolicyNoFb  # PolicyFb for the feedback scheme
    mu_s: float
    mu_p: float
    delay: float
    feasible: bool
    meta: SolverMeta


def _dim(scheme: Scheme) -> int:
    return len(VAR_NAMES[scheme])


def _policy_from_vector(scheme: Scheme, x) -> PolicyNoFb:
    """Map a point of the unit box to a policy dataclass.  Accepts arrays in
    the columns, in which case the fields hold arrays."""
    if scheme is Scheme.RANDOM_ACCESS:
        return PolicyNoFb(0.0, 0.0, 0.0, x[0])
    if scheme is Scheme.NOFEEDBACK:
        return PolicyNoFb(x[0], x[1], x[2], x[3])
    return PolicyFb(x[0], x[1], x[2], x[3], x[4])


def _vector_from_policy(scheme: Scheme, policy: PolicyNoFb) -> np.ndarray:
    return np.array([getattr(policy, name) for name in VAR_NAMES[scheme]])


def _evaluate(problem: OptProblem, X: np.ndarray):
    """Vectorised constraint/objective evaluation: a thin call into the
    scheme's closed forms, the same ones analyze() reads.

    X has shape (n, d).  Returns (mu_s, mu_eff, delay, stable, feasible)
    arrays of length n, where mu_eff is the service rate the stability
    constraint compares against.  Entries of mu_s and delay at unstable
    points are unreliable and must be read through the masks.
    """
    mod = feedback if problem.scheme is Scheme.FEEDBACK else nofeedback
    pol = _policy_from_vector(problem.scheme, X.T)
    point = mod.operating_point(problem.profile, pol, problem.sensing, problem.traffic)
    return point.mu_s, point.mu_eff, point.delay, point.stable, point.feasible


def _merit(problem: OptProblem, X: np.ndarray):
    """Tiered score: feasible -> mu_s (>= 0); stable but delay-violating ->
    (-2, -1]; unstable -> (-3, -2].  Higher is better in every tier."""
    lam_p = problem.traffic.lam_p
    d_bound = problem.traffic.delay_bound
    mu_s, mu_eff, delay, stable, feasible = _evaluate(problem, X)
    with np.errstate(invalid="ignore", over="ignore"):
        excess = np.maximum(delay - d_bound, 0.0)
        delay_score = -1.0 - excess / (1.0 + excess)
        viol = np.clip(lam_p - (mu_eff - STABILITY_MARGIN), 0.0, 1.0)
        unstable_score = -2.0 - viol
        out = np.where(feasible, mu_s, np.where(stable, delay_score, unstable_score))
    return out


def _grid_values(step: float) -> np.ndarray:
    n = round(1.0 / step)
    if abs(n * step - 1.0) < 1e-9:
        return np.linspace(0.0, 1.0, n + 1)
    vals = np.arange(0.0, 1.0 + step * 0.5, step)
    if vals[-1] < 1.0 - 1e-9:
        vals = np.append(vals, 1.0)
    return vals


def _grid_chunks(vals: np.ndarray, d: int, max_chunk: int = 1 << 21):
    """Yield (prefix_tuple, X) pieces of the full Cartesian grid in
    lexicographic order.  The trailing dims are vectorised via meshgrid."""
    m = len(vals)
    inner = 0
    while inner < d and m ** (inner + 1) <= max_chunk:
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


def _scan_grid(problem, step, tie_tol, feasible_only, max_chunk=1 << 21):
    """Two-pass exhaustive grid scan in lexicographic order.

    Pass 1 finds the best score (mu_s over feasible points if feasible_only,
    else the merit); pass 2 returns the first point scoring within tie_tol
    of it.  Returns (x or None, best_score, n_evals).  The chunk size only
    bounds the memory of one closed-form batch: the scores are elementwise
    and the chunks come in lexicographic order, so the result is the same
    for every max_chunk.
    """
    d = _dim(problem.scheme)
    vals = _grid_values(step)
    best = -math.inf
    n_evals = 0
    for X in _grid_chunks(vals, d, max_chunk):
        n_evals += X.shape[0]
        if feasible_only:
            mu_s, _, _, _, feas = _evaluate(problem, X)
            if np.any(feas):
                best = max(best, float(np.max(mu_s[feas])))
        else:
            best = max(best, float(np.max(_merit(problem, X))))
    if not math.isfinite(best):
        return None, best, n_evals
    for X in _grid_chunks(vals, d, max_chunk):
        if feasible_only:
            mu_s, _, _, _, feas = _evaluate(problem, X)
            score = np.where(feas, mu_s, -math.inf)
        else:
            score = _merit(problem, X)
        hits = np.flatnonzero(score >= best - tie_tol)
        if hits.size:
            return X[hits[0]].copy(), best, n_evals
    raise AssertionError("second grid pass lost the winner")  # pragma: no cover


def _finish(problem: OptProblem, x, feasible: bool, meta: SolverMeta) -> OptResult:
    """Package a winner (or the silent policy when infeasible), recomputing
    the reported figures through the public scalar analysis path so they
    match later hand recomputation bit for bit."""
    if not feasible:
        x = np.zeros(_dim(problem.scheme))
    policy = _policy_from_vector(problem.scheme, [float(v) for v in x])
    if problem.scheme is Scheme.FEEDBACK:
        report = feedback.analyze(problem.profile, policy, problem.sensing, problem.traffic)
    else:
        report = nofeedback.analyze(problem.profile, policy, problem.sensing, problem.traffic)
    return OptResult(
        policy=policy,
        mu_s=report.mu_s if feasible else 0.0,
        mu_p=report.mu_p,
        delay=report.delay,
        feasible=feasible,
        meta=meta,
    )


def grid_oracle(problem: OptProblem, step: float, tie_tol: float = 1e-12) -> OptResult:
    """Exhaustive search over the Cartesian policy grid with the given step.

    Returns the best feasible grid point (lexicographically smallest among
    ties), or the silent policy with feasible=False when no grid point is
    feasible.  Intended as the brute-force reference for solve().
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    x, best, n_evals = _scan_grid(problem, step, tie_tol, True)
    meta = SolverMeta(n_starts=0, n_evals=n_evals, best_start=-1)
    return _finish(problem, x, x is not None, meta)


def _directions(d: int) -> np.ndarray:
    """Axis moves plus all two-coordinate diagonals.  The diagonals let the
    search slide along curved active-constraint surfaces (e.g. the delay
    boundary), where single-coordinate moves stall."""
    dirs = []
    for j in range(d):
        for s in (1.0, -1.0):
            v = np.zeros(d)
            v[j] = s
            dirs.append(v)
    for j in range(d):
        for k in range(j + 1, d):
            for sj in (1.0, -1.0):
                for sk in (1.0, -1.0):
                    v = np.zeros(d)
                    v[j], v[k] = sj, sk
                    dirs.append(v)
    return np.array(dirs)


def _pattern_search(problem, X0, cfg: SolverConfig):
    """Generating-set pattern search with box projection, maximising the
    merit from every row of X0 in lockstep.

    Each iteration is one sweep of every still-active start: its probes
    clip(x + h * dirs) that actually move are scored in one shared _merit
    batch, the best probe (first index among equals) is taken if it beats
    the start's merit by more than 1e-15, otherwise the start's step shrinks
    and the start retires once the step drops below min_step.  Returns the
    per-start arrays (X, merit, n_evals).  Deterministic.
    """
    X = np.clip(np.asarray(X0, dtype=float), 0.0, 1.0)
    M = _merit(problem, X)
    n_evals = np.ones(X.shape[0], dtype=np.int64)
    dirs = _directions(X.shape[1])
    h = np.full(X.shape[0], cfg.init_step)
    active = np.arange(X.shape[0])
    for _ in range(cfg.max_sweeps):
        x = X[active][:, None, :]
        P = np.clip(x + h[active, None, None] * dirs, 0.0, 1.0)
        keep = np.any(P != x, axis=2)
        scores = np.full(keep.shape, -math.inf)
        scores[keep] = _merit(problem, P[keep])
        n_evals[active] += keep.sum(axis=1)
        rows = np.arange(active.size)
        best = np.argmax(scores, axis=1)
        top = scores[rows, best]
        up = top > M[active] + 1e-15
        X[active[up]] = P[rows[up], best[up]]
        M[active[up]] = top[up]
        h[active[~up]] *= cfg.shrink
        active = active[h[active] >= cfg.min_step]
        if not active.size:
            break
    return X, M, n_evals


#: points per closed-form batch of solve()'s audit grid.  The sweep runs
#: solves on a thread pool; whole-grid batches (161k points and ~29 MB of
#: temporaries at d = 5) made the process's peak memory depend on whether
#: two audits happened to overlap.  At 11^4 points an audit peaks near 3 MB
#: and runs faster; its second pass also stops at the chunk of the winner.
AUDIT_CHUNK = 1 << 14


def _start_points(problem: OptProblem, cfg: SolverConfig):
    """The (n_starts + 3, d) start matrix of solve() and the evaluations its
    audit grid spent."""
    from scipy.stats import qmc  # deferred: the only scipy use, and slow to import

    d = _dim(problem.scheme)
    audit_x, _, audit_evals = _scan_grid(problem, cfg.audit_step, cfg.tie_tol, False, AUDIT_CHUNK)
    sobol = qmc.Sobol(d, scramble=True, seed=cfg.seed)
    starts = np.vstack([audit_x, np.zeros(d), np.ones(d), sobol.random(cfg.n_starts)])
    return starts, audit_evals


def _pick(problem: OptProblem, cfg: SolverConfig, X, M, n_evals: int) -> OptResult:
    """Best start by merit, ties within tie_tol broken lexicographically."""
    best_m = max(M)
    best_i = -1
    best_x = None
    for i, (m, x) in enumerate(zip(M, X)):
        if m >= best_m - cfg.tie_tol:
            if best_x is None or tuple(x) < tuple(best_x):
                best_i, best_x = i, x
    meta = SolverMeta(n_starts=len(X), n_evals=n_evals, best_start=best_i)
    return _finish(problem, best_x, bool(best_m >= 0.0), meta)


def solve(problem: OptProblem, config: SolverConfig | None = None) -> OptResult:
    """Multi-start pattern search for the best policy of the given problem.

    The start list is: the best merit point of the internal audit grid, the
    all-zero (silent) and all-one corners, then config.n_starts scrambled
    Sobol points.  Because the silent policy maximises the primary service
    rate and minimises its delay, the problem is feasible iff the silent
    start lands in the feasible tier, so infeasibility detection is exact.

    All starts are searched in lockstep, one closed-form batch per sweep.
    The closed forms are elementwise, so every point scores exactly as it
    would in a batch of its own, and each start follows the same path as a
    search run from it alone.
    """
    cfg = config or SolverConfig()
    starts, audit_evals = _start_points(problem, cfg)
    X, M, used = _pattern_search(problem, starts, cfg)
    return _pick(problem, cfg, X, M, audit_evals + int(used.sum()))
