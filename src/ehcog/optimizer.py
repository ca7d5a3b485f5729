"""Constrained maximisation of the secondary throughput over policy vectors.

Decision variables are the policy fields of scheme.variables, in that
order (p_sense, p_access_free, p_access_busy, p_access_direct[,
p_access_retx]); the random-access scheme has p_access_direct alone.
Constraints: primary stability lam_p <= eta - STABILITY_MARGIN (eta is the
aggregate service rate of the primary chain, mu_p for the sensing-only
scheme) and mean primary delay <= delay_bound + DELAY_SLACK.  Both tests,
like the rates and the delay, come from scheme.analysis.operating_point(),
the one chain's closed forms that analyze() reads too, so a result is
feasible exactly when analyze() calls its policy delay_feasible.

solve() is a multi-start pattern search over a tiered merit function
(feasible points score their throughput, delay violators score in [-2,-1),
unstable points below -2), seeded with scrambled Sobol points plus the all-
zero and all-one corners plus the best point of a coarse internal audit
grid, so the result can never fall below that grid.  A grid scores mu_s at
feasible points and -inf elsewhere.  The silent policy lies on every grid
and maximises mu_p (alpha and gamma under feedback), so if it fails the
constraints every policy does: an audit grid with no feasible point ends
solve() without a search.  grid_oracle() is the brute-force reference used
by the acceptance tests.  Both are deterministic for a fixed config.  The
objective is smooth but nonconvex, hence the derivative-free search;
dimension is at most 5.

The search is fixed by module constants, not by config: MAX_SWEEPS sweeps
per start at most, probe steps from INIT_STEP shrinking by SHRINK until a
start retires below MIN_STEP, an internal audit grid of step AUDIT_STEP,
and TIE_TOL as the window within which two scores tie (ties go to the
lexicographically smallest point).  Every grid scan, the audit's and
grid_oracle()'s, scores GRID_CHUNK points per closed-form batch at most.

A grid scan is one fiber scan for every scheme (_scan_grid).  A fiber is
the grid values of the scheme's last variable at fixed other fields.  One
pass keeps each fiber's best score and one walk scores the fibers within
2 TIE_TOL of the best in full, in lexicographic order, for the winner: the
first point within TIE_TOL of the best.  A sensing-only or random-access
fiber is scored in full in the pass too.  A feedback fiber is scored at its
ends and at its feasible edge, which feedback.retx_cap reads off the delay
and stability bounds in closed form; n_evals still counts every grid
point.  A chunk is never spelled out as a point matrix: its outer
coordinates are scalars and its inner ones broadcast axes, so each
quantity is computed only over the axes it depends on.  The bits do not
change: every point's score comes from the same elementwise IEEE
operations on the same operands.

The pattern search moves all starts in lockstep: each sweep scores the
moved probes of every still-active start in shared closed-form batches,
then applies the accept / shrink / retire rules to each start on its own.
The batch changes nothing numerically: _evaluate and _merit use only
elementwise IEEE operations (+, -, *, /, clip, where) and no reduction
mixes points, so a point scores the same bits in any batch, and a per-start
argmax over scores with unmoved probes masked to -inf picks the same first
index as an argmax over the moved probes alone.  Each start therefore
follows exactly the path it would follow searched by itself.

solve_many() extends the lockstep across problems: all starts of all
problems of one scheme share one search.  Each probe reads its problem's
numbers (lam_p, lam_e, delay bound, profile and sensing fields) through a
row -> problem owner index, gathered per batch from a table built once per
group, with a plain scalar wherever all problems agree.  The bits still
hold, because an elementwise operation gives the same result whether an
operand is a scalar or that scalar repeated in an array.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import feedback, nofeedback
from .nofeedback import STABILITY_MARGIN
from .params import (
    OutageProfile,
    PolicyNoFb,
    Scheme,
    SensingQuality,
    TrafficParams,
    unchecked,
)

@dataclass(frozen=True)
class OptProblem:
    scheme: Scheme
    profile: OutageProfile
    sensing: SensingQuality
    traffic: TrafficParams

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")


#: pattern-search sweep budget per start
MAX_SWEEPS = 500
#: probe step schedule: first step, shrink factor on a failed sweep, and the
#: step below which a start retires
INIT_STEP = 0.25
SHRINK = 0.5
MIN_STEP = 1e-6
#: step of solve()'s internal audit grid, whose best point seeds one start
AUDIT_STEP = 0.1
#: score window treated as a tie (broken lexicographically)
TIE_TOL = 1e-12
#: most points (fiber heads, in a feedback scan's pass) per closed-form batch
#: of every grid scan.  Scoring a batch costs about 42-47 ns a point at
#: 16k-33k points against 67-71 ns at 131k, where its temporaries no longer
#: fit in cache (either scheme, on a 2-vCPU x86-64 VM).  The cap also holds a
#: scan's traced peak memory to 1-3 MB at steps 0.1-0.02.
GRID_CHUNK = 1 << 14
#: Joe & Kuo (2008) primitive polynomials and initial direction numbers of
#: the first five Sobol dimensions, as in their new-joe-kuo-6.21201 table
#: (the first dimension takes neither), and the bits of a Sobol coordinate
SOBOL_POLY = (1, 3, 7, 11, 13)
SOBOL_VINIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1))
SOBOL_BITS = 30
#: numpy's SeedSequence hash constants: the two hashmix streams (initial
#: value, multiplier), the mix multipliers and the xorshift, all mod 2**32
SEED_HASH_A = (0x43B0D7E5, 0x931E8875)
SEED_HASH_B = (0x8B51F9DD, 0x58F38DED)
SEED_MIX = (0xCA01F9DD, 0x4973F715)
SEED_XSHIFT = 16
#: the 128-bit multiplier of PCG64's LCG (O'Neill 2014)
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


@dataclass(frozen=True)
class SolverConfig:
    """The settings of solve().  Identical configs give identical results.

    n_starts    number of scrambled-Sobol initial points (>= 32)
    seed        seed for the Sobol scrambling (>= 0); the points are those
                of scipy.stats.qmc.Sobol(d, scramble=True, seed=seed), drawn
                without scipy or numpy.random: a plain-Python port of
                numpy's SeedSequence and PCG64 draws the scrambling bits
                (see _sobol_points)

    The search itself is fixed by the module constants MAX_SWEEPS,
    INIT_STEP, SHRINK, MIN_STEP, AUDIT_STEP and TIE_TOL.  The stability
    margin and the delay slack are nofeedback.STABILITY_MARGIN and
    DELAY_SLACK, which analyze() applies too.
    """

    n_starts: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("n_starts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_starts < 32:
            raise ValueError("n_starts must be >= 32")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class SolverMeta:
    n_starts: int
    n_evals: int
    best_start: int  # index into the start list; -1 when no search ran (grid_oracle, infeasible)


@dataclass(frozen=True)
class OptResult:
    policy: PolicyNoFb  # PolicyFb for the feedback scheme
    mu_s: float
    mu_p: float
    delay: float
    feasible: bool
    meta: SolverMeta


def _policy_from_vector(scheme: Scheme, x) -> PolicyNoFb:
    """Map a point of the unit box to a policy dataclass.  Accepts arrays in
    the columns, in which case the fields hold arrays.  Every point the
    optimizer makes is a grid value or clipped to [0, 1], so the policy is
    built without the range checks that outside input gets."""
    if scheme is Scheme.RANDOM_ACCESS:
        return unchecked(PolicyNoFb, 0.0, 0.0, 0.0, x[0])
    return unchecked(scheme.policy_class, *x)


def _evaluate(problem: OptProblem, cols):
    """Vectorised constraint/objective evaluation: a thin call into the
    scheme's closed forms, the same ones analyze() reads.

    cols is a sequence of d broadcastable policy columns in the order of
    problem.scheme.variables: the rows of X.T for an (n, d) point matrix X,
    or a grid chunk's scalars and open-grid axes.  The fields of problem may
    hold one value per point (see _point_problems).  Returns
    (mu_s, eta, delay, stable, feasible) arrays of the broadcast shape,
    where eta is the service rate the stability constraint compares
    against.  Entries of mu_s and delay at unstable points are unreliable
    and must be read through the masks.
    """
    pol = _policy_from_vector(problem.scheme, cols)
    point = problem.scheme.analysis.operating_point(
        problem.profile, pol, problem.sensing, problem.traffic
    )
    return point.mu_s, point.eta, point.delay, point.stable, point.feasible


def _merit(problem: OptProblem, cols):
    """Tiered score of the policy columns cols (as for _evaluate): feasible
    -> mu_s (>= 0); stable but delay-violating -> (-2, -1]; unstable ->
    (-3, -2].  Higher is better in every tier."""
    lam_p = problem.traffic.lam_p
    d_bound = problem.traffic.delay_bound
    mu_s, eta, delay, stable, feasible = _evaluate(problem, cols)
    with np.errstate(invalid="ignore", over="ignore"):
        excess = np.maximum(delay - d_bound, 0.0)
        delay_score = -1.0 - excess / (1.0 + excess)
        viol = np.clip(lam_p - (eta - STABILITY_MARGIN), 0.0, 1.0)
        unstable_score = -2.0 - viol
        out = np.where(feasible, mu_s, np.where(stable, delay_score, unstable_score))
    return out


@functools.cache
def _keep_temporaries_on_heap() -> None:
    """Free one untouched 16 MB block, once per process.

    Every closed-form batch makes short-lived temporaries of 64-320 KB.
    glibc malloc serves a block above its mmap threshold (128 KB at start)
    by a fresh mmap, and trims free memory above its trim threshold off the
    heap top, so without this each batch faults its temporaries' pages in
    anew: about 60k minor page faults per fig4 sweep, against under 10 with
    it.  Freeing an mmapped block raises the mmap threshold to the block's
    size and the trim threshold to twice that (dynamic thresholds, see
    mallopt(3)), so later temporaries reuse heap pages.  16 MB is far above
    any temporary and below the 32 MB past which glibc stops raising them.
    np.empty touches no page of the block, so this costs no memory; under
    another allocator it is just a free.
    """
    np.empty(16 << 20, dtype=np.uint8)


def _grid_values(step: float) -> np.ndarray:
    n = round(1.0 / step)
    if abs(n * step - 1.0) < 1e-9:
        return np.linspace(0.0, 1.0, n + 1)
    vals = np.arange(0.0, 1.0 + step * 0.5, step)
    if vals[-1] < 1.0 - 1e-9:
        vals = np.append(vals, 1.0)
    return vals


def _grid_chunks(vals: np.ndarray, d: int, size: int):
    """Yield the full d-D Cartesian grid in lexicographic order, in chunks of
    at most size points.  A chunk is its d policy columns: the outer prefix
    as scalars, then the inner axes as an open grid (np.ix_), whose
    broadcast shape, read in C order, lists the chunk's points
    lexicographically.  The inner axes are the whole trailing axes that fit
    in size; when k >= 2 copies of them still fit, the axis before them is
    walked in slices of k values, so the chunks stay full."""
    m = len(vals)
    inner = 0
    while inner < d and m ** (inner + 1) <= size:
        inner += 1
    k = size // m**inner
    if inner < d and k > 1:
        heads = [np.ix_(vals[i : i + k], *[vals] * inner) for i in range(0, m, k)]
        inner += 1
    else:
        heads = [np.ix_(*[vals] * inner)]
    for prefix in itertools.product(vals, repeat=d - inner):
        for axes in heads:
            yield (*prefix, *axes)


def _grid_score(problem, cols):
    """Score of a grid chunk: mu_s at feasible points and -inf elsewhere."""
    mu_s, _, _, _, feas = _evaluate(problem, cols)
    return np.where(feas, mu_s, -math.inf)


def _fiber_best(problem, cols, vals):
    """Best score of each fiber of a grid chunk: each point of the chunk
    cols heads the fiber of the m grid values of the last variable.
    Returns an array of the chunk's broadcast shape.

    A sensing-only or random-access fiber is scored in full.  A feedback
    fiber is scored at its ends, with alpha, idle and busy computed once
    per chunk.  Its best is at one of them unless it is rising and cut,
    feasible at the first value only: then its best is its last feasible
    value, the last grid value at or below feedback.retx_cap, which
    closed_forms confirms feasible with the next one infeasible, stepping
    one value at a time where rounding puts the cap off.  A fiber rises
    where mu_s at the last value, read whether feasible or not, is above
    mu_s at the first: the expression is the same on both sides of the
    feasibility edge.
    """
    if problem.scheme is not Scheme.FEEDBACK:
        return np.max(_grid_score(problem, (*(np.expand_dims(c, -1) for c in cols), vals)), axis=-1)
    profile, traffic = problem.profile, problem.traffic
    policy = unchecked(PolicyNoFb, *cols)
    alpha = nofeedback.primary_service_rate(profile, policy, problem.sensing, traffic.lam_e)
    idle, busy = nofeedback.service_brackets(profile, policy, problem.sensing)
    shape = np.broadcast_shapes(*map(np.shape, cols))
    alpha, idle, busy = (np.broadcast_to(v, shape).ravel() for v in (alpha, idle, busy))

    def score(j, rows=slice(None)):
        point = feedback.chain_at(profile, alpha[rows], idle[rows], busy[rows], vals[j], traffic)
        return np.where(point.feasible, point.mu_s, -math.inf), point.mu_s

    (first, mu_first), (last, mu_last) = score(0), score(-1)
    best = np.maximum(first, last)
    cut = np.flatnonzero((first > -math.inf) & (last == -math.inf) & ~(mu_last <= mu_first))
    cap = feedback.retx_cap(profile, alpha[cut], traffic)
    j = np.clip(np.searchsorted(vals, cap, side="right") - 1, 0, len(vals) - 2)
    while True:
        at = score(j, cut)[0]
        step = (score(j + 1, cut)[0] > -math.inf).astype(int) - (at == -math.inf)
        if not step.any():
            break
        j += step
    best[cut] = np.maximum(first[cut], at)
    return best.reshape(shape)


def _near_fibers(problem, chunks, vals, floor, threshold):
    """Score in full, through _grid_score, every fiber of the chunks whose
    _fiber_best is at least floor.  Returns the first of their points in
    lexicographic order that scores at least threshold (None if none does)
    and the best of their scores."""
    m = len(vals)
    per = max(1, GRID_CHUNK // m)
    x, top = None, -math.inf
    for cols in chunks:
        shape = np.broadcast_shapes(*map(np.shape, cols))
        near = np.flatnonzero(_fiber_best(problem, cols, vals).ravel() >= floor)
        heads = [np.broadcast_to(c, shape).ravel()[near] for c in cols]
        for i in range(0, near.size, per):
            part = [c[i : i + per] for c in heads]
            rows = _grid_score(problem, (*(c[:, None] for c in part), vals))
            top = max(top, float(np.max(rows)))
            hits = np.flatnonzero(rows >= threshold)
            if x is None and hits.size:
                f, j = divmod(int(hits[0]), m)
                x = np.array([*(c[f] for c in part), vals[j]])
    return x, top


def _scan_grid(problem, step):
    """Exhaustive grid scan, one fiber at a time.  Returns (x or None,
    best_score, n_evals), n_evals counting every grid point once.

    A fiber is the m grid values of the scheme's last variable
    (p_access_retx under feedback, p_access_direct otherwise) at fixed other
    fields, its head.  The pass walks the grid of heads in chunks of at most
    GRID_CHUNK points (GRID_CHUNK heads under feedback, whose pass scores a
    fiber at a few values only) and keeps each chunk's best fiber
    (_fiber_best), -inf for a chunk with no feasible point.  The fibers
    within 2 TIE_TOL of the best are then scored in full (_near_fibers), in
    lexicographic order of their heads, and the winner is the first of
    their points within TIE_TOL of the best: every fiber that holds such a
    point is among them.  A feedback fiber's interior can beat its ends by
    rounding alone, by a few ulps where it is flat in exact arithmetic (at
    alpha = 1, say), so if the full scores raise the best, the near fibers
    are walked once more.

    Under feedback, fix the other four fields: alpha, idle and busy are then
    fixed and gamma = p - lam_e (p - pc) pr falls as pr grows, so
    mu_s = lam_e [(1 - lam_p) idle + lam_p busy
    + lam_p (1 - alpha) (pr p_sec_full_conc - idle) / gamma]
    is linear-fractional in pr, hence monotone.  eta does not rise and the
    delay does not fall as pr grows, so the feasible values of a fiber are a
    prefix of it, and its best grid value is its first or its last feasible
    one.
    """
    vals = _grid_values(step)
    m, d = len(vals), len(problem.scheme.variables)
    size = GRID_CHUNK if problem.scheme is Scheme.FEEDBACK else GRID_CHUNK // m
    chunks = list(_grid_chunks(vals, d - 1, size))
    chunk_best = np.array([np.max(_fiber_best(problem, cols, vals)) for cols in chunks])
    best = float(np.max(chunk_best))
    if not math.isfinite(best):
        return None, best, m**d
    floor = best - 2 * TIE_TOL
    near = [chunks[k] for k in np.flatnonzero(chunk_best >= floor)]
    while True:
        x, top = _near_fibers(problem, near, vals, floor, best - TIE_TOL)
        if top <= best:
            return x, best, m**d
        best = top


def _finish(problem: OptProblem, x, meta: SolverMeta) -> OptResult:
    """Package a winner, or the silent policy as infeasible when x is None,
    recomputing the reported figures through the public scalar analysis
    path so they match later hand recomputation bit for bit."""
    feasible = x is not None
    if not feasible:
        x = np.zeros(len(problem.scheme.variables))
    policy = _policy_from_vector(problem.scheme, [float(v) for v in x])
    report = problem.scheme.analysis.analyze(
        problem.profile, policy, problem.sensing, problem.traffic
    )
    return OptResult(
        policy=policy,
        mu_s=report.mu_s if feasible else 0.0,
        mu_p=report.mu_p,
        delay=report.delay,
        feasible=feasible,
        meta=meta,
    )


def grid_oracle(problem: OptProblem, step: float) -> OptResult:
    """Exhaustive search over the Cartesian policy grid with the given step.

    Returns the best feasible grid point (lexicographically smallest among
    ties), or the silent policy with feasible=False when no grid point is
    feasible.  Intended as the brute-force reference for solve().
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    _keep_temporaries_on_heap()
    x, _, n_evals = _scan_grid(problem, step)
    return _finish(problem, x, SolverMeta(n_starts=0, n_evals=n_evals, best_start=-1))


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


#: the parts of a problem that hold its numbers, with their types
_PARTS = (("profile", OutageProfile), ("sensing", SensingQuality), ("traffic", TrafficParams))


def _problem_table(problems):
    """The numbers of a group of problems, once per group: for each field of
    each part, the problems' common value where they all agree bit for bit,
    else an array with one entry per problem."""

    def column(values):
        bits = np.array(values, dtype=float).view(np.uint64)
        return values[0] if np.all(bits == bits[0]) else bits.view(float)

    return {
        part: [column([getattr(getattr(p, part), f.name) for p in problems]) for f in fields(cls)]
        for part, cls in _PARTS
    }


def _point_problems(scheme: Scheme, table, owner):
    """The problem of a batch whose k-th point belongs to problem owner[k]
    of the table: every per-problem array of the table is gathered per
    point, and every common value stays a scalar."""

    def take(v):
        return v[owner] if isinstance(v, np.ndarray) else v

    parts = {part: unchecked(cls, *map(take, table[part])) for part, cls in _PARTS}
    return OptProblem(scheme, **parts)


def _pattern_search(problems, owner, X0):
    """Generating-set pattern search with box projection, maximising the
    merit from every row of X0 in lockstep.  Row i starts a search of
    problems[owner[i]]; all problems share one scheme.

    Each iteration is one sweep of every still-active start: its probes
    clip(x + h * dirs) that actually move are scored in shared _merit
    batches, the best probe (first index among equals) is taken if it beats
    the start's merit by more than 1e-15, otherwise the start's step shrinks
    and the start retires once the step drops below MIN_STEP.  Each probe
    reads its own start's problem through the owner index.  Returns the
    per-start arrays (X, merit, n_evals).  Deterministic.

    A batch holds whole starts and at most GRID_CHUNK // 2 probe points,
    half a grid chunk, because beside the closed-form temporaries it keeps
    every probe and a copy of the moved ones.  The probes are laid out
    (coordinate, direction, start), so each coordinate of the moved probes
    is one contiguous column for the closed forms.
    """
    scheme = problems[0].scheme
    table = _problem_table(problems)
    X = np.clip(np.asarray(X0, dtype=float), 0.0, 1.0)
    n, d = X.shape
    per_batch = GRID_CHUNK // 2
    M = np.empty(n)
    for i in range(0, n, per_batch):
        problem = _point_problems(scheme, table, owner[i : i + per_batch])
        M[i : i + per_batch] = _merit(problem, X[i : i + per_batch].T)
    n_evals = np.ones(n, dtype=np.int64)
    h = np.full(n, INIT_STEP)
    dirs = _directions(d).T[:, :, None]  # (coordinate, direction, 1)
    starts_per_batch = max(1, per_batch // dirs.shape[1])
    active = np.arange(n)
    for _ in range(MAX_SWEEPS):
        for i in range(0, active.size, starts_per_batch):
            rows = active[i : i + starts_per_batch]
            x = X[rows].T[:, None, :]
            P = np.clip(x + h[rows] * dirs, 0.0, 1.0)
            keep = np.any(P != x, axis=0)
            cols = np.compress(keep.ravel(), P.reshape(d, -1), axis=1)
            problem = _point_problems(scheme, table, np.broadcast_to(owner[rows], keep.shape)[keep])
            scores = np.full(keep.shape, -math.inf)
            scores[keep] = _merit(problem, cols)
            n_evals[rows] += keep.sum(axis=0)
            k = np.arange(rows.size)
            best = np.argmax(scores, axis=0)
            top = scores[best, k]
            up = top > M[rows] + 1e-15
            X[rows[up]] = P[:, best[up], k[up]].T
            M[rows[up]] = top[up]
            h[rows[~up]] *= SHRINK
        active = active[h[active] >= MIN_STEP]
        if not active.size:
            break
    return X, M, n_evals


def _sobol_directions(d: int) -> np.ndarray:
    """The (d, SOBOL_BITS) direction numbers of the first d Sobol dimensions,
    m_j * 2**(SOBOL_BITS - 1 - j), where m_j follows the Bratley-Fox
    recurrence of the dimension's polynomial from its initial numbers (the
    first dimension is all ones)."""
    v = np.ones((d, SOBOL_BITS), dtype=np.int64)
    for k in range(1, d):
        poly, m = SOBOL_POLY[k], SOBOL_POLY[k].bit_length() - 1
        row = list(SOBOL_VINIT[k])
        for j in range(m, SOBOL_BITS):
            new = row[j - m]
            for i in range(1, m + 1):
                if (poly >> (m - i)) & 1:
                    new ^= row[j - i] << i
            row.append(new)
        v[k] = row
    return v << np.arange(SOBOL_BITS - 1, -1, -1)


def _seed_hash(value: int, hash_const: int, mult: int) -> tuple[int, int]:
    """One hash step of numpy's SeedSequence, mod 2**32: the hashed value
    and the next hash constant."""
    next_const = hash_const * mult & MASK32
    value = (value ^ hash_const) * next_const & MASK32
    return value ^ value >> SEED_XSHIFT, next_const


def _seed_words(seed: int) -> list[int]:
    """numpy.random.SeedSequence(seed).generate_state(4, np.uint64).tolist().

    The seed's 32-bit words, least significant first (0 is one zero word),
    are hashed into a pool of 4 words and cross-mixed; words past the
    fourth are mixed into every pool word.  The pool is then hashed out,
    cycling, into 8 words, read pairwise as little-endian 64-bit words.
    """
    entropy = [seed >> k & MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = SEED_HASH_A[0]

    def hashmix(value):
        nonlocal hash_const
        value, hash_const = _seed_hash(value, hash_const, SEED_HASH_A[1])
        return value

    def mix(x, y):
        out = (SEED_MIX[0] * x - SEED_MIX[1] * y) & MASK32
        return out ^ out >> SEED_XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = SEED_HASH_B[0], []
    for i in range(8):
        value, hash_const = _seed_hash(pool[i % 4], hash_const, SEED_HASH_B[1])
        state.append(value)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _pcg64_words(seed: int, n: int) -> list[int]:
    """The first n 64-bit outputs of numpy.random.PCG64(seed).

    The seed words (s0, s1, i0, i1) give the 128-bit start s0:s1 and the
    odd increment 2 (i0:i1) + 1.  Seeding steps the LCG from 0, adds the
    start and steps again; each output steps first, then folds the state's
    halves together (XOR) and rotates right by its top 6 bits (XSL-RR).
    """
    w = _seed_words(seed)
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & MASK128
    state = ((inc + (w[0] << 64 | w[1])) * PCG64_MULT + inc) & MASK128
    words = []
    for _ in range(n):
        state = (state * PCG64_MULT + inc) & MASK128
        x = (state >> 64 ^ state) & MASK64
        rot = state >> 122
        words.append((x >> rot | x << (-rot & 63)) & MASK64)
    return words


def _coin_flips(seed: int, n: int) -> np.ndarray:
    """The n uint32 values that successive numpy.random.default_rng(seed)
    .integers(2, size=..., dtype=np.uint32) calls draw, n in total.

    Lemire's method for the range {0, 1} never rejects, so a flip is the top
    bit of one 32-bit draw.  PCG64 serves 32-bit draws as the low, then the
    high half of each 64-bit output, keeping a spare half across calls: the
    flips are bits 31 and 63 of each output in turn, one stream over the
    calls.
    """
    words = np.array(_pcg64_words(seed, (n + 1) // 2), dtype=np.uint64)
    bits = words[:, None] >> np.array([31, 63], dtype=np.uint64) & np.uint64(1)
    return bits.astype(np.uint32).ravel()[:n]


def _sobol_points(d: int, cfg: SolverConfig) -> np.ndarray:
    """The config's n_starts scrambled Sobol points in [0, 1)^d.

    These are the bits of scipy.stats.qmc.Sobol(d, scramble=True,
    seed=cfg.seed).random(n_starts), whose generator is
    np.random.default_rng(cfg.seed).  _coin_flips draws its bits without
    loading numpy.random: each dimension's digital shift (bits least
    significant first), then its lower-triangular scrambling matrix, whose
    diagonal is set to one (linear matrix scrambling, LMS).  Bit p of a
    scrambled direction number, most significant first, is row p of the
    matrix times the number's bits, mod 2: one batched product for all
    numbers.  The points then walk in Gray-code order from the shift, point
    k flipping the direction of the lowest set bit of k.
    """
    bit = 1 << np.arange(SOBOL_BITS, dtype=np.int64)
    msb_first = bit[::-1]
    flips = _coin_flips(cfg.seed, d * SOBOL_BITS * (1 + SOBOL_BITS))
    shift = flips[: d * SOBOL_BITS].reshape(d, SOBOL_BITS) @ bit
    lms = np.tril(flips[d * SOBOL_BITS :].reshape(d, SOBOL_BITS, SOBOL_BITS))
    lms[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
    v_bits = (_sobol_directions(d)[:, :, None] & msb_first) != 0  # (dim, j, bit)
    scrambled = ((v_bits @ lms.transpose(0, 2, 1)) & 1) @ msb_first  # (dim, j)
    k = np.arange(1, cfg.n_starts)
    lowest = np.argmax((k[:, None] & bit) != 0, axis=1)
    walk = np.bitwise_xor.accumulate(scrambled[:, lowest].T, axis=0)
    return np.vstack([shift, shift ^ walk]) * (1.0 / (1 << SOBOL_BITS))


def _start_points(problem: OptProblem, cfg: SolverConfig, sobol=None):
    """The (n_starts + 3, d) start matrix of a problem, with no rows if its
    audit grid holds no feasible point, and the evaluations that grid spent.
    sobol is _sobol_points of the problem's scheme, which every problem of
    that scheme shares; it is drawn here if not given."""
    d = len(problem.scheme.variables)
    audit_x, _, audit_evals = _scan_grid(problem, AUDIT_STEP)
    if audit_x is None:
        return np.empty((0, d)), audit_evals
    if sobol is None:
        sobol = _sobol_points(d, cfg)
    starts = np.vstack([audit_x, np.zeros(d), np.ones(d), sobol])
    return starts, audit_evals


def _pick(problem: OptProblem, X, M, n_evals: int) -> OptResult:
    """Best start by merit, ties within TIE_TOL broken lexicographically; it
    is feasible, as the audit start is and no start's merit ever falls.  No
    starts mean an infeasible problem."""
    if not len(X):
        return _finish(problem, None, SolverMeta(n_starts=0, n_evals=n_evals, best_start=-1))
    best_m = max(M)
    best_i = -1
    best_x = None
    for i, (m, x) in enumerate(zip(M, X)):
        if m >= best_m - TIE_TOL:
            if best_x is None or tuple(x) < tuple(best_x):
                best_i, best_x = i, x
    return _finish(problem, best_x, SolverMeta(n_starts=len(X), n_evals=n_evals, best_start=best_i))


def solve_many(problems, config: SolverConfig | None = None) -> list[OptResult]:
    """solve() for every problem of a list, in the list's order.

    The problems are grouped by scheme.  Each problem gets the start list
    solve() describes (none if infeasible), and all starts of a group, over
    all its problems, are searched in one lockstep pattern search.  Every
    start still follows exactly the path it follows when its problem is
    solved alone, so solve_many(ps, c)[k] == solve(ps[k], c).
    """
    cfg = config or SolverConfig()
    problems = list(problems)
    _keep_temporaries_on_heap()
    results: list = [None] * len(problems)
    for scheme in Scheme:
        index = [k for k, p in enumerate(problems) if p.scheme is scheme]
        if not index:
            continue
        group = [problems[k] for k in index]
        sobol = _sobol_points(len(scheme.variables), cfg)
        starts, audit_evals = zip(*(_start_points(p, cfg, sobol) for p in group))
        owner = np.repeat(np.arange(len(group)), [len(x0) for x0 in starts])
        X, M, used = _pattern_search(group, owner, np.vstack(starts))
        for j, k in enumerate(index):
            rows = owner == j
            results[k] = _pick(group[j], X[rows], M[rows], audit_evals[j] + int(used[rows].sum()))
    return results


def solve(problem: OptProblem, config: SolverConfig | None = None) -> OptResult:
    """Multi-start pattern search for the best policy of the given problem.

    The start list is: the best point of the internal audit grid, the
    all-zero (silent) and all-one corners, then config.n_starts scrambled
    Sobol points.  The silent policy is on the audit grid and maximises the
    primary service rate, so the problem is feasible iff that grid holds a
    feasible point, and infeasibility detection is exact.  An infeasible
    problem gets grid_oracle()'s answer without a search: the silent policy,
    feasible=False and SolverMeta(0, <audit grid size>, -1).

    All starts are searched in lockstep (see solve_many).  The closed forms
    are elementwise, so every point scores exactly as it would in a batch
    of its own, and each start follows the same path as a search run from
    it alone.
    """
    return solve_many([problem], config)[0]
