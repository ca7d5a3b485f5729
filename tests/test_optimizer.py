import dataclasses
import importlib.resources
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ehcog import (
    OptProblem,
    OptResult,
    OutageProfile,
    PolicyFb,
    PolicyNoFb,
    Scheme,
    SensingQuality,
    SolverConfig,
    TrafficParams,
    grid_oracle,
    solve,
    solve_many,
)
from ehcog import feedback as fb
from ehcog import nofeedback as nofb
from ehcog import optimizer, params
from ehcog.cli import _sweep_tasks
from ehcog.nofeedback import DELAY_SLACK
from ehcog.optimizer import (
    SOBOL_POLY,
    SOBOL_VINIT,
    SolverMeta,
    _directions,
    _grid_chunks,
    _grid_values,
    _merit,
    _pattern_search,
    _point_problems,
    _policy_from_vector,
    _problem_table,
    _scan_grid,
    _sobol_points,
    _start_points,
)
from ehcog.presets import PRESETS, get_preset
from conftest import PRESET_PROFILE, PRESET_SENSING, traced_peak
from oracles import pattern_search_one, scan_grid_points, solve_per_start


def make_problem(preset_profile, preset_sensing, scheme, lam_p, bound, lam_e=0.8):
    return OptProblem(
        scheme=scheme,
        profile=preset_profile,
        sensing=preset_sensing,
        traffic=TrafficParams(lam_p, 1.0, lam_e, bound),
    )


FAST = SolverConfig(n_starts=32, seed=0)


def random_problem(p, fractions, sensing, lam_p, lam_e, bound, scheme):
    """A valid problem from hypothesis draws: fractions scale the success
    probabilities down from p and p_sec_full."""
    conc, full, short, full_conc, short_conc = fractions
    profile = OutageProfile(
        p_primary=p,
        p_primary_conc=p * conc,
        p_sec_full=full,
        p_sec_short=full * short,
        p_sec_full_conc=full * full_conc,
        p_sec_short_conc=full * min(short, full_conc) * short_conc,
    )
    return OptProblem(
        scheme, profile, SensingQuality(*sensing), TrafficParams(lam_p, 1.0, lam_e, bound)
    )


random_problems = st.builds(
    random_problem,
    p=st.floats(0.05, 1.0),
    fractions=st.tuples(*[st.floats(0.0, 1.0)] * 5),
    sensing=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    lam_p=st.floats(0.0, 0.9),
    lam_e=st.floats(0.0, 1.0),
    bound=st.sampled_from([1.0, 1.5, 2.0, 5.0, math.inf]),
    scheme=st.sampled_from(list(Scheme)),
)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def vector(scheme, policy) -> np.ndarray:
    """The policy's point of the scheme's search box."""
    return np.array([getattr(policy, name) for name in scheme.variables])


def test_variable_order():
    assert Scheme.NOFEEDBACK.variables == (
        "p_sense",
        "p_access_free",
        "p_access_busy",
        "p_access_direct",
    )
    assert Scheme.FEEDBACK.variables == tuple(f.name for f in dataclasses.fields(PolicyFb))
    assert Scheme.FEEDBACK.variables == (*Scheme.NOFEEDBACK.variables, "p_access_retx")
    assert Scheme.RANDOM_ACCESS.variables == ("p_access_direct",)
    assert Scheme.FEEDBACK.policy_class is PolicyFb
    assert Scheme.NOFEEDBACK.policy_class is Scheme.RANDOM_ACCESS.policy_class is PolicyNoFb
    assert Scheme.FEEDBACK.analysis is fb
    assert Scheme.NOFEEDBACK.analysis is Scheme.RANDOM_ACCESS.analysis is nofb


def test_idle_primary_wants_full_blind_access(preset_profile, preset_sensing):
    # with no primary traffic the whole problem collapses to maximising the
    # idle-channel bracket: never sense, always transmit
    prob = make_problem(
        preset_profile, preset_sensing, Scheme.NOFEEDBACK, 0.0, math.inf
    )
    res = solve(prob, FAST)
    assert res.feasible
    assert (res.policy.p_sense, res.policy.p_access_direct) == (0.0, 1.0)
    assert res.mu_s == pytest.approx(0.8 * 0.6065, abs=1e-12)
    g = grid_oracle(prob, step=0.5)
    assert g.mu_s == pytest.approx(res.mu_s, abs=1e-12)
    assert vector(Scheme.NOFEEDBACK, g.policy).tolist() == [0, 0, 0, 1]


def test_silent_policy_sets_the_feasibility_boundary(
    preset_profile, preset_sensing
):
    # even a mute secondary cannot bring the delay under the bound here
    lam_p, bound = 0.65, 2.0
    assert lam_p + (1.0 - lam_p) / bound > preset_profile.p_primary
    for scheme in (Scheme.NOFEEDBACK, Scheme.FEEDBACK, Scheme.RANDOM_ACCESS):
        prob = make_problem(preset_profile, preset_sensing, scheme, lam_p, bound)
        for res in (solve(prob, FAST), grid_oracle(prob, step=0.25)):
            assert not res.feasible
            assert res.mu_s == 0.0
            assert not np.any(vector(scheme, res.policy))


def test_unstable_even_when_silent(preset_profile, preset_sensing):
    prob = make_problem(
        preset_profile, preset_sensing, Scheme.NOFEEDBACK, 0.75, math.inf
    )
    res = solve(prob, FAST)
    assert not res.feasible and res.mu_s == 0.0 and res.delay == math.inf


def test_no_energy_means_no_throughput(preset_profile, preset_sensing):
    prob = make_problem(
        preset_profile, preset_sensing, Scheme.NOFEEDBACK, 0.126, 2.0, lam_e=0.0
    )
    res = grid_oracle(prob, step=0.5)
    assert res.feasible  # the primary alone meets a 2-slot delay bound
    assert res.mu_s == 0.0
    assert not np.any(vector(Scheme.NOFEEDBACK, res.policy))
    assert solve(prob, FAST).mu_s == 0.0


def test_random_access_rides_the_delay_boundary(preset_profile, preset_sensing):
    lam_p, bound, lam_e = 0.126, 2.0, 0.8
    prob = make_problem(
        preset_profile, preset_sensing, Scheme.RANDOM_ACCESS, lam_p, bound, lam_e
    )
    res = solve(prob, FAST)
    assert res.feasible
    p, pc = preset_profile.p_primary, preset_profile.p_primary_conc
    mu_req = lam_p + (1.0 - lam_p) / bound
    pt_star = (p - mu_req) / (lam_e * (p - pc))
    assert 0.0 < pt_star < 1.0
    ref = nofb.analyze(
        preset_profile,
        PolicyNoFb(p_access_direct=pt_star),
        preset_sensing,
        prob.traffic,
    )
    assert res.policy.p_access_direct == pytest.approx(pt_star, abs=1e-5)
    assert res.mu_s == pytest.approx(ref.mu_s, abs=1e-5)
    assert res.delay <= bound + 1e-9
    g = grid_oracle(prob, step=0.01)
    assert res.mu_s >= g.mu_s - 1e-9


@pytest.mark.parametrize("scheme", [Scheme.NOFEEDBACK, Scheme.FEEDBACK])
def test_solver_dominates_coarse_grid(scheme, preset_profile, preset_sensing):
    for bound in (2.0, math.inf):
        prob = make_problem(preset_profile, preset_sensing, scheme, 0.126, bound)
        res = solve(prob, FAST)
        g = grid_oracle(prob, step=0.1)
        assert res.feasible and g.feasible
        assert res.mu_s >= g.mu_s - 1e-9
        assert res.delay <= bound + 1e-9


def test_deterministic_for_fixed_config(preset_profile, preset_sensing):
    prob = make_problem(preset_profile, preset_sensing, Scheme.FEEDBACK, 0.126, 2.0)
    a = solve(prob, FAST)
    b = solve(prob, FAST)
    assert a.mu_s == b.mu_s and a.delay == b.delay
    va = vector(Scheme.FEEDBACK, a.policy)
    vb = vector(Scheme.FEEDBACK, b.policy)
    assert va.tolist() == vb.tolist()
    assert a.meta == b.meta


def test_seed_insensitivity_at_smooth_optimum(preset_profile, preset_sensing):
    prob = make_problem(
        preset_profile, preset_sensing, Scheme.NOFEEDBACK, 0.126, math.inf
    )
    m0 = solve(prob, SolverConfig(n_starts=32, seed=0)).mu_s
    m1 = solve(prob, SolverConfig(n_starts=32, seed=99)).mu_s
    assert m0 == pytest.approx(m1, abs=1e-7)


def test_reported_figures_match_reanalysis(preset_profile, preset_sensing):
    for scheme, mod in ((Scheme.NOFEEDBACK, nofb), (Scheme.FEEDBACK, fb)):
        prob = make_problem(preset_profile, preset_sensing, scheme, 0.126, 2.0)
        res = solve(prob, FAST)
        rep = mod.analyze(preset_profile, res.policy, preset_sensing, prob.traffic)
        assert res.mu_s == rep.mu_s  # bit for bit, not approx
        assert res.mu_p == rep.mu_p
        assert res.delay == rep.delay
        assert rep.primary_stable and rep.delay_feasible


def test_policies_stay_in_the_unit_box(preset_profile, preset_sensing):
    for scheme in Scheme:
        prob = make_problem(preset_profile, preset_sensing, scheme, 0.2, 3.0)
        res = solve(prob, FAST)
        vec = vector(scheme, res.policy)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
        if scheme is Scheme.FEEDBACK:
            assert isinstance(res.policy, PolicyFb)
        else:
            assert isinstance(res.policy, PolicyNoFb)
        if scheme is Scheme.RANDOM_ACCESS:
            assert res.policy.p_sense == 0.0
            assert res.policy.p_access_free == 0.0
            assert res.policy.p_access_busy == 0.0


def test_meta_accounting(preset_profile, preset_sensing):
    prob = make_problem(preset_profile, preset_sensing, Scheme.RANDOM_ACCESS, 0.126, 2.0)
    cfg = SolverConfig(n_starts=40, seed=3)
    res = solve(prob, cfg)
    assert res.meta.n_starts == 40 + 3  # audit winner + both corners + sobol
    assert 0 <= res.meta.best_start < res.meta.n_starts
    assert res.meta.n_evals > res.meta.n_starts
    g = grid_oracle(prob, step=0.5)
    assert g.meta.best_start == -1 and g.meta.n_evals == 3  # one scoring pass
    # an audit grid with no feasible point ends solve() without a search
    tasks, solver_cfg = _sweep_tasks(get_preset("fig4"))
    (prob,) = [t[3] for t in tasks if t[1] == 0.65 and t[2] is Scheme.FEEDBACK]
    res = solve(prob, solver_cfg)
    assert not res.feasible
    assert res.meta == SolverMeta(0, 11**5, -1)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_starts=8)
    with pytest.raises(ValueError):
        SolverConfig(seed=-1)
    for bad in ({"n_starts": 40.5}, {"n_starts": True}, {"seed": 1.5}, {"seed": "0"}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_grid_oracle_validates_step(preset_profile, preset_sensing):
    prob = make_problem(preset_profile, preset_sensing, Scheme.RANDOM_ACCESS, 0.1, 5.0)
    with pytest.raises(ValueError):
        grid_oracle(prob, step=0.7)
    with pytest.raises(ValueError):
        grid_oracle(prob, step=0.0)


def test_problem_validates_scheme(preset_profile, preset_sensing):
    with pytest.raises(ValueError):
        OptProblem("feedback", preset_profile, preset_sensing, TrafficParams(0, 0, 0))


def test_grid_tie_break_is_lexicographic(preset_profile, preset_sensing):
    # with no primary traffic every (0, pf, pb, 1) grid point ties; the
    # reported winner must be the lexicographically smallest
    prob = make_problem(
        preset_profile, preset_sensing, Scheme.NOFEEDBACK, 0.0, math.inf
    )
    g = grid_oracle(prob, step=0.5)
    assert vector(Scheme.NOFEEDBACK, g.policy).tolist() == [0, 0, 0, 1]


def test_result_type(preset_profile, preset_sensing):
    prob = make_problem(preset_profile, preset_sensing, Scheme.RANDOM_ACCESS, 0.1, 5.0)
    assert isinstance(solve(prob, FAST), OptResult)


#: lam_p = 0 on a perfect primary link puts eta = gamma = 1 near the silent
#: policy, where the delay is its lam_p = 0 limit 1 + (1 - alpha) / gamma:
#: a packet only waits out its own transmissions
ETA_ONE = OptProblem(
    Scheme.FEEDBACK,
    OutageProfile(1.0, 0.2, 0.6, 0.5, 0.3, 0.2),
    SensingQuality(0.1, 0.08),
    TrafficParams(0.0, 1.0, 0.8, 1.0),
)


def test_solve_and_analyze_agree_at_eta_one():
    prob = ETA_ONE
    for res in (solve(prob, SolverConfig()), grid_oracle(prob, step=0.1)):
        rep = fb.analyze(prob.profile, res.policy, prob.sensing, prob.traffic)
        assert res.feasible and rep.delay_feasible
        assert same_bits(res.mu_s, rep.mu_s) and same_bits(res.delay, rep.delay)


#: fig4 rows whose optimum sits above the 2-slot bound by at most
#: DELAY_SLACK, where solve() and analyze() must apply the same slack
FIG4_SLACK_ROWS = [
    (Scheme.RANDOM_ACCESS, 0.05),
    (Scheme.NOFEEDBACK, 0.4),
    (Scheme.FEEDBACK, 0.4),
]


@pytest.mark.parametrize("scheme, lam_p", FIG4_SLACK_ROWS)
def test_fig4_rows_in_the_delay_slack_agree_with_analyze(scheme, lam_p):
    tasks, solver_cfg = _sweep_tasks(get_preset("fig4"))
    (prob,) = [t[3] for t in tasks if t[1] == lam_p and t[2] is scheme]
    res = solve(prob, solver_cfg)
    mod = fb if scheme is Scheme.FEEDBACK else nofb
    rep = mod.analyze(prob.profile, res.policy, prob.sensing, prob.traffic)
    assert res.feasible and rep.delay_feasible
    bound = prob.traffic.delay_bound
    assert bound < rep.delay <= bound + DELAY_SLACK


#: success fractions of random_problem with multipacket reception on
MPR = (0.2, 0.6, 0.9, 0.3, 0.8)
SENSING = (0.1, 0.08)


@settings(max_examples=25, deadline=None)
@given(prob=random_problems)
@example(prob=random_problem(0.7, MPR, SENSING, 0.0, 0.8, 2.0, Scheme.FEEDBACK))
@example(prob=random_problem(0.7, MPR, SENSING, 0.3, 0.0, 2.0, Scheme.NOFEEDBACK))
@example(prob=random_problem(0.7, MPR, SENSING, 0.3, 0.8, math.inf, Scheme.RANDOM_ACCESS))
@example(prob=random_problem(0.7, (0.0, 0.6, 0.9, 0.0, 0.8), SENSING, 0.3, 0.8, 2.0,
                             Scheme.FEEDBACK))
# a perfect primary link: mu_p = 1, and eta = 1 under feedback
@example(prob=random_problem(1.0, (1.0, *MPR[1:]), SENSING, 0.99999, 0.8, 2.0, Scheme.FEEDBACK))
@example(prob=random_problem(1.0, (1.0, *MPR[1:]), SENSING, 0.99999, 0.8, 2.0,
                             Scheme.NOFEEDBACK))
def test_feasible_is_analyze_delay_feasible(prob):
    mod = fb if prob.scheme is Scheme.FEEDBACK else nofb
    # the rule behind solve()'s early-out: the silent policy maximises mu_p,
    # so it is feasible iff any policy is, and it lies on every grid
    silent = _policy_from_vector(prob.scheme, [0.0] * len(prob.scheme.variables))
    silent_feasible = mod.analyze(prob.profile, silent, prob.sensing, prob.traffic).delay_feasible
    for res in (solve(prob, FAST), grid_oracle(prob, step=0.1)):
        rep = mod.analyze(prob.profile, res.policy, prob.sensing, prob.traffic)
        assert res.feasible == rep.delay_feasible == silent_feasible
        if res.feasible:
            assert same_bits(res.mu_s, rep.mu_s)


@pytest.mark.parametrize("lam_p", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("scheme", [Scheme.NOFEEDBACK, Scheme.FEEDBACK])
def test_batched_closed_forms_match_scalar_analyze_bitwise(scheme, lam_p):
    # a perfect primary link puts eta within 1e-9 of 1 for near-silent
    # policies; at lam_p = 0.9 most random policies are unstable
    profile = OutageProfile(1.0, 0.2, 0.6, 0.5, 0.3, 0.2)
    sensing = SensingQuality(0.1, 0.08)
    traffic = TrafficParams(lam_p, 0.5, 0.8, 1.5)
    mod = fb if scheme is Scheme.FEEDBACK else nofb
    d = len(scheme.variables)
    rng = np.random.default_rng(3)
    X = np.vstack([rng.random((3000, d)), 1e-10 * rng.random((50, d)), np.zeros(d), np.ones(d)])
    batch = mod.operating_point(profile, _policy_from_vector(scheme, X.T), sensing, traffic)
    n_unstable = n_degenerate = 0
    for i, x in enumerate(X):
        policy = _policy_from_vector(scheme, [float(v) for v in x])
        one = mod.operating_point(profile, policy, sensing, traffic)
        for name, value in zip(one._fields, one):
            assert same_bits(np.broadcast_to(getattr(batch, name), X.shape[:1])[i], value), name
        rep = mod.analyze(profile, policy, sensing, traffic)
        assert rep.primary_stable == batch.stable[i]
        assert rep.delay_feasible == batch.feasible[i]
        if lam_p < batch.eta[i]:
            assert same_bits(rep.nu0, batch.pi0[i]) and same_bits(rep.mu_s, batch.mu_s[i])
            assert same_bits(rep.delay, batch.delay[i])
            n_degenerate += bool(batch.eta[i] >= 1.0 - 1e-9)
        else:
            n_unstable += 1
    assert n_unstable > 0 or lam_p < 0.9
    assert n_degenerate > 0


@pytest.mark.parametrize("max_sweeps", [None, 3], ids=["full", "capped"])
@pytest.mark.parametrize("lam_p", [0.0, 0.126, 0.3, 0.65])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_lockstep_solve_matches_per_start_oracle(
    scheme, lam_p, max_sweeps, preset_profile, preset_sensing, monkeypatch
):
    if max_sweeps is not None:
        monkeypatch.setattr(optimizer, "MAX_SWEEPS", max_sweeps)
    prob = make_problem(preset_profile, preset_sensing, scheme, lam_p, 2.0)
    cfg = SolverConfig()
    assert solve(prob, cfg) == solve_per_start(prob, cfg)


def test_lockstep_search_tracks_every_start(preset_profile, preset_sensing, monkeypatch):
    prob = make_problem(preset_profile, preset_sensing, Scheme.FEEDBACK, 0.126, 2.0)
    starts, _ = _start_points(prob, FAST)
    full = optimizer.MAX_SWEEPS
    runs = {}
    for max_sweeps in (full, 3):
        monkeypatch.setattr(optimizer, "MAX_SWEEPS", max_sweeps)
        X, M, used = _pattern_search([prob], np.zeros(len(starts), dtype=int), starts)
        for x0, x, m, n in zip(starts, X, M, used):
            ref_x, ref_m, ref_n = pattern_search_one(prob, x0)
            assert x.tolist() == ref_x.tolist()
            assert m == ref_m and n == ref_n
        runs[max_sweeps] = used
    # three sweeps stop every start before its step schedule runs out
    assert np.all(runs[3] <= 1 + 3 * len(_directions(5)))
    assert np.all(runs[3] < runs[full])


@settings(max_examples=25, deadline=None)
@given(prob=random_problems)
def test_lockstep_solve_matches_oracle_on_random_problems(prob):
    assert solve(prob, FAST) == solve_per_start(prob, FAST)


@pytest.mark.parametrize("max_sweeps", [None, 3], ids=["full", "capped"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_solve_many_matches_per_start_oracle_on_preset_sweeps(preset, max_sweeps, monkeypatch):
    # the sweeps vary lam_p (fig4, fig6), lam_e (fig7) and the profile (fig8)
    if max_sweeps is not None:
        monkeypatch.setattr(optimizer, "MAX_SWEEPS", max_sweeps)
    tasks, cfg = _sweep_tasks(get_preset(preset))
    problems = [t[3] for t in tasks]
    assert solve_many(problems, cfg) == [solve_per_start(p, cfg) for p in problems]


@settings(max_examples=10, deadline=None)
@given(problems=st.lists(random_problems, min_size=1, max_size=4))
def test_solve_many_matches_oracle_on_random_problem_lists(problems):
    assert solve_many(problems, FAST) == [solve_per_start(p, FAST) for p in problems]


@pytest.mark.parametrize("preset", ["fig4", "fig7"])
def test_preset_answers_settle_within_half_the_sweep_budget(preset, monkeypatch):
    # at seed 0 every winning start retires within 38 sweeps; only losing
    # starts that crawl at a fixed step use the rest of the budget
    tasks, cfg = _sweep_tasks(get_preset(preset))
    problems = [t[3] for t in tasks]
    full = solve_many(problems, cfg)
    monkeypatch.setattr(optimizer, "MAX_SWEEPS", optimizer.MAX_SWEEPS // 2)
    half = solve_many(problems, cfg)

    def answer(r):
        return r.policy, r.mu_s, r.mu_p, r.delay, r.feasible

    assert list(map(answer, half)) == list(map(answer, full))


#: lam_p values of a lockstep batch: at 0.1671, (1 - lam_p) ** 2 through
#: Python's pow() and through numpy's multiply round differently, so a closed
#: form that squared with ** would give a scalar point other bits than its
#: batch entry; 0 gives the delay's lam_p = 0 limit 1 + (1 - alpha) / gamma
PER_POINT_LAM_P = (0.0, 0.0523, 0.1671, 0.3648)


@pytest.mark.parametrize("scheme", [Scheme.NOFEEDBACK, Scheme.FEEDBACK])
def test_closed_forms_with_per_point_traffic_match_scalar_bitwise(scheme):
    rng = np.random.default_rng(11)
    n = 1500
    owner = np.repeat(np.arange(len(PER_POINT_LAM_P)), n)
    lam_p = np.array(PER_POINT_LAM_P)[owner]
    alpha, gamma, idle, busy, retx, lam_e = rng.random((6, lam_p.size))
    # eta ~ 1 (alpha and gamma within 1e-11 of 1), where the delay is within
    # 1e-10 of one slot, on a quarter of the rows, which then mix lam_p = 0
    # with lam_p > 0
    near = rng.random(lam_p.size) < 0.25
    alpha[near] = 1.0 - 1e-11 * rng.random(near.sum())
    gamma[near] = 1.0 - 1e-11 * rng.random(near.sum())
    bound = rng.choice([1.0, 1.5, 2.0, 5.0, math.inf], lam_p.size)
    if scheme is Scheme.NOFEEDBACK:
        # the sensing-only instance of the chain
        gamma, retx = alpha, busy
    args = (lam_p, alpha, gamma, idle, busy, retx, lam_e, bound)
    batch = nofb.closed_forms(*args)
    n_degenerate = np.zeros(len(PER_POINT_LAM_P), dtype=int)
    for i in range(lam_p.size):
        one = nofb.closed_forms(*(float(v[i]) for v in args))
        for name, value in zip(batch._fields, one):
            assert same_bits(np.broadcast_to(getattr(batch, name), lam_p.shape)[i], value), (name, i)
        n_degenerate[owner[i]] += bool(batch.stable[i] and batch.eta[i] >= 1.0 - 1e-9)
    assert np.all(n_degenerate > 0)


@pytest.mark.parametrize("scheme", [Scheme.NOFEEDBACK, Scheme.FEEDBACK])
def test_gathered_problems_score_each_point_as_its_own_problem(
    scheme, preset_profile, preset_sensing
):
    # the perfect primary link puts near-silent policies at eta ~ 1
    perfect = OutageProfile(1.0, 0.2, 0.6, 0.5, 0.3, 0.2)
    problems = [
        OptProblem(scheme, profile, preset_sensing, TrafficParams(lam_p, 1.0, lam_e, bound))
        for profile in (preset_profile, perfect)
        for lam_p in PER_POINT_LAM_P
        for lam_e, bound in ((0.8, 1.5), (0.3, math.inf))
    ]
    d = len(scheme.variables)
    rng = np.random.default_rng(5)
    X = np.vstack([rng.random((3000, d)), 1e-10 * rng.random((1000, d))])
    owner = rng.integers(len(problems), size=X.shape[0])
    problem = _point_problems(scheme, _problem_table(problems), owner)
    batch = _merit(problem, X.T)
    for k, prob in enumerate(problems):
        own = owner == k
        assert batch[own].tobytes() == _merit(prob, X[own].T).tobytes()


def test_optimizer_builds_its_policies_without_range_checks(
    preset_profile, preset_sensing, monkeypatch
):
    prob = make_problem(preset_profile, preset_sensing, Scheme.FEEDBACK, 0.126, 2.0)
    calls = []
    monkeypatch.setattr(params, "_check_prob", lambda *args, **kw: calls.append(args))
    solve(prob, FAST)
    grid_oracle(prob, 0.25)
    assert calls == []
    PolicyFb(0.1, 0.2, 0.3, 0.4, 0.5)
    assert len(calls) == 5


@pytest.mark.parametrize("lam_p", [0.0, 0.126, 0.65])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_chunked_grid_scan_matches_whole_grid(
    scheme, lam_p, preset_profile, preset_sensing, monkeypatch
):
    prob = make_problem(preset_profile, preset_sensing, scheme, lam_p, 2.0)
    scans = []
    for chunk in (11 ** len(scheme.variables), optimizer.GRID_CHUNK, 1000):
        monkeypatch.setattr(optimizer, "GRID_CHUNK", chunk)
        scans.append(_scan_grid(prob, 0.1))
    whole = scans[0]
    for x, best, n in scans[1:]:
        assert (best, n) == whole[1:]
        assert (x is None) == (whole[0] is None)
        if x is not None:
            assert x.tolist() == whole[0].tolist()


def test_grid_chunks_stay_full_at_fine_steps():
    # at step 0.02 one 51 x 51 slab holds 2,601 points; a chunk takes six
    vals = _grid_values(0.02)
    chunks = list(_grid_chunks(vals, 3, optimizer.GRID_CHUNK))
    shapes = [np.broadcast_shapes(*map(np.shape, cols)) for cols in chunks]
    assert shapes == [(6, 51, 51)] * 8 + [(3, 51, 51)]
    points = np.concatenate(
        [np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, 3) for cols in chunks]
    )
    assert points.tolist() == [list(x) for x in itertools.product(vals.tolist(), repeat=3)]


#: at step 0.3 the grid is 0, 0.3, 0.6, 0.9, 1, and 165 fibers of the first
#: chunk are cut in the short last cell, between 0.9 and 1; the winner's
#: p_access_retx is 0.9
SHORT_LAST_CELL = random_problem(0.74, (0.4, 0.6, 0.8, 0.5, 0.1), SENSING, 0.24, 0.82, 5.0,
                                 Scheme.FEEDBACK)


@settings(max_examples=25, deadline=None)
@given(prob=random_problems)
@example(prob=ETA_ONE)
# a random-access grid is one fiber along p_access_direct, with no heads
@example(prob=random_problem(0.7, MPR, SENSING, 0.3, 0.8, 2.0, Scheme.RANDOM_ACCESS))
@example(prob=SHORT_LAST_CELL)
def test_broadcast_grid_scan_matches_point_matrix_oracle(prob):
    # step 0.3 leaves a short last cell: the axis is 0, 0.3, 0.6, 0.9, 1
    for step in (0.1, 0.25, 0.3):
        x, best, n = _scan_grid(prob, step)
        ref_x, ref_best, ref_n = scan_grid_points(prob, step)
        assert same_bits(best, ref_best) and n == ref_n
        assert (x is None) == (ref_x is None)
        if x is not None:
            assert x.tobytes() == ref_x.tobytes()


#: a perfect primary link and perfect detection: a sensing secondary never
#: interferes, so alpha = 1 and its fibers are flat in exact arithmetic,
#: and rounding puts their best an ulp above both ends
FLAT_FIBERS = random_problem(1.0, MPR, (0.1, 0.0), 0.3, 0.8, 1.0, Scheme.FEEDBACK)


#: a strong full-slot link under concurrency makes retransmission slots worth
#: attacking up to the stability edge: at every step the winner's
#: p_access_retx is the last stable value of a cut fiber, whose first
#: value scores below the best end of another fiber
RETX_AT_THE_EDGE = random_problem(0.7, (0.2, 0.6, 0.9, 0.9, 0.8), SENSING, 0.45, 1.0, math.inf,
                                  Scheme.FEEDBACK)

#: fig4's operating point under feedback
FIG4_FEEDBACK = OptProblem(
    Scheme.FEEDBACK, PRESET_PROFILE, PRESET_SENSING, TrafficParams(0.126, 1.0, 0.8, 2.0)
)


#: one success fraction of random_problem: no multipacket reception, full
#: success under concurrency (at conc = 1, gamma is flat in p_access_retx),
#: or anything between
fraction = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

#: feedback problems that draw the edge cases of a p_access_retx fiber
fiber_problems = st.builds(
    random_problem,
    p=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    fractions=st.tuples(*[fraction] * 5),
    sensing=st.tuples(st.floats(0.0, 0.5), st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
    lam_p=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    lam_e=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    bound=st.sampled_from([1.0, 1.5, 2.0, 5.0, math.inf]),
    scheme=st.just(Scheme.FEEDBACK),
)


@settings(max_examples=50, deadline=None)
@given(prob=fiber_problems)
@example(prob=ETA_ONE)
@example(prob=FLAT_FIBERS)
@example(prob=RETX_AT_THE_EDGE)
# the delay bound cuts about 60% of the fibers, and most of those rise
@example(prob=FIG4_FEEDBACK)
def test_fiber_scan_matches_point_matrix_oracle(prob):
    for step in (0.1, 0.25, 0.3, 0.5):
        x, best, n = _scan_grid(prob, step)
        ref_x, ref_best, ref_n = scan_grid_points(prob, step)
        assert same_bits(best, ref_best) and n == ref_n
        assert (x is None) == (ref_x is None)
        if x is not None:
            assert x.tobytes() == ref_x.tobytes()


#: the bound at which retx_cap of the chain below is 0.5 in floating point,
#: a grid value of every step that divides 0.5; 0.5 is feasible and any
#: larger p_access_retx is not
CAP_ON_THE_GRID = (random_problem(1.0, (0.2, 0.6, 0.5, 0.3, 0.2), SENSING, 0.0, 0.8,
                                  1.4705882342941177, Scheme.FEEDBACK), 0.5)
#: the smallest positive normal float
TINY = 2.2250738585072014e-308


@settings(max_examples=200, deadline=None)
@given(prob_mass=st.tuples(fiber_problems, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
       step=st.sampled_from([0.5, 0.3, 0.25, 0.1, 0.05]))
@example(prob_mass=(random_problem(0.7, MPR, SENSING, 0.0, 0.8, 2.0, Scheme.FEEDBACK), 0.3),
         step=0.1)  # lam_p = 0
# alpha = 1: no fresh transmission fails, and only stability binds, between
# the last two grid values: gamma falls to 0 at p_access_retx = 1
@example(prob_mass=(random_problem(1.0, (0.0, *MPR[1:]), SENSING, 0.4, 1.0, 2.0, Scheme.FEEDBACK),
                    0.0), step=0.1)
@example(prob_mass=(random_problem(0.7, MPR, SENSING, 0.6, 0.8, math.inf, Scheme.FEEDBACK), 0.2),
         step=0.1)
# a 1-slot bound leaves no time for a retransmission: nothing is feasible
@example(prob_mass=(random_problem(0.7, MPR, SENSING, 0.3, 0.8, 1.0, Scheme.FEEDBACK), 0.2),
         step=0.1)
@example(prob_mass=(random_problem(0.7, MPR, SENSING, 0.3, TINY, 2.0, Scheme.FEEDBACK), 0.2),
         step=0.1)
# a subnormal lam_e (p - pc): the cap overflows to inf
@example(prob_mass=(random_problem(1.0, (0.0,) * 5, (0.0, 0.0), 0.0, 5e-324, 1.0, Scheme.FEEDBACK),
                    0.0), step=0.5)
# p = pc: gamma does not move with p_access_retx, so there is no cap
@example(prob_mass=(random_problem(0.7, (1.0, *MPR[1:]), SENSING, 0.3, 0.8, 2.0, Scheme.FEEDBACK),
                    0.2), step=0.1)
@example(prob_mass=CAP_ON_THE_GRID, step=0.1)
def test_retx_cap_is_the_feasible_edge_of_a_fiber(prob_mass, step):
    # the chain at fresh-head interference mass `mass`, whose alpha is that of
    # every head policy with that mass
    prob, mass = prob_mass
    profile, traffic = prob.profile, prob.traffic
    alpha = nofb.primary_success(profile, traffic.lam_e, mass)
    vals = _grid_values(step)
    cap = fb.retx_cap(profile, alpha, traffic)
    feasible = fb.chain_at(profile, alpha, 0.0, 0.0, vals, traffic).feasible
    # the grid values up to the cap are feasible and the next one is not
    assert feasible.tolist() == (vals <= cap).tolist()
    if (prob, mass) == CAP_ON_THE_GRID:
        assert cap == 0.5


def test_feedback_grid_scan_reads_a_fraction_of_its_points(monkeypatch):
    points = []
    closed_forms = nofb.closed_forms

    def counted(*args):
        point = closed_forms(*args)
        points.append(np.size(point.mu_s))
        return point

    monkeypatch.setattr(nofb, "closed_forms", counted)
    res = grid_oracle(FIG4_FEEDBACK, 0.05)
    # every grid point counts as evaluated, though most are never scored
    assert res.meta.n_evals == 21**5
    # the fiber ends, the cut fibers' edges, the best fibers in full and analyze()
    assert sum(points) < 21**5 / 4


def test_audit_grid_memory_is_bounded(preset_profile, preset_sensing):
    # scored as one batch, the whole 11^5 audit grid took ~29 MB
    prob = make_problem(preset_profile, preset_sensing, Scheme.FEEDBACK, 0.126, 2.0)
    assert traced_peak(_start_points, prob, FAST) < 8 * 2**20


def test_grid_oracle_memory_is_bounded(preset_profile, preset_sensing):
    # in 21^4-point batches, the 21^5 grid at step 0.05 took ~40 MB
    prob = make_problem(preset_profile, preset_sensing, Scheme.FEEDBACK, 0.126, 2.0)
    assert traced_peak(grid_oracle, prob, 0.05) < 8 * 2**20


def test_solve_many_memory_is_bounded():
    # fig4's 42 problems in one unblocked lockstep search peaked at ~9.5 MB
    tasks, cfg = _sweep_tasks(get_preset("fig4"))
    assert traced_peak(solve_many, [t[3] for t in tasks], cfg) < 4 * 2**20


# scipy.stats.qmc is the reference for the Sobol starts, at test time only
@pytest.mark.parametrize("seed", [0, 1, 7, 31, 12345, 2**63 - 1])
@pytest.mark.parametrize("d", [1, 4, 5])
def test_sobol_points_match_scipy_bitwise(d, seed):
    from scipy.stats import qmc

    for n in (32, 40, 64, 100):
        with warnings.catch_warnings():
            # scipy warns when n is not a power of 2
            warnings.filterwarnings("ignore", "The balance properties of Sobol")
            want = qmc.Sobol(d, scramble=True, seed=seed).random(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sobol_points(d, SolverConfig(n_starts=n, seed=seed))
        assert got.shape == want.shape == (n, d)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_sobol_points_are_made_once_and_read_only():
    cfg = SolverConfig(n_starts=40, seed=5)
    points = _sobol_points(4, cfg)
    assert _sobol_points(4, SolverConfig(n_starts=40, seed=5)) is points
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0, 0] = 0.5
    assert _sobol_points(5, cfg) is not points


# numpy.random is the reference for the scrambling bits, at test time only
@given(
    # past 2**128 a seed has more words than the pool, mixed in last
    seed=st.integers(0, 2**192 - 1),
    n1=st.integers(1, 70),
    n2=st.integers(1, 70),
)
@example(seed=0, n1=150, n2=4500)  # d = 5: the shifts, then the matrices
@example(seed=2**64 + 3, n1=3, n2=4)  # odd first call: the spare half carries over
@example(seed=2**32 - 1, n1=1, n2=1)
@example(seed=2**160 + 7, n1=2, n2=2)
@settings(max_examples=60, deadline=None)
def test_coin_flips_match_numpy_random(seed, n1, n2):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
    assert optimizer._seed_words(seed) == want
    rng = np.random.default_rng(seed)
    first = rng.integers(2, size=n1, dtype=np.uint32)
    second = rng.integers(2, size=n2, dtype=np.uint32)
    got = optimizer._coin_flips(seed, n1 + n2)
    assert got.dtype == np.uint32
    assert got.tolist() == first.tolist() + second.tolist()


def test_sobol_constants_are_the_joe_kuo_direction_numbers():
    # the table scipy ships: one row per dimension, vinit zero-padded
    npz = importlib.resources.files("scipy.stats") / "_sobol_direction_numbers.npz"
    with importlib.resources.as_file(npz) as path, np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    d = len(SOBOL_POLY)
    assert d == len(SOBOL_VINIT) >= max(len(scheme.variables) for scheme in Scheme)
    assert poly[:d].tolist() == list(SOBOL_POLY)
    for k, row in enumerate(SOBOL_VINIT):
        assert vinit[k].tolist() == list(row) + [0] * (vinit.shape[1] - len(row))
        # one initial number per degree of the polynomial
        assert k == 0 or len(row) == SOBOL_POLY[k].bit_length() - 1
