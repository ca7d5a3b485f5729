import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ehcog import (
    OutageProfile,
    PolicyFb,
    PolicyNoFb,
    Scheme,
    SensingQuality,
    SimSemantics,
    TrafficParams,
    closed_form_checks,
    run,
    validate_lower_bound,
)
from ehcog import simulator
from ehcog.simulator import residual_checks
from conftest import PRESET_PROFILE, PRESET_SENSING, traced_peak
from oracles import run_slots

HAND_POLICY = PolicyNoFb(p_sense=0.0, p_access_direct=1.0)
HAND_TRAFFIC = TrafficParams(lam_p=0.126, lam_s=1.0, lam_e=0.8)


def test_reproducible_bit_for_bit(preset_profile, preset_sensing):
    kw = dict(n_slots=50_000, seed=42)
    a = run(Scheme.NOFEEDBACK, HAND_POLICY, preset_profile, preset_sensing, HAND_TRAFFIC, **kw)
    b = run(Scheme.NOFEEDBACK, HAND_POLICY, preset_profile, preset_sensing, HAND_TRAFFIC, **kw)
    assert (a.mu_p_hat, a.mu_s_hat, a.delay_hat, a.mean_queue_p) == (
        b.mu_p_hat,
        b.mu_s_hat,
        b.delay_hat,
        b.mean_queue_p,
    )
    assert a.ci_halfwidths == b.ci_halfwidths
    c = run(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        n_slots=50_000,
        seed=43,
    )
    assert c.mu_s_hat != a.mu_s_hat


def test_no_energy_means_no_secondary_activity(preset_profile, preset_sensing):
    stats = run(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        TrafficParams(0.126, 1.0, 0.0),
        n_slots=20_000,
    )
    assert stats.mu_s_hat == 0.0
    assert math.isnan(stats.mu_e_hat)  # no energized slots to average over
    # the primary then performs as if alone
    assert abs(stats.mu_p_hat - preset_profile.p_primary) < 5.0 * stats.stderr("mu_p_hat")


def test_saturated_data_and_energy_make_semantics_identical(
    preset_profile, preset_sensing
):
    traffic = TrafficParams(lam_p=0.2, lam_s=1.0, lam_e=1.0)
    kw = dict(n_slots=100_000, seed=5)
    ex = run(Scheme.NOFEEDBACK, PolicyNoFb(0.7, 0.9, 0.1, 0.4), preset_profile, preset_sensing, traffic, SimSemantics.EXACT, **kw)
    bl = run(Scheme.NOFEEDBACK, PolicyNoFb(0.7, 0.9, 0.1, 0.4), preset_profile, preset_sensing, traffic, SimSemantics.BACKLOGGED, **kw)
    assert ex.mu_s_hat == bl.mu_s_hat
    assert ex.mu_p_hat == bl.mu_p_hat
    assert ex.delay_hat == bl.delay_hat
    assert ex.empty_frac_p == bl.empty_frac_p


def test_backlogged_drains_every_energized_slot(preset_profile, preset_sensing):
    stats = run(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        SimSemantics.BACKLOGGED,
        n_slots=20_000,
    )
    assert stats.mu_e_hat == 1.0
    ex = run(
        Scheme.NOFEEDBACK,
        PolicyNoFb(p_sense=1.0, p_access_free=0.5),
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        SimSemantics.EXACT,
        n_slots=20_000,
    )
    assert 0.0 < ex.mu_e_hat < 1.0


def test_closed_forms_hold_in_backlogged_run(preset_profile, preset_sensing):
    stats, checks = closed_form_checks(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        n_slots=300_000,
    )
    assert {c.name for c in checks} == {
        "mu_p_hat vs mu_p",
        "delay_hat vs delay",
        "mu_s_hat vs mu_s",
        "empty_frac_p vs nu0",
    }
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert not stats.drift_detected


def test_closed_forms_hold_for_feedback_scheme(preset_profile, preset_sensing):
    pol = PolicyFb(0.0, 0.0, 0.0, 1.0, 0.6)
    stats, checks = closed_form_checks(
        Scheme.FEEDBACK,
        pol,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        n_slots=300_000,
    )
    assert {c.name for c in checks} == {
        "empty_frac_p vs pi0",
        "retx_frac vs sum_eps",
        "mu_s_hat vs mu_s",
        "delay_hat vs delay",
    }
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_unstable_point_yields_no_checks_and_drift(preset_profile, preset_sensing):
    stats, checks = closed_form_checks(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        TrafficParams(0.9, 1.0, 0.8),
        n_slots=100_000,
    )
    assert checks == ()
    assert stats.drift_detected


def test_stable_queue_shows_no_drift(preset_profile, preset_sensing):
    stats = run(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        n_slots=100_000,
    )
    assert not stats.drift_detected


def test_exact_run_dominates_backlogged_bound(preset_profile, preset_sensing):
    rep = validate_lower_bound(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        n_slots=200_000,
    )
    assert not rep.unstable
    assert len(rep.checks) == 2
    assert rep.all_passed, rep.checks
    assert rep.mu_s_analytic == pytest.approx(0.3154, abs=1e-12)
    # the backlogged half is closed_form_checks' run, checked the same way
    _, checks = closed_form_checks(
        Scheme.NOFEEDBACK, HAND_POLICY, preset_profile, preset_sensing, HAND_TRAFFIC,
        n_slots=200_000,
    )
    assert rep.closed_form == checks


def test_lower_bound_primary_side_when_no_data(preset_profile, preset_sensing):
    rep = validate_lower_bound(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        TrafficParams(0.126, 0.0, 0.8),
        n_slots=100_000,
    )
    names = [c.name for c in rep.checks]
    assert names == ["mu_p exact >= backlogged - 3se"]
    assert rep.all_passed
    # with no data the exact secondary stays silent and the primary is solo
    assert rep.exact.mu_s_hat == 0.0


def test_little_law_holds(preset_profile, preset_sensing):
    stats = run(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        SimSemantics.BACKLOGGED,
        n_slots=400_000,
    )
    assert stats.mean_queue_p == pytest.approx(
        stats.lam_p_hat * stats.delay_hat, rel=0.05
    )


def test_sensor_error_frequencies(preset_profile, preset_sensing):
    stats = run(
        Scheme.NOFEEDBACK,
        PolicyNoFb(p_sense=1.0, p_access_free=0.3, p_access_busy=0.1),
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        SimSemantics.BACKLOGGED,
        n_slots=200_000,
    )
    sc = stats.sense_counts
    assert sc["slots_sensed_primary_on"] > 1000
    assert sc["slots_sensed_primary_off"] > 1000
    busy_given_on = sc["slots_sensed_busy_primary_on"] / sc["slots_sensed_primary_on"]
    busy_given_off = sc["slots_sensed_busy_primary_off"] / sc["slots_sensed_primary_off"]
    assert busy_given_on == pytest.approx(1.0 - preset_sensing.p_missed_detection, abs=0.01)
    assert busy_given_off == pytest.approx(preset_sensing.p_false_alarm, abs=0.01)


def test_retx_accounting_only_under_feedback(preset_profile, preset_sensing):
    a = run(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        n_slots=20_000,
    )
    assert a.retx_frac == 0.0
    b = run(
        Scheme.FEEDBACK,
        PolicyFb(0.0, 0.0, 0.0, 1.0, 0.5),
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        n_slots=20_000,
    )
    assert b.retx_frac > 0.0


def test_input_validation(preset_profile, preset_sensing):
    with pytest.raises(ValueError):
        run(
            Scheme.RANDOM_ACCESS,
            PolicyNoFb(p_sense=0.5),
            preset_profile,
            preset_sensing,
            HAND_TRAFFIC,
            n_slots=10,
        )
    with pytest.raises(ValueError):
        run(
            Scheme.FEEDBACK,
            PolicyNoFb(),
            preset_profile,
            preset_sensing,
            HAND_TRAFFIC,
            n_slots=10,
        )
    with pytest.raises(ValueError):
        run(
            Scheme.NOFEEDBACK,
            HAND_POLICY,
            preset_profile,
            preset_sensing,
            HAND_TRAFFIC,
            n_slots=0,
        )


def test_stats_metadata(preset_profile, preset_sensing):
    stats = run(
        Scheme.NOFEEDBACK,
        HAND_POLICY,
        preset_profile,
        preset_sensing,
        HAND_TRAFFIC,
        n_slots=5_000,
        seed=1,
    )
    assert "philox" in stats.rng_name
    assert stats.n_slots == 5_000
    assert stats.scheme is Scheme.NOFEEDBACK
    assert stats.semantics is SimSemantics.EXACT
    assert stats.stderr("mu_s_hat") == stats.ci_halfwidths["mu_s_hat"] / 1.959963984540054
    assert len(stats.qp_decile_means) == 10


def sim_config(scheme, p, fractions, sensing, policy, traffic):
    """A valid (scheme, policy, profile, sensing, traffic) from hypothesis
    draws: fractions scale the success probabilities down from p and
    p_sec_full, as in test_optimizer.random_problem."""
    conc, full, short, full_conc, short_conc = fractions
    profile = OutageProfile(
        p_primary=p,
        p_primary_conc=p * conc,
        p_sec_full=full,
        p_sec_short=full * short,
        p_sec_full_conc=full * full_conc,
        p_sec_short_conc=full * min(short, full_conc) * short_conc,
    )
    if scheme is Scheme.FEEDBACK:
        policy = PolicyFb(*policy)
    else:
        sense = 0.0 if scheme is Scheme.RANDOM_ACCESS else policy[0]
        policy = PolicyNoFb(sense, *policy[1:4])
    return scheme, policy, profile, SensingQuality(*sensing), TrafficParams(*traffic)


unit = st.floats(0.0, 1.0)
sim_configs = st.builds(
    sim_config,
    scheme=st.sampled_from(list(Scheme)),
    p=unit,
    fractions=st.tuples(*[unit] * 5),
    sensing=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    policy=st.tuples(*[unit] * 5),
    traffic=st.tuples(unit, unit, unit),
)
HAND_POLICIES = {
    Scheme.NOFEEDBACK: PolicyNoFb(0.5, 0.9, 0.2, 0.6),
    Scheme.FEEDBACK: PolicyFb(0.5, 0.9, 0.2, 0.6, 0.5),
    Scheme.RANDOM_ACCESS: PolicyNoFb(0.0, 0.0, 0.0, 0.6),
}


def hand_config(scheme, traffic=HAND_TRAFFIC):
    return scheme, HAND_POLICIES[scheme], PRESET_PROFILE, PRESET_SENSING, traffic


def same_float(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


FB, NOFB, RA = (hand_config(s) for s in (Scheme.FEEDBACK, Scheme.NOFEEDBACK, Scheme.RANDOM_ACCESS))
NO_ENERGY = hand_config(Scheme.NOFEEDBACK, TrafficParams(0.2, 0.5, 0.0))
NO_DATA = hand_config(Scheme.FEEDBACK, TrafficParams(0.2, 0.0, 0.8))
NO_PRIMARY = hand_config(Scheme.RANDOM_ACCESS, TrafficParams(0.0, 0.5, 0.8))
UNSTABLE = hand_config(Scheme.FEEDBACK, TrafficParams(0.8, 1.0, 0.8))
EXACT, BACKLOGGED = SimSemantics.EXACT, SimSemantics.BACKLOGGED


@settings(max_examples=60, deadline=None)
@given(
    config=sim_configs,
    semantics=st.sampled_from(list(SimSemantics)),
    n_slots=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 2, 7, 64, simulator.BLOCK_SLOTS]),
)
# n_slots 29 and 31 straddle the 30 batches; below 10 some deciles are empty;
# blocks of 2, 7 and 64 slots end inside batches and deciles
@example(config=FB, semantics=EXACT, n_slots=1, seed=0, block=1)
@example(config=FB, semantics=BACKLOGGED, n_slots=29, seed=1, block=7)
@example(config=NOFB, semantics=EXACT, n_slots=31, seed=2, block=2)
@example(config=NO_ENERGY, semantics=EXACT, n_slots=2000, seed=3, block=64)
@example(config=NO_DATA, semantics=EXACT, n_slots=2000, seed=4, block=7)
@example(config=NO_PRIMARY, semantics=BACKLOGGED, n_slots=2000, seed=5, block=64)
@example(config=UNSTABLE, semantics=BACKLOGGED, n_slots=3000, seed=6, block=7)
@example(config=FB, semantics=EXACT, n_slots=3000, seed=7, block=simulator.BLOCK_SLOTS)
def test_run_matches_slot_loop_oracle(config, semantics, n_slots, seed, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "BLOCK_SLOTS", block)
        got = run(*config, semantics, n_slots, seed)
    want = run_slots(*config, semantics, n_slots, seed)
    assert repr(got) == repr(want)
    assert list(got.ci_halfwidths) == list(want.ci_halfwidths)
    for name, half in want.ci_halfwidths.items():
        assert same_float(got.ci_halfwidths[name], half), name
    assert len(got.qp_decile_means) == len(want.qp_decile_means) == 10
    assert all(map(same_float, got.qp_decile_means, want.qp_decile_means))
    assert got.sense_counts == want.sense_counts


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
def test_philox_stream_drawn_in_pieces_continues_exactly(seed):
    # the streamed run relies on this: its draws do not depend on BLOCK_SLOTS
    (s,) = np.random.SeedSequence(seed).spawn(1)
    whole = np.random.Generator(np.random.Philox(s)).random(100_003)
    gen = np.random.Generator(np.random.Philox(s))
    pieces = np.concatenate([gen.random(n) for n in (1, 2, 5, 16384, 3, 16384, 67224)])
    assert pieces.tobytes() == whole.tobytes()


@pytest.mark.parametrize("semantics", list(SimSemantics))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_simulator_memory_per_slot_is_bounded(scheme, semantics):
    # a run holding every slot at once peaked at 31 B/slot, 6.2 MB here;
    # streamed in blocks it holds one block, about 1 MB at any length
    assert traced_peak(run, *hand_config(scheme), semantics, 200_000) < 1.5 * 2**20


@pytest.mark.parametrize("n_slots", [30, 50, 100])
def test_lower_bound_check_without_a_margin_passes(n_slots):
    # at lam_p 0.01 so few packets arrive that under two batches see a
    # primary attempt: the 3-standard-error margin is unbounded, and the
    # estimates may be nan
    traffic = TrafficParams(0.01, 0.0, 0.8)
    for seed in (0, 1):
        rep = validate_lower_bound(*hand_config(Scheme.NOFEEDBACK, traffic), n_slots, seed)
        (check,) = rep.checks
        assert check.name == "mu_p exact >= backlogged - 3se"
        assert check.bound == math.inf
        assert check.passed is True


def test_check_verdicts_are_python_bools():
    # the CLI writes a verdict as true/false; a numpy bool would print False
    config = hand_config(Scheme.NOFEEDBACK)
    stats = run(*config, BACKLOGGED, 20_000, 0)
    scheme, policy, profile, sensing, starved = hand_config(
        Scheme.NOFEEDBACK, TrafficParams(0.126, 1.0, 0.2)
    )
    point = scheme.analysis.operating_point(profile, policy, sensing, starved)
    checks = residual_checks(stats, point, HAND_TRAFFIC.lam_p)
    assert not any(c.passed for c in checks)
    assert all(type(c.passed) is bool for c in checks)
    rep = validate_lower_bound(*config, 20_000, 0)
    assert all(type(c.passed) is bool for c in rep.checks + rep.closed_form)
