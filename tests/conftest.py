import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ehcog import OutageProfile, SensingQuality


#: the link profile and sensing quality shared by all bundled presets
PRESET_PROFILE = OutageProfile.from_ratios(0.7, 0.14, 0.6065, 0.1820, 0.9782, 0.8)
PRESET_SENSING = SensingQuality(p_false_alarm=0.1, p_missed_detection=0.08)


@pytest.fixture(scope="session")
def preset_profile() -> OutageProfile:
    return PRESET_PROFILE


@pytest.fixture(scope="session")
def preset_sensing() -> SensingQuality:
    return PRESET_SENSING


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def stable_single_phase_draws(rng: np.random.Generator, n: int):
    """Random (lam, mu) pairs with comfortable stability margins so the
    oracle chains stay small."""
    mu = rng.uniform(0.1, 1.0, n)
    lam = mu * rng.uniform(0.0, 0.85, n)
    return np.column_stack([lam, mu])


def stable_two_phase_draws(rng: np.random.Generator, n: int):
    """Random (lam, alpha, gamma) triples with lam comfortably below eta."""
    out = []
    while len(out) < n:
        alpha = rng.uniform(0.05, 1.0)
        gamma = rng.uniform(0.1, 1.0)
        u = rng.uniform(0.0, 0.85)
        # lam <= u * eta(lam) solved by iteration; eta is affine in lam
        lam = u * gamma / (1.0 + u * (gamma - alpha))
        if 0.0 <= lam < 1.0:
            out.append((lam, alpha, gamma))
    return out


def assert_mass_covers(levels, tol: float) -> None:
    """The per-level masses of a chain sum to at least 1 - tol, up to
    rounding: level k carries an error of about k ulp, so the sum may miss
    by a few ulp times the mean queue length."""
    slack = 4 * np.finfo(float).eps * (1.0 + np.arange(levels.size) @ levels)
    assert levels.sum() >= 1.0 - tol - slack


def traced_peak(fn, *args) -> int:
    """Peak traced memory in bytes of one call, after a warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
