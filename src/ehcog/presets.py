"""Canned configurations for the benchmark operating points.

Each preset is a plain dict in the same shape the YAML config files use;
get_preset returns a deep copy so callers can tweak freely.

All four share the same link quality: primary solo success 0.7 degrading to
0.14 under interference, secondary full-slot solo success 0.6065 degrading
to 0.1820, post-sensing penalties 0.9782 (solo) and 0.8 (concurrent),
sensing false-alarm 0.1 and missed-detection 0.08.

fig4  throughput vs primary load, tight delay bound (2 slots)
fig6  same sweep with the bound relaxed to 200 slots
fig7  throughput vs energy harvesting rate at lam_p = 0.2
fig8  effect of disabling multipacket reception at lam_e = 0.5
"""
from __future__ import annotations

import copy

_PROFILE = {
    "probabilities": {
        "p_primary": 0.7,
        "p_primary_conc": 0.14,
        "p_sec_full": 0.6065,
        "p_sec_full_conc": 0.1820,
        "short_ratio": 0.9782,
        "short_ratio_conc": 0.8,
    }
}

_SENSING = {"p_false_alarm": 0.1, "p_missed_detection": 0.08}

_BASE = {
    "scheme": "nofeedback",
    "seed": 0,
    "profile": _PROFILE,
    "sensing": _SENSING,
    # the single-point commands (analyze/simulate) default to the
    # hand-checkable operating point: blind full-slot access at lam_p=0.126
    "policy": {
        "p_sense": 0.0,
        "p_access_free": 0.0,
        "p_access_busy": 0.0,
        "p_access_direct": 1.0,
        "p_access_retx": 0.0,
    },
    "solver": {"n_starts": 64},
    "sim": {"n_slots": 1_000_000},
}

_LAM_P_GRID = [round(0.05 * i, 10) for i in range(14)]  # 0.0 .. 0.65

PRESETS = {
    "fig4": {
        **_BASE,
        "traffic": {"lam_p": 0.126, "lam_s": 1.0, "lam_e": 0.8, "delay_bound": 2},
        "sweep": {"variable": "lam_p", "grid": _LAM_P_GRID},
    },
    "fig6": {
        **_BASE,
        "traffic": {"lam_p": 0.126, "lam_s": 1.0, "lam_e": 0.8, "delay_bound": 200},
        "sweep": {"variable": "lam_p", "grid": _LAM_P_GRID},
    },
    "fig7": {
        **_BASE,
        "traffic": {"lam_p": 0.2, "lam_s": 1.0, "lam_e": 0.8, "delay_bound": 2},
        "sweep": {
            "variable": "lam_e",
            "grid": [round(0.1 * i, 10) for i in range(1, 11)],
        },
    },
    "fig8": {
        **_BASE,
        "traffic": {"lam_p": 0.2, "lam_s": 1.0, "lam_e": 0.5, "delay_bound": 2},
        "sweep": {"variable": "mpr_on", "grid": [1, 0]},
    },
}


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
