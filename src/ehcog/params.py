"""Shared value types: link budgets, success-probability sets, policies, traffic.

Everything downstream (closed forms, optimizer, simulator) is parameterised by
these small frozen dataclasses.  Policy and quality fields accept numpy arrays
as well as floats so the optimizer can evaluate whole batches at once.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

PROB_TOL = 1e-12


class Unstable(ValueError):
    """An arrival rate meets or exceeds the service rate it must stay below."""


class PowerMode(enum.Enum):
    """Transmit-power convention for a shortened (post-sensing) transmission.

    FIXED_POWER keeps the configured receive SNR regardless of how much of the
    slot is left.  FIXED_ENERGY spends the same energy per packet, so the SNR
    of a transmission occupying a fraction x of the slot is scaled by 1/x.
    """

    FIXED_POWER = "fixed_power"
    FIXED_ENERGY = "fixed_energy"


class Scheme(enum.Enum):
    """Secondary access scheme, and the facts every layer reads from it.

    Random access is the sensing-only policy with p_sense = 0; feedback is
    the sensing-only policy plus p_access_retx.  policy_class is the
    scheme's policy dataclass, variables the fields the optimizer searches
    (in its tie-break order) and analysis the module of its closed forms.
    """

    NOFEEDBACK = "nofeedback"
    FEEDBACK = "feedback"
    RANDOM_ACCESS = "random_access"

    @property
    def policy_class(self) -> type:
        return PolicyFb if self is Scheme.FEEDBACK else PolicyNoFb

    @property
    def variables(self) -> tuple:
        if self is Scheme.RANDOM_ACCESS:
            return ("p_access_direct",)
        return tuple(self.policy_class.__dataclass_fields__)

    @property
    def analysis(self):
        # imported per call: both modules import this one, and a wrapper
        # set on a module attribute must see every call
        from . import feedback, nofeedback

        if self is Scheme.FEEDBACK:
            return feedback
        return nofeedback


def _check_prob(name: str, value, tol: float = PROB_TOL) -> None:
    v = np.asarray(value, dtype=float)
    if v.size == 0 or not np.all((v >= -tol) & (v <= 1.0 + tol)):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def unchecked(cls, *values):
    """cls(*values) for one of the frozen dataclasses here, without the
    checks of its __post_init__.

    Only for values the program builds itself from already checked ones:
    the optimizer's policy batches, whose fields lie in [0, 1] by
    construction, and the per-point problem fields of its lockstep search,
    which are arrays the checks cannot read.  Outside input always goes
    through cls(...)."""
    names = cls.__dataclass_fields__  # these classes have no ClassVar or InitVar
    if len(values) != len(names):
        raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(values)}")
    obj = object.__new__(cls)
    for name, value in zip(names, values):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class LinkBudget:
    """Physical parameters of one transmitter-receiver pair.

    bits_per_packet   packet size in bits (b >= 0)
    slot_duration     slot length T in seconds
    sensing_duration  sensing time tau, 0 <= tau < T
    bandwidth         channel bandwidth W in Hz
    mean_snr          average receive SNR for a full-slot transmission
    fading_mean       mean of the exponentially distributed channel power gain
    """

    bits_per_packet: float
    slot_duration: float
    sensing_duration: float = 0.0
    bandwidth: float = 1.0
    mean_snr: float = 1.0
    fading_mean: float = 1.0

    def __post_init__(self):
        if not self.bits_per_packet >= 0:
            raise ValueError("bits_per_packet must be >= 0")
        for name in ("slot_duration", "bandwidth", "mean_snr", "fading_mean"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.sensing_duration < self.slot_duration:
            raise ValueError("sensing_duration must satisfy 0 <= tau < T")


@dataclass(frozen=True)
class OutageProfile:
    """The six per-slot success probabilities that drive the queue analysis.

    p_primary        primary packet survives a slot with no interference
    p_primary_conc   primary packet survives a slot with secondary interference
    p_sec_full       secondary solo success, transmission spans the whole slot
    p_sec_short      secondary solo success, transmission started after sensing
    p_sec_full_conc  like p_sec_full but with the primary also transmitting
    p_sec_short_conc like p_sec_short but with the primary also transmitting
    """

    p_primary: float
    p_primary_conc: float
    p_sec_full: float
    p_sec_short: float
    p_sec_full_conc: float
    p_sec_short_conc: float

    def __post_init__(self):
        for name in (
            "p_primary",
            "p_primary_conc",
            "p_sec_full",
            "p_sec_short",
            "p_sec_full_conc",
            "p_sec_short_conc",
        ):
            _check_prob(name, getattr(self, name))
        # Interference can only hurt, and sensing first can only hurt a solo
        # transmission (shorter airtime at equal or rescaled power).
        if self.p_primary_conc > self.p_primary + PROB_TOL:
            raise ValueError("p_primary_conc must not exceed p_primary")
        if self.p_sec_full_conc > self.p_sec_full + PROB_TOL:
            raise ValueError("p_sec_full_conc must not exceed p_sec_full")
        if self.p_sec_short_conc > self.p_sec_short + PROB_TOL:
            raise ValueError("p_sec_short_conc must not exceed p_sec_short")
        if self.p_sec_short > self.p_sec_full + PROB_TOL:
            raise ValueError("p_sec_short must not exceed p_sec_full")

    @classmethod
    def from_ratios(
        cls,
        p_primary: float,
        p_primary_conc: float,
        p_sec_full: float,
        p_sec_full_conc: float,
        short_ratio: float,
        short_ratio_conc: float,
    ) -> "OutageProfile":
        """Build a profile from full-slot probabilities plus the ratios
        p_sec_short / p_sec_full and p_sec_short_conc / p_sec_full_conc.

        Handy when an operating point quotes the shortened-transmission
        penalty as a ratio rather than an absolute probability.
        """
        return cls(
            p_primary=p_primary,
            p_primary_conc=p_primary_conc,
            p_sec_full=p_sec_full,
            p_sec_short=p_sec_full * short_ratio,
            p_sec_full_conc=p_sec_full_conc,
            p_sec_short_conc=p_sec_full_conc * short_ratio_conc,
        )

    def without_mpr(self) -> "OutageProfile":
        """Copy of this profile with all concurrent successes forced to zero,
        i.e. a collision channel where simultaneous transmissions always fail."""
        return replace(
            self, p_primary_conc=0.0, p_sec_full_conc=0.0, p_sec_short_conc=0.0
        )


@dataclass(frozen=True)
class SensingQuality:
    """Imperfections of the secondary's spectrum sensor.

    p_false_alarm      declare busy when the primary is silent
    p_missed_detection declare free when the primary is transmitting
    """

    p_false_alarm: float = 0.0
    p_missed_detection: float = 0.0

    def __post_init__(self):
        _check_prob("p_false_alarm", self.p_false_alarm)
        _check_prob("p_missed_detection", self.p_missed_detection)


@dataclass(frozen=True)
class PolicyNoFb:
    """Sensing/access probabilities for the sensing-only scheme.

    p_sense          probability the secondary spends tau sensing the slot
    p_access_free    transmit probability after sensing the channel free
    p_access_busy    transmit probability after sensing the channel busy
    p_access_direct  transmit probability when the slot is not sensed
    """

    p_sense: float = 0.0
    p_access_free: float = 0.0
    p_access_busy: float = 0.0
    p_access_direct: float = 0.0

    def __post_init__(self):
        for name in ("p_sense", "p_access_free", "p_access_busy", "p_access_direct"):
            _check_prob(name, getattr(self, name))


@dataclass(frozen=True)
class PolicyFb(PolicyNoFb):
    """Sensing-only policy plus a retransmission-slot access probability.

    p_access_retx applies in slots where the previous primary transmission
    was negatively acknowledged, so the secondary knows the primary is about
    to retransmit and skips sensing.
    """

    p_access_retx: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        _check_prob("p_access_retx", self.p_access_retx)


@dataclass(frozen=True)
class TrafficParams:
    """Bernoulli arrival rates per slot and the primary delay requirement.

    lam_p       primary packet arrival probability
    lam_s       secondary packet arrival probability
    lam_e       energy packet harvesting probability
    delay_bound average primary queueing delay ceiling in slots (>= 1, may
                be math.inf to drop the constraint)
    """

    lam_p: float
    lam_s: float
    lam_e: float
    delay_bound: float = math.inf

    def __post_init__(self):
        _check_prob("lam_p", self.lam_p)
        _check_prob("lam_s", self.lam_s)
        _check_prob("lam_e", self.lam_e)
        if not self.delay_bound >= 1.0:
            raise ValueError("delay_bound must be >= 1 slot")
