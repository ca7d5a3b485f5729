"""Per-slot success probabilities over Rayleigh block-fading links.

A transmission of a b-bit packet squeezed into a fraction x of the slot needs
rate b/(T*x) and succeeds when the instantaneous capacity exceeds it.  With an
exponentially distributed channel power gain this gives a closed form for the
solo success probability; treating the interferer's gain as another
independent exponential gives the concurrent (multipacket reception) one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import LinkBudget, OutageProfile, PowerMode


def _check_stage(i: int) -> None:
    if i not in (0, 1):
        raise ValueError("i must be 0 (full slot) or 1 (after sensing)")


def transmission_rate(link: LinkBudget, i: int) -> float:
    """Rate in bits/second needed to fit one packet into the remaining slot."""
    _check_stage(i)
    return link.bits_per_packet / (link.slot_duration - i * link.sensing_duration)


def _snr_threshold(link: LinkBudget, i: int) -> float:
    # capacity r = W log2(1 + snr) solved for snr
    r = transmission_rate(link, i)
    with np.errstate(over="ignore"):
        return float(np.exp2(r / link.bandwidth) - 1.0)


def _effective_snr(link: LinkBudget, i: int, mode: PowerMode) -> float:
    if mode is PowerMode.FIXED_ENERGY and i == 1:
        x = 1.0 - link.sensing_duration / link.slot_duration
        return link.mean_snr / x
    return link.mean_snr


def success_prob_solo(
    link: LinkBudget, i: int, mode: PowerMode = PowerMode.FIXED_ENERGY
) -> float:
    """Probability the packet survives a slot with no interference.

    i = 0 for a transmission spanning the whole slot, i = 1 for one that
    starts after the sensing period.
    """
    _check_stage(i)
    thr = _snr_threshold(link, i)
    snr = _effective_snr(link, i, mode)
    with np.errstate(over="ignore"):
        return float(np.exp(-thr / (snr * link.fading_mean)))


def success_prob_concurrent(
    link: LinkBudget,
    interferer_snr: float,
    i: int,
    mode: PowerMode = PowerMode.FIXED_ENERGY,
) -> float:
    """Success probability with one Rayleigh-faded interferer on the air.

    interferer_snr is the mean received SNR of the interfering signal at this
    link's receiver (the product of its transmit SNR and fading mean).  With
    two independent exponential gains the SINR threshold exceedance gives
    solo / (1 + thr * INR / SNR).
    """
    _check_stage(i)
    if interferer_snr < 0:
        raise ValueError("interferer_snr must be >= 0")
    thr = _snr_threshold(link, i)
    snr = _effective_snr(link, i, mode)
    solo = success_prob_solo(link, i, mode)
    denom = 1.0 + thr * interferer_snr / (snr * link.fading_mean)
    return solo / denom


@dataclass(frozen=True)
class CrossSnr:
    """Average interference SNRs between the two links.

    sec_at_primary_rx  secondary signal strength at the primary receiver
    pri_at_sec_rx      primary signal strength at the secondary receiver
    """

    sec_at_primary_rx: float
    pri_at_sec_rx: float

    def __post_init__(self):
        if not (self.sec_at_primary_rx >= 0 and self.pri_at_sec_rx >= 0):
            raise ValueError("cross SNRs must be >= 0")


def build_profile(
    primary: LinkBudget,
    secondary: LinkBudget,
    cross: CrossSnr,
    mode: PowerMode = PowerMode.FIXED_ENERGY,
) -> OutageProfile:
    """Assemble the six success probabilities from physical link parameters.

    The primary never senses, so only its full-slot probabilities appear.
    The secondary gets both the full-slot and the post-sensing variant, each
    solo and under primary interference.
    """
    return OutageProfile(
        p_primary=success_prob_solo(primary, 0, mode),
        p_primary_conc=success_prob_concurrent(
            primary, cross.sec_at_primary_rx, 0, mode
        ),
        p_sec_full=success_prob_solo(secondary, 0, mode),
        p_sec_short=success_prob_solo(secondary, 1, mode),
        p_sec_full_conc=success_prob_concurrent(
            secondary, cross.pri_at_sec_rx, 0, mode
        ),
        p_sec_short_conc=success_prob_concurrent(
            secondary, cross.pri_at_sec_rx, 1, mode
        ),
    )
