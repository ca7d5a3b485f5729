"""Closed-form analysis of the retransmission-aware access scheme.

The secondary overhears the primary's ACK/NACK feedback.  After a NACK it
knows the next primary slot carries a retransmission, so it skips sensing and
transmits with its own probability p_access_retx.  In all other slots it
behaves exactly as in the sensing-only scheme.

The primary queue is the two-phase chain of nofeedback, whose closed_forms
this module reads: the queue length together with whether the head packet
is fresh (success prob alpha per slot) or a retransmission (success prob
gamma per slot).  In the access masses of nofeedback, a fresh slot sees
interference mass I and a retransmission slot mass p_access_retx, so
alpha = p - lam_e (p - pc) I and gamma = p - lam_e (p - pc) p_access_retx
are one expression, nofeedback.primary_success.  The secondary's brackets
are the sensing-only idle and busy ones plus
retx = p_access_retx p_sec_full_conc.  eta, the mean of alpha and gamma
weighted by lam_p and 1 - lam_p, is the aggregate service rate that governs
stability.  At p_access_retx = I the chain is the sensing-only one.
"""
from __future__ import annotations

import numpy as np

from . import nofeedback
from .params import OutageProfile, PolicyFb, SensingQuality, TrafficParams
from .nofeedback import AnalysisReport


def success_probs(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    lam_e: float,
):
    """(alpha, gamma): success probability of a fresh / retransmitted
    primary packet per slot.

    A fresh slot is indistinguishable from a sensing-only busy slot, so alpha
    is that service rate, the primary success at interference mass
    I = interference_prob.  In a retransmission slot the secondary never
    senses and attacks with p_access_retx when it has energy, so gamma is the
    same expression at mass p_access_retx.
    """
    alpha = nofeedback.primary_service_rate(profile, policy, sensing, lam_e)
    gamma = nofeedback.primary_success(profile, lam_e, policy.p_access_retx)
    return alpha, gamma


def chain_at(profile: OutageProfile, alpha, idle, busy, p_access_retx, traffic: TrafficParams):
    """nofeedback.closed_forms of the chain with the sensing-only alpha,
    idle and busy (the rates of fresh-head and empty slots, which read only
    the sensing/access fields of a policy) at retransmission access
    p_access_retx.  In a retransmission slot the secondary transmits
    blindly over the full slot against a busy channel, so gamma is the
    primary success at mass p_access_retx."""
    gamma = nofeedback.primary_success(profile, traffic.lam_e, p_access_retx)
    retx = p_access_retx * profile.p_sec_full_conc
    lam_p, lam_e, bound = traffic.lam_p, traffic.lam_e, traffic.delay_bound
    return nofeedback.closed_forms(lam_p, alpha, gamma, idle, busy, retx, lam_e, bound)


def retx_cap(profile: OutageProfile, alpha, traffic: TrafficParams):
    """The largest p_access_retx at which chain_at is feasible, in exact
    arithmetic: where gamma = p - lam_e (p - pc) p_access_retx falls to
    nofeedback.gamma_floor.  Where lam_e (p - pc) = 0, gamma does not move
    with p_access_retx, and the cap is +-inf or nan."""
    p = profile.p_primary
    floor = nofeedback.gamma_floor(traffic.lam_p, alpha, traffic.delay_bound)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p - floor) / (traffic.lam_e * (p - profile.p_primary_conc))


def operating_point(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> nofeedback.OperatingPoint:
    """nofeedback.closed_forms of a policy (scalar or batched) under
    traffic."""
    alpha = nofeedback.primary_service_rate(profile, policy, sensing, traffic.lam_e)
    idle, busy = nofeedback.service_brackets(profile, policy, sensing)
    return chain_at(profile, alpha, idle, busy, policy.p_access_retx, traffic)


def analyze(
    profile: OutageProfile,
    policy: PolicyFb,
    sensing: SensingQuality,
    traffic: TrafficParams,
) -> AnalysisReport:
    """Full operating-point summary for the retransmission-aware scheme."""
    return nofeedback.report(operating_point(profile, policy, sensing, traffic), traffic)
