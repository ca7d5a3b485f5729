"""Throughput, stability and delay analysis for an energy-harvesting
secondary link sharing a slotted channel with a primary user, plus the
slot-level Monte Carlo used to validate the closed forms."""

from .params import (
    LinkBudget,
    OutageProfile,
    PolicyFb,
    PolicyNoFb,
    PowerMode,
    Scheme,
    SensingQuality,
    TrafficParams,
    Unstable,
)
from .outage import (
    CrossSnr,
    build_profile,
    success_prob_concurrent,
    success_prob_solo,
    transmission_rate,
)
from .nofeedback import AnalysisReport
from .optimizer import OptProblem, OptResult, SolverConfig, grid_oracle, solve, solve_many
from .simulator import (
    SimSemantics,
    SimStats,
    closed_form_checks,
    run,
    validate_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CrossSnr",
    "LinkBudget",
    "OptProblem",
    "OptResult",
    "OutageProfile",
    "PolicyFb",
    "PolicyNoFb",
    "PowerMode",
    "Scheme",
    "SensingQuality",
    "SimSemantics",
    "SimStats",
    "SolverConfig",
    "TrafficParams",
    "Unstable",
    "build_profile",
    "closed_form_checks",
    "grid_oracle",
    "run",
    "solve",
    "solve_many",
    "success_prob_concurrent",
    "success_prob_solo",
    "transmission_rate",
    "validate_lower_bound",
]
