"""Hypervolume-based steady-state EMO algorithms on pseudo-Boolean jump
benchmarks, with exact brute-force oracles and a runtime-experiment harness."""

from .algorithms import AlgorithmConfig, RunRecord, auto_mu, gsemo_run, sms_emoa_run
from .benchmarks import (
    FrontDescriptor,
    ProblemInstance,
    incomparable_family,
    inner_level,
    is_inner_pareto_optimum,
    is_pareto_optimal,
    parse_problem,
)
from .bounds import bound_value
from .core import ObjectiveVector, dominates, incomparable, weakly_dominates
from .harness import ExperimentSpec, ResultRow, run_experiment, summarize
from .oracle import (
    OracleBudget,
    brute_force_front,
    hv_inclusion_exclusion,
    hv_monte_carlo,
    verify_antichain,
)
from .selection import default_reference_point, hv_contribution, hypervolume
from .variation import MutationOperator, PowerLawDistribution

__all__ = [
    "AlgorithmConfig", "RunRecord", "auto_mu", "gsemo_run", "sms_emoa_run",
    "FrontDescriptor", "ProblemInstance", "incomparable_family", "inner_level",
    "is_inner_pareto_optimum", "is_pareto_optimal", "parse_problem",
    "bound_value",
    "ObjectiveVector", "dominates", "incomparable", "weakly_dominates",
    "ExperimentSpec", "ResultRow", "run_experiment", "summarize",
    "OracleBudget", "brute_force_front", "hv_inclusion_exclusion", "hv_monte_carlo",
    "verify_antichain",
    "default_reference_point", "hv_contribution", "hypervolume",
    "MutationOperator", "PowerLawDistribution",
]
__version__ = "0.1.0"
