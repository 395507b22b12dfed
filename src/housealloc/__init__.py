"""House allocation with existing tenants under dichotomous preferences.

Provides the MSIR and MIR matching mechanisms, an exact maximum-weight
perfect matching solver, independent property oracles (individual
rationality, core stability, Pareto optimality, constrained welfare
maxima, strategyproofness) and a seeded instance generator.
"""

from .gen import GenParams, random_instance
from .mechanisms import (
    Mechanism,
    MechanismResult,
    MechanismTrace,
    PermutationPolicy,
    Solved,
    run_mechanism,
)
from .model import Allocation, Instance, utility, validate_instance, welfare
from .oracles import (
    check_strategyproofness,
    is_core_stable,
    is_ir,
    is_pareto_optimal,
    is_sir,
    is_strict_core_stable,
    max_welfare,
)

__all__ = [
    "Allocation",
    "GenParams",
    "Instance",
    "Mechanism",
    "MechanismResult",
    "MechanismTrace",
    "PermutationPolicy",
    "Solved",
    "check_strategyproofness",
    "is_core_stable",
    "is_ir",
    "is_pareto_optimal",
    "is_sir",
    "is_strict_core_stable",
    "max_welfare",
    "random_instance",
    "run_mechanism",
    "utility",
    "validate_instance",
    "welfare",
]

__version__ = "0.1.0"
