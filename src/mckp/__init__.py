"""Multiple-choice knapsack toolkit.

Pick exactly one item per category, maximize total profit within a cost
budget. The pipeline recasts the constraint as a second objective (negated
cost), walks the supported nondominated selections by weight bisection to
bracket the budget, then narrows the remaining gap with per-category
augmented Chebyshev subproblems. Exact oracles (enumeration, dynamic
programming) back the tests and the gap reports.
"""

from .bench import GapReport, GapRow, run_benchmark
from .bissa import BissaResult, WeightStep, bissa, solve_linear
from .frontier import RhoBound, delta_bound, solve_chebyshev_subproblem
from .generate import Correlation, GenSpec, SplitMix64, generate
from .kissa import (
    KissaConfig,
    KissaIteration,
    KissaRun,
    SelectionRule,
    Termination,
    certify,
    improvable_categories,
    kissa,
)
from .model import (
    Category,
    InfeasibleInstanceError,
    Instance,
    InstanceFormatError,
    InvalidSelectionError,
    Item,
    MCKPError,
    ObjectivePoint,
    Selection,
    evaluate,
    is_feasible,
    pareto_filter,
    read_instance,
    write_instance,
)
from .oracle import (
    ExactResult,
    Method,
    NonIntegerInstanceError,
    OracleGuardError,
    brute_force,
    dp_solve,
    pareto_enumerate,
)

__version__ = "0.1.0"

__all__ = [
    "BissaResult",
    "Category",
    "Correlation",
    "ExactResult",
    "GapReport",
    "GapRow",
    "GenSpec",
    "InfeasibleInstanceError",
    "Instance",
    "InstanceFormatError",
    "InvalidSelectionError",
    "Item",
    "KissaConfig",
    "KissaIteration",
    "KissaRun",
    "MCKPError",
    "Method",
    "NonIntegerInstanceError",
    "ObjectivePoint",
    "OracleGuardError",
    "RhoBound",
    "Selection",
    "SelectionRule",
    "SplitMix64",
    "Termination",
    "WeightStep",
    "bissa",
    "brute_force",
    "certify",
    "delta_bound",
    "dp_solve",
    "evaluate",
    "generate",
    "improvable_categories",
    "is_feasible",
    "kissa",
    "pareto_enumerate",
    "pareto_filter",
    "read_instance",
    "run_benchmark",
    "solve_chebyshev_subproblem",
    "solve_linear",
    "write_instance",
]
