"""Weighted MAX SAT 3/4-approximation toolkit.

Sequential randomized assignment with the bound-balancing rule, its
alpha-rule twin, deterministic LP rounding backed by an exact rational
simplex, two greedy baselines, and exhaustive oracles that check every
guarantee with zero numerical tolerance.
"""

from .bookkeep import (
    LemmaViolation,
    OrderError,
    StepQuantities,
    TraceState,
    apply,
    new_trace,
    step_quantities,
)
from .formula import (
    Assignment,
    Clause,
    Formula,
    FormulaError,
    clause_satisfied,
    parse_dimacs,
    random_instance,
    satisfied_weight,
    write_dimacs,
)
from .greedy import (
    RunResult,
    StepRecord,
    run_greedy_sat,
    run_greedy_unsat,
    run_randomized,
    run_vanzuylen,
    run_weight,
    splitmix64,
)
from .lp import (
    LpModel,
    LpSolution,
    SimplexError,
    build_relaxation,
    check_certificate,
    lp_value,
    run_lp_rounding,
    solve_lp,
)
from .oracle import (
    ExpectationReport,
    LemmaReport,
    LimitError,
    brute_force_opt,
    check_lp_lemmas,
    check_randomized_lemmas,
    exact_expectation,
    monte_carlo_mean,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
