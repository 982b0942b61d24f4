"""Full-rescan references for the incremental kernel and the decision-tree
walk: the satisfied and unsatisfied weight of a partial assignment, and
the exact expectation by enumerating every leaf.

Both read only Clause.pos, Clause.neg and Clause.weight and the decision
rule greedy.decide, never Formula.compiled or the kernel over it, so a
fault in the kernel cannot hide in its own reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from maxsat34 import Formula, greedy
from maxsat34.oracle import LimitError

ENUMERATION_LIMIT = 6


def recompute_sat_unsat(
    formula: Formula, values: Sequence[Optional[bool]]
) -> tuple[int, int]:
    """(SAT_i, UNSAT_i) of a partial assignment by a full rescan: the
    weight of the clauses a set literal satisfies, and of those whose
    variables are all set and none satisfies."""
    sat = unsat = 0
    for c in formula.clauses:
        satisfied = any(values[v - 1] is True for v in c.pos) or any(
            values[v - 1] is False for v in c.neg
        )
        if satisfied:
            sat += c.weight
        elif all(values[v - 1] is not None for v in c.variables()):
            unsat += c.weight
    return sat, unsat


def enumerate_expectation(
    formula: Formula, order: Optional[Sequence[int]] = None
) -> Fraction:
    """Independent cross-check of exact_expectation: sums probability *
    weight over all 2^n leaf assignments, replaying each path from scratch
    with explicit probability products.  Each step's t2 and f2 are the
    changes of SAT - UNSAT, from full rescans, for x_v true and false."""
    n = formula.num_vars
    if n > ENUMERATION_LIMIT:
        raise LimitError(
            f"n = {n} exceeds path-enumeration limit {ENUMERATION_LIMIT}"
        )
    order = range(1, n + 1) if order is None else order
    total = Fraction(0)
    for code in range(1 << n):
        values: list[Optional[bool]] = [None] * n
        prob = Fraction(1)
        sat = unsat = 0
        for v in order:
            values[v - 1] = True
            sat_t, unsat_t = recompute_sat_unsat(formula, values)
            values[v - 1] = False
            sat_f, unsat_f = recompute_sat_unsat(formula, values)
            num, den = greedy.decide(
                (sat_t - sat) - (unsat_t - unsat), (sat_f - sat) - (unsat_f - unsat)
            )
            if code >> (v - 1) & 1:
                values[v - 1] = True
                prob *= Fraction(num, den)
                sat, unsat = sat_t, unsat_t
            else:
                prob *= 1 - Fraction(num, den)
                sat, unsat = sat_f, unsat_f
            if not prob:  # the rule never takes this path
                break
        total += prob * sat
    return total
