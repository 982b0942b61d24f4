"""Incremental partial-assignment state.

Tracks the satisfied weight, the unsatisfied weight, and the doubled
midpoint bound 2*B_i = SAT_i + (W - UNSAT_i) along a sequential assignment.
Everything is kept doubled so all quantities stay exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .formula import Formula, Occurrence


class OrderError(ValueError):
    """The given assignment order is not a permutation of 1..n."""


class LemmaViolation(RuntimeError):
    """An invariant proven by the analysis failed; signals a bookkeeping
    or solver bug, never a property of the input."""


@dataclass(frozen=True)
class StepQuantities:
    """Exact decision data for the next variable in the order.

    t2/f2 are the doubled bound changes 2*t_i and 2*f_i.  sat_t, unsat_t
    (resp. _f) are the absolute SAT/UNSAT totals after setting the variable
    true (resp. false).  vz_w, vz_wbar, vz_f, vz_fbar are the weights
    W_i, Wbar_i, F_i, Fbar_i used by the alpha decision rule.
    """

    var: int
    t2: int
    f2: int
    sat_t: int
    sat_f: int
    unsat_t: int
    unsat_f: int
    vz_w: int
    vz_wbar: int
    vz_f: int
    vz_fbar: int


def check_order(n: int, order: Optional[Sequence[int]]) -> tuple[int, ...]:
    if order is None:
        return tuple(range(1, n + 1))
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise OrderError(f"order is not a permutation of 1..{n}")
    return order


class TraceState:
    """Mutable state of one sequential run over an immutable Formula."""

    __slots__ = (
        "formula",
        "order",
        "prefix",
        "values",
        "sat_weight",
        "unsat_weight",
        "_clause_sat",
        "_clause_open",
        "_occ",
    )

    def __init__(self, formula: Formula, order: Optional[Sequence[int]] = None):
        compiled = formula.compiled
        self.formula = formula
        self.order = check_order(formula.num_vars, order)
        self.prefix = 0
        self.values: list[Optional[bool]] = [None] * formula.num_vars
        self.sat_weight = 0
        self.unsat_weight = 0
        self._clause_sat = [False] * formula.num_clauses
        self._clause_open = list(compiled.open_counts)
        self._occ = compiled.occ  # shared with the formula, read-only

    @property
    def doubled_bound(self) -> int:
        """2*B_i = SAT_i + (W - UNSAT_i)."""
        return self.sat_weight + self.formula.total_weight - self.unsat_weight

    def copy(self) -> "TraceState":
        other = TraceState.__new__(TraceState)
        other.formula = self.formula
        other.order = self.order
        other.prefix = self.prefix
        other.values = list(self.values)
        other.sat_weight = self.sat_weight
        other.unsat_weight = self.unsat_weight
        other._clause_sat = list(self._clause_sat)
        other._clause_open = list(self._clause_open)
        other._occ = self._occ  # occurrence lists are read-only
        return other

    def next_var(self) -> int:
        if self.prefix >= self.formula.num_vars:
            raise IndexError("all variables are already assigned")
        return self.order[self.prefix]


def new_trace(formula: Formula, order: Optional[Sequence[int]] = None) -> TraceState:
    return TraceState(formula, order)


def occurrence_sums(
    occ_v: Sequence[Occurrence], clause_sat: list[bool], clause_open: list[int]
) -> tuple[int, int, int, int, int]:
    """(taut, W, Wbar, F, Fbar) over the clauses of occ(v) not yet satisfied.

    taut is the weight of clauses tautological in v; W (resp. Wbar) that of
    clauses where v is the last open variable and occurs positively (resp.
    negatively); F (resp. Fbar) that of the other clauses where v occurs
    positively (resp. negatively).
    """
    taut = w_pos = w_neg = f_pos = f_neg = 0
    for j, sign, w in occ_v:
        if clause_sat[j]:
            continue
        if sign == 0:
            taut += w
        elif clause_open[j] == 1:
            if sign > 0:
                w_pos += w
            else:
                w_neg += w
        elif sign > 0:
            f_pos += w
        else:
            f_neg += w
    return taut, w_pos, w_neg, f_pos, f_neg


def assign_occurrences(
    occ_v: Sequence[Occurrence],
    clause_sat: list[bool],
    clause_open: list[int],
    value: bool,
) -> tuple[int, int]:
    """Sets v to value over occ(v), updating clause_sat and clause_open in
    place; returns the (satisfied, unsatisfied) weight it adds."""
    hit = 1 if value else -1
    sat_gain = unsat_gain = 0
    for j, sign, w in occ_v:
        clause_open[j] -= 1
        if clause_sat[j]:
            continue
        if sign == hit or sign == 0:
            clause_sat[j] = True
            sat_gain += w
        elif clause_open[j] == 0:
            unsat_gain += w
    return sat_gain, unsat_gain


def step_quantities(state: TraceState) -> StepQuantities:
    """Decision quantities for the next unassigned variable.

    A clause counts toward unsat_t exactly when it is not yet satisfied,
    the variable is its last unassigned one, and setting it true does not
    satisfy it.  Raises LemmaViolation if t2 + f2 < 0, which the analysis
    proves impossible.
    """
    v = state.next_var()
    taut, w_pos, w_neg, f_pos, f_neg = occurrence_sums(
        state._occ[v], state._clause_sat, state._clause_open
    )
    t2 = taut + w_pos + f_pos - w_neg
    f2 = taut + w_neg + f_neg - w_pos
    if t2 + f2 < 0:
        raise LemmaViolation(
            f"Lemma 1 violated at x{v}: t2 + f2 = {t2 + f2} < 0"
        )
    return StepQuantities(
        var=v,
        t2=t2,
        f2=f2,
        sat_t=state.sat_weight + taut + w_pos + f_pos,
        sat_f=state.sat_weight + taut + w_neg + f_neg,
        unsat_t=state.unsat_weight + w_neg,
        unsat_f=state.unsat_weight + w_pos,
        vz_w=w_pos,
        vz_wbar=w_neg,
        vz_f=f_pos,
        vz_fbar=f_neg,
    )


def apply(state: TraceState, value: bool) -> TraceState:
    """Assign the next variable in order; updates state in place."""
    v = state.next_var()
    state.values[v - 1] = value
    sat_gain, unsat_gain = assign_occurrences(
        state._occ[v], state._clause_sat, state._clause_open, value
    )
    state.sat_weight += sat_gain
    state.unsat_weight += unsat_gain
    state.prefix += 1
    return state


def alpha(q: StepQuantities) -> Optional[Fraction]:
    """The alpha-rule quantity (W_i + F_i - Wbar_i) / (F_i + Fbar_i), exact.

    A zero denominator (every touched clause is decided either way by this
    variable) is reported as None; callers resolve it from the signs of
    t2/f2: t2 <= 0 acts as alpha <= 0, f2 <= 0 as alpha >= 1.
    """
    den = q.vz_f + q.vz_fbar
    if den == 0:
        return None
    return Fraction(q.vz_w + q.vz_f - q.vz_wbar, den)


def recompute_sat_unsat(
    formula: Formula, values: Sequence[Optional[bool]]
) -> tuple[int, int]:
    """Full-rescan reference for (SAT_i, UNSAT_i); cross-checks the
    incremental bookkeeping."""
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
