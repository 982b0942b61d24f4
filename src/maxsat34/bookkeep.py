"""Incremental partial-assignment state.

Tracks the satisfied weight, the unsatisfied weight, and the doubled
midpoint bound 2*B_i = SAT_i + (W - UNSAT_i) along a sequential assignment.
Everything is kept doubled so all quantities stay exact integers.
step_deltas is the counting kernel of every step: it holds the only t2/f2
derivation and the only Lemma 1 check, and returns the sums (taut, W, Wbar,
F, Fbar) from which the alpha rule and the greedy baselines decide.  drive
is the sequential driver; TraceState, step_quantities and apply serve the
decision-tree walk of the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    true (resp. false).
    """

    var: int
    t2: int
    f2: int
    sat_t: int
    sat_f: int
    unsat_t: int
    unsat_f: int


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


def step_deltas(
    v: int,
    occ_v: Sequence[Occurrence],
    clause_sat: list[bool],
    clause_open: list[int],
) -> tuple[int, int, tuple[int, int, int, int, int]]:
    """(t2, f2, (taut, W, Wbar, F, Fbar)) for variable v over occ(v).

    The sums run over the clauses not yet satisfied: taut is the weight of
    clauses tautological in v; W (resp. Wbar) that of clauses where v is the
    last open variable and occurs positively (resp. negatively); F (resp.
    Fbar) that of the other clauses where v occurs positively (resp.
    negatively).  t2 and f2 are the doubled bound changes of setting v true
    and false.  Raises LemmaViolation if t2 + f2 < 0, which the analysis
    proves impossible.
    """
    taut = w_pos = w_neg = f_pos = f_neg = 0
    for j, sign, w in occ_v:
        if clause_sat[j]:
            continue
        # tautological occurrences (sign 0) are rare: tested last
        if sign > 0:
            if clause_open[j] == 1:
                w_pos += w
            else:
                f_pos += w
        elif sign:
            if clause_open[j] == 1:
                w_neg += w
            else:
                f_neg += w
        else:
            taut += w
    t2 = taut + w_pos + f_pos - w_neg
    f2 = taut + w_neg + f_neg - w_pos
    if t2 + f2 < 0:
        raise LemmaViolation(
            f"Lemma 1 violated at x{v}: t2 + f2 = {t2 + f2} < 0"
        )
    return t2, f2, (taut, w_pos, w_neg, f_pos, f_neg)


def assign_occurrences(
    occ_v: Sequence[Occurrence],
    clause_sat: list[bool],
    clause_open: list[int],
    value: bool,
) -> tuple[int, int]:
    """Sets v to value over occ(v), updating clause_sat and clause_open in
    place; returns the (satisfied, unsatisfied) weight it adds."""
    miss = -1 if value else 1  # the one sign this value leaves unsatisfied
    sat_gain = unsat_gain = 0
    for j, sign, w in occ_v:
        clause_open[j] -= 1
        if clause_sat[j]:
            continue
        if sign != miss:
            clause_sat[j] = True
            sat_gain += w
        elif clause_open[j] == 0:
            unsat_gain += w
    return sat_gain, unsat_gain


def step_quantities(state: TraceState) -> StepQuantities:
    """Decision quantities for the next unassigned variable.

    A clause counts toward unsat_t exactly when it is not yet satisfied,
    the variable is its last unassigned one, and setting it true does not
    satisfy it.  Raises LemmaViolation as step_deltas does.
    """
    v = state.next_var()
    t2, f2, (taut, w_pos, w_neg, f_pos, f_neg) = step_deltas(
        v, state._occ[v], state._clause_sat, state._clause_open
    )
    return StepQuantities(
        var=v,
        t2=t2,
        f2=f2,
        sat_t=state.sat_weight + taut + w_pos + f_pos,
        sat_f=state.sat_weight + taut + w_neg + f_neg,
        unsat_t=state.unsat_weight + w_neg,
        unsat_f=state.unsat_weight + w_pos,
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


def drive(
    formula: Formula,
    order: Optional[Sequence[int]],
    pick: Callable[[int, int, int, tuple[int, int, int, int, int]], bool],
) -> tuple[list[bool], int]:
    """Sets the variables one by one in order, each to the value
    pick(v, t2, f2, sums) returns, with (t2, f2, sums) from step_deltas;
    returns (values, satisfied weight).  The one sequential driver of every
    recorded algorithm."""
    occ, open_counts = formula.compiled
    clause_sat = [False] * len(open_counts)
    clause_open = list(open_counts)
    values = [False] * formula.num_vars
    weight = 0
    for v in check_order(formula.num_vars, order):
        occ_v = occ[v]
        t2, f2, sums = step_deltas(v, occ_v, clause_sat, clause_open)
        value = values[v - 1] = pick(v, t2, f2, sums)
        weight += assign_occurrences(occ_v, clause_sat, clause_open, value)[0]
    return values, weight


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
