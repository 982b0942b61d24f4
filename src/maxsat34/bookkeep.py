"""Incremental partial-assignment state.

Tracks, along a sequential assignment, the satisfied weight and, per
clause, whether it is satisfied and how many of its variables are open.
Decisions need only t_i and f_i, the changes of the midpoint bound B_i,
kept doubled so all quantities stay exact integers.
step_deltas is the counting kernel of every step: it holds the only t2/f2
derivation and the only Lemma 1 check, and returns the sums (taut, W, Wbar,
F, Fbar) from which the alpha rule and the greedy baselines decide.
assign_occurrences sets a variable.  greedy.drive runs the two along one
order; TraceState, step_quantities and apply serve the decision-tree walk
of the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .formula import Formula, Occurrence


class OrderError(ValueError):
    """The given assignment order is not a permutation of 1..n."""


class LemmaViolation(RuntimeError):
    """An invariant proven by the analysis failed; signals a bookkeeping
    or solver bug, never a property of the input."""


@dataclass(frozen=True)
class StepQuantities:
    """Exact decision data for the next variable in the order: t2/f2 are
    the doubled bound changes 2*t_i and 2*f_i."""

    var: int
    t2: int
    f2: int


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
        self._clause_sat = [False] * formula.num_clauses
        self._clause_open = list(compiled.open_counts)
        self._occ = compiled.occ  # shared with the formula, read-only

    def copy(self) -> "TraceState":
        other = TraceState.__new__(TraceState)
        other.formula = self.formula
        other.order = self.order
        other.prefix = self.prefix
        other.values = list(self.values)
        other.sat_weight = self.sat_weight
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
) -> int:
    """Sets v to value over occ(v) in place; returns the satisfied weight
    it adds.  Touches only clauses not yet satisfied, and drops
    clause_open[j] only when value misses clause j: step_deltas never reads
    the open count of a satisfied clause."""
    miss = -1 if value else 1  # the one sign this value does not satisfy
    gain = 0
    for j, sign, w in occ_v:
        if clause_sat[j]:
            continue
        if sign != miss:
            clause_sat[j] = True
            gain += w
        else:
            clause_open[j] -= 1
    return gain


def step_quantities(state: TraceState) -> StepQuantities:
    """Decision quantities for the next unassigned variable; raises
    LemmaViolation as step_deltas does."""
    v = state.next_var()
    t2, f2, _ = step_deltas(v, state._occ[v], state._clause_sat, state._clause_open)
    return StepQuantities(v, t2, f2)


def apply(state: TraceState, value: bool) -> TraceState:
    """Assign the next variable in order; updates state in place."""
    v = state.next_var()
    state.values[v - 1] = value
    state.sat_weight += assign_occurrences(
        state._occ[v], state._clause_sat, state._clause_open, value
    )
    state.prefix += 1
    return state

