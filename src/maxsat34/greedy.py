"""Sequential assignment algorithms.

run_randomized implements the bound-balancing randomized algorithm with the
3/4 expectation guarantee; run_vanzuylen drives the same process through the
alpha quantity and produces identical traces; run_greedy_sat and
run_greedy_unsat are the two deterministic baselines it balances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .bookkeep import (
    LemmaViolation,
    StepQuantities,
    alpha,
    apply,
    assign_occurrences,
    check_order,
    new_trace,
    occurrence_sums,
    step_quantities,
)
from .formula import Assignment, Formula

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64


def splitmix64(seed: int) -> Iterator[int]:
    """SplitMix64 stream (Steele, Lea, Flood 2014): one 64-bit word per
    next().  Fixed here as the trace-replication contract: any
    reimplementation seeding SplitMix64 with the same value reproduces the
    same draws."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


@dataclass(frozen=True)
class StepRecord:
    var: int
    t2: int
    f2: int
    value: bool
    prob_true: Fraction
    draw: Optional[Fraction]  # None when the step was deterministic


@dataclass(frozen=True)
class RunResult:
    assignment: Assignment
    weight: int
    steps: tuple[StepRecord, ...]
    seed: Optional[int]


def choose(
    q: StepQuantities, draw: Optional[Fraction]
) -> tuple[bool, Fraction]:
    """Decide the next variable's value from its bound deltas.

    Deterministic when t2 <= 0 or f2 <= 0 (draw unused, may be None);
    otherwise true iff draw < t2/(t2+f2).  The t2 = f2 = 0 tie sets true.
    """
    t2, f2 = q.t2, q.f2
    if t2 + f2 < 0:
        raise LemmaViolation(
            f"Lemma 1 violated at x{q.var}: t2 + f2 = {t2 + f2} < 0"
        )
    if f2 <= 0 and t2 > 0:
        return True, Fraction(1)
    if t2 <= 0 and f2 > 0:
        return False, Fraction(0)
    if t2 <= 0 and f2 <= 0:
        return True, Fraction(1)
    if draw is None or not 0 <= draw < 1:
        raise ValueError("randomized step needs a draw in [0, 1)")
    prob_true = Fraction(t2, t2 + f2)
    return draw < prob_true, prob_true


def run_randomized(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> RunResult:
    """One run of the randomized algorithm; pure function of
    (formula, order, seed).  Deterministic steps consume no random words,
    keeping traces aligned with run_vanzuylen."""
    trace = new_trace(formula, order)
    words = splitmix64(seed)
    steps = []
    for _ in range(formula.num_vars):
        q = step_quantities(trace)
        draw = None
        if q.t2 > 0 and q.f2 > 0:
            draw = Fraction(next(words), _TWO64)
        value, prob_true = choose(q, draw)
        steps.append(StepRecord(q.var, q.t2, q.f2, value, prob_true, draw))
        apply(trace, value)
    return RunResult(
        assignment=tuple(trace.values),  # type: ignore[arg-type]
        weight=trace.sat_weight,
        steps=tuple(steps),
        seed=seed,
    )


def run_vanzuylen(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> RunResult:
    """Alpha-rule variant: false if alpha <= 0, true if alpha >= 1, else
    true with probability alpha.  Equivalent to run_randomized step by step;
    a zero alpha denominator is resolved from the signs of t2/f2."""
    trace = new_trace(formula, order)
    words = splitmix64(seed)
    steps = []
    for _ in range(formula.num_vars):
        q = step_quantities(trace)
        a = alpha(q)
        draw = None
        if a is None:
            # denominator 0: t2 = -f2, both decisions forced
            if q.f2 <= 0:
                value, prob_true = True, Fraction(1)
            else:
                value, prob_true = False, Fraction(0)
        elif a <= 0:
            value, prob_true = False, Fraction(0)
        elif a >= 1:
            value, prob_true = True, Fraction(1)
        else:
            draw = Fraction(next(words), _TWO64)
            value, prob_true = draw < a, a
        steps.append(StepRecord(q.var, q.t2, q.f2, value, prob_true, draw))
        apply(trace, value)
    return RunResult(
        assignment=tuple(trace.values),  # type: ignore[arg-type]
        weight=trace.sat_weight,
        steps=tuple(steps),
        seed=seed,
    )


def run_weight(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> int:
    """Weight-only fast path of run_randomized (same decisions, no step
    records); used for Monte Carlo sweeps.  Runs the bookkeep counting
    kernel on two local lists instead of a TraceState."""
    occ, open_counts = formula.compiled
    clause_sat = [False] * len(open_counts)
    clause_open = list(open_counts)
    words = splitmix64(seed)
    weight = 0
    for v in check_order(formula.num_vars, order):
        taut, w_pos, w_neg, f_pos, f_neg = occurrence_sums(
            occ[v], clause_sat, clause_open
        )
        # the doubled bound deltas, as in bookkeep.step_quantities
        t2 = taut + w_pos + f_pos - w_neg
        f2 = taut + w_neg + f_neg - w_pos
        if t2 + f2 < 0:
            raise LemmaViolation(
                f"Lemma 1 violated at x{v}: t2 + f2 = {t2 + f2} < 0"
            )
        if f2 <= 0 and t2 > 0:
            value = True
        elif t2 <= 0 and f2 > 0:
            value = False
        elif t2 <= 0 and f2 <= 0:
            value = True
        else:
            # draw < t2/(t2+f2) with draw = word/2^64, compared exactly
            value = next(words) * (t2 + f2) < t2 * _TWO64
        weight += assign_occurrences(occ[v], clause_sat, clause_open, value)[0]
    return weight


def _run_deterministic(formula, order, prefer_true_metric) -> RunResult:
    trace = new_trace(formula, order)
    steps = []
    for _ in range(formula.num_vars):
        q = step_quantities(trace)
        value = prefer_true_metric(q)
        prob_true = Fraction(1) if value else Fraction(0)
        steps.append(StepRecord(q.var, q.t2, q.f2, value, prob_true, None))
        apply(trace, value)
    return RunResult(
        assignment=tuple(trace.values),  # type: ignore[arg-type]
        weight=trace.sat_weight,
        steps=tuple(steps),
        seed=None,
    )


def run_greedy_sat(
    formula: Formula, order: Optional[Sequence[int]] = None
) -> RunResult:
    """Baseline: pick the value with the larger satisfied-weight increase;
    ties go to true."""
    return _run_deterministic(
        formula, order, lambda q: q.sat_t >= q.sat_f
    )


def run_greedy_unsat(
    formula: Formula, order: Optional[Sequence[int]] = None
) -> RunResult:
    """Baseline: pick the value with the smaller unsatisfied-weight
    increase; ties go to true."""
    return _run_deterministic(
        formula, order, lambda q: q.unsat_t <= q.unsat_f
    )
