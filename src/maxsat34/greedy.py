"""Sequential assignment algorithms.

decide is the decision rule of the randomized algorithm, and its only
copy; run_randomized implements the bound-balancing randomized algorithm
with the 3/4 expectation guarantee through it, and so do run_weight and
the decision-tree walk of the oracles.  run_vanzuylen drives the same
process through the alpha quantity, computed on its own from the kernel's
sums, and produces identical traces; run_greedy_sat and run_greedy_unsat
are the two deterministic baselines it balances.  Every run_* except
run_weight is only a pick rule, returning P[x_v = true], for drive, which
alone draws, records and builds the RunResult.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .bookkeep import assign_occurrences, check_order, step_deltas
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


# One step as a run records it: (var, t2, f2, value, num, den, word), where
# P[x_var = true] = num/den and word is the 64-bit draw, None when the step
# was deterministic (then den == 1).
RawStep = tuple[int, int, int, bool, int, int, Optional[int]]


@dataclass(frozen=True)
class RunResult:
    assignment: Assignment
    weight: int
    records: tuple[RawStep, ...]
    seed: Optional[int]

    @cached_property
    def steps(self) -> tuple[StepRecord, ...]:
        """The records as StepRecords, built the first time they are read."""
        return tuple(
            StepRecord(
                v, t2, f2, value, Fraction(num, den),
                None if word is None else Fraction(word, _TWO64),
            )
            for v, t2, f2, value, num, den, word in self.records
        )


def decide(t2: int, f2: int) -> tuple[int, int]:
    """The decision rule, as (num, den) with P[x_v = true] = num/den exact.

    Forced true when f2 <= 0 (the t2 = f2 = 0 tie included), forced false
    when t2 <= 0 < f2; then den == 1.  Otherwise true with probability
    t2/(t2+f2), and den >= 2.
    """
    if f2 <= 0:
        return 1, 1
    if t2 <= 0:
        return 0, 1
    return t2, t2 + f2


def drive(
    formula: Formula,
    order: Optional[Sequence[int]],
    pick: Callable[[int, int, int, tuple[int, int, int, int, int]], tuple[int, int]],
    seed: Optional[int] = None,
) -> RunResult:
    """The one sequential driver of every recorded algorithm: sets each
    variable in order true with probability num/den, where (num, den) =
    pick(v, t2, f2, sums) of step_deltas.  den == 1 sets x_v = (num == 1)
    with no draw; den >= 2 draws the next word of splitmix64(seed)."""
    occ, open_counts = formula.compiled
    clause_sat = [False] * len(open_counts)
    clause_open = list(open_counts)
    values = [False] * formula.num_vars
    words = None if seed is None else splitmix64(seed)
    records = []
    weight = 0
    for v in check_order(formula.num_vars, order):
        occ_v = occ[v]
        t2, f2, sums = step_deltas(v, occ_v, clause_sat, clause_open)
        num, den = pick(v, t2, f2, sums)
        if den == 1:
            value, word = num == 1, None
        else:
            # draw < num/den with draw = word/2^64, compared exactly
            word = next(words)
            value = word * den < num * _TWO64
        values[v - 1] = value
        records.append((v, t2, f2, value, num, den, word))
        weight += assign_occurrences(occ_v, clause_sat, clause_open, value)
    return RunResult(tuple(values), weight, tuple(records), seed)


def run_randomized(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> RunResult:
    """One run of the randomized algorithm; pure function of
    (formula, order, seed).  Deterministic steps consume no random words,
    keeping traces aligned with run_vanzuylen."""
    return drive(formula, order, lambda v, t2, f2, sums: decide(t2, f2), seed)


def run_vanzuylen(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> RunResult:
    """Alpha-rule variant: false if alpha <= 0, true if alpha >= 1, else
    true with probability alpha = (W + F - Wbar) / (F + Fbar), where a
    clause tautological in the variable counts in both F and Fbar.
    Equivalent to run_randomized step by step; a zero alpha denominator is
    resolved from the signs of t2/f2."""

    def pick(v, t2, f2, sums):
        taut, w_pos, w_neg, f_pos, f_neg = sums
        num, den = w_pos + f_pos + taut - w_neg, f_pos + f_neg + 2 * taut
        if den == 0:
            # t2 = -f2: both decisions forced
            return (1, 1) if f2 <= 0 else (0, 1)
        if num <= 0 or num >= den:
            return (1, 1) if num > 0 else (0, 1)
        return num, den

    return drive(formula, order, pick, seed)


def run_weight(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> int:
    """Weight-only fast path of run_randomized (same kernel, same decide(),
    no step records); used for Monte Carlo sweeps.

    It keeps its own loop instead of drive: on acceptance-shape instances
    (n <= 10, m <= 30), a pick callback per step made run_weight 13-17%
    slower than an inline copy of the rule, this loop's one decide() call
    3-5% (Python 3.11, 2-vCPU Xeon VM).
    """
    occ, open_counts = formula.compiled
    clause_sat = [False] * len(open_counts)
    clause_open = list(open_counts)
    words = splitmix64(seed)
    weight = 0
    for v in check_order(formula.num_vars, order):
        occ_v = occ[v]
        t2, f2, _ = step_deltas(v, occ_v, clause_sat, clause_open)
        num, den = decide(t2, f2)
        # draw < num/den with draw = word/2^64, compared exactly
        value = num == 1 if den == 1 else next(words) * den < num * _TWO64
        weight += assign_occurrences(occ_v, clause_sat, clause_open, value)
    return weight


def _run_greedy(formula, order, prefer_true) -> RunResult:
    return drive(
        formula,
        order,
        lambda v, t2, f2, sums: (1, 1) if prefer_true(*sums) else (0, 1),
    )


def run_greedy_sat(
    formula: Formula, order: Optional[Sequence[int]] = None
) -> RunResult:
    """Baseline: pick the value with the larger satisfied-weight increase;
    ties go to true."""
    return _run_greedy(
        formula, order, lambda taut, w, wbar, f, fbar: w + f >= wbar + fbar
    )


def run_greedy_unsat(
    formula: Formula, order: Optional[Sequence[int]] = None
) -> RunResult:
    """Baseline: pick the value with the smaller unsatisfied-weight
    increase; ties go to true."""
    return _run_greedy(formula, order, lambda taut, w, wbar, f, fbar: wbar <= w)
