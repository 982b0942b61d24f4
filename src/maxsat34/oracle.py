"""Exact ground truth and lemma checkers.

Everything here is brute force on purpose: exhaustive optimum, exact
decision-tree expectation, and per-step inequality checks with rational
arithmetic, all independent of the incremental fast paths they audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bookkeep import (
    TraceState,
    apply,
    check_order,
    new_trace,
    step_quantities,
)
from .formula import Assignment, Formula, satisfied_weight
from .greedy import run_weight
from .lp import LpSolution, build_relaxation, run_lp_rounding, solve_lp

BRUTE_FORCE_LIMIT = 20
EXPECTATION_LIMIT = 15


class LimitError(ValueError):
    """Instance too large for an exhaustive oracle."""


@dataclass(frozen=True)
class ExpectationReport:
    expectation: Fraction
    opt: int
    ratio: Optional[Fraction]  # None when opt == 0
    node_count: int


@dataclass(frozen=True)
class CheckRecord:
    """One verified inequality: name, exact lhs/rhs, pass flag."""

    step: int
    var: int
    name: str
    lhs: Fraction
    rhs: Fraction
    passed: bool


@dataclass(frozen=True)
class LemmaReport:
    records: tuple[CheckRecord, ...]
    overall_pass: bool

    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed)

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            status = "ok" if r.passed else "FAIL"
            lines.append(
                f"step {r.step} x{r.var} {r.name}: {r.lhs} <= {r.rhs} {status}"
            )
        lines.append(f"overall: {'pass' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)

    def to_tree(self) -> dict:
        return {
            "overall_pass": self.overall_pass,
            "checks": [
                {
                    "step": r.step,
                    "var": r.var,
                    "name": r.name,
                    "lhs": str(r.lhs),
                    "rhs": str(r.rhs),
                    "passed": r.passed,
                }
                for r in self.records
            ],
        }


def brute_force_opt(
    formula: Formula, limit: int = BRUTE_FORCE_LIMIT
) -> tuple[int, Assignment]:
    """Exact optimum over all 2^n assignments.  Ties break to the lowest
    binary encoding with x_1 least significant and false < true."""
    n = formula.num_vars
    if n > limit:
        raise LimitError(f"n = {n} exceeds brute-force limit {limit}")
    best_weight = -1
    best: Assignment = ()
    for code in range(1 << n):
        values = tuple(bool(code >> i & 1) for i in range(n))
        w = satisfied_weight(formula, values)
        if w > best_weight:
            best_weight, best = w, values
    return best_weight, best


def _decision(q) -> tuple[Optional[bool], Fraction]:
    """(forced value or None, probability of true) under the randomized
    rule, mirroring greedy.choose without consuming randomness."""
    if q.f2 <= 0 and q.t2 > 0:
        return True, Fraction(1)
    if q.t2 <= 0 and q.f2 > 0:
        return False, Fraction(0)
    if q.t2 <= 0 and q.f2 <= 0:
        return True, Fraction(1)
    return None, Fraction(q.t2, q.t2 + q.f2)


def exact_expectation(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    limit: int = EXPECTATION_LIMIT,
) -> ExpectationReport:
    """E[w(S_n)] by exact expansion of the algorithm's decision tree."""
    n = formula.num_vars
    if n > limit:
        raise LimitError(f"n = {n} exceeds expectation limit {limit}")
    nodes = 0

    def expand(trace: TraceState) -> Fraction:
        nonlocal nodes
        nodes += 1
        if trace.prefix == n:
            return Fraction(trace.sat_weight)
        q = step_quantities(trace)
        forced, p_true = _decision(q)
        if forced is not None:
            return expand(apply(trace, forced))
        child_true = apply(trace.copy(), True)
        child_false = apply(trace, False)
        return p_true * expand(child_true) + (1 - p_true) * expand(
            child_false
        )

    expectation = expand(new_trace(formula, order))
    opt, _ = brute_force_opt(formula)
    ratio = Fraction(expectation, opt) if opt > 0 else None
    return ExpectationReport(
        expectation=expectation, opt=opt, ratio=ratio, node_count=nodes
    )


def enumerate_expectation(
    formula: Formula, order: Optional[Sequence[int]] = None, limit: int = 6
) -> Fraction:
    """Independent cross-check of exact_expectation: sums probability *
    weight over all 2^n leaf assignments, replaying each path from scratch
    with explicit probability products."""
    n = formula.num_vars
    if n > limit:
        raise LimitError(f"n = {n} exceeds path-enumeration limit {limit}")
    ord_tuple = check_order(n, order)
    total = Fraction(0)
    for code in range(1 << n):
        values = tuple(bool(code >> i & 1) for i in range(n))
        prob = Fraction(1)
        trace = new_trace(formula, ord_tuple)
        for step in range(n):
            q = step_quantities(trace)
            target = values[q.var - 1]
            forced, p_true = _decision(q)
            if forced is not None:
                if forced != target:
                    prob = Fraction(0)
                    break
            else:
                prob *= p_true if target else 1 - p_true
            apply(trace, target)
        if prob:
            total += prob * satisfied_weight(formula, values)
    return total


def monte_carlo_mean(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    trials: int = 10_000,
    base_seed: int = 0,
) -> tuple[float, float]:
    """(sample mean, standard error of the mean) of w(S_n) over seeded
    randomized runs with seeds base_seed .. base_seed + trials - 1."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    total = 0
    total_sq = 0
    for k in range(trials):
        w = run_weight(formula, order, base_seed + k)
        total += w
        total_sq += w * w
    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean)
    se = (var / trials) ** 0.5
    return mean, se


def _spliced_weight(
    formula: Formula,
    values: Sequence[Optional[bool]],
    x_star: Assignment,
) -> int:
    """w of the hybrid assignment: assigned prefix values, x_star elsewhere."""
    full = tuple(
        v if v is not None else x_star[i] for i, v in enumerate(values)
    )
    return satisfied_weight(formula, full)


def check_randomized_lemmas(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    limit: int = EXPECTATION_LIMIT,
) -> LemmaReport:
    """Walks every positive-probability node of the decision tree and
    verifies, exactly:

      * branch claim: setting a variable opposite to the fixed optimum
        drops the hybrid-optimum weight by at most the doubled bound delta
        of the agreeing setting;
      * the node expectation of that drop is at most
        max(0, 2 t f / (t + f)) and at most the expected bound increase.
    """
    n = formula.num_vars
    if n > limit:
        raise LimitError(f"n = {n} exceeds expectation limit {limit}")
    _, x_star = brute_force_opt(formula)
    records: list[CheckRecord] = []

    def record(step, var, name, lhs, rhs):
        records.append(
            CheckRecord(step, var, name, Fraction(lhs), Fraction(rhs), lhs <= rhs)
        )

    def walk(trace: TraceState) -> None:
        if trace.prefix == n:
            return
        step = trace.prefix + 1
        q = step_quantities(trace)
        v = q.var
        forced, p_true = _decision(q)
        w_prev = _spliced_weight(formula, trace.values, x_star)

        branches: list[tuple[bool, Fraction]] = []
        if forced is not None:
            branches.append((forced, Fraction(1)))
        else:
            branches.append((True, p_true))
            branches.append((False, 1 - p_true))

        expected_drop = Fraction(0)
        expected_bound = Fraction(0)
        children = []
        for value, prob in branches:
            child = trace.copy() if len(branches) > 1 else trace
            apply(child, value)
            w_next = _spliced_weight(formula, child.values, x_star)
            drop = w_prev - w_next
            if value != x_star[v - 1]:
                # agreeing-setting doubled delta: 2f_i if set true, 2t_i if false
                bound = q.f2 if value else q.t2
                record(step, v, "branch claim (Lemma 3 proof)", drop, bound)
            expected_drop += prob * drop
            expected_bound += prob * Fraction(q.t2 if value else q.f2, 2)
            children.append(child)

        rhs3 = (
            Fraction(q.t2 * q.f2, q.t2 + q.f2)
            if q.t2 > 0 and q.f2 > 0
            else Fraction(0)
        )
        record(step, v, "node bound (Lemma 3)", expected_drop, rhs3)
        record(step, v, "node bound (Lemma 2)", expected_drop, expected_bound)
        for child in children:
            walk(child)

    walk(new_trace(formula, order))
    return LemmaReport(
        records=tuple(records),
        overall_pass=all(r.passed for r in records),
    )


def check_lp_lemmas(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    sol: Optional[LpSolution] = None,
    brute_limit: int = BRUTE_FORCE_LIMIT,
) -> LemmaReport:
    """Runs the LP rounding trace and records, per step, both proof claims,
    the rounding disjunction, and the per-step bound inequality; then the
    final chain w(S_n) >= OPT_LP/2 + W/4 >= 3/4 OPT."""
    if sol is None:
        sol = solve_lp(build_relaxation(formula))
    records: list[CheckRecord] = []
    step_counter = [0]

    def on_step(info: dict) -> None:
        step_counter[0] += 1
        step = step_counter[0]
        v = info["var"]
        t_i = Fraction(info["t2"], 2)
        f_i = Fraction(info["f2"], 2)
        y = info["y_star"]
        lp_prev, lp_t, lp_f = info["lp_prev"], info["lp_t"], info["lp_f"]

        def rec(name, lhs, rhs):
            records.append(
                CheckRecord(step, v, name, Fraction(lhs), Fraction(rhs), lhs <= rhs)
            )

        rec("claim true-side (Lemma 4 proof)", lp_prev - lp_t, 2 * (1 - y) * f_i)
        rec("claim false-side (Lemma 4 proof)", lp_prev - lp_f, 2 * y * t_i)
        disjunction = min(lp_prev - lp_t - t_i, lp_prev - lp_f - f_i)
        rec("disjunction (Lemma 4)", disjunction, Fraction(0))
        lp_next = lp_t if info["value"] else lp_f
        bound_delta = t_i if info["value"] else f_i
        rec("per-step drop (Lemma 5)", lp_prev - lp_next, bound_delta)

    result = run_lp_rounding(formula, order, sol, on_step=on_step)
    w = Fraction(result.weight)
    half_bound = sol.objective / 2 + Fraction(formula.total_weight, 4)
    records.append(
        CheckRecord(0, 0, "final w >= OPT_LP/2 + W/4", half_bound, w, half_bound <= w)
    )
    if formula.num_vars <= brute_limit:
        opt, _ = brute_force_opt(formula, brute_limit)
        records.append(
            CheckRecord(
                0,
                0,
                "final OPT_LP/2 + W/4 >= 3/4 OPT",
                Fraction(3 * opt, 4),
                half_bound,
                Fraction(3 * opt, 4) <= half_bound,
            )
        )
    return LemmaReport(
        records=tuple(records),
        overall_pass=all(r.passed for r in records),
    )
