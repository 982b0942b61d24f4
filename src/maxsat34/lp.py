"""LP relaxation of weighted MAX SAT and the deterministic rounding run.

The relaxation is solved by a dense exact-rational simplex with Bland's
anti-cycling pivot rule.  Instances here are desk scale; the point is zero
numerical tolerance, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bookkeep import LemmaViolation, drive
from .formula import Formula
from .greedy import RunResult, StepRecord


@dataclass(frozen=True)
class LpModel:
    """max sum_j w_j z_j subject to, per clause j,
    sum_{i in pos_j} y_i + sum_{i in neg_j} (1 - y_i) >= z_j,
    with 0 <= y_i <= 1 and 0 <= z_j <= 1."""

    num_y: int
    clause_pos: tuple[tuple[int, ...], ...]
    clause_neg: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    @property
    def num_z(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class LpSolution:
    y_star: tuple[Fraction, ...]
    objective: Fraction


def build_relaxation(formula: Formula) -> LpModel:
    return LpModel(
        num_y=formula.num_vars,
        clause_pos=tuple(tuple(sorted(c.pos)) for c in formula.clauses),
        clause_neg=tuple(tuple(sorted(c.neg)) for c in formula.clauses),
        weights=tuple(c.weight for c in formula.clauses),
    )


class SimplexError(RuntimeError):
    """Internal solver failure; the MAX SAT relaxation is always feasible
    and bounded, so this signals a bug."""


def _simplex_max(
    rows: list[list[int]], rhs: list[int], costs: list[int]
) -> tuple[list[Fraction], Fraction]:
    """Maximize costs.x subject to rows.x <= rhs, x >= 0, all rhs >= 0.

    Dense tableau, Bland's rule (smallest eligible index enters; leaving
    row breaks ratio ties by smallest basic variable index).  Returns the
    optimal x and objective value, both exact.
    """
    nrows = len(rows)
    ncols = len(costs)
    zero = Fraction(0)
    # tableau columns: structural 0..ncols-1, slacks ncols..ncols+nrows-1, rhs
    tab: list[list[Fraction]] = []
    for r in range(nrows):
        if rhs[r] < 0:
            raise SimplexError("negative right-hand side")
        row = [Fraction(v) for v in rows[r]]
        row.extend(Fraction(1) if s == r else zero for s in range(nrows))
        row.append(Fraction(rhs[r]))
        tab.append(row)
    # objective row holds reduced costs negated: optimal when all >= 0
    obj = [Fraction(-c) for c in costs] + [zero] * (nrows + 1)
    basis = [ncols + r for r in range(nrows)]

    total = ncols + nrows
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for r in range(nrows):
            coef = tab[r][enter]
            if coef > 0:
                ratio = tab[r][total] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
        if leave is None:
            raise SimplexError("unbounded LP")
        _pivot(tab, obj, basis, leave, enter)

    x = [zero] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            x[b] = tab[r][total]
    return x, obj[total]


def _pivot(
    tab: list[list[Fraction]],
    obj: list[Fraction],
    basis: list[int],
    r: int,
    col: int,
) -> None:
    prow = tab[r]
    piv = prow[col]
    if piv != 1:
        tab[r] = prow = [v / piv for v in prow]
    for row in tab:
        if row is prow:
            continue
        factor = row[col]
        if factor:
            row[:] = [a - factor * b for a, b in zip(row, prow)]
    factor = obj[col]
    if factor:
        obj[:] = [a - factor * b for a, b in zip(obj, prow)]
    basis[r] = col


def solve_lp(model: LpModel) -> LpSolution:
    """Exact optimal vertex of the relaxation.  Deterministic: the fixed
    pivot rule makes repeated solves bit-identical."""
    n, m = model.num_y, model.num_z
    rows: list[list[int]] = []
    rhs: list[int] = []
    # clause rows rewritten as -sum_P y + sum_N y + z_j <= |N_j|
    for j in range(m):
        row = [0] * (n + m)
        for v in model.clause_pos[j]:
            row[v - 1] -= 1
        for v in model.clause_neg[j]:
            row[v - 1] += 1
        row[n + j] = 1
        rows.append(row)
        rhs.append(len(model.clause_neg[j]))
    for i in range(n):  # y_i <= 1
        row = [0] * (n + m)
        row[i] = 1
        rows.append(row)
        rhs.append(1)
    for j in range(m):  # z_j <= 1
        row = [0] * (n + m)
        row[n + j] = 1
        rows.append(row)
        rhs.append(1)
    costs = [0] * n + list(model.weights)
    x, objective = _simplex_max(rows, rhs, costs)
    return LpSolution(y_star=tuple(x[:n]), objective=objective)


def lp_value(formula: Formula, y: Sequence[Fraction]) -> Fraction:
    """Best LP objective for a fixed y: each clause contributes
    w_j * min(1, coverage)."""
    if len(y) != formula.num_vars:
        raise ValueError("y length does not match num_vars")
    one = Fraction(1)
    total = Fraction(0)
    for yi in y:
        if not 0 <= yi <= 1:
            raise ValueError(f"y entry {yi} outside [0, 1]")
    for c in formula.clauses:
        coverage = sum((y[v - 1] for v in c.pos), Fraction(0)) + sum(
            (one - y[v - 1] for v in c.neg), Fraction(0)
        )
        total += c.weight * min(one, coverage)
    return total


def write_lp(model: LpModel) -> str:
    """CPLEX-LP text export, for cross-checking against external solvers."""
    terms = " + ".join(
        f"{w} z{j + 1}" for j, w in enumerate(model.weights)
    )
    lines = ["Maximize", f" obj: {terms if terms else '0 y1'}", "Subject To"]
    for j in range(model.num_z):
        parts = [f"- y{v}" for v in model.clause_pos[j]]
        parts += [f"+ y{v}" for v in model.clause_neg[j]]
        expr = " ".join(parts)
        lines.append(
            f" c{j + 1}: {expr}{' ' if expr else ''}+ z{j + 1}"
            f" <= {len(model.clause_neg[j])}"
        )
    lines.append("Bounds")
    for i in range(model.num_y):
        lines.append(f" 0 <= y{i + 1} <= 1")
    for j in range(model.num_z):
        lines.append(f" 0 <= z{j + 1} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"


def run_lp_rounding(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    sol: Optional[LpSolution] = None,
    on_step: Optional[Callable[[dict], None]] = None,
) -> RunResult:
    """Deterministic rounding of an optimal fractional solution.

    At each step compares the drop in the mixed LP value against the bound
    increase for both settings; the analysis guarantees at least one
    comparison succeeds.  Every comparison is exact (doubled integers vs
    doubled Fractions).  on_step, when given, receives the per-step check
    data for lemma reporting.
    """
    if sol is None:
        sol = solve_lp(build_relaxation(formula))
    y_hat: list[Fraction] = [Fraction(v) for v in sol.y_star]
    steps = []
    lp_prev = lp_value(formula, y_hat)

    def pick(v, t2, f2, sums):
        nonlocal lp_prev
        y_hat[v - 1] = Fraction(1)
        lp_t = lp_value(formula, y_hat)
        y_hat[v - 1] = Fraction(0)
        lp_f = lp_value(formula, y_hat)
        t_i = Fraction(t2, 2)
        f_i = Fraction(f2, 2)
        cond_t = lp_prev - lp_t <= t_i
        cond_f = lp_prev - lp_f <= f_i
        if not (cond_t or cond_f):
            raise LemmaViolation(
                f"Lemma 4 violated at x{v}: neither rounding "
                f"inequality holds"
            )
        value = cond_t  # both holding ties to true
        lp_next = lp_t if value else lp_f
        bound_delta = t_i if value else f_i
        if lp_prev - lp_next > bound_delta:
            raise LemmaViolation(
                f"Lemma 5 violated at x{v}: LP drop exceeds bound increase"
            )
        if on_step is not None:
            on_step(
                {
                    "var": v,
                    "t2": t2,
                    "f2": f2,
                    "y_star": sol.y_star[v - 1],
                    "lp_prev": lp_prev,
                    "lp_t": lp_t,
                    "lp_f": lp_f,
                    "value": value,
                }
            )
        y_hat[v - 1] = Fraction(value)
        steps.append(StepRecord(v, t2, f2, value, Fraction(value), None))
        lp_prev = lp_next
        return value

    values, weight = drive(formula, order, pick)
    return RunResult(tuple(values), weight, tuple(steps), None)
