"""LP relaxation of weighted MAX SAT and the deterministic rounding run.

The relaxation is solved by a dense simplex with Bland's anti-cycling
pivot rule on an integer tableau (Edmonds; Bareiss): every entry is an
integer over one common denominator d, the previous pivot element, which
starts at 1 and stays positive.  A pivot updates each other row as
(p*a - f*b) // d, and that division is always exact.  Sign tests read the
integers directly, ratios are compared by cross-multiplying, and
Fractions are made only for the answer.  There is no numerical tolerance
anywhere.

Every solve ends with an exact optimality certificate (Applegate, Cook,
Dash and Espinoza): the duals read from the final objective row must be
dual feasible and their objective must equal the primal one
(check_certificate).

The rounding run is a deterministic pick rule for greedy.drive.  It keeps
the coverage of every clause as an integer over one common denominator
and, per step, updates only the clauses of the variable it sets; lp_value
is the full rescan it must agree with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bookkeep import LemmaViolation
from .formula import Formula
from .greedy import RunResult, drive


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
    """An optimal vertex: y*, the objective and the duals, one per row of
    the standard form (m clause rows, then n y-bound and m z-bound rows);
    a solution built without duals carries no certificate."""

    y_star: tuple[Fraction, ...]
    objective: Fraction
    duals: tuple[Fraction, ...] = ()


def build_relaxation(formula: Formula) -> LpModel:
    return LpModel(
        num_y=formula.num_vars,
        clause_pos=tuple(c.pos for c in formula.clauses),
        clause_neg=tuple(c.neg for c in formula.clauses),
        weights=tuple(c.weight for c in formula.clauses),
    )


class SimplexError(RuntimeError):
    """Internal solver failure; the MAX SAT relaxation is always feasible
    and bounded, so this signals a bug."""


def _simplex_max(
    rows: list[list[int]], rhs: list[int], costs: list[int]
) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """Maximize costs.x subject to rows.x <= rhs, x >= 0, all rhs >= 0.

    Dense integer tableau over one common denominator, Bland's rule
    (smallest eligible index enters; leaving row breaks ratio ties by
    smallest basic variable index).  Returns the optimal x, the duals (one
    per row) and the objective value, all exact.
    """
    nrows = len(rows)
    ncols = len(costs)
    total = ncols + nrows
    # tableau columns: structural 0..ncols-1, slacks ncols..total-1, rhs
    tab: list[list[int]] = []
    for r in range(nrows):
        if rhs[r] < 0:
            raise SimplexError("negative right-hand side")
        row = list(rows[r]) + [0] * nrows
        row[ncols + r] = 1
        row.append(rhs[r])
        tab.append(row)
    # objective row holds reduced costs negated: optimal when all >= 0
    obj = [-c for c in costs] + [0] * (nrows + 1)
    basis = [ncols + r for r in range(nrows)]
    d = 1  # the common denominator of tab and obj; always positive

    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for r in range(nrows):
            coef = tab[r][enter]
            if coef > 0:
                # ratio tab[r][total] / coef against the best, num / den
                if leave is None:
                    leave, num, den = r, tab[r][total], coef
                    continue
                lhs, rhs_best = tab[r][total] * den, num * coef
                if lhs < rhs_best or (
                    lhs == rhs_best and basis[r] < basis[leave]
                ):
                    leave, num, den = r, tab[r][total], coef
        if leave is None:
            raise SimplexError("unbounded LP")
        d = _pivot(tab, obj, basis, leave, enter, d)

    x = [Fraction(0)] * ncols
    for r, b in enumerate(basis):
        if b < ncols:
            x[b] = Fraction(tab[r][total], d)
    duals = [Fraction(v, d) for v in obj[ncols:total]]
    return x, duals, Fraction(obj[total], d)


def _pivot(
    tab: list[list[int]],
    obj: list[int],
    basis: list[int],
    r: int,
    col: int,
    d: int,
) -> int:
    """Pivots on p = tab[r][col] > 0 and returns p, the new common
    denominator.  The pivot row b stays as it is; every other row a, the
    objective row included, becomes (p*a - f*b) // d, where f is its entry
    in col.  Every entry is a minor of the starting tableau, so each
    division is exact (Bareiss).  When p == d, as in most pivots here,
    the update is a - f*b // d, so only the columns where b is nonzero
    change."""
    prow = tab[r]
    p = prow[col]
    support = [(j, b) for j, b in enumerate(prow) if b] if p == d else None
    for row in tab + [obj]:
        if row is prow:
            continue
        f = row[col]
        if support is not None:
            if f:
                for j, b in support:
                    row[j] -= f * b // d
        elif f:
            row[:] = [(p * a - f * b) // d for a, b in zip(row, prow)]
        else:
            row[:] = [p * a // d for a in row]
    basis[r] = col
    return p


def solve_lp(model: LpModel) -> LpSolution:
    """Exact optimal vertex of the relaxation, with its certificate
    checked.  Deterministic: the fixed pivot rule makes repeated solves
    bit-identical."""
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
    x, duals, objective = _simplex_max(rows, rhs, costs)
    sol = LpSolution(y_star=tuple(x[:n]), objective=objective, duals=tuple(duals))
    check_certificate(model, sol)
    return sol


def check_certificate(model: LpModel, sol: LpSolution) -> None:
    """Proves sol optimal exactly, in O(nnz) over the clause lists, or
    raises SimplexError naming the condition that failed.

    The primal point is (y*, z) with z_j = min(1, coverage_j(y*)), the best
    z for y*, so primal feasibility is 0 <= y* <= 1.  The duals u must be
    dual feasible (u >= 0 and A^T u >= c, column by column), and
    c.(y*, z) == b.u == sol.objective must hold; by weak duality no
    feasible point then does better.  Every value is scaled to an integer
    over one common denominator first.
    """
    n, m = model.num_y, model.num_z
    if len(sol.y_star) != n or len(sol.duals) != 2 * m + n:
        raise SimplexError("certificate does not match the model's shape")
    d = math.lcm(
        sol.objective.denominator,
        *(q.denominator for q in sol.y_star),
        *(q.denominator for q in sol.duals),
    )
    y = [q.numerator * (d // q.denominator) for q in sol.y_star]
    u = [q.numerator * (d // q.denominator) for q in sol.duals]
    if not all(0 <= v <= d for v in y):
        raise SimplexError("primal infeasible: a y* entry is outside [0, 1]")
    if any(v < 0 for v in u):
        raise SimplexError("dual infeasible: a dual is negative")
    y_cols = u[m : m + n]  # A^T u on the y columns, from the y-bound rows
    primal = 0  # c.(y*, z) and b.u, both times d
    dual = sum(u[m:])
    for j in range(m):
        uj, coverage = u[j], 0
        for v in model.clause_pos[j]:
            y_cols[v - 1] -= uj
            coverage += y[v - 1]
        for v in model.clause_neg[j]:
            y_cols[v - 1] += uj
            coverage += d - y[v - 1]
        w = model.weights[j]
        if uj + u[m + n + j] < w * d:
            raise SimplexError(f"dual infeasible: column z{j + 1}")
        primal += w * min(d, coverage)
        dual += len(model.clause_neg[j]) * uj
    if any(v < 0 for v in y_cols):
        raise SimplexError("dual infeasible: a y column")
    objective = sol.objective.numerator * (d // sol.objective.denominator)
    if not primal == dual == objective:
        raise SimplexError("primal, dual and reported objectives differ")


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


def run_lp_rounding(
    formula: Formula,
    order: Optional[Sequence[int]] = None,
    sol: Optional[LpSolution] = None,
    on_step: Optional[Callable[[dict], None]] = None,
) -> RunResult:
    """Deterministic rounding of an optimal fractional solution.

    At each step compares the drop in the mixed LP value against the bound
    increase for both settings; the analysis guarantees at least one
    comparison succeeds.  Every comparison is exact: doubled integers
    against LP values held as integers over one common denominator d of
    y*.  The mixed LP value starts as sum_j w_j * min(1, coverage_j) and is
    kept up to date from the coverage of the clauses of the variable being
    set.  Raises ValueError for a y* of the wrong length or outside [0, 1].
    on_step, when given, receives the per-step check data for lemma
    reporting.
    """
    if sol is None:
        sol = solve_lp(build_relaxation(formula))
    y_star = [Fraction(v) for v in sol.y_star]
    if len(y_star) != formula.num_vars:
        raise ValueError("y length does not match num_vars")
    bad = [y for y in y_star if not 0 <= y <= 1]
    if bad:
        raise ValueError(f"y entry {bad[0]} outside [0, 1]")
    d = math.lcm(*(y.denominator for y in y_star))
    y_d = [y.numerator * (d // y.denominator) for y in y_star]
    # coverage_j and every LP value below are times d, so integers
    coverage = [
        sum(y_d[v - 1] for v in c.pos) + sum(d - y_d[v - 1] for v in c.neg)
        for c in formula.clauses
    ]
    lp_prev = sum(c.weight * min(d, x) for c, x in zip(formula.clauses, coverage))
    occ = formula.compiled.occ

    def pick(v, t2, f2, sums):
        nonlocal lp_prev
        # v is still at y*_v; setting it moves the coverage of a clause by
        # sign * (new - y*_v), and a tautological occurrence (sign 0) not at all
        y = y_d[v - 1]
        lp_t = lp_f = lp_prev
        for j, sign, w in occ[v]:
            if sign:
                cov = coverage[j]
                now = min(d, cov)
                lp_t += w * (min(d, cov + sign * (d - y)) - now)
                lp_f += w * (min(d, cov - sign * y) - now)
        # drop <= t_i, times 2d
        cond_t = 2 * (lp_prev - lp_t) <= t2 * d
        cond_f = 2 * (lp_prev - lp_f) <= f2 * d
        if not (cond_t or cond_f):
            raise LemmaViolation(
                f"Lemma 4 violated at x{v}: neither rounding "
                f"inequality holds"
            )
        value = cond_t  # both holding ties to true
        lp_next = lp_t if value else lp_f
        bound_delta = t2 if value else f2
        if 2 * (lp_prev - lp_next) > bound_delta * d:
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
                    "lp_prev": Fraction(lp_prev, d),
                    "lp_t": Fraction(lp_t, d),
                    "lp_f": Fraction(lp_f, d),
                    "value": value,
                }
            )
        moved = d * value - y
        for j, sign, _ in occ[v]:
            coverage[j] += sign * moved
        lp_prev = lp_next
        return (1, 1) if value else (0, 1)

    return drive(formula, order, pick)
