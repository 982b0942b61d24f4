import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings

from maxsat34 import (
    LpSolution,
    SimplexError,
    brute_force_opt,
    build_relaxation,
    check_certificate,
    lp_value,
    random_instance,
    run_lp_rounding,
    satisfied_weight,
    solve_lp,
)

from conftest import clause, formula, rounding_matches_rescan
from test_bookkeep import edge_case_formulas


def test_build_relaxation_structure():
    f = formula(2, clause(pos=(1,), weight=1), clause(neg=(2,), weight=2))
    model = build_relaxation(f)
    assert model.num_y == 2
    assert model.num_z == 2
    assert model.clause_pos == ((1,), ())
    assert model.clause_neg == ((), (2,))
    assert model.weights == (1, 2)


def test_solve_unit_clause():
    f = formula(1, clause(pos=(1,)))
    sol = solve_lp(build_relaxation(f))
    assert sol.objective == 1
    assert sol.y_star == (Fraction(1),)


def test_solve_opposing_units():
    # z1 = y1 and z2 = 1 - y1, so any y1 gives objective exactly 1
    f = formula(1, clause(pos=(1,)), clause(neg=(1,)))
    sol = solve_lp(build_relaxation(f))
    assert sol.objective == 1
    assert lp_value(f, sol.y_star) == 1


def test_solve_triangle():
    # objective is min(1, y1+y2) + (1-y1) + (1-y2), maximized at 2
    # whenever y1 + y2 <= 1
    f = formula(2, clause(pos=(1, 2)), clause(neg=(1,)), clause(neg=(2,)))
    sol = solve_lp(build_relaxation(f))
    assert sol.objective == 2
    assert lp_value(f, sol.y_star) == 2


def test_solve_deterministic(small_corpus):
    for f in small_corpus[:10]:
        model = build_relaxation(f)
        assert solve_lp(model) == solve_lp(model)


def test_solve_empty_formula():
    from maxsat34 import Formula

    sol = solve_lp(build_relaxation(Formula(num_vars=2, clauses=())))
    assert sol.objective == 0


def test_lp_value_examples():
    f = formula(1, clause(pos=(1,)), clause(neg=(1,)))
    assert lp_value(f, [Fraction(1, 2)]) == 1
    f = formula(2, clause(pos=(1, 2), weight=3))
    assert lp_value(f, [Fraction(1, 2), Fraction(3, 4)]) == 3  # min(1, 5/4)


def test_lp_value_integral_matches_satisfaction(small_corpus):
    for f in small_corpus[:15]:
        for code in (0, (1 << f.num_vars) - 1, 5 % (1 << f.num_vars)):
            values = tuple(bool(code >> i & 1) for i in range(f.num_vars))
            y = [Fraction(int(v)) for v in values]
            assert lp_value(f, y) == satisfied_weight(f, values)


def test_lp_value_rejects_out_of_box():
    f = formula(1, clause(pos=(1,)))
    with pytest.raises(ValueError):
        lp_value(f, [Fraction(3, 2)])


def scipy_objective(scipy_opt, model):
    """Optimum of the relaxation by HiGHS in floating point."""
    n, m = model.num_y, model.num_z
    c = [0.0] * n + [-float(w) for w in model.weights]
    a_ub, b_ub = [], []
    for j in range(m):
        row = [0.0] * (n + m)
        for v in model.clause_pos[j]:
            row[v - 1] -= 1.0
        for v in model.clause_neg[j]:
            row[v - 1] += 1.0
        row[n + j] = 1.0
        a_ub.append(row)
        b_ub.append(float(len(model.clause_neg[j])))
    res = scipy_opt.linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * (n + m), method="highs"
    )
    assert res.status == 0
    return -res.fun


def test_lp_objective_against_scipy(small_corpus):
    # independent float solver cross-check of the exact simplex
    scipy_opt = pytest.importorskip("scipy.optimize")
    for f in small_corpus:
        model = build_relaxation(f)
        sol = solve_lp(model)
        assert abs(scipy_objective(scipy_opt, model) - float(sol.objective)) < 1e-7


@pytest.mark.parametrize("seed", (1, 2))
def test_large_instance_certificate_and_scipy(seed):
    f = random_instance(40, 120, 3, 10, seed)
    model = build_relaxation(f)
    sol = solve_lp(model)
    check_certificate(model, sol)
    assert lp_value(f, sol.y_star) == sol.objective
    scipy_opt = pytest.importorskip("scipy.optimize")
    assert abs(scipy_objective(scipy_opt, model) - float(sol.objective)) < 1e-7


def _with_dual(sol, i, value):
    duals = list(sol.duals)
    duals[i] = value
    return dataclasses.replace(sol, duals=tuple(duals))


# the triangle's solution: y* = (0, 1), duals (1, 1, 1, 0, 0, 0, 0, 0),
# objective 2; each corruption and the condition it must fail
CORRUPTIONS = {
    "y_star_not_optimal": (
        lambda s: dataclasses.replace(s, y_star=(Fraction(1), Fraction(1))),
        "objectives differ",
    ),
    "y_star_outside_box": (
        lambda s: dataclasses.replace(s, y_star=(Fraction(-1), Fraction(1))),
        "outside",
    ),
    "dual_infeasible_y_column": (lambda s: _with_dual(s, 0, Fraction(2)), "y column"),
    "dual_negative": (lambda s: _with_dual(s, 1, Fraction(-1)), "negative"),
    "dual_infeasible_z_column": (
        lambda s: _with_dual(s, 2, Fraction(1, 2)),
        "column z3",
    ),
    "dual_objective_differs": (
        lambda s: _with_dual(s, 7, Fraction(1)),
        "objectives differ",
    ),
    "objective_differs": (
        lambda s: dataclasses.replace(s, objective=Fraction(3)),
        "objectives differ",
    ),
    "no_duals": (lambda s: dataclasses.replace(s, duals=()), "shape"),
}


@pytest.mark.parametrize(
    "corrupt, message", CORRUPTIONS.values(), ids=CORRUPTIONS.keys()
)
def test_certificate_rejects_corrupted_solution(corrupt, message):
    f = formula(2, clause(pos=(1, 2)), clause(neg=(1,)), clause(neg=(2,)))
    model = build_relaxation(f)
    sol = solve_lp(model)
    check_certificate(model, sol)
    with pytest.raises(SimplexError, match=message):
        check_certificate(model, corrupt(sol))


def test_rounding_integral_optimum():
    f = formula(1, clause(pos=(1,)))
    r = run_lp_rounding(f)
    assert r.assignment == (True,)
    assert r.weight == 1


@pytest.mark.parametrize(
    "y_star, message",
    [
        ((Fraction(1, 2),), "y length does not match num_vars"),
        ((Fraction(1, 2), Fraction(1), Fraction(0)), "y length does not match"),
        ((Fraction(3, 2), Fraction(0)), r"y entry 3/2 outside \[0, 1\]"),
        ((Fraction(1), Fraction(-1, 3)), r"y entry -1/3 outside \[0, 1\]"),
    ],
)
def test_rounding_rejects_a_bad_y_star(y_star, message):
    f = formula(2, clause(pos=(1, 2)), clause(neg=(1,)))
    sol = LpSolution(y_star, Fraction(1))
    with pytest.raises(ValueError, match=message):
        run_lp_rounding(f, sol=sol)


def test_rounding_opposing_units():
    f = formula(1, clause(pos=(1,)), clause(neg=(1,)))
    r = run_lp_rounding(f)
    assert r.weight == 1  # both assignments achieve the guarantee of 1


def test_rounding_triangle_reaches_opt():
    f = formula(2, clause(pos=(1, 2)), clause(neg=(1,)), clause(neg=(2,)))
    sol = solve_lp(build_relaxation(f))
    r = run_lp_rounding(f, sol=sol)
    guarantee = sol.objective / 2 + Fraction(f.total_weight, 4)
    assert r.weight >= guarantee
    assert brute_force_opt(f)[0] == 2
    assert r.weight == 2


@settings(max_examples=300, deadline=None)
@given(edge_case_formulas())
def test_rounding_matches_rescan_on_edge_cases(case):
    f, order = case
    assert rounding_matches_rescan(f, order)


def test_rounding_guarantee_on_corpus(small_corpus):
    for f in small_corpus[:25]:
        sol = solve_lp(build_relaxation(f))
        assert lp_value(f, sol.y_star) == sol.objective
        opt, _ = brute_force_opt(f)
        assert opt <= sol.objective <= f.total_weight
        r = run_lp_rounding(f, sol=sol)
        assert r.weight == satisfied_weight(f, r.assignment)
        assert Fraction(r.weight) >= sol.objective / 2 + Fraction(
            f.total_weight, 4
        )
