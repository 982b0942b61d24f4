import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxsat34 import (
    Clause,
    Formula,
    LemmaViolation,
    OrderError,
    apply,
    brute_force_opt,
    new_trace,
    run_randomized,
    run_vanzuylen,
    run_weight,
    satisfied_weight,
    step_quantities,
)
from maxsat34.bookkeep import step_deltas
from maxsat34.greedy import drive, splitmix64

from conftest import clause, formula, rescan_deltas, scan_optimum
from reference_oracles import recompute_sat_unsat


def test_new_trace_initial_state():
    f = formula(1, clause(pos=(1,)), clause(neg=(1,)))
    t = new_trace(f)
    assert t.prefix == 0
    assert t.sat_weight == 0
    assert t.values == [None]


def test_new_trace_empty_formula():
    from maxsat34 import Formula

    t = new_trace(Formula(num_vars=0, clauses=()))
    assert (t.prefix, t.sat_weight, t.values) == (0, 0, [])
    with pytest.raises(IndexError):
        step_quantities(t)


def test_new_trace_rejects_bad_order():
    f = formula(2, clause(pos=(1,)))
    with pytest.raises(OrderError):
        new_trace(f, order=[1, 1])
    with pytest.raises(OrderError):
        new_trace(f, order=[1])


def test_step_quantities_unit_clause():
    f = formula(1, clause(pos=(1,)))
    q = step_quantities(new_trace(f))
    assert (q.t2, q.f2) == (1, -1)


def test_step_quantities_opposing_units():
    f = formula(1, clause(pos=(1,)), clause(neg=(1,)))
    q = step_quantities(new_trace(f))
    assert (q.t2, q.f2) == (0, 0)


def test_step_quantities_three_clause(three_clause):
    q = step_quantities(new_trace(three_clause))
    assert (q.var, q.t2, q.f2) == (1, 1, 1)
    # cross-check against the paper's definition by full rescans
    assert (q.t2, q.f2) == rescan_deltas(three_clause, [None, None], 1)


def test_apply_unit_clause():
    f = formula(1, clause(pos=(1,)))
    t = apply(new_trace(f), True)
    assert (t.prefix, t.values, t.sat_weight) == (1, [True], 1)
    t = apply(new_trace(f), False)
    assert (t.prefix, t.values, t.sat_weight) == (1, [False], 0)


def test_apply_rejects_past_end():
    f = formula(1, clause(pos=(1,)))
    t = apply(new_trace(f), True)
    with pytest.raises(IndexError):
        apply(t, True)
    with pytest.raises(IndexError):
        step_quantities(t)


def test_step_deltas_flags_lemma1_violation():
    # a negative weight is the only way to reach t2 + f2 < 0
    with pytest.raises(LemmaViolation, match="Lemma 1"):
        step_deltas(1, [(0, 1, -5)], [False], [2])


def alpha_sums(f, order, values):
    """(W, Wbar, F, Fbar) of the alpha rule at each step of the run that
    sets the variables to values, read from the kernel's sums: a clause
    tautological in the variable counts in both F and Fbar."""
    out = []

    def pick(v, t2, f2, sums):
        taut, w, wbar, f_, fbar = sums
        out.append((w, wbar, f_ + taut, fbar + taut))
        return (int(values[v - 1]), 1)

    drive(f, order, pick)
    return out


def assert_alpha_identities(q, sums):
    w, wbar, f, fbar = sums
    assert w + f - wbar == q.t2
    assert wbar + fbar - w == q.f2
    assert f + fbar == q.t2 + q.f2


def test_vz_unit_clause_marker():
    f = formula(1, clause(pos=(1,)))
    # the alpha denominator F + Fbar is 0
    assert alpha_sums(f, None, [True]) == [(1, 0, 0, 0)]


def test_vz_two_literal_clause():
    f = formula(2, clause(pos=(1, 2)))
    w, wbar, f_, fbar = alpha_sums(f, None, [True, True])[0]
    assert (w, wbar, f_, fbar) == (0, 0, 1, 0)
    assert Fraction(w + f_ - wbar, f_ + fbar) == 1


def test_vz_three_clause(three_clause):
    w, wbar, f_, fbar = alpha_sums(three_clause, None, [True, True])[0]
    assert (w, wbar, f_, fbar) == (1, 2, 2, 0)
    assert Fraction(w + f_ - wbar, f_ + fbar) == Fraction(1, 2)


def full_trace_checks(f, order, values_source):
    """Walk a full trace checking invariants at every step against the
    full-rescan reference."""
    t = new_trace(f, order)
    doubled_bound = f.total_weight  # 2*B_0 = W
    prev_sat = 0
    words = splitmix64(0)
    quantities = []
    for _ in range(f.num_vars):
        q = step_quantities(t)
        assert q.t2 + q.f2 >= 0  # Lemma 1
        assert (q.t2, q.f2) == rescan_deltas(f, t.values, q.var)
        quantities.append(q)
        value = values_source(q, words)
        apply(t, value)
        doubled_bound += q.t2 if value else q.f2
        assert t.sat_weight == recompute_sat_unsat(f, t.values)[0]
        assert t.sat_weight >= prev_sat
        prev_sat = t.sat_weight
    final = satisfied_weight(f, [bool(v) for v in t.values])
    assert t.sat_weight == final
    assert doubled_bound == 2 * final  # 2*B_n = 2*w(S_n)
    for q, sums in zip(quantities, alpha_sums(f, order, t.values), strict=True):
        assert_alpha_identities(q, sums)


def random_value(q, words):
    return next(words) % 2 == 0


def test_trace_invariants_on_corpus(small_corpus):
    rng = random.Random(7)
    for f in small_corpus:
        order = list(range(1, f.num_vars + 1))
        rng.shuffle(order)
        full_trace_checks(f, None, random_value)
        full_trace_checks(f, order, random_value)


def test_custom_order_changes_sequence():
    f = formula(2, clause(pos=(1,)), clause(pos=(2, 1)))
    t = new_trace(f, order=[2, 1])
    assert step_quantities(t).var == 2


def test_run_weight_matches_direct_eval(small_corpus):
    for f in small_corpus[:20]:
        run = run_randomized(f, None, 3)
        assert run_weight(f, None, 3) == satisfied_weight(f, run.assignment)


@st.composite
def edge_case_formulas(draw):
    """(formula, order) with tautologies, duplicate clauses, weight 0,
    weights >= 2^64 and n = 0 all likely."""
    n = draw(st.integers(0, 5))
    if n == 0:
        return Formula(num_vars=0, clauses=()), []
    variables = st.frozensets(st.integers(1, n), max_size=3)
    weights = st.one_of(st.integers(0, 3), st.integers(2**64, 2**66))
    clause_st = (
        st.tuples(variables, variables, weights)
        .filter(lambda t: t[0] or t[1])
        .map(lambda t: Clause(*t))
    )
    clauses = draw(st.lists(clause_st, max_size=8))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=3))
    order = draw(st.permutations(range(1, n + 1)))
    return Formula(num_vars=n, clauses=tuple(clauses)), list(order)


def check_compiled(f):
    occ, open_counts = f.compiled
    assert open_counts == tuple(len(c.variables()) for c in f.clauses)
    assert sum(map(len, occ)) == sum(open_counts)
    for v, occ_v in enumerate(occ):
        for j, sign, w in occ_v:
            c = f.clauses[j]
            assert w == c.weight
            assert sign == (v in c.pos) - (v in c.neg)
            assert v in c.pos or v in c.neg


@settings(max_examples=300, deadline=None)
@given(edge_case_formulas(), st.integers(0, 2**64 - 1))
def test_kernel_matches_rescan_on_edge_cases(case, seed):
    f, order = case
    check_compiled(f)
    run = run_randomized(f, order, seed)
    t = new_trace(f, order)
    sums = alpha_sums(f, order, run.assignment)
    for step, step_sums in zip(run.steps, sums, strict=True):
        q = step_quantities(t)
        assert (q.var, q.t2, q.f2) == (step.var, step.t2, step.f2)
        # alpha-rule identities, tautological clauses included
        assert_alpha_identities(q, step_sums)
        assert (q.t2, q.f2) == rescan_deltas(f, t.values, q.var)
        apply(t, step.value)
        assert t.sat_weight == recompute_sat_unsat(f, t.values)[0]
    assert t.sat_weight == run.weight
    assert run_weight(f, order, seed) == run.weight
    assert run_vanzuylen(f, order, seed) == run


@settings(max_examples=300, deadline=None)
@given(edge_case_formulas())
def test_brute_force_opt_matches_scan_on_edge_cases(case):
    f, _ = case
    opt, witness = brute_force_opt(f)
    assert (opt, witness) == scan_optimum(f)
    assert satisfied_weight(f, witness) == opt
