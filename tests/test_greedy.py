from fractions import Fraction

from maxsat34 import (
    greedy,
    run_greedy_sat,
    run_greedy_unsat,
    run_randomized,
    run_vanzuylen,
    run_weight,
    satisfied_weight,
)
from maxsat34.greedy import decide

from conftest import clause, formula


def test_decide_deterministic_branches():
    assert decide(1, -1) == (1, 1)  # forced true
    assert decide(-1, 1) == (0, 1)  # forced false
    assert decide(0, 0) == (1, 1)  # the t2 = f2 = 0 tie goes to true


def test_decide_randomized(three_clause, monkeypatch):
    assert decide(1, 1) == (1, 2)
    assert decide(3, 5) == (3, 8)
    # a draw equal to P[true] sets the variable false: the test is strict.
    # Every word is 2^63, so x1 (P[true] = 1/2) draws exactly 1/2.
    monkeypatch.setattr(
        greedy, "splitmix64", lambda seed: iter(lambda: 1 << 63, None)
    )
    r = run_randomized(three_clause)
    first = r.steps[0]
    assert first.draw == first.prob_true == Fraction(1, 2)
    assert first.value is False
    assert run_weight(three_clause) == r.weight


def test_run_randomized_unit_clause():
    f = formula(1, clause(pos=(1,)))
    r = run_randomized(f, seed=123)
    assert r.weight == 1
    assert r.assignment == (True,)
    assert all(s.draw is None for s in r.steps)  # fully deterministic


def test_run_randomized_forced_sequence():
    # (x1 v x2), (-x1): x1 has t2 = 0 so it is set false, then x2 true
    f = formula(2, clause(pos=(1, 2)), clause(neg=(1,)))
    r = run_randomized(f, seed=5)
    assert r.assignment == (False, True)
    assert r.weight == 2


def test_run_randomized_randomizes_at_half(three_clause):
    r = run_randomized(three_clause, seed=11)
    assert r.steps[0].prob_true == Fraction(1, 2)
    assert r.steps[0].draw is not None


def test_run_randomized_pure_function(three_clause):
    a = run_randomized(three_clause, seed=99)
    b = run_randomized(three_clause, seed=99)
    assert a == b


def test_weight_matches_direct_evaluation(small_corpus):
    for i, f in enumerate(small_corpus):
        r = run_randomized(f, seed=i)
        assert r.weight == satisfied_weight(f, r.assignment)
        assert run_weight(f, None, seed=i) == r.weight


def test_deterministic_steps_have_integral_probability(small_corpus):
    for i, f in enumerate(small_corpus[:20]):
        r = run_randomized(f, seed=i)
        for s in r.steps:
            if s.prob_true not in (0, 1):
                assert s.t2 > 0 and s.f2 > 0
                assert s.prob_true == Fraction(s.t2, s.t2 + s.f2)
                assert s.draw is not None
            else:
                assert s.draw is None


def test_vanzuylen_equivalence(small_corpus, three_clause):
    cases = list(small_corpus[:25]) + [three_clause]
    for f in cases:
        for seed in range(5):
            assert run_vanzuylen(f, seed=seed) == run_randomized(f, seed=seed)


def test_vanzuylen_unit_clause_marker_resolution():
    f = formula(1, clause(pos=(1,)))
    r = run_vanzuylen(f, seed=0)
    assert r.assignment == (True,)
    assert r.steps[0].draw is None


def test_greedy_sat_examples():
    f = formula(1, clause(pos=(1,)))
    assert run_greedy_sat(f).weight == 1
    f = formula(1, clause(neg=(1,), weight=2), clause(pos=(1,), weight=1))
    r = run_greedy_sat(f)
    assert r.assignment == (False,)
    assert r.weight == 2


def test_greedy_sat_tie_suboptimal():
    # both settings of x1 satisfy weight 1; tie picks true, losing (-x1)
    f = formula(2, clause(pos=(1, 2)), clause(neg=(1,)))
    r = run_greedy_sat(f)
    assert r.assignment[0] is True
    assert r.weight == 1
    from maxsat34 import brute_force_opt

    assert brute_force_opt(f)[0] == 2


def test_greedy_unsat_examples():
    f = formula(1, clause(pos=(1,)))
    assert run_greedy_unsat(f).assignment == (True,)
    f = formula(2, clause(pos=(1, 2)))
    assert run_greedy_unsat(f).assignment[0] is True  # tie
    f = formula(1, clause(neg=(1,), weight=2), clause(pos=(1,), weight=1))
    r = run_greedy_unsat(f)
    assert r.assignment == (False,)
    assert r.weight == 2
