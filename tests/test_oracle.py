from fractions import Fraction

import pytest

from maxsat34 import (
    Formula,
    LimitError,
    TraceState,
    brute_force_opt,
    check_lp_lemmas,
    check_randomized_lemmas,
    exact_expectation,
    monte_carlo_mean,
)

from conftest import clause, formula
from reference_oracles import enumerate_expectation


def test_brute_force_tie_breaks_low():
    f = formula(1, clause(pos=(1,)), clause(neg=(1,)))
    weight, witness = brute_force_opt(f)
    assert weight == 1
    assert witness == (False,)  # lowest encoding among ties


def test_brute_force_two_vars():
    f = formula(2, clause(pos=(1, 2)), clause(neg=(1,)))
    weight, witness = brute_force_opt(f)
    assert weight == 2
    assert witness == (False, True)


def test_brute_force_empty():
    weight, witness = brute_force_opt(Formula(num_vars=0, clauses=()))
    assert (weight, witness) == (0, ())


def test_brute_force_limit():
    f = formula(21, clause(pos=(1,)))
    with pytest.raises(LimitError, match="n = 21 exceeds brute-force limit 20"):
        brute_force_opt(f)
    # over the limit, check_lp_lemmas checks every link but the last
    names = [r.name for r in check_lp_lemmas(f).records]
    assert "final w >= OPT_LP/2 + W/4" in names
    assert "final OPT_LP/2 + W/4 >= 3/4 OPT" not in names


def test_expectation_deterministic_run():
    f = formula(1, clause(pos=(1,)))
    rep = exact_expectation(f)
    assert rep.expectation == 1
    assert rep.opt == 1
    assert rep.ratio == 1
    assert rep.node_count == 2  # root + leaf


def test_expectation_three_clause(three_clause):
    # x1 randomizes at 1/2: true branch ends at weight 3, false at 4
    rep = exact_expectation(three_clause)
    assert rep.expectation == Fraction(7, 2)
    assert rep.opt == 4
    assert rep.ratio == Fraction(7, 8)
    assert rep.ratio >= Fraction(3, 4)


def test_expectation_zero_opt():
    f = formula(1, clause(pos=(1,), weight=0))
    rep = exact_expectation(f)
    assert rep.opt == 0
    assert rep.ratio is None


def test_expectation_matches_path_enumeration(small_corpus, three_clause):
    cases = [f for f in small_corpus if f.num_vars <= 6][:25] + [three_clause]
    for f in cases:
        rep = exact_expectation(f)
        assert rep.expectation == enumerate_expectation(f)


def test_expectation_node_count_bound(small_corpus):
    for f in small_corpus[:20]:
        rep = exact_expectation(f)
        assert rep.node_count <= 2 ** (f.num_vars + 1) - 1


def test_expectation_guarantee_on_corpus(small_corpus):
    for f in small_corpus:
        rep = exact_expectation(f)
        assert 0 <= rep.expectation <= f.total_weight
        if rep.opt > 0:
            assert rep.ratio >= Fraction(3, 4)


def test_expectation_dominated_by_opt(small_corpus):
    for f in small_corpus[:20]:
        rep = exact_expectation(f)
        assert rep.expectation <= rep.opt


def test_monte_carlo_close_to_exact(three_clause):
    rep = exact_expectation(three_clause)
    mean, se = monte_carlo_mean(three_clause, trials=20_000, base_seed=1)
    assert abs(mean - float(rep.expectation)) <= 3 * se


@pytest.mark.parametrize("trials", [0, -5])
def test_monte_carlo_rejects_bad_trial_count(three_clause, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo_mean(three_clause, trials=trials)


def test_randomized_lemmas_single_unit():
    f = formula(1, clause(pos=(1,)))
    rep = check_randomized_lemmas(f)
    assert rep.overall_pass
    # the chosen value agrees with the optimum, so every lhs is 0
    assert all(r.lhs == 0 for r in rep.records)


def test_randomized_lemmas_three_clause(three_clause):
    rep = check_randomized_lemmas(three_clause)
    assert rep.overall_pass
    root = [r for r in rep.records if r.step == 1 and "Lemma 3)" in r.name]
    assert root and root[0].rhs == Fraction(1, 2)  # 2*t1*f1/(t1+f1)


def test_randomized_lemmas_corpus(small_corpus):
    for f in small_corpus[:30]:
        assert check_randomized_lemmas(f).overall_pass


def test_walks_copy_once_per_randomized_node(small_corpus, monkeypatch):
    """Both oracles walk the decision tree with one TraceState copy per
    randomized node: the last branch takes the node's own trace."""
    copies = 0
    real = TraceState.copy

    def counting_copy(self):
        nonlocal copies
        copies += 1
        return real(self)

    monkeypatch.setattr(TraceState, "copy", counting_copy)
    for f in small_corpus:
        copies = 0
        exact_expectation(f)
        by_expectation = copies
        copies = 0
        report = check_randomized_lemmas(f)
        # a node randomizes iff t2 > 0 and f2 > 0, i.e. iff its Lemma 3
        # bound 2*t*f/(t+f) is positive
        randomized = sum(
            r.name == "node bound (Lemma 3)" and r.rhs > 0 for r in report.records
        )
        assert (by_expectation, copies) == (randomized, randomized)


def test_given_optimum_matches_own_scan(small_corpus):
    """The optimum argument is what each oracle finds by itself."""
    for f in small_corpus[:8]:
        optimum = brute_force_opt(f)
        assert exact_expectation(f, optimum=optimum) == exact_expectation(f)
        assert check_randomized_lemmas(f, optimum=optimum) == (
            check_randomized_lemmas(f)
        )
        assert check_lp_lemmas(f, optimum=optimum) == check_lp_lemmas(f)


def test_lp_lemmas_unit():
    f = formula(1, clause(pos=(1,)))
    rep = check_lp_lemmas(f)
    assert rep.overall_pass
    final = [r for r in rep.records if r.name.startswith("final w")]
    assert final[0].lhs == Fraction(3, 4)  # OPT_LP/2 + W/4 = 1/2 + 1/4
    assert final[0].rhs == 1


def test_lp_lemmas_opposing_units():
    f = formula(1, clause(pos=(1,)), clause(neg=(1,)))
    rep = check_lp_lemmas(f)
    assert rep.overall_pass


def test_lp_lemmas_corpus(small_corpus):
    for f in small_corpus[:25]:
        assert check_lp_lemmas(f).overall_pass


def test_limits_enforced():
    # each limit is checked before any scan, so these inputs stay cheap
    f = formula(16, clause(pos=(1, 16)))
    with pytest.raises(LimitError, match="n = 16 exceeds expectation limit 15"):
        exact_expectation(f)
    with pytest.raises(LimitError, match="n = 16 exceeds expectation limit 15"):
        check_randomized_lemmas(f)
    f = formula(7, clause(pos=(1, 7)))
    with pytest.raises(LimitError, match="n = 7 exceeds path-enumeration limit 6"):
        enumerate_expectation(f)
