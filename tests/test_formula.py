import pytest
from hypothesis import given, strategies as st

from maxsat34 import (
    Formula,
    FormulaError,
    parse_dimacs,
    random_instance,
    satisfied_weight,
    write_dimacs,
)

from conftest import clause, formula

NEW_STYLE = r"new-style \(2022\) WCNF.*is not supported"


def test_parse_plain_cnf():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    assert f.num_vars == 2
    assert f.num_clauses == 2
    assert f.clauses[0].pos == frozenset({1, 2})
    assert f.clauses[0].neg == frozenset()
    assert f.clauses[0].weight == 1
    assert f.clauses[1].neg == frozenset({1})
    assert f.total_weight == 2


def test_parse_weighted():
    f = parse_dimacs("p wcnf 1 1\n3 1 0\n")
    assert f.num_vars == 1
    assert f.clauses[0].pos == frozenset({1})
    assert f.clauses[0].weight == 3
    assert f.total_weight == 3


def test_parse_rejects_hard_clause():
    with pytest.raises(FormulaError, match="hard clause"):
        parse_dimacs("p wcnf 1 1 10\n10 1 0\n")


def test_parse_soft_clause_under_top_ok():
    f = parse_dimacs("p wcnf 1 1 10\n9 1 0\n")
    assert f.clauses[0].weight == 9


@pytest.mark.parametrize(
    "text,match",
    [
        ("p cnf x 2\n1 0\n", "integer"),
        ("p qcnf 1 1\n1 0\n", "unknown format"),
        ("p cnf 1 1\n2 0\n", "out of range"),
        ("p cnf 1 1\n0\n", "empty clause"),
        ("p cnf 1 1\n1\n", "not terminated"),
        ("p wcnf 1 1\n-2 1 0\n", "negative weight"),
        ("1 0\n", "before header"),
        ("c nothing here\n", "missing DIMACS header"),
        ("p cnf 2 5\n1 0\n", "header declares 5 clauses, found 1"),
        # 2022-style WCNF: no p line, h marks a hard clause
        ("c new style\nh 1 2 0\n3 -1 0\n", NEW_STYLE),
        ("3 -1 0\nh 1 2 0\n", NEW_STYLE),
        ("1 0\n", NEW_STYLE),
        ("p wcnf 2 2\nh 1 2 0\n3 -1 0\n", NEW_STYLE),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(FormulaError, match=match):
        parse_dimacs(text)


def test_parse_ignores_comments_and_percent_suffix():
    f = parse_dimacs("c hi\np cnf 2 1\nc mid\n1 -2 0\n%\n0\n")
    assert f.num_clauses == 1


def test_parse_deduplicates_literals():
    f = parse_dimacs("p cnf 2 1\n1 1 -2 -2 0\n")
    assert f.clauses[0].pos == frozenset({1})
    assert f.clauses[0].neg == frozenset({2})


def test_parse_keeps_zero_weight_clause():
    f = parse_dimacs("p wcnf 1 1\n0 1 0\n")
    assert f.clauses[0].weight == 0
    assert f.total_weight == 0


def test_write_examples():
    f = formula(1, clause(pos=(1,), weight=3))
    assert write_dimacs(f) == "p wcnf 1 1\n3 1 0\n"
    assert write_dimacs(Formula(num_vars=0, clauses=())) == "p wcnf 0 0\n"


def test_tautological_clause_accepted():
    f = parse_dimacs("p cnf 1 1\n1 -1 0\n")
    assert f.clauses[0].pos & f.clauses[0].neg  # x1 in both
    assert satisfied_weight(f, (True,)) == 1
    assert satisfied_weight(f, (False,)) == 1


def test_formula_invariants_rejected():
    with pytest.raises(FormulaError):
        formula(1, clause(pos=(2,)))  # variable out of range
    with pytest.raises(FormulaError):
        clause()  # no literals
    with pytest.raises(FormulaError):
        clause(pos=(1,), weight=-1)


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_roundtrip_random_instances(seed):
    f = random_instance(n=6, m=10, max_len=4, max_w=9, seed=seed)
    assert parse_dimacs(write_dimacs(f)) == f


def test_random_instance_deterministic():
    a = random_instance(3, 2, 2, 5, seed=42)
    b = random_instance(3, 2, 2, 5, seed=42)
    assert a == b


def test_random_instance_degenerate_parameters():
    f = random_instance(1, 1, 1, 1, seed=5)
    c = f.clauses[0]
    assert c.weight == 1
    assert c.variables() == frozenset({1})


def test_random_instance_parameter_validation():
    with pytest.raises(ValueError):
        random_instance(0, 1, 1, 1, seed=0)
    with pytest.raises(ValueError):
        random_instance(1, -1, 1, 1, seed=0)
    with pytest.raises(ValueError):
        random_instance(1, 1, 0, 1, seed=0)
    with pytest.raises(ValueError):
        random_instance(1, 1, 1, 0, seed=0)


def test_corpus_respects_invariants(small_corpus):
    for f in small_corpus:
        assert f.total_weight == sum(c.weight for c in f.clauses)
        for c in f.clauses:
            assert c.variables()
            assert all(1 <= v <= f.num_vars for v in c.variables())
