import hashlib

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
    assert f.clauses[0].pos == (1, 2)
    assert f.clauses[0].neg == ()
    assert f.clauses[0].weight == 1
    assert f.clauses[1].neg == (1,)
    assert f.total_weight == 2


def test_parse_weighted():
    f = parse_dimacs("p wcnf 1 1\n3 1 0\n")
    assert f.num_vars == 1
    assert f.clauses[0].pos == (1,)
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
        # int() takes these, DIMACS does not: only ASCII [+-]?[0-9]+
        ("p cnf 10 1\n1_0 0\n", "line 2: expected integer, got '1_0'"),
        ("p cnf 3 1\n\uff13 0\n", "line 2: expected integer, got '\uff13'"),
        ("p cnf 1_0 1\n1 0\n", "line 1: expected integer, got '1_0'"),
        ("p wcnf 2 1 1_0\n1 1 0\n", "line 1: expected integer, got '1_0'"),
        # only a line that is exactly "%" ends the input
        ("p cnf 2 1\n1 0\n%junk 2 0\n-1 0\n", "line 3: expected integer, got '%junk'"),
        # one byte-order mark is skipped, not two
        ("\ufeff\ufeffp cnf 1 1\n1 0\n", "line 1: clause before header"),
        # lines end only at \n and tokens are separated only by spaces and
        # tabs: a comment line holds everything up to its \n, and any other
        # character in a header or clause line is an error
        ("p cnf 2 1\nc note\x1c1 -2 0\n", "header declares 1 clauses, found 0"),
        ("p cnf 2 1\n1\x1f2 0\n", r"line 2: expected integer, got '1\\x1f2'"),
        ("p cnf 1 1\n\x0c\n1 0\n", r"line 2: expected integer, got '\\x0c'"),
        ("p cnf 2 1\n1\u20282 0\n", r"line 2: expected integer, got '1\\u20282'"),
        ("p cnf 2 1\n1 -2 0\r", r"line 2: expected integer, got '0\\r'"),
        ("p cnf\x1f2 1\n1 0\n", "line 1: malformed header"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(FormulaError, match=match):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text,message",
    [
        # a clause left open names the line where it began
        ("p cnf 2 1\n1\nc x\n2\n", "line 2: clause not terminated by 0"),
        ("p wcnf 2 1\n1 2 0 3\n1\n%\n", "line 2: clause not terminated by 0"),
        ("p wcnf 1 1\n3\n0\n", "line 2: empty clause"),
        # any other error names the line of the offending token
        ("p cnf 2 1\n1\n-3 0\n", "line 3: literal -3 out of range"),
        ("p cnf 2 1\n1\n2 x 0\n", "line 3: expected integer, got 'x'"),
        ("p wcnf 2 2\n1 1 0\n-1 2 0\n", "line 3: negative weight -1"),
        ("p wcnf 2 2 5\n1 1 0 5\n2 0\n", "line 2: hard clause"),
    ],
)
def test_parse_error_names_line(text, message):
    with pytest.raises(FormulaError, match=message):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text,clauses",
    [
        # one clause split across lines
        ("p cnf 2 1\n1 2\n0\n", [(1, (1, 2), ())]),
        # two clauses on one line
        ("p cnf 2 2\n1 2 0 -1 0\n", [(1, (1, 2), ()), (1, (), (1,))]),
        ("p wcnf 2 2\n4\n1 2 0 1 -1\n\nc 0\n0\n", [(4, (1, 2), ()), (1, (), (1,))]),
        # the first token of a wcnf clause is its weight, even when it is 0
        ("p wcnf 2 2\n0 1 0 3\n-2\n0\n", [(0, (1,), ()), (3, (), (2,))]),
    ],
)
def test_parse_clauses_as_token_stream(text, clauses):
    f = parse_dimacs(text)
    assert [(c.weight, c.pos, c.neg) for c in f.clauses] == clauses


def test_parse_ignores_comments_and_percent_suffix():
    f = parse_dimacs("c hi\np cnf 2 1\nc mid\n1 -2 0\n%\n0\n")
    assert f.num_clauses == 1


@pytest.mark.parametrize(
    "text", ["\ufeffp cnf 2 1\n1 -2 0\n", b"\xef\xbb\xbfp cnf 2 1\n1 -2 0\n"]
)
def test_parse_skips_byte_order_mark(text):
    assert parse_dimacs(text) == formula(2, clause(pos=(1,), neg=(2,)))


def test_parse_drops_the_cr_of_crlf():
    text = "c crlf\x1c\r\np cnf 2 1\r\n1 -2 0\r\n"
    assert parse_dimacs(text) == formula(2, clause(pos=(1,), neg=(2,)))


def test_parse_deduplicates_literals():
    f = parse_dimacs("p cnf 2 1\n1 1 -2 -2 0\n")
    assert f.clauses[0].pos == (1,)
    assert f.clauses[0].neg == (2,)


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
    assert f.clauses[0].pos == f.clauses[0].neg == (1,)  # x1 in both
    assert satisfied_weight(f, (True,)) == 1
    assert satisfied_weight(f, (False,)) == 1


@pytest.mark.parametrize(
    "clauses,message",
    [
        # two variables out of range in one clause: the error names 3
        ((clause(pos=(1,)), clause(pos=(3,), neg=(5,))), "variable 3 out of range 1..2"),
        ((clause(pos=(9, 4), neg=(0,)),), "variable 0 out of range 1..2"),
        ((clause(pos=(1,)), clause(neg=(0,))), "variable 0 out of range 1..2"),
    ],
)
def test_formula_range_error_names_variable(clauses, message):
    with pytest.raises(FormulaError, match=f"^{message}$"):
        formula(2, *clauses)


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


@given(st.integers(min_value=0, max_value=2**63 - 1), st.data())
def test_roundtrip_reflowed_text(seed, data):
    """Any layout of the clause tokens parses to the same formula: clauses
    split across lines or joined on one, comment and blank lines between."""
    f = random_instance(n=6, m=8, max_len=4, max_w=9, seed=seed)
    header, *body = write_dimacs(f).splitlines()
    tokens = " ".join(body).split()
    gaps = data.draw(
        st.lists(
            st.sampled_from([" ", "\t", "\n", "\n\n", " \n  ", "\nc 1 0 x\n"]),
            min_size=len(tokens),
            max_size=len(tokens),
        )
    )
    text = header + "\n" + "".join(t + g for t, g in zip(tokens, gaps))
    assert parse_dimacs(text) == f


# SHA-256 of write_dimacs(random_instance(*args)); every benchmark file is
# made by these two functions, so their bytes must not move
INSTANCE_DIGESTS = {
    (2000, 4000, 3, 10, 1): "07322bcb8ef3f74184643291b46e5e3271aaa4180cf08170b84deb53992e25a7",
    (2000, 4000, 3, 10, 2): "4c0030115ed479b8ed89030a1c136fa17e75e738758060e8db4d085455d45c25",
    (2000, 4000, 3, 10, 3): "8fefa91a925bf6382da3d76d47164063e900b7ea556884a362f576850428527e",
    (10, 30, 3, 10, 1): "ec3a69ea683ebc2416db5c491ee10eb558d48b4b1c2d12f5ef9baf8c610140ad",
    (5, 17, 3, 10, 2): "a7e32aab306ef736feaca9a8551802b9be212d8800f8913ee265a3a43ae8cab6",
    (1, 3, 1, 10, 3): "eafadb08bf8870a942749f365fcff386350ddda64e348efdcb9b3735243c35e5",
}


@pytest.mark.parametrize("args", list(INSTANCE_DIGESTS))
def test_generated_instance_bytes_are_pinned(args):
    text = write_dimacs(random_instance(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_DIGESTS[args]


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
