"""parse_dimacs against the line-by-line reference reader it replaced.

Valid files are write_dimacs of random formulas, reflowed every way the
grammar allows; each is then mutated by one inserted, deleted or replaced
character.  Both readers must accept with equal Formulas or reject with
the same message.
"""

from hypothesis import example, given, settings, strategies as st

from maxsat34 import Clause, Formula, FormulaError, parse_dimacs, random_instance, write_dimacs

from reference_reader import reference_parse

# every str.splitlines separator, \x1f (int() skips it, str.split splits
# at it), the characters of the grammar and a fullwidth digit, which int()
# takes
MUTANTS = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "\x1f", "_", "+", "-", *"0123456789", "%", "c",
    "p", "h", "\uff13", " ", "\t",
]
GAPS = [" ", "\t", " \t ", "\n", "\n\n", " \n\t", "\nc 1 0 \x1c2 0\n", "\n\t\n"]


@st.composite
def dimacs_files(draw):
    """(formula, text): write_dimacs of a random formula, its tokens
    rejoined by random gaps, with comment lines, a % end line, CRLF line
    ends and a byte-order mark each maybe added."""
    f = random_instance(
        draw(st.integers(1, 6)), draw(st.integers(0, 8)), draw(st.integers(1, 4)),
        draw(st.integers(1, 9)), draw(st.integers(0, 2**32)),
    )
    header, *body = write_dimacs(f).splitlines()
    tokens = " ".join(body).split()
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=len(tokens), max_size=len(tokens)))
    text = header + "\n" + "".join(t + g for t, g in zip(tokens, gaps)) + "\n"
    if draw(st.booleans()):
        text = "c a comment\n\n" + text
    if draw(st.booleans()):
        text += "%\n" + draw(st.sampled_from(["", "0\n", "junk 1 0\n"]))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return f, text


def outcome(read, text):
    """The Formula read, or the message of the FormulaError raised."""
    try:
        return read(text)
    except FormulaError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(dimacs_files())
def test_valid_files_read_alike(case):
    f, text = case
    assert parse_dimacs(text) == reference_parse(text) == f
    assert parse_dimacs(text.encode()) == f


@settings(max_examples=1000, deadline=None)
@given(dimacs_files(), st.data())
@example((None, "p cnf 2 1\nc note\x1c1 -2 0\n"), None)
@example((None, "p cnf 2 1\n1\x1f2 0\n"), None)
@example((None, "p cnf 2 2\n1 0\n3 x 0\n"), None)
@example((None, "p cnf 2 3\n1 0\n0\np cnf 2 2\n"), None)
@example((None, "p wcnf 2 2\n1 1\n-2 0 5\n\x0c 0\n"), None)
def test_mutated_files_read_alike(case, data):
    _, text = case
    if data is not None:
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        char = data.draw(st.sampled_from(MUTANTS))
        tail = text[at:] if edit == "insert" else text[at + 1:]
        text = text[:at] + ("" if edit == "delete" else char) + tail
    assert outcome(parse_dimacs, text) == outcome(reference_parse, text)


@given(
    st.frozensets(st.integers(1, 9), max_size=4),
    st.frozensets(st.integers(1, 9), max_size=4),
    st.integers(0, 20),
)
def test_direct_clause_equals_parsed(pos, neg, weight):
    """A Clause built from frozensets, as the strategies of test_bookkeep.py
    build them, equals the clause read back from its text, and holds its
    literals as sorted tuples."""
    if not (pos or neg):
        return
    c = Clause(pos, neg, weight)
    assert (c.pos, c.neg) == (tuple(sorted(pos)), tuple(sorted(neg)))
    assert parse_dimacs(write_dimacs(Formula(9, (c,)))).clauses == (c,)
    # the named-tuple helpers sort and check as Clause() does
    assert c._replace(pos=(9, 9, 1), weight=1) == Clause({1, 9}, neg, 1)
