"""Weighted CNF formulas: data model, DIMACS I/O, random instance generation."""

from __future__ import annotations

import operator
import random
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from math import ceil, log
from typing import Iterable, NamedTuple, Sequence


class FormulaError(ValueError):
    """Malformed formula or unparsable DIMACS input."""


class _ClauseFields(NamedTuple):
    pos: tuple[int, ...]
    neg: tuple[int, ...]
    weight: int


class Clause(_ClauseFields):
    """A weighted clause: disjunction of positive literals (pos) and
    negative literals (neg), each a sorted tuple of distinct variables,
    with a nonnegative integer weight.  Clause(pos, neg, weight) takes any
    iterables and sorts and de-duplicates them, so equal clauses are equal
    tuples."""

    __slots__ = ()

    def __new__(cls, pos: Iterable[int], neg: Iterable[int], weight: int) -> Clause:
        pos, neg = tuple(sorted(set(pos))), tuple(sorted(set(neg)))
        if not pos and not neg:
            raise FormulaError("clause has no literals")
        if weight < 0:
            raise FormulaError(f"negative clause weight {weight}")
        return tuple.__new__(cls, (pos, neg, weight))

    @classmethod
    def _make(cls, iterable: Iterable) -> Clause:  # _replace calls it too
        return cls(*iterable)

    def variables(self) -> frozenset[int]:
        return frozenset(self.pos + self.neg)


# _clause((pos, neg, weight)) builds a Clause from fields that are already
# sorted, distinct and checked, without Clause.__new__'s work
_clause = partial(tuple.__new__, Clause)


# One occurrence of a variable: (clause index, sign, clause weight), where
# sign is +1 (positive literal), -1 (negative literal) or 0 (the clause
# holds both literals, so it is tautological in that variable).
Occurrence = tuple[int, int, int]


class CompiledFormula(NamedTuple):
    """The read-only form every sequential run shares.

    occ[v] lists the occurrences of variable v in clause order (occ[0] is
    empty); open_counts[j] is the number of distinct variables of clause j.
    The lists in occ are never mutated: turning them into tuples would cost
    as much again as building them.
    """

    occ: list[list[Occurrence]]
    open_counts: tuple[int, ...]


@dataclass(frozen=True)
class Formula:
    """An immutable weighted CNF formula over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]
    total_weight: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if self.num_vars < 0:
            raise FormulaError("negative variable count")
        pos, neg, weights = zip(*self.clauses) if self.clauses else ((), (), ())
        # each field is sorted: its first and last variables bound it
        fields = tuple(filter(None, pos + neg))
        if fields and (
            min(map(operator.itemgetter(0), fields)) < 1
            or max(map(operator.itemgetter(-1), fields)) > self.num_vars
        ):
            # the loop picks the variable the error names
            for c in self.clauses:
                for v in c.variables():
                    if not 1 <= v <= self.num_vars:
                        raise FormulaError(
                            f"variable {v} out of range 1..{self.num_vars}"
                        )
        object.__setattr__(self, "total_weight", sum(weights))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @cached_property
    def compiled(self) -> CompiledFormula:
        """Occurrence triples and open-literal counts, built once."""
        occ: list[list[Occurrence]] = [[] for _ in range(self.num_vars + 1)]
        open_counts = []
        for j, (pos, neg, w) in enumerate(self.clauses):
            # one shared triple per (clause, sign) keeps the build cheap
            occ_pos = (j, 1, w)
            for v in pos:
                occ[v].append(occ_pos)
            occ_neg = (j, -1, w)
            count = len(pos) + len(neg)
            for v in neg:
                occ_v = occ[v]
                if occ_v and occ_v[-1] is occ_pos:  # v is in pos too
                    occ_v[-1] = (j, 0, w)
                    count -= 1
                else:
                    occ_v.append(occ_neg)
            open_counts.append(count)
        return CompiledFormula(occ, tuple(open_counts))


# An assignment is a sequence of num_vars booleans; index i holds x_{i+1}.
Assignment = tuple[bool, ...]


def clause_satisfied(clause: Clause, values: Sequence[bool]) -> bool:
    return any(values[v - 1] for v in clause.pos) or any(
        not values[v - 1] for v in clause.neg
    )


def satisfied_weight(formula: Formula, values: Sequence[bool]) -> int:
    """Total weight of clauses satisfied by a complete assignment.

    This is the direct, non-incremental evaluation used as ground truth
    against the incremental bookkeeping.
    """
    if len(values) != formula.num_vars:
        raise FormulaError("assignment length does not match num_vars")
    return sum(
        c.weight for c in formula.clauses if clause_satisfied(c, values)
    )


# int() skips or takes these characters too; DIMACS separates tokens by
# spaces and tabs only and has no digit groups
_NOT_DIMACS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "_")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_SEPARATOR = re.compile(r"[ \t]+")


def parse_dimacs(text: str | bytes) -> Formula:
    r"""Parse DIMACS CNF (implicit unit weights) or old-style weighted CNF.

    Accepted headers: "p cnf n m" and "p wcnf n m [top]".  Lines end at
    "\n", and a "\r" just before it is dropped; tokens are separated by
    spaces and tabs only.  After the header the clauses form one stream of
    integer tokens, each clause ended by 0: a clause may span lines and a
    line may hold several clauses.  In wcnf the first token of each clause
    is its weight, so "0 1 0" is a weight-0 clause.  A token is an ASCII
    integer, [+-]?[0-9]+; any other character in a header or clause line
    is an error.  "c" comment lines are ignored and may hold anything; a
    line consisting of "%" terminates the input, and any other line that
    starts with "%" is an error.  One leading byte-order mark (U+FEFF) is
    skipped.  In the wcnf-with-top variant any clause of weight >= top is a
    hard clause and is rejected.  The clauses before a "%" line must
    number exactly as the header declares.  New-style (2022) WCNF, without
    a p line, is rejected with a message that names it.  An error names
    the line of the offending token; for a clause not terminated by 0, the
    line where the clause began.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    text = text.removeprefix("\ufeff").replace("\r\n", "\n")

    header = None
    body: list[str] = []  # the clause lines after the header, stripped
    linenos: list[int] = []  # the line number of each
    stop = None  # an error that ends the clause lines, raised after them
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip(" \t")
        if not line or line[0] == "c":
            continue
        if line == "%":
            break
        if line[0] == "p":
            if header is not None:
                stop = FormulaError(f"line {lineno}: duplicate header")
                break
            header = _parse_header(line, lineno)
            continue
        if header is None:
            raise FormulaError(
                f"line {lineno}: clause before header; new-style (2022)"
                " WCNF, with no p line and h for hard clauses, is not"
                " supported"
            )
        body.append(line)
        linenos.append(lineno)
    if header is None:
        raise FormulaError("missing DIMACS header")
    num_vars, declared, weighted, top = header

    joined = " ".join(body)
    try:
        if not joined.isascii() or any(ch in joined for ch in _NOT_DIMACS):
            raise ValueError
        nums = list(map(int, joined.split()))
    except ValueError:  # only the lines before the first bad token are read
        nums, stop = _ints_before_bad_token(body, linenos, stop)

    def line_of(index: int) -> int:  # of a token, found only for an error
        ends = accumulate(len(_SEPARATOR.split(line)) for line in body)
        return linenos[bisect_right(list(ends), index)]

    # in wcnf the weights count too, so a weight above num_vars only costs
    # the check of every literal
    check_range = nums and (min(nums) < -num_vars or max(nums) > num_vars)
    clauses = []
    i, end = 0, len(nums)
    while i < end:
        first, weight = i, 1  # the clause begins at token i
        if weighted:
            weight = nums[i]
            if weight < 0:
                raise FormulaError(f"line {line_of(i)}: negative weight {weight}")
            if top is not None and weight >= top:
                raise FormulaError(
                    f"line {line_of(i)}: hard clause (weight {weight} >= top"
                    f" {top}) unsupported"
                )
            i += 1
        try:
            zero = nums.index(0, i)
        except ValueError:
            zero = end
        lits = nums[i:zero]
        if check_range:
            for k, l in enumerate(lits, i):
                if not -num_vars <= l <= num_vars:
                    raise FormulaError(f"line {line_of(k)}: literal {l} out of range")
        if zero == end:
            raise stop or FormulaError(
                f"line {line_of(first)}: clause not terminated by 0"
            )
        if not lits:
            raise FormulaError(f"line {line_of(first)}: empty clause")
        if len(set(lits)) < len(lits):  # a literal repeats
            lits = list(set(lits))
        lits.sort()  # the negative literals, then the positive ones
        k = bisect_left(lits, 0)
        neg = tuple(map(operator.neg, lits[k - 1::-1])) if k else ()
        clauses.append(_clause((tuple(lits[k:]), neg, weight)))
        i = zero + 1

    if stop is not None:
        raise stop
    if len(clauses) != declared:
        raise FormulaError(
            f"header declares {declared} clauses, found {len(clauses)}"
        )
    return Formula(num_vars=num_vars, clauses=tuple(clauses))


def _ints_before_bad_token(
    body: list[str], linenos: list[int], stop: FormulaError | None
) -> tuple[list[int], FormulaError | None]:
    """The integers of the clause lines before the line of the first bad
    token, and that token's error (stop if every token is an integer)."""
    nums: list[int] = []
    for line, lineno in zip(body, linenos):
        try:
            nums += [_parse_int(t, lineno) for t in _SEPARATOR.split(line)]
        except FormulaError as exc:
            return nums, exc
    return nums, stop


def _parse_header(line: str, lineno: int) -> tuple[int, int, bool, int | None]:
    """(num_vars, declared clauses, weighted, top) of a "p" line."""
    parts = _SEPARATOR.split(line)
    if len(parts) < 4 or parts[0] != "p":
        raise FormulaError(f"line {lineno}: malformed header {line!r}")
    top = None
    if parts[1] == "cnf":
        if len(parts) != 4:
            raise FormulaError(f"line {lineno}: malformed cnf header")
    elif parts[1] == "wcnf":
        if len(parts) == 5:
            top = _parse_int(parts[4], lineno)
        elif len(parts) != 4:
            raise FormulaError(f"line {lineno}: malformed wcnf header")
    else:
        raise FormulaError(f"line {lineno}: unknown format {parts[1]!r}")
    num_vars = _parse_int(parts[2], lineno)
    declared = _parse_int(parts[3], lineno)
    if num_vars < 0 or declared < 0:
        raise FormulaError(f"line {lineno}: negative header field")
    return num_vars, declared, parts[1] == "wcnf", top


def _parse_int(token: str, lineno: int) -> int:
    """The value of a DIMACS integer token, [+-]?[0-9]+ in ASCII."""
    if _INTEGER.fullmatch(token):
        return int(token)
    if token == "h":
        raise FormulaError(
            f"line {lineno}: h hard-clause line; new-style (2022) WCNF"
            " is not supported"
        )
    raise FormulaError(f"line {lineno}: expected integer, got {token!r}")


def write_dimacs(formula: Formula) -> str:
    """Emit old-style wcnf text; parse_dimacs(write_dimacs(f)) == f."""
    lines = [f"p wcnf {formula.num_vars} {formula.num_clauses}"]
    for c in formula.clauses:
        tokens = [c.weight, *c.pos, *map(operator.neg, c.neg), 0]
        lines.append(" ".join(map(str, tokens)))
    return "\n".join(lines) + "\n"


def random_instance(
    n: int, m: int, max_len: int, max_w: int, seed: int
) -> Formula:
    """Deterministic random formula: m clauses over n variables, clause
    length uniform in 1..min(max_len, n), distinct variables per clause,
    uniform signs, weights uniform in 1..max_w.  The seed must be >= 0:
    random.Random seeds from its absolute value, so -s would alias s."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_w < 1:
        raise ValueError("max_w must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    # The draws of randint(1, longest), sample(range(1, n + 1), k), one
    # sign bit per chosen variable and randint(1, max_w), as the standard
    # library's algorithms make them, but straight from getrandbits: the
    # bytes then rest on the Mersenne Twister alone.  Each draw below b is
    # a getrandbits of b.bit_length() bits, redrawn until it is < b.
    bits = random.Random(seed).getrandbits
    longest = min(max_len, n)
    n_bits, len_bits, w_bits = n.bit_length(), longest.bit_length(), max_w.bit_length()
    clauses = []
    for _ in range(m):
        k = bits(len_bits)
        while k >= longest:
            k = bits(len_bits)
        k += 1
        if n <= 21 or (k > 5 and n <= 21 + 4 ** ceil(log(3 * k, 4))):
            # sample's pool branch: swap each pick out of the shrinking pool
            chosen, pool = [], list(range(1, n + 1))
            for size in range(n, n - k, -1):
                size_bits = size.bit_length()
                j = bits(size_bits)
                while j >= size:
                    j = bits(size_bits)
                chosen.append(pool[j])
                pool[j] = pool[size - 1]
        else:
            # sample's set branch: redraw until the variable is new; the
            # dict keeps the picks in order
            chosen = {}
            for _ in range(k):
                v = bits(n_bits) + 1
                while v > n or v in chosen:
                    v = bits(n_bits) + 1
                chosen[v] = None
        pos, neg = [], []
        for v in chosen:
            (pos if bits(1) else neg).append(v)
        w = bits(w_bits)
        while w >= max_w:
            w = bits(w_bits)
        pos.sort()
        neg.sort()
        clauses.append(_clause((tuple(pos), tuple(neg), w + 1)))
    return Formula(num_vars=n, clauses=tuple(clauses))
