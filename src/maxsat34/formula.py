"""Weighted CNF formulas: data model, DIMACS I/O, random instance generation."""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, log
from typing import Iterable, NamedTuple, Sequence


class FormulaError(ValueError):
    """Malformed formula or unparsable DIMACS input."""


@dataclass(frozen=True)
class Clause:
    """A weighted clause: disjunction of positive literals (pos) and
    negative literals (neg), with a nonnegative integer weight."""

    pos: frozenset[int]
    neg: frozenset[int]
    weight: int

    def __post_init__(self) -> None:
        if type(self.pos) is not frozenset:
            object.__setattr__(self, "pos", frozenset(self.pos))
        if type(self.neg) is not frozenset:
            object.__setattr__(self, "neg", frozenset(self.neg))
        if not self.pos and not self.neg:
            raise FormulaError("clause has no literals")
        if self.weight < 0:
            raise FormulaError(f"negative clause weight {self.weight}")

    def variables(self) -> frozenset[int]:
        return self.pos | self.neg


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
        used = frozenset().union(
            *[c.pos for c in self.clauses], *[c.neg for c in self.clauses]
        )
        if used and (min(used) < 1 or max(used) > self.num_vars):
            # the loop picks the variable the error names
            for c in self.clauses:
                for v in c.variables():
                    if not 1 <= v <= self.num_vars:
                        raise FormulaError(
                            f"variable {v} out of range 1..{self.num_vars}"
                        )
        object.__setattr__(
            self, "total_weight", sum(c.weight for c in self.clauses)
        )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @cached_property
    def compiled(self) -> CompiledFormula:
        """Occurrence triples and open-literal counts, built once."""
        occ: list[list[Occurrence]] = [[] for _ in range(self.num_vars + 1)]
        open_counts = []
        for j, c in enumerate(self.clauses):
            pos, neg, w = c.pos, c.neg, c.weight
            if pos.isdisjoint(neg):
                open_counts.append(len(pos) + len(neg))
            else:
                both = pos & neg
                pos, neg = pos - both, neg - both
                open_counts.append(len(pos) + len(neg) + len(both))
                occ_j = (j, 0, w)
                for v in both:
                    occ[v].append(occ_j)
            # one shared triple per (clause, sign) keeps the build cheap
            occ_j = (j, 1, w)
            for v in pos:
                occ[v].append(occ_j)
            occ_j = (j, -1, w)
            for v in neg:
                occ[v].append(occ_j)
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


def _clause_from_literals(lits: Iterable[int], weight: int) -> Clause:
    pos: set[int] = set()
    neg: set[int] = set()
    for l in lits:
        if l > 0:
            pos.add(l)
        else:
            neg.add(-l)
    return Clause(frozenset(pos), frozenset(neg), weight)


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF (implicit unit weights) or old-style weighted CNF.

    Accepted headers: "p cnf n m" and "p wcnf n m [top]".  After the header
    the clauses form one stream of integer tokens, each clause ended by 0:
    a clause may span lines and a line may hold several clauses.  In wcnf
    the first token of each clause is its weight, so "0 1 0" is a weight-0
    clause.  A token is an ASCII integer, [+-]?[0-9]+.  "c" comment lines
    are ignored; a line consisting of "%" terminates the input, and any
    other line that starts with "%" is an error.  One leading byte-order
    mark (U+FEFF) is skipped.  In the wcnf-with-top variant any clause of
    weight >= top is a hard clause and is rejected.  The clauses before a
    "%" line must number exactly as the header declares.  New-style (2022)
    WCNF, without a p line, is rejected with a message that names it.  An
    error names the line of the offending token; for a clause not
    terminated by 0, the line where the clause began.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    text = text.removeprefix("\ufeff")  # one byte-order mark

    header = None
    clauses: list[Clause] = []
    lits: list[int] = []  # literals read so far of the open clause
    weight = None  # weight of the open clause; None when no clause is open
    start = 0  # line where the open clause began

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line == "%":
            break
        if line[0] == "p":
            if header is not None:
                raise FormulaError(f"line {lineno}: duplicate header")
            header = _parse_header(line, lineno)
            num_vars, declared, weighted, top = header
            continue
        if header is None:
            raise FormulaError(
                f"line {lineno}: clause before header; new-style (2022)"
                " WCNF, with no p line and h for hard clauses, is not"
                " supported"
            )

        tokens = line.split()
        try:
            # int() also takes "1_0" and non-ASCII digits; DIMACS does not
            if not line.isascii() or "_" in line:
                raise ValueError
            nums = list(map(int, tokens))
        except ValueError:  # _parse_int names the first bad token
            nums = [_parse_int(t, lineno) for t in tokens]
        i, end = 0, len(nums)
        while i < end:
            if weight is None:  # a clause begins at token i
                start, weight = lineno, 1
                if weighted:
                    weight = nums[i]
                    if weight < 0:
                        raise FormulaError(f"line {lineno}: negative weight {weight}")
                    if top is not None and weight >= top:
                        raise FormulaError(
                            f"line {lineno}: hard clause (weight {weight} >= top"
                            f" {top}) unsupported"
                        )
                    i += 1
                    continue
            try:
                stop = nums.index(0, i)
            except ValueError:
                stop = end
            chunk = nums[i:stop]
            if chunk and (min(chunk) < -num_vars or max(chunk) > num_vars):
                bad = next(l for l in chunk if not -num_vars <= l <= num_vars)
                raise FormulaError(f"line {lineno}: literal {bad} out of range")
            lits += chunk
            if stop == end:
                break
            if not lits:
                raise FormulaError(f"line {start}: empty clause")
            clauses.append(_clause_from_literals(lits, weight))
            lits, weight = [], None
            i = stop + 1

    if header is None:
        raise FormulaError("missing DIMACS header")
    if weight is not None:
        raise FormulaError(f"line {start}: clause not terminated by 0")
    if len(clauses) != declared:
        raise FormulaError(
            f"header declares {declared} clauses, found {len(clauses)}"
        )
    return Formula(num_vars=num_vars, clauses=tuple(clauses))


def _parse_header(line: str, lineno: int) -> tuple[int, int, bool, int | None]:
    """(num_vars, declared clauses, weighted, top) of a "p" line."""
    parts = line.split()
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
    if token.isascii() and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
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
        tokens = [c.weight, *sorted(c.pos), *map(operator.neg, sorted(c.neg)), 0]
        lines.append(" ".join(map(str, tokens)))
    return "\n".join(lines) + "\n"


def random_instance(
    n: int, m: int, max_len: int, max_w: int, seed: int
) -> Formula:
    """Deterministic random formula: m clauses over n variables, clause
    length uniform in 1..min(max_len, n), distinct variables per clause,
    uniform signs, weights uniform in 1..max_w."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_w < 1:
        raise ValueError("max_w must be >= 1")
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
        clauses.append(Clause(frozenset(pos), frozenset(neg), w + 1))
    return Formula(num_vars=n, clauses=tuple(clauses))
