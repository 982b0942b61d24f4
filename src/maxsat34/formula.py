"""Weighted CNF formulas: data model, DIMACS I/O, random instance generation."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
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
        object.__setattr__(self, "pos", frozenset(self.pos))
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
    pos = frozenset(l for l in lits if l > 0)
    neg = frozenset(-l for l in lits if l < 0)
    return Clause(pos=pos, neg=neg, weight=weight)


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF (implicit unit weights) or old-style weighted CNF.

    Accepted headers: "p cnf n m" and "p wcnf n m [top]".  Clause lines end
    with 0; "c" comment lines are ignored; a line consisting of "%"
    terminates the input.  In the wcnf-with-top variant any clause of
    weight >= top is a hard clause and is rejected.  The clauses before a
    "%" line must number exactly as the header declares.  New-style (2022)
    WCNF, without a p line, is rejected with a message that names it.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    num_vars = declared_clauses = 0
    weighted = False
    top: int | None = None
    header_seen = False
    clauses: list[Clause] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if header_seen:
                raise FormulaError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) < 4 or parts[0] != "p":
                raise FormulaError(f"line {lineno}: malformed header {line!r}")
            if parts[1] == "cnf":
                if len(parts) != 4:
                    raise FormulaError(f"line {lineno}: malformed cnf header")
            elif parts[1] == "wcnf":
                weighted = True
                if len(parts) == 5:
                    top = _parse_int(parts[4], lineno)
                elif len(parts) != 4:
                    raise FormulaError(f"line {lineno}: malformed wcnf header")
            else:
                raise FormulaError(
                    f"line {lineno}: unknown format {parts[1]!r}"
                )
            num_vars = _parse_int(parts[2], lineno)
            declared_clauses = _parse_int(parts[3], lineno)
            if num_vars < 0 or declared_clauses < 0:
                raise FormulaError(f"line {lineno}: negative header field")
            header_seen = True
            continue
        if not header_seen:
            raise FormulaError(
                f"line {lineno}: clause before header; new-style (2022)"
                " WCNF, with no p line and h for hard clauses, is not"
                " supported"
            )

        tokens = line.split()
        if weighted:
            weight = _parse_int(tokens[0], lineno)
            if weight < 0:
                raise FormulaError(f"line {lineno}: negative weight {weight}")
            if top is not None and weight >= top:
                raise FormulaError(
                    f"line {lineno}: hard clause (weight {weight} >= top"
                    f" {top}) unsupported"
                )
            tokens = tokens[1:]
        else:
            weight = 1
        if not tokens or tokens[-1] != "0":
            raise FormulaError(f"line {lineno}: clause not terminated by 0")
        lits = [_parse_int(t, lineno) for t in tokens[:-1]]
        if not lits:
            raise FormulaError(f"line {lineno}: empty clause")
        for l in lits:
            if l == 0:
                raise FormulaError(f"line {lineno}: stray 0 inside clause")
            if not 1 <= abs(l) <= num_vars:
                raise FormulaError(
                    f"line {lineno}: literal {l} out of range"
                )
        clauses.append(_clause_from_literals(lits, weight))

    if not header_seen:
        raise FormulaError("missing DIMACS header")
    if len(clauses) != declared_clauses:
        raise FormulaError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return Formula(num_vars=num_vars, clauses=tuple(clauses))


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
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
        lits = sorted(c.pos) + [-v for v in sorted(c.neg)]
        lines.append(f"{c.weight} " + " ".join(str(l) for l in lits) + " 0")
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
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        length = rng.randint(1, min(max_len, n))
        variables = rng.sample(range(1, n + 1), length)
        lits = [v if rng.getrandbits(1) else -v for v in variables]
        clauses.append(_clause_from_literals(lits, rng.randint(1, max_w)))
    return Formula(num_vars=n, clauses=tuple(clauses))
