r"""The DIMACS reader as first written, line by line: the reference that
formula.parse_dimacs must match, Formula for Formula and message for
message.

It reads one line at a time and parses each token as it meets it, with
the grammar of parse_dimacs's docstring: lines end at "\n" (a "\r" just
before it is dropped), tokens are separated by spaces and tabs only, and a
token is [+-]?[0-9]+ in ASCII.  The package instead joins the clause lines
into one token stream and finds an error's line only after the error.
The differential tests in test_reader.py hold the two equal.
"""

from __future__ import annotations

import re

from maxsat34 import Clause, Formula, FormulaError

_INTEGER = re.compile(r"[+-]?[0-9]+")


def reference_parse(text: str | bytes) -> Formula:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    text = text.removeprefix("\ufeff")

    header = None
    clauses: list[Clause] = []
    lits: list[int] = []  # literals read so far of the open clause
    weight = None  # weight of the open clause; None when no clause is open
    start = 0  # line where the open clause began

    *ended, last = text.split("\n")
    # the "\r" of each "\r\n" is dropped; the last line has no "\n"
    lines = [line.removesuffix("\r") for line in ended] + [last]
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip(" \t")
        if not line or line[0] == "c":
            continue
        if line == "%":
            break
        if line[0] == "p":
            if header is not None:
                raise FormulaError(f"line {lineno}: duplicate header")
            header = _header(line, lineno)
            num_vars, declared, weighted, top = header
            continue
        if header is None:
            raise FormulaError(
                f"line {lineno}: clause before header; new-style (2022)"
                " WCNF, with no p line and h for hard clauses, is not"
                " supported"
            )
        for value in [_integer(t, lineno) for t in _tokens(line)]:
            if weight is None:  # a clause begins at this token
                start, weight = lineno, 1
                if weighted:
                    weight = value
                    if weight < 0:
                        raise FormulaError(f"line {lineno}: negative weight {weight}")
                    if top is not None and weight >= top:
                        raise FormulaError(
                            f"line {lineno}: hard clause (weight {weight} >= top"
                            f" {top}) unsupported"
                        )
                    continue
            if value != 0:
                if not -num_vars <= value <= num_vars:
                    raise FormulaError(f"line {lineno}: literal {value} out of range")
                lits.append(value)
                continue
            if not lits:
                raise FormulaError(f"line {start}: empty clause")
            pos = [l for l in lits if l > 0]
            neg = [-l for l in lits if l < 0]
            clauses.append(Clause(pos, neg, weight))
            lits, weight = [], None

    if header is None:
        raise FormulaError("missing DIMACS header")
    if weight is not None:
        raise FormulaError(f"line {start}: clause not terminated by 0")
    if len(clauses) != declared:
        raise FormulaError(
            f"header declares {declared} clauses, found {len(clauses)}"
        )
    return Formula(num_vars=num_vars, clauses=tuple(clauses))


def _tokens(line: str) -> list[str]:
    return [t for t in line.replace("\t", " ").split(" ") if t]


def _header(line: str, lineno: int) -> tuple[int, int, bool, int | None]:
    parts = _tokens(line)
    if len(parts) < 4 or parts[0] != "p":
        raise FormulaError(f"line {lineno}: malformed header {line!r}")
    top = None
    if parts[1] == "cnf":
        if len(parts) != 4:
            raise FormulaError(f"line {lineno}: malformed cnf header")
    elif parts[1] == "wcnf":
        if len(parts) == 5:
            top = _integer(parts[4], lineno)
        elif len(parts) != 4:
            raise FormulaError(f"line {lineno}: malformed wcnf header")
    else:
        raise FormulaError(f"line {lineno}: unknown format {parts[1]!r}")
    num_vars = _integer(parts[2], lineno)
    declared = _integer(parts[3], lineno)
    if num_vars < 0 or declared < 0:
        raise FormulaError(f"line {lineno}: negative header field")
    return num_vars, declared, parts[1] == "wcnf", top


def _integer(token: str, lineno: int) -> int:
    if _INTEGER.fullmatch(token):
        return int(token)
    if token == "h":
        raise FormulaError(
            f"line {lineno}: h hard-clause line; new-style (2022) WCNF"
            " is not supported"
        )
    raise FormulaError(f"line {lineno}: expected integer, got {token!r}")
