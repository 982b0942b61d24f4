"""The benchmark's workloads: seeded instance blocks, CLI arguments and
output checks.

Every operation gets its own instance file, so no operation reads a file an
earlier one read.  Instances come in blocks whose (n, m) pairs are fixed
and whose order and clause contents follow the seed.  This stratification
keeps the marginal shape of each workload (e.g. n uniform in 1..10, m
uniform in 1..30) while removing most of the run-to-run spread that drawing
n and m independently per operation would add to short runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

ACCEPTANCE_NS = tuple(range(1, 11)) * 3  # 30 instances: n uniform in 1..10
ACCEPTANCE_MS = tuple(range(1, 31))  # m uniform in 1..30
SOLVE_ALGS = ("rand34", "vanzuylen", "greedy-sat", "greedy-unsat")
MC_TRIALS = 2000
MAX_LEN = 3
MAX_W = 10


@dataclass(frozen=True)
class Op:
    """One operation: the instance to write and how to run and check it."""

    n: int
    m: int
    instance_seed: int
    argv_tail: tuple[str, ...]  # CLI arguments after the file name


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    block: Callable[[random.Random], list[Op]]
    trace_blocks: int  # blocks in the fixed traced op set


def _fixed_pairs() -> tuple[tuple[int, int], ...]:
    ns = list(ACCEPTANCE_NS)
    random.Random("acceptance pairs").shuffle(ns)
    return tuple(zip(ns, ACCEPTANCE_MS))


# The (n, m) pairs of every acceptance block, the same for every seed: a
# block's cost then varies with its clauses, not with how large n met
# large m.
ACCEPTANCE_PAIRS = _fixed_pairs()


def _acceptance_shape(rng: random.Random) -> list[tuple[int, int]]:
    pairs = list(ACCEPTANCE_PAIRS)
    rng.shuffle(pairs)
    return pairs


def _verify_block(rng):
    return [
        Op(n, m, rng.getrandbits(63), ("--format", "structured"))
        for n, m in _acceptance_shape(rng)
    ]


def _mc_block(rng):
    return [
        Op(n, m, rng.getrandbits(63),
           ("--trials", str(MC_TRIALS), "--seed", str(rng.getrandbits(31)),
            "--format", "structured"))
        for n, m in _acceptance_shape(rng)
    ]


def _solve_block(rng):
    algs = list(SOLVE_ALGS) * 2
    rng.shuffle(algs)
    return [
        Op(2000, 4000, rng.getrandbits(63),
           ("--alg", alg, "--seed", str(rng.getrandbits(31)),
            "--format", "structured"))
        for alg in algs
    ]


def _exact_block(rng):
    ns = [11, 12, 11, 12]
    rng.shuffle(ns)
    return [
        Op(n, 3 * n, rng.getrandbits(63), ("--format", "structured"))
        for n in ns
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_acceptance", "verify", _verify_block, trace_blocks=1),
        Workload("expectation_mc", "expectation", _mc_block, trace_blocks=1),
        Workload("solve_large", "solve", _solve_block, trace_blocks=3),
        Workload("expectation_exact", "expectation", _exact_block, trace_blocks=4),
    )
}


def block_rng(seed: int, workload: str, index: int) -> random.Random:
    """Independent stream per (seed, workload, block), so a block's inputs
    do not depend on how many blocks ran before it."""
    return random.Random(f"{workload}/{seed}/{index}")


def write_block(fm, workload: Workload, seed: int, index: int, *directories) -> list[tuple[Op, str]]:
    """Generate block `index` with the package's own generator and write one
    file per operation into each directory; returns (op, file name) pairs."""
    ops = workload.block(block_rng(seed, workload.name, index))
    out = []
    for k, op in enumerate(ops):
        f = fm.random_instance(op.n, op.m, min(MAX_LEN, op.n), MAX_W, op.instance_seed)
        text = fm.write_dimacs(f)
        name = f"b{index:04d}_{k:03d}.wcnf"
        for directory in directories:
            (directory / name).write_text(text)
        out.append((op, name))
    return out


def argv(workload: Workload, op: Op, file_name: str) -> list[str]:
    return [workload.command, file_name, *op.argv_tail]


def _weight_of(text: str, assignment: str) -> int:
    """Satisfied weight of `assignment` on the wcnf text, computed here
    rather than by the package under test."""
    total = 0
    for line in text.splitlines()[1:]:
        tokens = line.split()
        lits = tokens[1:-1]
        if any((assignment[abs(int(l)) - 1] == "1") == (int(l) > 0) for l in lits):
            total += int(tokens[0])
    return total


def check(workload: Workload, op: Op, file_text: str, rc: int, out: str) -> str | None:
    """None if the operation's output is correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    report = json.loads(out)
    if workload.command == "verify":
        if not report.get("all_pass") or report.get("count") != 1:
            return "verify did not pass"
    elif workload.command == "expectation":
        opt = report["opt"]
        if Fraction(report["expectation"]) < Fraction(3 * opt, 4):
            return "expectation below 3/4 OPT"
        if "--trials" in op.argv_tail and report.get("trials") != MC_TRIALS:
            return "Monte Carlo trials missing"
    else:
        assignment = report["assignment"]
        if len(assignment) != op.n:
            return "assignment length differs from n"
        if _weight_of(file_text, assignment) != report["weight"]:
            return "reported weight differs from the assignment's weight"
    return None
