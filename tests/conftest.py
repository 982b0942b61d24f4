import random
from fractions import Fraction

import pytest

from maxsat34 import (
    Clause,
    Formula,
    build_relaxation,
    lp_value,
    random_instance,
    run_lp_rounding,
    satisfied_weight,
    solve_lp,
)

from reference_oracles import recompute_sat_unsat

CORPUS_SEED = 20260823


def make_corpus(count, seed=CORPUS_SEED, n_max=10, m_max=30, w_max=10):
    """Deterministic random corpus; the acceptance suite uses the full 500."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        m = rng.randint(1, m_max)
        out.append(random_instance(n, m, min(3, n), w_max, rng.getrandbits(63)))
    return out


@pytest.fixture(scope="session")
def corpus():
    """The full acceptance corpus: 500 instances, n <= 10, m <= 30, w <= 10."""
    return make_corpus(500)


@pytest.fixture(scope="session")
def small_corpus():
    return make_corpus(60)


def scan_optimum(f):
    """(OPT, witness) by the plainest scan: max of satisfied_weight over
    all codes in code order, x_1 least significant.  max keeps the first
    maximum, so a tie goes to the lowest code."""
    n = f.num_vars
    witness = max(
        (tuple(bool(code >> i & 1) for i in range(n)) for code in range(1 << n)),
        key=lambda values: satisfied_weight(f, values),
    )
    return satisfied_weight(f, witness), witness


def rescan_deltas(f, values, v):
    """(2t_i, 2f_i) of setting x_v after the partial assignment values,
    by the paper's definition from full rescans: the change of
    2B = SAT + W - UNSAT, that is dSAT - dUNSAT, for x_v true and false."""
    sat, unsat = recompute_sat_unsat(f, values)
    deltas = []
    for value in (True, False):
        step = list(values)
        step[v - 1] = value
        sat_v, unsat_v = recompute_sat_unsat(f, step)
        deltas.append((sat_v - sat) - (unsat_v - unsat))
    return tuple(deltas)


def rounding_matches_rescan(f, order=None):
    """True when every step of run_lp_rounding reports lp_prev, lp_t and
    lp_f equal to lp_value of the explicit y vectors (the values set so
    far, y* for the rest), and its last LP value is the satisfied weight
    of its assignment."""
    sol = solve_lp(build_relaxation(f))
    y = list(sol.y_star)
    last = [lp_value(f, y)]
    mismatches = []

    def on_step(info):
        v = info["var"]
        lp_prev = lp_value(f, y)
        y[v - 1] = Fraction(1)
        lp_t = lp_value(f, y)
        y[v - 1] = Fraction(0)
        lp_f = lp_value(f, y)
        if (info["lp_prev"], info["lp_t"], info["lp_f"]) != (lp_prev, lp_t, lp_f):
            mismatches.append(v)
        y[v - 1] = Fraction(info["value"])
        last[0] = info["lp_t"] if info["value"] else info["lp_f"]

    r = run_lp_rounding(f, order, sol, on_step=on_step)
    return not mismatches and last[0] == satisfied_weight(f, r.assignment)


def clause(pos=(), neg=(), weight=1):
    return Clause(pos=frozenset(pos), neg=frozenset(neg), weight=weight)


def formula(n, *clauses):
    return Formula(num_vars=n, clauses=tuple(clauses))


@pytest.fixture
def three_clause():
    # (x1 v x2, w=2), (-x1, w=2), (x1, w=1): randomizes at x1 with p = 1/2
    return formula(
        2,
        clause(pos=(1, 2), weight=2),
        clause(neg=(1,), weight=2),
        clause(pos=(1,), weight=1),
    )
