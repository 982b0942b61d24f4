import random

import pytest

from maxsat34 import Clause, Formula, random_instance, satisfied_weight

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
