"""The instance generator as first written, on random.Random's randint and
sample: the reference that formula.random_instance must match draw for draw.

The package draws straight from getrandbits, so its bytes depend only on the
Mersenne Twister; this copy depends on the standard library's sample and
randint algorithms, which the Python docs do not promise to keep.  The
differential tests in test_generator.py hold the two equal.
"""

from __future__ import annotations

import random

from maxsat34 import Clause, Formula


def reference_instance(n: int, m: int, max_len: int, max_w: int, seed: int) -> Formula:
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
    rng = random.Random(seed)
    randint, sample, bit = rng.randint, rng.sample, rng.getrandbits
    variables, longest = range(1, n + 1), min(max_len, n)
    clauses = []
    for _ in range(m):
        chosen = sample(variables, randint(1, longest))
        lits = [v if bit(1) else -v for v in chosen]
        pos, neg = [l for l in lits if l > 0], [-l for l in lits if l < 0]
        clauses.append(Clause(pos, neg, randint(1, max_w)))
    return Formula(num_vars=n, clauses=tuple(clauses))
