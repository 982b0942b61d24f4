"""random_instance against the randint/sample reference it replaced: the same
Formula and the same write_dimacs bytes for every shape and seed."""

import pytest
from hypothesis import example, given, strategies as st

from maxsat34 import random_instance, write_dimacs

from reference_generator import reference_instance

# n <= 21 always takes sample's pool branch; 22..60 takes the set branch at
# clause length <= 5 and the pool branch above it (setsize is then >= 85);
# 85 is the pool branch's last n at lengths 6..21, and 86 and up reach the
# set branch with clauses longer than 5
NS = st.integers(1, 60) | st.sampled_from([85, 86, 200, 2000])
# max_len > n is clipped to n; 6 and up cross sample's k > 5 threshold
MAX_LENS = st.integers(1, 12) | st.integers(13, 100)
# non-powers of two need a redraw in getrandbits-based sampling
MAX_WS = st.integers(1, 1000) | st.sampled_from([3, 5, 7, 1 << 40, (1 << 40) + 1])
# random.Random seeds from |seed|, so both generators reject a negative one
SEEDS = st.integers(0, 2**63 - 1)


@given(NS, st.integers(0, 40), MAX_LENS, MAX_WS, SEEDS)
@example(1, 0, 1, 1, 0)
@example(1, 5, 1, 1, 1)
@example(21, 30, 12, 10, 2**63 - 1)
@example(22, 30, 5, 10, 0)
@example(60, 30, 12, 1000, 12345)
@example(85, 30, 12, 10, 3)
@example(200, 30, 12, 999, 7)
def test_random_instance_matches_reference(n, m, max_len, max_w, seed):
    args = (n, m, max_len, max_w, seed)
    new, ref = random_instance(*args), reference_instance(*args)
    assert new == ref
    assert write_dimacs(new) == write_dimacs(ref)


@pytest.mark.parametrize(
    "args,message",
    [
        ((0, 1, 1, 1, 0), "n must be >= 1"),
        ((1, -1, 1, 1, 0), "m must be >= 0"),
        ((1, 1, 0, 1, 0), "max_len must be >= 1"),
        ((1, 1, 1, 0, 0), "max_w must be >= 1"),
        ((5, 3, 3, 10, -7), "seed must be >= 0"),
        ((1, 1, 1, 1, -(2**63)), "seed must be >= 0"),
    ],
)
def test_random_instance_rejects_like_reference(args, message):
    for generate in (random_instance, reference_instance):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(*args)
