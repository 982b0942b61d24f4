"""Golden replay vectors.

Pins the exact traces (variable, doubled deltas, value, probability of
true, SplitMix64 draw) of every sequential algorithm on small edge-case
formulas, so that a refactor of the kernel or of the run_* loops cannot
change a single decision unnoticed.  It also pins the exact_expectation
report and every check_randomized_lemmas record per (formula, order), so
that the decision-tree walk of the oracles is held to the same bytes.
The vectors live in golden_traces.json next to this file.  Re-record them with

    PYTHONPATH=src python tests/test_golden.py

only when a change of the traces is intended.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from maxsat34 import (
    check_randomized_lemmas,
    exact_expectation,
    parse_dimacs,
    random_instance,
    run_greedy_sat,
    run_greedy_unsat,
    run_lp_rounding,
    run_randomized,
    run_vanzuylen,
    run_weight,
    write_dimacs,
)

GOLDEN = Path(__file__).with_name("golden_traces.json")
SEEDS = (0, 12345)
BIG = 1 << 64

# name -> wcnf text; together they cover a tautological clause, weight-0
# clauses, duplicate clauses, a t2 = f2 = 0 step and weights >= 2^64
CASES = {
    "three_clause": "p wcnf 2 3\n2 1 2 0\n2 -1 0\n1 1 0\n",
    "tautology": (
        "p wcnf 3 5\n3 1 -1 2 0\n2 -2 3 0\n1 -3 0\n2 1 0\n4 2 -3 3 0\n"
    ),
    "weight_zero": "p wcnf 3 5\n0 1 2 0\n0 -1 0\n3 -2 3 0\n1 2 0\n2 -3 1 0\n",
    "duplicates": (
        "p wcnf 3 7\n2 1 -2 0\n2 1 -2 0\n1 -1 0\n1 -1 0\n3 2 3 0\n3 2 3 0\n"
        "1 -3 0\n"
    ),
    "tie": "p wcnf 3 5\n1 1 0\n1 -1 0\n2 2 -3 0\n1 -2 0\n1 3 0\n",
    "big_weights": (
        f"p wcnf 3 4\n{BIG + 1} 1 2 0\n{BIG} -1 0\n{3 * BIG} -2 3 0\n"
        f"{BIG - 1} -3 0\n"
    ),
    "random": write_dimacs(random_instance(7, 18, 3, 10, seed=20261018)),
}


def _orders(n, salt):
    identity = list(range(1, n + 1))
    shuffled = list(identity)
    rng = random.Random(salt)
    while n > 1 and shuffled == identity:
        rng.shuffle(shuffled)
    return {"identity": identity, "shuffled": shuffled}


def _steps(result):
    return [
        [
            s.var,
            s.t2,
            s.f2,
            s.value,
            str(s.prob_true),
            None if s.draw is None else str(s.draw),
        ]
        for s in result.steps
    ]


def _record(case, order_name, alg, seed, result):
    return {
        "case": case,
        "order": order_name,
        "alg": alg,
        "seed": seed,
        "weight": result.weight,
        "assignment": "".join("1" if v else "0" for v in result.assignment),
        "steps": _steps(result),
    }


def compute_records(orders_by_case):
    """Trace records of every algorithm for each (case, order, seed)."""
    records = []
    for case, text in CASES.items():
        f = parse_dimacs(text)
        for order_name, order in orders_by_case[case].items():
            for alg, run in (
                ("greedy-sat", run_greedy_sat),
                ("greedy-unsat", run_greedy_unsat),
                ("lp-round", run_lp_rounding),
            ):
                records.append(_record(case, order_name, alg, None, run(f, order)))
            for seed in SEEDS:
                for alg, run in (
                    ("rand34", run_randomized),
                    ("vanzuylen", run_vanzuylen),
                ):
                    records.append(
                        _record(case, order_name, alg, seed, run(f, order, seed))
                    )
                records.append(
                    {
                        "case": case,
                        "order": order_name,
                        "alg": "weight",
                        "seed": seed,
                        "weight": run_weight(f, order, seed),
                    }
                )
    return records


def compute_oracle_records(orders_by_case):
    """The expectation report and the Lemma 2/3 check records of the
    decision-tree oracles for each (case, order)."""
    records = []
    for case, text in CASES.items():
        f = parse_dimacs(text)
        for order_name, order in orders_by_case[case].items():
            exp = exact_expectation(f, order)
            lemmas = check_randomized_lemmas(f, order)
            records.append(
                {
                    "case": case,
                    "order": order_name,
                    "expectation": str(exp.expectation),
                    "opt": exp.opt,
                    "node_count": exp.node_count,
                    "checks": [
                        [r.step, r.var, r.name, str(r.lhs), str(r.rhs), r.passed]
                        for r in lemmas.records
                    ],
                }
            )
    return records


def load_golden():
    return json.loads(GOLDEN.read_text())


def test_golden_traces_replay_exactly():
    golden = load_golden()
    assert golden["cases"] == CASES
    records = compute_records(golden["orders"])
    assert len(records) == len(golden["records"])
    for got, want in zip(records, golden["records"]):
        assert got == want, (want["case"], want["order"], want["alg"], want["seed"])


def test_golden_oracles_replay_exactly():
    golden = load_golden()
    records = compute_oracle_records(golden["orders"])
    assert len(records) == len(golden["oracles"])
    for got, want in zip(records, golden["oracles"]):
        assert got == want, (want["case"], want["order"])


def test_golden_vectors_cover_edge_cases():
    golden = load_golden()
    formulas = [parse_dimacs(text) for text in golden["cases"].values()]
    clauses = [c for f in formulas for c in f.clauses]
    assert any(c.is_tautology() for c in clauses)
    assert any(c.weight == 0 for c in clauses)
    assert any(c.weight >= BIG for c in clauses)
    assert any(len(set(f.clauses)) < len(f.clauses) for f in formulas)
    steps = [s for r in golden["records"] for s in r.get("steps", ())]
    assert any(s[1] == s[2] == 0 for s in steps)  # the t2 = f2 = 0 tie
    assert any(s[5] is not None for s in steps)  # randomized steps
    # exact dyadic draws: every recorded draw is word / 2^64
    for s in steps:
        if s[5] is not None:
            assert (Fraction(s[5]) * BIG).denominator == 1


if __name__ == "__main__":
    orders = {
        case: _orders(parse_dimacs(text).num_vars, salt)
        for salt, (case, text) in enumerate(CASES.items())
    }
    records = compute_records(orders)
    oracles = compute_oracle_records(orders)
    head = json.dumps({"cases": CASES, "orders": orders}, indent=1)
    # one record per line keeps the file small and its diffs readable
    body = ",\n".join(json.dumps(r) for r in records)
    oracle_body = ",\n".join(json.dumps(r) for r in oracles)
    GOLDEN.write_text(
        f'{head[:-2]},\n "records": [\n{body}\n],\n'
        f' "oracles": [\n{oracle_body}\n]\n}}\n'
    )
    print(f"wrote {len(records)} + {len(oracles)} records to {GOLDEN}")
