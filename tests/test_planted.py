"""Planted-bug suite: every gate must be shown to catch a fault.

Each fault below is planted by a monkeypatch: a wrapper around a package
function, or a function's code swapped for a copy compiled with one
source fragment replaced, which reaches every name bound to it.  Each
fault names the gates that must fail under it; the gates are cut-down
forms of the acceptance criteria on small_corpus, or the golden replay
vectors.  test_gates_pass_without_faults shows that the gates themselves
pass on the real code.
"""

import __future__
import inspect
import textwrap
from fractions import Fraction

import pytest

from maxsat34 import (
    LemmaViolation,
    SimplexError,
    bookkeep,
    build_relaxation,
    check_randomized_lemmas,
    exact_expectation,
    greedy,
    lp,
    lp_value,
    new_trace,
    oracle,
    run_randomized,
    run_vanzuylen,
    run_weight,
    step_quantities,
)

from conftest import rescan_deltas, rounding_matches_rescan, scan_optimum
from reference_oracles import enumerate_expectation, recompute_sat_unsat
from test_golden import compute_records, load_golden

SEEDS = range(3)


def plant(monkeypatch, func, old, new):
    """Swaps func's code for its source with every copy of the fragment
    old replaced by new; every module that imported func runs the mutant."""
    src = textwrap.dedent(inspect.getsource(func))
    assert old in src, old
    namespace = dict(func.__globals__)
    code = compile(
        src.replace(old, new),
        inspect.getsourcefile(func),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    exec(code, namespace)
    monkeypatch.setattr(func, "__code__", namespace[func.__name__].__code__)


def holds(check):
    """True when check() passes; a LemmaViolation or a SimplexError counts
    as a failure."""
    try:
        return check()
    except (LemmaViolation, SimplexError):
        return False


# --- gates ------------------------------------------------------------------


def alpha_equivalence(corpus):
    """Criterion 5: the alpha rule reproduces every randomized trace."""
    return all(
        run_vanzuylen(f, seed=s) == run_randomized(f, seed=s)
        for f in corpus
        for s in SEEDS
    )


def randomized_lemmas(corpus):
    """Criterion 6: Lemma 2/3 and the branch claims on full trees."""
    return all(check_randomized_lemmas(f).overall_pass for f in corpus)


def expectation_enumeration(corpus):
    """Criterion 7: the tree expectation equals path enumeration."""
    return all(
        exact_expectation(f).expectation == enumerate_expectation(f)
        for f in corpus
        if f.num_vars <= 6
    )


def kernel_matches_rescan(corpus):
    """Every step's t2 and f2, and the satisfied weight after it, agree
    with full rescans."""
    for f in corpus:
        t = new_trace(f)
        for _ in range(f.num_vars):
            q = step_quantities(t)
            if (q.t2, q.f2) != rescan_deltas(f, t.values, q.var):
                return False
            bookkeep.apply(t, q.t2 >= q.f2)
            if t.sat_weight != recompute_sat_unsat(f, t.values)[0]:
                return False
    return True


def golden_replay(_corpus):
    """The recorded traces of every algorithm replay exactly."""
    golden = load_golden()
    return compute_records(golden["orders"]) == golden["records"]


def lp_sanity(corpus):
    """Criterion 8: lp_value(y*) equals the LP objective."""
    for f in corpus:
        sol = lp.solve_lp(build_relaxation(f))
        if lp_value(f, sol.y_star) != sol.objective:
            return False
    return True


def lp_certificate(corpus):
    """The exact optimality certificate holds for every solve."""
    for f in corpus:
        model = build_relaxation(f)
        lp.check_certificate(model, lp.solve_lp(model))
    return True


def lp_rounding_matches_rescan(corpus):
    """Every step of the incremental LP rounding equals lp_value rescans."""
    return all(rounding_matches_rescan(f) for f in corpus)


def opt_matches_scan(corpus):
    """brute_force_opt equals the code-order scan, witness included."""
    return all(oracle.brute_force_opt(f) == scan_optimum(f) for f in corpus)


GATES = {
    "alpha_equivalence": alpha_equivalence,
    "randomized_lemmas": randomized_lemmas,
    "expectation_enumeration": expectation_enumeration,
    "kernel_matches_rescan": kernel_matches_rescan,
    "golden_replay": golden_replay,
    "lp_sanity": lp_sanity,
    "lp_certificate": lp_certificate,
    "lp_rounding_matches_rescan": lp_rounding_matches_rescan,
    "opt_matches_scan": opt_matches_scan,
}


# --- faults -----------------------------------------------------------------


def half_probability(monkeypatch):
    real = greedy.decide
    monkeypatch.setattr(
        greedy,
        "decide",
        lambda t2, f2: (1, 2) if t2 > 0 and f2 > 0 else real(t2, f2),
    )


def last_open_off_by_one(monkeypatch):
    plant(
        monkeypatch,
        bookkeep.step_deltas,
        "clause_open[j] == 1",
        "clause_open[j] == 2",
    )


def gain_on_miss(monkeypatch):
    plant(
        monkeypatch,
        bookkeep.assign_occurrences,
        "if sign != miss:",
        "if sign == miss:",
    )


def stale_open_count(monkeypatch):
    plant(
        monkeypatch,
        bookkeep.assign_occurrences,
        "clause_open[j] -= 1",
        "pass",
    )


def rounding_tie_false(monkeypatch):
    plant(
        monkeypatch,
        lp.run_lp_rounding,
        "value = cond_t ",
        "value = cond_t and not cond_f ",
    )


def perturbed_y_star(monkeypatch):
    real = lp.solve_lp

    def solve(model):
        sol = real(model)
        if not sol.y_star:
            return sol
        y = sol.y_star[0]
        y += Fraction(1, 3) if y <= Fraction(2, 3) else -Fraction(1, 3)
        return lp.LpSolution((y,) + sol.y_star[1:], sol.objective)

    monkeypatch.setattr(lp, "solve_lp", solve)


def perturbed_dual(monkeypatch):
    real = lp.solve_lp

    def solve(model):
        sol = real(model)
        duals = sol.duals[:-1] + (sol.duals[-1] + Fraction(1, 3),)
        return lp.LpSolution(sol.y_star, sol.objective, duals)

    monkeypatch.setattr(lp, "solve_lp", solve)


def stale_denominator(monkeypatch):
    """Once the denominator has left 1, every pivot hands back the one it
    was given: later pivots divide by a stale d, and floor division
    truncates without an error."""
    real = lp._pivot

    def pivot(tab, obj, basis, r, col, d):
        new = real(tab, obj, basis, r, col, d)
        return new if d == 1 else d

    monkeypatch.setattr(lp, "_pivot", pivot)


def skipped_coverage_update(monkeypatch):
    plant(
        monkeypatch,
        lp.run_lp_rounding,
        "coverage[j] += sign * moved",
        "pass",
    )


def tie_false(monkeypatch):
    real = greedy.decide
    monkeypatch.setattr(
        greedy,
        "decide",
        lambda t2, f2: (0, 1) if t2 == f2 == 0 else real(t2, f2),
    )


def shared_child_trace(monkeypatch):
    plant(
        monkeypatch,
        oracle._expand,
        "children = [trace.copy() for _ in branches[1:]] + [trace]",
        "children = [trace for _ in branches]",
    )


def opt_later_code_wins_tie(monkeypatch):
    plant(
        monkeypatch,
        oracle.brute_force_opt,
        "code < best_code",
        "code > best_code",
    )


def opt_keeps_falsified_weight(monkeypatch):
    plant(
        monkeypatch,
        oracle.brute_force_opt,
        "w -= cw",
        "pass",
    )


# fault, the gates that must fail under it
PLANTED = [
    (half_probability, ("alpha_equivalence", "randomized_lemmas")),
    (last_open_off_by_one, ("kernel_matches_rescan", "golden_replay")),
    (gain_on_miss, ("kernel_matches_rescan", "golden_replay")),
    (stale_open_count, ("kernel_matches_rescan", "golden_replay")),
    (rounding_tie_false, ("golden_replay",)),
    (perturbed_y_star, ("lp_sanity", "lp_certificate")),
    (perturbed_dual, ("lp_certificate",)),
    (stale_denominator, ("lp_certificate",)),
    (skipped_coverage_update, ("lp_rounding_matches_rescan", "golden_replay")),
    (tie_false, ("golden_replay",)),
    (shared_child_trace, ("randomized_lemmas", "expectation_enumeration")),
    (opt_later_code_wins_tie, ("opt_matches_scan",)),
    (opt_keeps_falsified_weight, ("opt_matches_scan",)),
]


def test_gates_pass_without_faults(small_corpus):
    assert set(GATES) == {
        "alpha_equivalence",
        "randomized_lemmas",
        "expectation_enumeration",
        "kernel_matches_rescan",
        "golden_replay",
        "lp_sanity",
        "lp_certificate",
        "lp_rounding_matches_rescan",
        "opt_matches_scan",
    }
    for name, gate in GATES.items():
        assert gate(small_corpus), name


@pytest.mark.parametrize(
    "fault, gates", PLANTED, ids=[fault.__name__ for fault, _ in PLANTED]
)
def test_planted_fault_fails_its_gates(fault, gates, small_corpus, monkeypatch):
    fault(monkeypatch)
    for name in gates:
        assert not holds(lambda: GATES[name](small_corpus)), name


def test_half_probability_reaches_every_caller_of_decide(small_corpus, monkeypatch):
    """One patch of greedy.decide changes the sampled runs, the fast
    weight-only run and both oracle walks.  run_weight now shares decide
    with run_randomized, so Monte Carlo agreement (criterion 7) no longer
    catches this fault; the gates above do."""
    instances = small_corpus[:20]

    def outputs():
        return (
            [run_randomized(f, seed=s) for f in instances for s in SEEDS],
            [run_weight(f, seed=s) for f in instances for s in range(20)],
            [exact_expectation(f).expectation for f in instances],
            [check_randomized_lemmas(f).records for f in instances],
        )

    before = outputs()
    half_probability(monkeypatch)
    after = outputs()
    for name, old, new in zip(
        ("run_randomized", "run_weight", "exact_expectation",
         "check_randomized_lemmas"),
        before,
        after,
    ):
        assert old != new, name
