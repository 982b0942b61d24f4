"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; run with -s (or read the
captured output) to see the per-criterion summary.
"""

import random
from fractions import Fraction

import pytest

from maxsat34 import (
    brute_force_opt,
    build_relaxation,
    check_lp_lemmas,
    check_randomized_lemmas,
    enumerate_expectation,
    exact_expectation,
    lp_value,
    monte_carlo_mean,
    new_trace,
    random_instance,
    run_greedy_sat,
    run_lp_rounding,
    run_randomized,
    run_vanzuylen,
    run_weight,
    satisfied_weight,
    solve_lp,
    step_quantities,
)
from maxsat34.bookkeep import apply
from maxsat34.greedy import decide, splitmix64

THREE_QUARTERS = Fraction(3, 4)


@pytest.fixture(scope="session")
def opts(corpus):
    return [brute_force_opt(f)[0] for f in corpus]


@pytest.fixture(scope="session")
def lp_solutions(corpus):
    return [solve_lp(build_relaxation(f)) for f in corpus]


@pytest.fixture(scope="session")
def expectations(corpus):
    return [exact_expectation(f) for f in corpus]


def test_criterion_1_randomized_three_quarter_guarantee(
    corpus, opts, expectations
):
    worst = None
    tight = 0
    for f, opt, rep in zip(corpus, opts, expectations):
        assert rep.opt == opt
        assert rep.expectation >= THREE_QUARTERS * opt
        # the bound the analysis proves; 3/4 OPT is its corollary
        half_bound = Fraction(opt, 2) + Fraction(f.total_weight, 4)
        assert rep.expectation >= half_bound
        tight += rep.expectation == half_bound
        if rep.ratio is not None and (worst is None or rep.ratio < worst):
            worst = rep.ratio
    print(
        f"ACCEPTANCE 1 (E[w] >= OPT/2 + W/4 >= 3/4 OPT, {len(corpus)} "
        f"instances, {tight} tight, min ratio {worst}): PASS"
    )


def test_criterion_2_lp_rounding_guarantee(corpus, opts, lp_solutions):
    for f, opt, sol in zip(corpus, opts, lp_solutions):
        result = run_lp_rounding(f, sol=sol)
        half_bound = sol.objective / 2 + Fraction(f.total_weight, 4)
        assert Fraction(result.weight) >= half_bound
        assert half_bound >= THREE_QUARTERS * opt
    print(f"ACCEPTANCE 2 (w >= OPT_LP/2 + W/4 >= 3/4 OPT): PASS")


def test_criterion_3_lemma1_never_violated(corpus):
    # the kernel (bookkeep.step_deltas) raises LemmaViolation on
    # t2 + f2 < 0; every completed run below therefore certifies zero
    # violations.
    steps = 0
    for i, f in enumerate(corpus):
        steps += len(run_randomized(f, seed=i).steps)
    rng = random.Random(314159)
    large = [
        random_instance(200, 400, 3, 10, rng.getrandbits(63))
        for _ in range(10)
    ]
    runs = 0
    for f in large:
        for seed in range(1000):
            run_weight(f, seed=seed)
            runs += 1
            steps += f.num_vars
    assert runs == 10_000
    print(f"ACCEPTANCE 3 (Lemma 1 over {steps} steps, 0 violations): PASS")


def test_criterion_4_lp_lemmas_every_step(corpus, lp_solutions):
    checked = 0
    for f, sol in zip(corpus, lp_solutions):
        report = check_lp_lemmas(f, sol=sol)
        assert report.overall_pass
        checked += sum(
            1 for r in report.records if "Lemma 4" in r.name or "Lemma 5" in r.name
        )
    print(f"ACCEPTANCE 4 (Lemma 4 disjunction + Lemma 5, {checked} checks): PASS")


def _replay_through_trace(f, run):
    """Steps a TraceState along the run's recorded values: step_quantities
    gives the recorded (var, t2, f2) at every step, decide the recorded
    probability, and each randomized step consumes the next SplitMix64
    word as its draw."""
    trace = new_trace(f)
    words = splitmix64(run.seed)
    for step in run.steps:
        q = step_quantities(trace)
        assert (q.var, q.t2, q.f2) == (step.var, step.t2, step.f2)
        num, den = decide(q.t2, q.f2)
        assert step.prob_true == Fraction(num, den)
        if den == 1:
            assert step.draw is None and step.value == (num == 1)
        else:
            assert step.draw == Fraction(next(words), 1 << 64)
            assert step.value == (step.draw < step.prob_true)
        apply(trace, step.value)
    assert trace.sat_weight == run.weight


def test_criterion_5_vanzuylen_equivalence(corpus):
    for f in corpus:
        for seed in range(20):
            run = run_randomized(f, seed=seed)
            assert run_vanzuylen(f, seed=seed) == run
            _replay_through_trace(f, run)
    print("ACCEPTANCE 5 (alpha-rule equivalence, 20 seeds x 500): PASS")


def test_criterion_6_randomized_lemma_checks(corpus):
    for f in corpus:
        assert check_randomized_lemmas(f).overall_pass
    print("ACCEPTANCE 6 (Lemma 2/3 + branch claims on full trees): PASS")


def test_criterion_7_oracle_self_consistency(corpus, expectations):
    small = [
        (f, rep)
        for f, rep in zip(corpus, expectations)
        if f.num_vars <= 6
    ]
    assert small
    for f, rep in small:
        assert rep.expectation == enumerate_expectation(f)

    randomizing = [
        (f, rep)
        for f, rep in zip(corpus, expectations)
        if f.num_vars <= 5
        and any(s.draw is not None for s in run_randomized(f, seed=0).steps)
    ][:10]
    assert len(randomizing) == 10
    for f, rep in randomizing:
        mean, se = monte_carlo_mean(f, trials=100_000, base_seed=2024)
        exact = float(rep.expectation)
        if se == 0:
            assert mean == exact
        else:
            assert abs(mean - exact) <= 3 * se
    print(
        f"ACCEPTANCE 7 (path enumeration on {len(small)} instances, "
        f"Monte Carlo 1e5 runs on 10): PASS"
    )


def test_criterion_8_lp_relaxation_sanity(corpus, opts, lp_solutions):
    for f, opt, sol in zip(corpus, opts, lp_solutions):
        assert Fraction(opt) <= sol.objective <= Fraction(f.total_weight)
        assert lp_value(f, sol.y_star) == sol.objective
    print("ACCEPTANCE 8 (OPT <= OPT_LP <= W, lp_value(y*) = objective): PASS")


def test_criterion_9_baseline_contrast(corpus, opts, expectations):
    found = None
    for f, opt, rep in zip(corpus, opts, expectations):
        if opt == 0:
            continue
        greedy_w = run_greedy_sat(f).weight
        assert greedy_w == satisfied_weight(f, run_greedy_sat(f).assignment)
        if greedy_w < opt and rep.expectation >= THREE_QUARTERS * opt:
            found = (greedy_w, opt)
            break
    assert found is not None, "no corpus instance separates greedy-sat from OPT"
    print(
        f"ACCEPTANCE 9 (greedy-sat {found[0]} < OPT {found[1]} while "
        f"E[w] >= 3/4 OPT): PASS"
    )
