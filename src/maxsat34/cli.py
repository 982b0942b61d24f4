"""Command-line front end: solve instances, verify guarantees, estimate
expectations, and generate corpora."""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bookkeep, formula as fm, greedy, lp, oracle

ALGORITHMS = ("rand34", "vanzuylen", "lp-round", "greedy-sat", "greedy-unsat", "brute")


def _read_formula(path: str) -> fm.Formula:
    if path == "-":
        return fm.parse_dimacs(sys.stdin.read())
    return fm.parse_dimacs(Path(path).read_bytes())  # no newline translation


def _make_order(f: fm.Formula, order: str, order_seed: int) -> Optional[list[int]]:
    if order_seed < 0:  # random.Random would alias it to -order_seed
        raise ValueError(f"--order-seed must be >= 0, got {order_seed}")
    if order == "identity":
        return None
    perm = list(range(1, f.num_vars + 1))
    random.Random(order_seed).shuffle(perm)
    return perm


def _check_seed(seed: int, count: int) -> None:
    # SplitMix64 reads a seed mod 2^64: an alias would replay the same draws
    # under another reported seed, so seed .. seed + count - 1 must fit
    if not 0 <= seed <= (1 << 64) - count:
        raise ValueError(f"--seed must be in 0..{(1 << 64) - count}, got {seed}")


def _frac(x) -> str:
    return str(Fraction(x))


def _emit(report: dict, args) -> None:
    if args.format == "structured":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(report) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_text(node, prefix="") -> str:
    lines = []
    if isinstance(node, dict):
        for key in node:
            value = node[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.append(_render_text(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {value}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            if isinstance(value, (dict, list)):
                lines.append(f"{prefix}[{i}]")
                lines.append(_render_text(value, prefix + "  "))
            else:
                lines.append(f"{prefix}[{i}] {value}")
    else:
        lines.append(f"{prefix}{node}")
    return "\n".join(line for line in lines if line)


def cmd_solve(args) -> int:
    _check_seed(args.seed, 1)
    f = _read_formula(args.input)
    order = _make_order(f, args.order, args.order_seed)
    report: dict = {"algorithm": args.alg, "n": f.num_vars, "m": f.num_clauses,
                    "total_weight": f.total_weight}
    if args.alg == "brute":
        weight, witness = oracle.brute_force_opt(f)
        report["weight"] = weight
        report["assignment"] = _assignment_str(witness)
    else:
        if args.alg == "rand34":
            result = greedy.run_randomized(f, order, args.seed)
        elif args.alg == "vanzuylen":
            result = greedy.run_vanzuylen(f, order, args.seed)
        elif args.alg == "greedy-sat":
            result = greedy.run_greedy_sat(f, order)
        elif args.alg == "greedy-unsat":
            result = greedy.run_greedy_unsat(f, order)
        else:  # lp-round
            sol = lp.solve_lp(lp.build_relaxation(f))
            result = lp.run_lp_rounding(f, order, sol)
            report["opt_lp"] = _frac(sol.objective)
            report["guarantee"] = _frac(
                sol.objective / 2 + Fraction(f.total_weight, 4)
            )
        report["weight"] = result.weight
        report["assignment"] = _assignment_str(result.assignment)
        if result.seed is not None:
            report["seed"] = result.seed
        if args.trace:
            report["trace"] = [
                {
                    "var": s.var,
                    "t2": s.t2,
                    "f2": s.f2,
                    "value": s.value,
                    "prob_true": _frac(s.prob_true),
                    "draw": None if s.draw is None else _frac(s.draw),
                }
                for s in result.steps
            ]
    _emit(report, args)
    return 0


def _assignment_str(values: Sequence[bool]) -> str:
    return "".join("1" if v else "0" for v in values)


# the corpus parameters in report order, with their defaults for both
# `verify --corpus` and the `corpus` command
CORPUS_DEFAULTS = {"n": 8, "m": 20, "count": 100, "seed": 1, "max_len": 3, "max_w": 10}
# the least value of each corpus parameter; random.Random would alias a
# negative seed to its absolute value
CORPUS_MINIMUM = {"n": 1, "m": 1, "count": 0, "seed": 0, "max_len": 1, "max_w": 1}


def _parse_corpus_spec(spec: str) -> dict:
    params = dict(CORPUS_DEFAULTS)
    given = set()
    for part in spec.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in params:
            raise ValueError(f"unknown corpus parameter {key!r}")
        if key in given:
            raise ValueError(f"corpus parameter {key} is given twice")
        given.add(key)
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(
                f"corpus parameter {key} must be an integer, got {value!r}"
            ) from None
    return params


def _corpus_instances(params: dict) -> list[fm.Formula]:
    for key, least in CORPUS_MINIMUM.items():
        if params[key] < least:
            raise ValueError(
                f"corpus parameter {key} must be >= {least}, got {params[key]}"
            )
    rng = random.Random(params["seed"])
    out = []
    for _ in range(params["count"]):
        n = rng.randint(1, params["n"])
        m = rng.randint(1, params["m"])
        out.append(
            fm.random_instance(
                n, m, min(params["max_len"], n), params["max_w"],
                rng.getrandbits(63),
            )
        )
    return out


def cmd_verify(args) -> int:
    if args.corpus and args.inputs:
        raise ValueError("verify takes files or --corpus, not both")
    if args.corpus:
        params = _parse_corpus_spec(args.corpus)
        corpus = _corpus_instances(params)
        instances = [(f"corpus[{i}]", f) for i, f in enumerate(corpus)]
        header = {"corpus": params}
    elif args.inputs:
        instances = [(path, None) for path in args.inputs]
        header = {"files": list(args.inputs)}
    else:
        print("verify: need input files or --corpus", file=sys.stderr)
        return 2

    min_ratio: Optional[Fraction] = None
    results = []
    for source, f in instances:
        if f is None:  # a file is read here, so that its error is its own
            try:
                f = _read_formula(source)
            except (OSError, ValueError) as exc:
                results.append({"instance": source, "error": str(exc), "pass": False})
                continue
        entry = {"instance": source, "n": f.num_vars, "m": f.num_clauses}
        try:
            # one exhaustive optimum serves all three checks; an instance
            # too large for the tree walks is skipped before it is scanned
            oracle.check_expectation_limit(f)
            optimum = oracle.brute_force_opt(f)
            rand_report = oracle.check_randomized_lemmas(f, optimum=optimum)
            lp_report = oracle.check_lp_lemmas(f, optimum=optimum)
            exp = oracle.exact_expectation(f, optimum=optimum)
            entry["lemmas_randomized"] = rand_report.overall_pass
            entry["lemmas_lp"] = lp_report.overall_pass
            entry["expectation"] = _frac(exp.expectation)
            entry["opt"] = exp.opt
            guarantee_ok = exp.opt == 0 or exp.expectation >= Fraction(3 * exp.opt, 4)
            entry["expectation_guarantee"] = guarantee_ok
            passed = (
                rand_report.overall_pass and lp_report.overall_pass and guarantee_ok
            )
            failures = rand_report.failures() + lp_report.failures()
            if failures:  # each failed check is lhs <= rhs, given exactly
                entry["failures"] = [
                    {"name": r.name, "step": r.step, "var": r.var,
                     "lhs": _frac(r.lhs), "rhs": _frac(r.rhs)}
                    for r in failures
                ]
            if exp.ratio is not None and (min_ratio is None or exp.ratio < min_ratio):
                min_ratio = exp.ratio
        except bookkeep.LemmaViolation as exc:
            entry["violation"] = str(exc)
            passed = False
        except oracle.LimitError as exc:
            # too large for the exhaustive oracles: neither pass nor fail
            entry["skipped"] = str(exc)
            results.append(entry)
            continue
        entry["pass"] = passed
        results.append(entry)

    checked = [e for e in results if "skipped" not in e]
    # a run that checked no instance showed nothing: it is not a pass
    all_pass = bool(checked) and all(e["pass"] for e in checked)
    report = {
        **header,
        "instances": results if args.verbose else len(results),
        "count": len(results),
        "min_ratio": None if min_ratio is None else _frac(min_ratio),
        "all_pass": all_pass,
    }
    if len(checked) < len(results):
        report["skipped"] = len(results) - len(checked)
    failing = [
        {k: e[k] for k in ("instance", "error", "violation", "failures") if k in e}
        for e in checked
        if not e["pass"]
    ]
    if failing:
        report["failing"] = failing
    _emit(report, args)
    return 0 if all_pass else 1


def cmd_expectation(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    _check_seed(args.seed, args.trials)
    f = _read_formula(args.input)
    order = _make_order(f, args.order, args.order_seed)
    exp = oracle.exact_expectation(f, order)
    report = {
        "expectation": _frac(exp.expectation),
        "opt": exp.opt,
        "ratio": None if exp.ratio is None else _frac(exp.ratio),
        "node_count": exp.node_count,
    }
    if args.trials:
        mean, se = oracle.monte_carlo_mean(
            f, order, trials=args.trials, base_seed=args.seed
        )
        report["trials"] = args.trials
        report["empirical_mean"] = repr(mean)
        report["abs_deviation"] = repr(abs(mean - float(exp.expectation)))
    _emit(report, args)
    return 0


def cmd_corpus(args) -> int:
    params = {key: getattr(args, key) for key in CORPUS_DEFAULTS}
    instances = _corpus_instances(params)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, f in enumerate(instances):
        (out_dir / f"instance_{i:04d}.wcnf").write_text(fm.write_dimacs(f))
    report = {"corpus": params, "written": len(instances), "dir": str(out_dir)}
    _emit(report, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxsat34",
        description="Weighted MAX SAT 3/4-approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", help="write report to this path instead of stdout")

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("input", help="DIMACS CNF/WCNF file, or - for stdin")
    p_solve.add_argument("--alg", choices=ALGORITHMS, default="rand34")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--order", choices=("identity", "shuffled"), default="identity")
    p_solve.add_argument("--order-seed", type=int, default=0)
    p_solve.add_argument("--trace", action="store_true", help="print the per-step trace")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run all lemma and guarantee checks")
    p_verify.add_argument("inputs", nargs="*", help="instance files")
    p_verify.add_argument(
        "--corpus", help="generate instances, e.g. n=8,m=20,count=100,seed=1"
    )
    p_verify.add_argument("--verbose", action="store_true",
                          help="include per-instance results in the report")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("expectation", help="exact expected weight")
    p_exp.add_argument("input")
    p_exp.add_argument("--trials", type=int, default=0,
                       help="also estimate by Monte Carlo over this many runs"
                            " (0: exact only)")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--order", choices=("identity", "shuffled"), default="identity")
    p_exp.add_argument("--order-seed", type=int, default=0)
    add_common(p_exp)
    p_exp.set_defaults(func=cmd_expectation)

    p_corpus = sub.add_parser("corpus", help="write a random instance corpus")
    for key, default in CORPUS_DEFAULTS.items():
        p_corpus.add_argument("--" + key.replace("_", "-"), type=int, default=default)
    p_corpus.add_argument("--out-dir", required=True)
    add_common(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # FormulaError, LimitError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except bookkeep.LemmaViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
