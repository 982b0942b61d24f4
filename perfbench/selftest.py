"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. BENCHMARK.json names the metrics run.py prints, with the same units.
2. Exact counters repeat exactly: two traced runs on one seed give
   identical work counters on every workload, and another seed gives other
   inputs.
3. A planted slowdown is attributed to the layer it was planted in: a
   fixed delay added to every `lp.solve_lp` call shows up in
   `lp.solve_lp.self_s` on verify_acceptance and leaves solve_large, which
   never solves an LP, unchanged.

Exits 0 when every check passes.  Takes a few minutes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time

import run
from workloads import WORKLOADS, write_block

EXACT_COUNTERS = (
    "lp.pivots",
    "oracle.tree_nodes",
    "oracle.brute_assignments",
    "greedy.random_words",
    "bookkeep.step_quantities.calls",
)
PLANTED_DELAY_S = 0.2
SEED = 1


class Checks:
    def __init__(self) -> None:
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        self.failed += not ok


def traced(workload: str, seed: int, runner_cls=run.Runner) -> dict:
    runner = runner_cls(workload, seed)
    try:
        metrics = runner.traced()
    finally:
        runner.close()
    if runner.failures:
        raise AssertionError(f"{workload}: {runner.failures[:3]}")
    return {name: value for name, (value, _) in metrics.items()}


def input_digest(workload: str, seed: int) -> str:
    """SHA-256 of the instance files of block 0 for a seed."""
    runner = run.Runner(workload, seed)
    try:
        _, fm = run.import_package()
        directory = runner.new_dir()
        block = write_block(fm, WORKLOADS[workload], seed, 0, directory)
        digest = hashlib.sha256()
        for _, name in block:
            digest.update((directory / name).read_bytes())
        return digest.hexdigest()
    finally:
        runner.close()


def plant_delay(delay_s: float) -> None:
    """Replace every package binding of lp.solve_lp with a copy that first
    sleeps for delay_s."""
    modules = [m for n, m in sys.modules.items() if n == run.PACKAGE or n.startswith(run.PACKAGE + ".")]
    original = sys.modules[run.PACKAGE + ".lp"].solve_lp

    @functools.wraps(original)
    def slow_solve_lp(*args, **kwargs):
        time.sleep(delay_s)
        return original(*args, **kwargs)

    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, slow_solve_lp)


class PlantedRunner(run.Runner):
    """A runner whose freshly imported package has the slowdown planted;
    the tracer installed later wraps the slowed function."""

    def setup(self, repeats):
        result = super().setup(repeats)
        plant_delay(PLANTED_DELAY_S)
        return result


def check_metric_names(checks: Checks) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        checks.expect(declared == list(printed), f"BENCHMARK.json {key} matches run.py")
    names = [w["name"] for w in spec["workloads"]]
    checks.expect(sorted(names) == sorted(WORKLOADS), "BENCHMARK.json workloads match workloads.py")


def check_repeatable(checks: Checks, seed: int) -> dict:
    baseline = {}
    for workload in WORKLOADS:
        first = traced(workload, seed)
        second = traced(workload, seed)
        moved = {k: (first[k], second[k]) for k in EXACT_COUNTERS if first[k] != second[k]}
        checks.expect(not moved, f"{workload}: exact counters repeat on seed {seed}" + (f" {moved}" if moved else ""))
        checks.expect(
            input_digest(workload, seed) != input_digest(workload, seed + 1),
            f"{workload}: seed {seed + 1} gives other inputs than seed {seed}",
        )
        baseline[workload] = first
    return baseline


def check_planted(checks: Checks, seed: int, baseline: dict) -> None:
    base = baseline["verify_acceptance"]
    slow = traced("verify_acceptance", seed, PlantedRunner)
    planted = PLANTED_DELAY_S * slow["lp.solve_lp.calls"]
    moved = {
        name: slow[name] - base[name]
        for name in base
        if name.endswith(".self_s")
    }
    gain = moved.pop("lp.solve_lp.self_s")
    others = max(moved.items(), key=lambda kv: abs(kv[1]))
    checks.expect(
        0.75 * planted <= gain <= 1.35 * planted,
        f"verify_acceptance: lp.solve_lp.self_s grew by {gain:.3f} s for {planted:.3f} s planted",
    )
    checks.expect(
        abs(others[1]) < 0.25 * planted,
        f"verify_acceptance: largest other self-time change {others[0]} {others[1]:+.3f} s",
    )
    base = baseline["solve_large"]
    slow = traced("solve_large", seed, PlantedRunner)
    counters = [k for k in base if not k.endswith(("_s", "ratio", "per_op"))]
    changed = [k for k in counters if slow[k] != base[k]]
    checks.expect(
        not changed and slow["lp.solve_lp.self_s"] == 0,
        "solve_large: counters and lp time unchanged with the slowdown planted"
        + (f" {changed}" if changed else ""),
    )


def main() -> int:
    checks = Checks()
    check_metric_names(checks)
    baseline = check_repeatable(checks, SEED)
    check_planted(checks, SEED, baseline)
    print("selftest " + ("passed" if not checks.failed else f"FAILED {checks.failed} checks"))
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
