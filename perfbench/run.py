"""maxsat34 benchmark: times the `solve`, `verify` and `expectation` CLI
commands in-process on seeded instance files.

    python3 perfbench/run.py --workload verify_acceptance --seed 1 --seconds 15 --trace 0

One single-threaded process drives `maxsat34.cli.main([...])` as a closed
loop: one client, one operation at a time.  Operations run in-process
because interpreter start-up would dominate a ~50 ms operation run as a
subprocess.  The package is imported from `src/` of the checkout this file
sits in.  Instance files are written under `.perfbench_tmp/` at the checkout
root and removed at exit.

--trace 0 prints the end-to-end metrics.  The loop runs whole instance
blocks until both `--seconds` of operation time and MIN_OPS operations are
done, so the 90th percentile always has at least ten samples beyond it.
Every block has the same input shape, so throughput, mean CPU time per
operation and the median operation time are taken per block and reported as
the median over blocks; a burst of load from other processes on the machine
then moves one block, not the result.  The per-block median also keeps
op_p50_ms steady on expectation_exact, whose operation times fall into two
groups (n=11 and n=12) of equal size: the median of all operations there
sits in the gap between them and jumps with the extremes of each group.
op_p90_ms is taken over all operations, so it has enough samples beyond it.  Instance generation between blocks is not timed.

Every timing of the end-to-end metrics is scaled to a nominal machine
speed (see reference.py): the reference loop runs before every operation
and every set-up, and a block's times are multiplied by NOMINAL_S over the
block's mean reference time.  Slow phases of a shared machine then do not
read as slow code.  The unscaled values are printed on a line of their own.

--trace 1 prints the per-layer metrics.  It runs a fixed op set (the first
`trace_blocks` blocks), so work counters repeat exactly for a seed.  Each
operation runs untraced and then traced, on two copies of its file, so no
operation reads a file an earlier one read; the CPU time of the two gives
the tracing overhead.  Self times and counters are totals over the traced
operations.

Every operation's output is checked (see workloads.check).  Before
measuring, every run replays one fixed block, the same whatever seed the run
was given, and compares the SHA-256 of its structured reports with the
digest recorded in workloads.json, so a change of any report fails the run.
The replay also warms the process up.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

from reference import NOMINAL_S, reference_s
from tracer import Tracer
from workloads import WORKLOADS, argv, check, write_block

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
META_FILE = HERE / "workloads.json"
PACKAGE = "maxsat34"

# set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS have
# been spent in it, at most SETUP_MAX times; setup_s is the median
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 5, 2.0, 50
MIN_OPS = 100
# every run replays this block and checks its report digest; timed and
# traced runs only use blocks 0, 1, ..., so no run times the replayed inputs
REPLAY_SEED, REPLAY_BLOCK = 0, -1

# Metrics as (name, unit).  BENCHMARK.json lists the same names and units;
# selftest.py checks that they agree.
END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op_cpu_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    # 1 - error_rate: a metric of the result line must never read 0
    ("success_rate", "ratio"),
)

# Per-layer metrics of the traced run, totals over its fixed op set.
PER_LAYER = (
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.self_s", "s"),
    ("lp.pivots", "count"),
    ("lp.tableau_cells", "count"),
    ("lp.run_lp_rounding.calls", "count"),
    ("lp.run_lp_rounding.self_s", "s"),
    ("lp.lp_value.calls", "count"),
    ("lp.lp_value.self_s", "s"),
    ("oracle.brute_force_opt.calls", "count"),
    ("oracle.brute_force_opt.self_s", "s"),
    ("oracle.brute_force_opt.total_s", "s"),
    ("oracle.brute_assignments", "count"),
    ("formula.satisfied_weight.calls", "count"),
    ("formula.satisfied_weight.self_s", "s"),
    ("oracle.exact_expectation.self_s", "s"),
    ("oracle.tree_nodes", "count"),
    ("oracle.check_randomized_lemmas.self_s", "s"),
    ("oracle.check_lp_lemmas.self_s", "s"),
    ("oracle.lemma_checks", "count"),
    ("oracle.monte_carlo_mean.self_s", "s"),
    ("oracle.mc_trials", "count"),
    ("bookkeep.new_trace.calls", "count"),
    ("bookkeep.new_trace.self_s", "s"),
    ("bookkeep.step_quantities.calls", "count"),
    ("bookkeep.step_quantities.self_s", "s"),
    ("bookkeep.apply.calls", "count"),
    ("bookkeep.apply.self_s", "s"),
    ("bookkeep.copy.calls", "count"),
    ("greedy.run.calls", "count"),
    ("greedy.run.self_s", "s"),
    ("greedy.random_words", "count"),
    ("formula.parse_dimacs.calls", "count"),
    ("formula.parse_dimacs.self_s", "s"),
    ("formula.parse_bytes", "bytes"),
    ("cli.self_ms_per_op", "ms"),
    ("trace.ops", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_package():
    """(Re-)import maxsat34 from the checkout's src/; returns (cli, formula)."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no {PACKAGE} source at {init.relative_to(ROOT)}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    if Path(cli.__file__).resolve().parent != init.parent.resolve():
        raise BenchError(f"{PACKAGE} was imported from {cli.__file__}, not src/")
    return cli, sys.modules[PACKAGE + ".formula"]


class Runner:
    """One workload on one seed: set-up, the timed loop and the traced run."""

    def __init__(self, workload_name: str, seed: int) -> None:
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.dirs: list[Path] = []
        self.failures: list[str] = []
        self.cli = self.fm = None

    def new_dir(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        d = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=WORK_ROOT))
        self.dirs.append(d)
        return d

    def close(self) -> None:
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass

    def setup(self, repeats: int, seconds: float = 0.0) -> tuple[Path, list, list[tuple[float, float]]]:
        """Import the package and write block 0, `repeats` times and until
        `seconds` have been spent; returns the last directory and block and,
        for every set-up, its wall time and the reference's wall time taken
        just before it."""
        samples = []
        while len(samples) < repeats or (
            sum(t for t, _ in samples) < seconds and len(samples) < SETUP_MAX
        ):
            ref, _ = reference_s()
            gc.collect()
            start = perf_counter()
            self.cli, self.fm = import_package()
            directory = self.new_dir()
            block = write_block(self.fm, self.workload, self.seed, 0, directory)
            samples.append((perf_counter() - start, ref))
        return directory, block, samples

    def run_op(self, op, name: str, directory: Path):
        """Run one CLI operation in `directory`; returns (ok, wall_s, cpu_s, out)."""
        out, err = io.StringIO(), io.StringIO()
        args = argv(self.workload, op, name)
        os.chdir(directory)
        # a one-shot CLI process starts without garbage from earlier operations
        gc.collect()
        try:
            wall0, cpu0 = perf_counter(), process_time()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = self.cli.main(args)
                reason = None
            except SystemExit as exc:
                rc, reason = None, f"exited with {exc.code}"
            except Exception as exc:  # a failing operation is counted, not fatal
                rc, reason = None, f"raised {exc!r}"
            wall, cpu = perf_counter() - wall0, process_time() - cpu0
            text = out.getvalue()
            if reason is None:
                try:
                    reason = check(self.workload, op, (directory / name).read_text(), rc, text)
                except (ValueError, KeyError, TypeError) as exc:
                    reason = f"unreadable report: {exc!r}"
        finally:
            os.chdir(ROOT)
        if reason is not None:
            detail = err.getvalue().strip().splitlines()[-1:] or [""]
            self.failures.append(f"{name}: {reason} {detail[0]}".rstrip())
        return reason is None, wall, cpu, text

    def replay_digest(self) -> str:
        """SHA-256 of the reports of the replay block; the package must be
        imported."""
        directory = self.new_dir()
        digest = hashlib.sha256()
        for op, name in write_block(self.fm, self.workload, REPLAY_SEED, REPLAY_BLOCK, directory):
            _, _, _, text = self.run_op(op, name, directory)
            digest.update(f"{name}\0{text}\0".encode())
        return digest.hexdigest()

    def check_replay(self) -> str:
        """Bit-identical replay: the replay digest must equal the one
        recorded in workloads.json, else the run fails."""
        digest = self.replay_digest()
        expected = json.loads(META_FILE.read_text())["workloads"][self.workload.name]["digest"]
        if digest != expected:
            note = f"replay digest {digest} differs from recorded {expected}"
            self.failures.append(note)
            return note
        return f"replay digest matches recorded {expected}"

    def timed(self, seconds: float) -> dict:
        """The untraced closed loop; returns the end-to-end metrics."""
        directory, block, setup_samples = self.setup(SETUP_MIN, SETUP_SECONDS)
        replay = self.check_replay()
        setup_times = [t for t, _ in setup_samples]
        walls, cpus, ok_ops = [], [], 0  # as measured
        scaled_walls, scales = [], []
        block_rates, block_cpus, block_p50s = [], [], []  # scaled
        index = 0
        while True:
            block_wall = block_cpu = ref_wall = ref_cpu = 0.0
            block_ok = 0
            for op, name in block:
                wall, cpu = reference_s()
                ref_wall += wall
                ref_cpu += cpu
                ok, wall, cpu, _ = self.run_op(op, name, directory)
                walls.append(wall)
                cpus.append(cpu)
                block_wall += wall
                block_cpu += cpu
                block_ok += ok
                (directory / name).unlink()
            ok_ops += block_ok
            # wall times scale by the reference's wall time, CPU times by its CPU time
            scale = NOMINAL_S * len(block) / ref_wall
            scales.append(scale)
            scaled = [wall * scale for wall in walls[-len(block):]]
            scaled_walls += scaled
            block_p50s.append(statistics.median(scaled))
            block_rates.append(block_ok / (block_wall * scale))
            block_cpus.append(block_cpu * NOMINAL_S / ref_cpu)
            if sum(walls) >= seconds and len(walls) >= MIN_OPS:
                break
            index += 1
            block = write_block(self.fm, self.workload, self.seed, index, directory)
        p90 = statistics.quantiles(scaled_walls, n=10)[8]
        beyond = sum(w > p90 for w in scaled_walls)
        scaled_setup = [t * NOMINAL_S / ref for t, ref in setup_samples]
        self.notes = [
            f"ops {len(walls)} in {index + 1} blocks, {sum(walls):.2f} s of operation time",
            f"as measured, unscaled: {ok_ops / sum(walls):.4g} ops/s,"
            f" p50 {1000 * statistics.median(walls):.4g} ms,"
            f" p90 {1000 * statistics.quantiles(walls, n=10)[8]:.4g} ms,"
            f" {1000 * statistics.fmean(cpus):.4g} ms CPU/op,"
            f" setup {statistics.median(setup_times):.4g} s",
            f"wall-time scale NOMINAL_S/reference per block: min {min(scales):.4g}"
            f" median {statistics.median(scales):.4g} max {max(scales):.4g}",
            f"block ops/s (scaled) min {min(block_rates):.4g} median"
            f" {statistics.median(block_rates):.4g} max {max(block_rates):.4g}",
            f"op_p90_ms from {len(walls)} samples, {beyond} beyond it",
            f"setup_s from {len(setup_samples)} samples, min {min(scaled_setup):.4g} s"
            f" max {max(scaled_setup):.4g} s (scaled)",
            f"error_rate {(len(walls) - ok_ops) / len(walls)}",
            replay,
        ]
        self.attempted, self.ok_ops = len(walls), ok_ops
        values = {
            "throughput_ops_s": statistics.median(block_rates),
            "op_p50_ms": 1000 * statistics.median(block_p50s),
            "op_p90_ms": 1000 * p90,
            "op_cpu_ms": 1000 * statistics.median(block_cpus),
            "setup_s": statistics.median(scaled_setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": ok_ops / len(walls),
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}

    def traced(self) -> dict:
        """Runs the fixed op set with each operation first untraced, then
        traced on its own copy of the file; returns the per-layer metrics.
        Interleaving the two passes keeps warm-up and machine drift out of
        the overhead ratio."""
        self.setup(1)
        replay = self.check_replay()
        plain_dir, traced_dir = self.new_dir(), self.new_dir()
        ops = []
        for index in range(self.workload.trace_blocks):
            ops += write_block(self.fm, self.workload, self.seed, index, plain_dir, traced_dir)
        plain_cpu = traced_cpu = 0.0
        ok_ops = 0
        tracer = Tracer()
        for op, name in ops:
            ok, _, cpu, plain_text = self.run_op(op, name, plain_dir)
            plain_cpu += cpu
            ok_ops += ok
            with tracer:
                ok, _, cpu, traced_text = self.run_op(op, name, traced_dir)
            traced_cpu += cpu
            ok_ops += ok
            if traced_text != plain_text:
                self.failures.append(f"{name}: traced report differs from untraced report")
        n_ops = len(ops)
        self.attempted, self.ok_ops = 2 * n_ops, ok_ops
        self.notes = [
            f"traced op set: {n_ops} ops in {self.workload.trace_blocks} blocks",
            replay,
            *tracer.table(),
        ]
        values = dict(tracer.counters)
        for name, _ in PER_LAYER:
            stem, _, kind = name.rpartition(".")
            if kind == "calls" and name not in values:
                values[name] = tracer.calls(stem)
            elif kind == "self_s":
                values[name] = tracer.self_s(stem)
            elif kind == "total_s":
                values[name] = tracer.total_s(stem)
        values["cli.self_ms_per_op"] = 1000 * tracer.self_s(Tracer.ROOT) / n_ops
        values["trace.ops"] = n_ops
        values["trace.overhead_ratio"] = traced_cpu / plain_cpu
        return {name: (values[name], unit) for name, unit in PER_LAYER}


def environment(seed: int, ops: int) -> dict:
    def importable(module: str) -> bool:
        try:
            importlib.import_module(module)
        except ImportError:
            return False
        return True

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "seed": seed,
        "ops": ops,
        # imported after measuring, so they do not count in peak_rss_mb
        "scipy_importable": importable("scipy"),
        "numpy_importable": importable("numpy"),
    }


def main(argv_: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv_)

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics = runner.traced()
        else:
            metrics = runner.timed(args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in runner.notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    print("env " + json.dumps(environment(args.seed, runner.attempted), sort_keys=True))
    correct = not runner.failures
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.attempted - runner.ok_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
