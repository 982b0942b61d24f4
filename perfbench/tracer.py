"""Per-layer tracing from outside the program.

The tracer wraps selected functions of the maxsat34 modules and installs
each wrapper in every namespace that holds the original object, so that
`greedy.step_quantities`, `lp.step_quantities` and `oracle.step_quantities`
all report to one span.  Nothing in the package source changes.

A span records its wall duration and its self time: the duration minus the
part covered by child spans.  Spans are aggregated by name (calls, total,
self) as they close, which keeps memory flat on workloads with millions of
kernel calls.  Counter-only hooks count calls or work without opening a
span, so their time stays in the caller's self time: `lp._pivot` is counted
this way because the pivots are the body of `solve_lp`.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

PACKAGE = "maxsat34"

# (module, attribute, span name); the span name groups several functions
# into one layer metric, e.g. every sequential algorithm into "greedy.run".
SPANS = (
    ("formula", "parse_dimacs", "formula.parse_dimacs"),
    ("formula", "satisfied_weight", "formula.satisfied_weight"),
    ("bookkeep", "new_trace", "bookkeep.new_trace"),
    ("bookkeep", "step_quantities", "bookkeep.step_quantities"),
    ("bookkeep", "apply", "bookkeep.apply"),
    ("greedy", "run_randomized", "greedy.run"),
    ("greedy", "run_vanzuylen", "greedy.run"),
    ("greedy", "run_weight", "greedy.run"),
    ("greedy", "run_greedy_sat", "greedy.run"),
    ("greedy", "run_greedy_unsat", "greedy.run"),
    ("lp", "build_relaxation", "lp.build_relaxation"),
    ("lp", "solve_lp", "lp.solve_lp"),
    ("lp", "lp_value", "lp.lp_value"),
    ("lp", "run_lp_rounding", "lp.run_lp_rounding"),
    ("oracle", "brute_force_opt", "oracle.brute_force_opt"),
    ("oracle", "exact_expectation", "oracle.exact_expectation"),
    ("oracle", "check_randomized_lemmas", "oracle.check_randomized_lemmas"),
    ("oracle", "check_lp_lemmas", "oracle.check_lp_lemmas"),
    ("oracle", "monte_carlo_mean", "oracle.monte_carlo_mean"),
)

COUNTERS = (
    "lp.pivots",
    "lp.tableau_cells",
    "oracle.brute_assignments",
    "oracle.tree_nodes",
    "oracle.lemma_checks",
    "oracle.mc_trials",
    "bookkeep.copy.calls",
    "greedy.random_words",
    "formula.parse_bytes",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tableau_cells(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    n, m = model.num_y, model.num_z
    # rows: m clause rows, n y-bounds, m z-bounds; columns: n + m structural,
    # 2m + n slacks and the right-hand side
    return "lp.tableau_cells", (2 * m + n) * (3 * m + 2 * n + 1)


def _brute_assignments(args, kwargs, result):
    return "oracle.brute_assignments", 1 << _arg(args, kwargs, 0, "formula").num_vars


def _tree_nodes(args, kwargs, result):
    return "oracle.tree_nodes", result.node_count


def _lemma_checks(args, kwargs, result):
    return "oracle.lemma_checks", len(result.records)


def _mc_trials(args, kwargs, result):
    trials = args[2] if len(args) > 2 else kwargs.get("trials", 10_000)
    return "oracle.mc_trials", trials


def _parse_bytes(args, kwargs, result):
    text = _arg(args, kwargs, 0, "text")
    size = len(text) if isinstance(text, bytes) else len(text.encode("utf-8"))
    return "formula.parse_bytes", size


# span name -> hook(args, kwargs, result) -> (counter, amount)
WORK = {
    "lp.solve_lp": _tableau_cells,
    "oracle.brute_force_opt": _brute_assignments,
    "oracle.exact_expectation": _tree_nodes,
    "oracle.check_randomized_lemmas": _lemma_checks,
    "oracle.check_lp_lemmas": _lemma_checks,
    "oracle.monte_carlo_mean": _mc_trials,
    "formula.parse_dimacs": _parse_bytes,
}


class Tracer:
    """Installs span wrappers and counters into the imported package and
    removes them again.  Use as a context manager, as often as needed:
    statistics accumulate across installs.  Only one tracer may be
    installed at a time."""

    ROOT = "cli"

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        # each open span holds the time covered by its closed children
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, name: str, start: float) -> None:
        dt = perf_counter() - start
        child = self._stack.pop()
        self._stack[-1] += dt
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - child

    def _wrap_span(self, fn, name):
        stack = self._stack
        close = self._close
        work = WORK.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, start)
            if work is not None:
                key, amount = work(args, kwargs, result)
                counters[key] += amount
            return result

        return wrapper

    def _wrap_count(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_words(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(seed):
            for word in fn(seed):
                counters["greedy.random_words"] += 1
                yield word

        return wrapper

    def _install(self, module_name: str, attr: str, make) -> None:
        """Replace module.attr and every other package-level binding of the
        same object with make(original)."""
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def __enter__(self) -> "Tracer":
        self._install("cli", "main", lambda fn: self._wrap_span(fn, self.ROOT))
        for module_name, attr, name in SPANS:
            self._install(module_name, attr, lambda fn, n=name: self._wrap_span(fn, n))
        self._install("lp", "_pivot", lambda fn: self._wrap_count(fn, "lp.pivots"))
        self._install("greedy", "splitmix64", self._wrap_words)
        state_cls = sys.modules[f"{PACKAGE}.bookkeep"].TraceState
        self._undo.append((state_cls, "copy", state_cls.copy))
        state_cls.copy = self._wrap_count(state_cls.copy, "bookkeep.copy.calls")
        return self

    def __exit__(self, *exc) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[2] if st else 0.0

    def total_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[1] if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    def table(self) -> list[str]:
        """Span table sorted by self time, for the human-readable output."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        total_self = sum(st[2] for _, st in rows) or 1.0
        out = [f"{'span':34} {'calls':>10} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
        for name, (calls, total, self_time) in rows:
            out.append(
                f"{name:34} {calls:>10} {total:>10.4f} {self_time:>10.4f}"
                f" {100 * self_time / total_self:>5.1f}%"
            )
        return out

