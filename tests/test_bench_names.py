"""The benchmark tracer finds the package's functions by name.

perfbench/tracer.py wraps them with getattr, so renaming or removing one
breaks the traced benchmark run; this test makes that fail here too.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# names the tracer installs hooks on outside its SPANS table
HOOKED = (
    ("cli", "main"),
    ("lp", "_pivot"),
    ("greedy", "splitmix64"),
    ("bookkeep", "TraceState.copy"),
)


def load_tracer():
    # executed from source, so no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def resolve(module_name, dotted):
    obj = importlib.import_module(f"maxsat34.{module_name}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_exists():
    tracer = load_tracer()
    assert tracer["PACKAGE"] == "maxsat34"
    names = [(module, attr) for module, attr, _ in tracer["SPANS"]] + list(HOOKED)
    for module, attr in names:
        assert callable(resolve(module, attr)), f"{module}.{attr}"
