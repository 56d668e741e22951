import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "optomech_switch"

# Names the benchmark's tracer still lists although they left the package
# on purpose; the tracer's own upkeep is to drop them.
GONE_FROM_THE_PACKAGE = {"dynamics.solve_ivp", "dynamics.integrate_meanfield",
                         "steady_state.steady_state_direct"}


def _imported_modules():
    """Top-level names of the absolute imports in the package's modules."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    """Every module the package imports, outside the standard library and
    the package itself, is named in pyproject.toml's dependencies."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_")
                for spec in project["dependencies"]}
    third_party = _imported_modules() - set(sys.stdlib_module_names) - {PACKAGE.name}
    assert third_party, "found no third-party import"
    assert third_party <= declared, sorted(third_party - declared)


def test_benchmark_traced_names_are_package_callables():
    """Every function the benchmark's tracer wraps (``LAYERS`` in
    perfbench/tracing.py, read as source) is a callable attribute of its
    module, so no per-layer counter reads 0 because a function moved."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    listed = {f"{module}.{name}" for module, names in layers.items() for name in names}
    for traced in sorted(listed - GONE_FROM_THE_PACKAGE):
        module, name = traced.split(".")
        home = importlib.import_module(f"{PACKAGE.name}.{module}")
        assert callable(getattr(home, name, None)), traced
