import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "optomech_switch"
TESTS = ROOT / "tests"

# Names the benchmark's tracer still lists although they left the package
# on purpose; the tracer's own upkeep is to drop them.
GONE_FROM_THE_PACKAGE = {"dynamics.solve_ivp", "dynamics.integrate_meanfield",
                         "dynamics.gain_vs_frequency", "steady_state.steady_state_direct"}


def _imported_modules(directory):
    """Top-level names of the absolute imports in the modules of `directory`."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def _declared(specs):
    """Import names of pyproject.toml requirement strings."""
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_") for spec in specs}


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def test_third_party_imports_are_declared_dependencies():
    """Every module the package imports, outside the standard library and
    the package itself, is named in pyproject.toml's dependencies."""
    declared = _declared(_project()["dependencies"])
    third_party = _imported_modules(PACKAGE) - set(sys.stdlib_module_names) - {PACKAGE.name}
    assert third_party, "found no third-party import"
    assert third_party <= declared, sorted(third_party - declared)


def test_test_imports_are_declared_dependencies():
    """Every module a test file imports, outside the standard library, the
    package and the tests' own modules, is named in pyproject.toml's
    dependencies or its ``test`` extra."""
    project = _project()
    declared = _declared(project["dependencies"] + project["optional-dependencies"]["test"])
    local = {path.stem for path in TESTS.glob("*.py")}
    third_party = (_imported_modules(TESTS) - set(sys.stdlib_module_names)
                   - {PACKAGE.name} - local)
    assert {"mpmath", "numpy", "pytest"} <= third_party
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
