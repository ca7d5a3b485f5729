"""ehcog runs on numpy and pyyaml: no module of the package may import
scipy, which the tests use as a reference only.  And every function the
benchmark's tracer wraps must exist under its name."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ehcog"


def scipy_imports(source: str) -> list[int]:
    """Line numbers of the imports of scipy in source: import statements,
    absolute from-imports, and importlib.import_module / __import__ calls
    on a literal name."""

    def is_scipy(name):
        return isinstance(name, str) and name.split(".")[0] == "scipy"

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            names = [node.args[0].value] if called in ("import_module", "__import__") else []
        else:
            continue
        if any(map(is_scipy, names)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source",
    [
        "import scipy",
        "import numpy, scipy.stats as st",
        "def f():\n    from scipy.stats import qmc",
        "import importlib\nimportlib.import_module('scipy.stats')",
        "__import__('scipy')",
    ],
)
def test_scan_finds_scipy_imports(source):
    assert scipy_imports(source) == [source.count("\n") + 1]


def test_scan_passes_other_imports():
    assert scipy_imports("import numpy\nfrom . import scipy_like\nfrom .scipy import x") == []


def test_package_does_not_import_scipy():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = {path.name: scipy_imports(path.read_text()) for path in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_traced_names_resolve():
    """Every function the benchmark's tracer wraps exists on its ehcog module,
    so a rename in the package cannot silently empty a traced layer."""
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"ehcog.{module}"), name, None))
    ]
    assert tracing.TRACED and missing == []
