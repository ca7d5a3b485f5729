"""ehcog runs on numpy and pyyaml: no module of the package may import
scipy, which the tests use as a reference only, and a preset-only solve
loads neither numpy.random nor yaml.  And every function the benchmark's
tracer wraps must exist under its name, and see every call."""
import ast
import collections
import contextlib
import importlib
import importlib.util
import io
import os
import subprocess
import sys
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


#: runs a preset-only optimize in a fresh interpreter and prints which of
#: the modules it should not need got loaded
LAZY_PROBE = """
import contextlib, io, sys
import ehcog.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["optimize", "--preset", "fig4"])
print(code, sorted(m for m in ("numpy.random", "yaml") if m in sys.modules))
"""


def test_preset_optimize_loads_neither_numpy_random_nor_yaml():
    """The solver draws its Sobol scrambling without numpy.random, and only
    --config reads YAML, so neither import may creep back into a solve."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], capture_output=True, text=True, env=env)
    assert proc.stdout.split() == ["0", "[]"], proc.stderr


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



@pytest.mark.parametrize("scheme", ["nofeedback", "feedback", "random_access"])
def test_closed_forms_are_looked_up_at_call_time(monkeypatch, scheme):
    """Every layer reaches a scheme's closed forms as the module attributes
    scheme.analysis.analyze and .operating_point, where the tracer puts its
    wrappers, so a wrapper set there sees each call."""
    from ehcog import cli, feedback, nofeedback, optimizer, presets, simulator

    calls = collections.Counter()
    for module in (nofeedback, feedback):
        for name in ("analyze", "operating_point"):

            def counted(*args, _f=getattr(module, name), _key=(module, name)):
                calls[_key] += 1
                return _f(*args)

            monkeypatch.setattr(module, name, counted)
    # random access shares the sensing-only closed forms
    own = feedback if scheme == "feedback" else nofeedback

    def went_through(*names):
        seen = dict(calls)
        calls.clear()
        return {module for module, _ in seen} == {own} and all(seen.get((own, n)) for n in names)

    cfg = {**presets.get_preset("fig4"), "scheme": scheme}
    scheme, profile, sensing, traffic, policy = cli._parse_point(cfg)
    assert scheme.analysis is own
    problem = optimizer.OptProblem(scheme, profile, sensing, traffic)
    optimizer.solve(problem, optimizer.SolverConfig(n_starts=32))
    assert went_through("operating_point", "analyze")
    optimizer.grid_oracle(problem, 0.5)
    assert went_through("operating_point", "analyze")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["analyze", "--preset", "fig4", "--scheme", scheme.value])
    assert went_through("analyze")
    simulator.validate_lower_bound(scheme, policy, profile, sensing, traffic, 1_000, 0)
    assert went_through("operating_point")
