"""The names the benchmark relies on must exist in the library and its output.

`bench/tracing.py` wraps library functions and `MatrixGaussian` methods by
name, and `bench/run.py` reads `matschroed check` lines by name; a rename
would only show up as a failing benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from matschroed.cli import main
from matschroed.matpoly import MatrixGaussian

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for layer, names in tracing.LAYERS.items():
        for name in names:
            if layer == "matpoly":
                if not callable(getattr(MatrixGaussian, tracing.METHODS[name], None)):
                    missing.append(f"MatrixGaussian.{tracing.METHODS[name]}")
            elif not callable(getattr(importlib.import_module(f"matschroed.{layer}"), name, None)):
                missing.append(f"matschroed.{layer}.{name}")
    assert not missing, missing


def run_constant(name):
    """A literal constant of bench/run.py, read without importing it (the import sets BLAS variables)."""
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


@pytest.mark.parametrize("kind", [1, 2])
def test_check_prints_the_benchmark_line_names(capsys, kind):
    names = run_constant("CHECK_LINE_NAMES")
    assert names
    n_max = str(run_constant("CHECK_NMAX"))
    assert main(["check", "--kind", str(kind), "--N", "3", "--nu=0.8,-1.3", "--nmax", n_max]) == 0
    passed = {line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("PASS ")}
    assert set(names) <= passed, set(names) - passed
