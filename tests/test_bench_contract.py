"""The names the benchmark relies on must exist in the library and its output.

`bench/tracing.py` wraps library functions and `MatrixGaussian` methods by
name, and `bench/run.py` reads `matschroed check` lines by name; a rename
would only show up as a failing benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from matschroed.cli import DEFAULT_TOL, check_lines, main
from matschroed.expansion import band_pattern
from matschroed.families import FamilySpec, build_family
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
    """A constant of bench/run.py, read without importing it (the import sets BLAS variables).

    A literal, or an expression of literals such as a comprehension over them.
    """
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return eval(compile(ast.Expression(node.value), "run.py", "eval"), {"__builtins__": {}})
    raise LookupError(name)


@pytest.mark.parametrize("kind", [1, 2])
def test_check_prints_the_benchmark_line_names(capsys, kind):
    names = run_constant("CHECK_LINE_NAMES")
    assert names
    n_max = str(run_constant("CHECK_NMAX"))
    assert main(["check", "--kind", str(kind), "--N", "3", "--nu=0.8,-1.3", "--nmax", n_max]) == 0
    passed = {line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("PASS ")}
    assert set(names) <= passed, set(names) - passed


@pytest.mark.parametrize("seed", [0, 1])
def test_every_check_line_of_the_benchmark_shapes_can_fail(seed):
    # a residual of exactly 0 holds by construction and could not catch a fault; nu is drawn as bench/run.py draws it
    names = set(run_constant("CHECK_LINE_NAMES"))
    rng = np.random.default_rng([seed, 5])
    for kind, N in run_constant("CHECK_SPECS"):
        ctx = build_family(FamilySpec(kind, N, rng.uniform(-2.0, 2.0, N - 1)), run_constant("CHECK_NMAX"))
        lines = {name: residual for name, residual, _ in check_lines(ctx, DEFAULT_TOL, seed)}
        assert names <= lines.keys(), names - lines.keys()
        assert all(np.isfinite(r) and r > 0 for r in lines.values()), (kind, N, lines)


def test_band_matrix_serves_what_the_benchmark_reads():
    # bench/run.py's band requests read bp.blocks[n, m] for |n - m| <= k and check that bp.flat is finite
    for kind, N, n_max in run_constant("APPLY_FAMILIES"):
        ctx = build_family(FamilySpec(kind, N, [0.8, -0.6, 0.9, 0.7, -0.5, 0.6, 0.8][: N - 1]), n_max)
        for k in (1, 2):
            bp = band_pattern(ctx, k)
            assert bp.flat.shape == ((n_max + 1) * N,) * 2 and np.isfinite(bp.flat).all()
            for n in range(n_max + 1):
                for m in range(max(0, n - k), min(n_max, n + k) + 1):
                    np.testing.assert_array_equal(bp.blocks[n, m], bp.band[n, m - n + k])
