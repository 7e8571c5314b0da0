"""Tests of the benchmark's trapezoidal-rule oracle.

    python3 -m pytest -q bench/test_oracle.py
"""

import ast
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402

XQ = [-2.5, -1.0, 0.0, 0.7, 1.9]


def test_error_on_hermite_functions_falls_as_step_shrinks():
    fns = oracle.scalar_functions(20)
    steps = (0.7, 0.55, 0.4, 0.05)
    gram = [oracle.gram_error(fns, h) for h in steps]
    eigen = [oracle.fourier_eigen_error(fns, 0, XQ, h) for h in steps]
    assert all(a > b for a, b in zip(gram, gram[1:])), gram
    assert all(a > b for a, b in zip(eigen, eigen[1:])), eigen
    assert gram[-1] < 1e-13 and eigen[-1] < 1e-13
    assert oracle.self_check() < 1e-12


class PointEvaluator:
    """Exposes only point evaluation of a function and counts the calls."""

    def __init__(self, fn, scale=1.0):
        self._fn, self._scale, self.calls = fn, scale, 0

    def __call__(self, x):
        self.calls += 1
        return self._scale * self._fn(x)


def test_catches_a_perturbed_function_through_point_values_only():
    from matschroed.families import FamilySpec, build_family

    ctx = build_family(FamilySpec(1, 2, (0.8,)), 10)
    exact = [PointEvaluator(f) for f in ctx.phi_tilde]
    assert oracle.gram_error(exact) < 1e-12
    assert oracle.fourier_eigen_error(exact, 1, XQ) < 1e-12
    assert all(f.calls > 0 for f in exact)

    perturbed = list(exact)
    perturbed[3] = PointEvaluator(ctx.phi_tilde[3], 1 + 1e-6)
    assert oracle.gram_error(perturbed) > 1e-6
    assert oracle.gram_error(perturbed) < 3e-6


def test_oracle_imports_nothing_from_the_library():
    tree = ast.parse((BENCH / "oracle.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"math", "numpy"}


def test_moment_matches_the_ladder_operator():
    fns = oracle.scalar_functions(6)
    for n in range(6):
        # x psi_n = sqrt(n/2) psi_{n-1} + sqrt((n+1)/2) psi_{n+1}
        assert abs(oracle.moment(fns[n], fns[n + 1], 1)[0, 0] - np.sqrt((n + 1) / 2)) < 1e-13
        assert abs(oracle.moment(fns[n], fns[n], 2)[0, 0] - (n + 0.5)) < 1e-13
