import numpy as np
import pytest

from matschroed import operators
from matschroed.families import FamilySpec, build_family
from matschroed.hermite import wave_poly
from matschroed.matpoly import MatrixGaussian
from matschroed.operators import (
    fourier_eigen_residual,
    quadrature_transform,
    real_integral_residual,
    row_coverage,
    schrodinger_residual,
    symmetry_residual,
    transform_apply,
)
from matschroed.structmat import phase_diag

SPECS = [
    FamilySpec(1, 2, [1.0]),
    FamilySpec(1, 3, [0.8, -1.3]),
    FamilySpec(1, 4, [1.0, 0.5, -0.7]),
    FamilySpec(2, 2, [1.0]),
    FamilySpec(2, 3, [0.8, -1.3]),
]


@pytest.fixture(scope="module")
def contexts():
    return {spec: build_family(spec, 8) for spec in SPECS}


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_schrodinger_eigen_equation(contexts, spec):
    ctx = contexts[spec]
    for n in range(9):
        rep = schrodinger_residual(ctx, n)
        assert rep.passed(1e-9), (rep.variant, rep.n, rep.max_coeff_norm)


def test_schrodinger_scalar_case():
    # N = 1 reduces to the classical harmonic oscillator equation
    ctx = build_family(FamilySpec(1, 1, []), 5)
    for n in range(6):
        assert schrodinger_residual(ctx, n).passed(1e-11)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_fourier_eigen_equation(contexts, spec):
    ctx = contexts[spec]
    for n in range(9):
        rep = fourier_eigen_residual(ctx, n)
        assert rep.passed(1e-9), (rep.variant, rep.n, rep.max_coeff_norm)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_fourier_eigen_against_quadrature(contexts, spec):
    # the transform itself, replayed through the independent quadrature oracle
    ctx = contexts[spec]
    k = spec.kind
    xs = np.linspace(-5, 5, 21)
    for n in (0, 3, 8):
        phi = ctx.phi[n]
        lhs = quadrature_transform(phi, k, xs)
        rhs = np.einsum("ab,xbc->xac", (1j) ** n * phase_diag(spec.size, k), phi(xs))
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, phi.max_abs())


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("target", ["phi", "poly"])
def test_reflection_symmetry(contexts, spec, target):
    ctx = contexts[spec]
    for n in range(9):
        rep = symmetry_residual(ctx, n, target=target)
        assert rep.passed(1e-12), (rep.variant, rep.n, rep.max_coeff_norm)


def test_symmetry_bad_target():
    ctx = build_family(FamilySpec(1, 2, [1.0]), 0)
    with pytest.raises(ValueError):
        symmetry_residual(ctx, 0, target="bogus")


@pytest.mark.parametrize("spec", [SPECS[0], SPECS[1], SPECS[2]], ids=str)
@pytest.mark.parametrize("form", ["even", "odd"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_real_integral_equations_family1(contexts, spec, form, sign):
    ctx = contexts[spec]
    for n in range(9):
        rep, max_imag = real_integral_residual(ctx, n, form=form, sign=sign)
        assert rep.max_pointwise < 1e-8, (rep.variant, rep.n, rep.max_pointwise)
        assert max_imag < 1e-10


@pytest.mark.parametrize("spec", [SPECS[3], SPECS[4]], ids=str)
def test_real_integral_equations_family2(contexts, spec):
    ctx = contexts[spec]
    for n in range(9):
        rep, max_imag = real_integral_residual(ctx, n)
        assert rep.max_pointwise < 1e-8, (rep.variant, rep.n, rep.max_pointwise)
        assert max_imag < 1e-10


def test_real_integral_bad_form():
    ctx = build_family(FamilySpec(1, 2, [1.0]), 0)
    with pytest.raises(ValueError):
        real_integral_residual(ctx, 0, form="bogus")


@pytest.mark.parametrize("N", range(1, 7))
def test_row_coverage(N):
    cos_rows, sin_rows, covered = row_coverage(N)
    assert covered
    assert cos_rows.isdisjoint(sin_rows)
    assert len(cos_rows) + len(sin_rows) == N


def test_transform_inverse_roundtrip():
    rng = np.random.default_rng(21)
    f = MatrixGaussian.from_poly(rng.standard_normal((9, 3, 3)))
    g = transform_apply(transform_apply(f, 1), 1, direction=-1)
    assert (g - f).max_abs() < 1e-12 * f.max_abs()


def test_quadrature_transform_validation():
    f = MatrixGaussian.from_poly(np.ones((21, 2, 2)))
    with pytest.raises(ValueError):
        quadrature_transform(f, 1, 0.0, direction=2)


def test_quadrature_oracle_converges(monkeypatch):
    # psi_12 is a Fourier eigenfunction with eigenvalue i^12 = 1; the error
    # falls geometrically as the trapezoidal step shrinks
    psi = MatrixGaussian.from_poly(wave_poly(12)[:, None, None])
    xs = np.linspace(-4.0, 4.0, 9)
    errors = []
    for step in (0.7, 0.6, 0.5, 0.4):
        monkeypatch.setattr(operators, "TRAPEZOID_STEP", step)
        errors.append(float(np.max(np.abs(quadrature_transform(psi, 0, xs) - psi(xs)))))
    assert all(a > b for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-12
