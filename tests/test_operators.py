import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from hermite_reference import wave_poly
from matschroed import operators
from matschroed.cli import DEFAULT_TOL, check_lines
from matschroed.expansion import _gram_blocks, matrix_element
from matschroed.families import FamilySpec, build_family
from matschroed.matpoly import MatrixGaussian
from matschroed.operators import (
    POINTWISE_GRID,
    TRAPEZOID_STEP,
    fourier_eigen_residual,
    orthonormality_residual,
    potential_shift,
    quadrature_transform,
    real_integral_residual,
    schrodinger_apply,
    schrodinger_residual,
    three_term_residual,
    transform_apply,
)
from matschroed.structmat import phase_diag, trig_diag

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
    rep = schrodinger_residual(contexts[spec])
    assert rep.relative.shape == (9,)
    assert rep.passed(1e-9).all(), (rep.variant, rep.relative)


def test_schrodinger_scalar_case():
    # N = 1 reduces to the classical harmonic oscillator equation
    ctx = build_family(FamilySpec(1, 1, []), 5)
    assert schrodinger_residual(ctx).passed(1e-11).all()


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_fourier_eigen_equation(contexts, spec):
    rep = fourier_eigen_residual(contexts[spec])
    assert rep.passed(1e-9).all(), (rep.variant, rep.relative)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_fourier_eigen_against_quadrature(contexts, spec):
    # the transform itself, replayed through the independent quadrature oracle
    ctx = contexts[spec]
    k = spec.kind
    xs = np.linspace(-5, 5, 21)
    for n in (0, 3, 8):
        phi = ctx.phi_tilde[n]
        lhs = quadrature_transform(phi, k, xs)
        rhs = np.einsum("ab,xbc->xac", (1j) ** n * phase_diag(spec.size, k), phi(xs))
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, phi.max_abs())


def reflected(f, kind, n):
    """(-1)^n f(-x), times e^{i pi J} on both sides for family 1."""
    refl = f.reflect().scale((-1.0) ** n)
    if kind == 1:
        E = phase_diag(f.size, 2).real  # +-1
        refl = refl.left_mul(E).right_mul(E)
    return refl


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("table", ["phi_tilde", "pn"], ids=["phi", "poly"])
def test_reflection_symmetry(contexts, spec, table):
    # exact: entry (r, a) of Phi-tilde_n and of P_n e^{-x^2/2} only holds psi_m with m of the parity of n + kind (a - r)
    for n, f in enumerate(getattr(contexts[spec], table)):
        assert (f - reflected(f, spec.kind, n)).max_abs() == 0.0, (n, table)


@pytest.mark.parametrize("spec", [SPECS[0], SPECS[1], SPECS[2]], ids=str)
@pytest.mark.parametrize("form", ["even", "odd"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_real_integral_equations_family1(contexts, spec, form, sign):
    rep = real_integral_residual(contexts[spec], form=form, sign=sign)
    assert np.all(rep.relative < 1e-8), (rep.variant, rep.relative)


@pytest.mark.parametrize("spec", [SPECS[3], SPECS[4]], ids=str)
def test_real_integral_equations_family2(contexts, spec):
    rep = real_integral_residual(contexts[spec])
    assert np.all(rep.relative < 1e-8), (rep.variant, rep.relative)


def test_real_integral_bad_form():
    ctx = build_family(FamilySpec(1, 2, [1.0]), 0)
    with pytest.raises(ValueError):
        real_integral_residual(ctx, form="bogus")


def dense_orthonormality(ctx):
    """|Gram - I| of the Parseval Gram of every Phi-tilde_n pair, each pair counted at its later index."""
    n_max, N = ctx.n_max, ctx.size
    gram = _gram_blocks(ctx.phi_tilde, ctx.phi_tilde)
    err = np.abs(gram - np.eye(n_max + 1)[:, :, None, None] * np.eye(N)).max(axis=(2, 3))
    return np.array([max(err[n, : n + 1].max(), err[: n + 1, n].max()) for n in range(n_max + 1)])


@pytest.mark.parametrize("n_max", [0, 1, 10, 60])
@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("kind", [1, 2])
def test_orthonormality_from_alpha_matches_the_dense_gram(kind, N, n_max):
    ctx = build_family(FamilySpec(kind, N, np.resize([0.8, -1.3, 0.6, 1.1], N - 1)), n_max)
    rep = orthonormality_residual(ctx)
    assert rep.variant == "orthonormality" and rep.relative.shape == (n_max + 1,)
    np.testing.assert_allclose(rep.relative, dense_orthonormality(ctx), rtol=0, atol=1e-15)


def orthonormality_line(ctx, alpha):
    """The `orthonormality` line of `check_lines` and the dense Gram residual of a family whose table is alpha."""
    changed = dataclasses.replace(ctx, alpha=alpha)
    name, residual, limit = next(check_lines(changed, DEFAULT_TOL, 42))
    assert name == "orthonormality"
    return residual, limit, dense_orthonormality(changed).max()


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("kind", [1, 2])
def test_orthonormality_line_sees_a_rotation_of_alpha(kind, N):
    # rows 0 and 1 of alpha[5] turned by 1e-6 stay unit vectors to first order, but lose orthogonality to
    # the rows of n = 5 - kind with the same eigenvalue: the line reads ~1e-6, as the dense Gram of the placement does
    ctx = build_family(FamilySpec(kind, N, np.resize([0.8, -1.3, 0.6, 1.1], N - 1)), 10)
    c, s = np.cos(1e-6), np.sin(1e-6)
    alpha = ctx.alpha.copy()
    alpha[5, 0], alpha[5, 1] = c * ctx.alpha[5, 0] - s * ctx.alpha[5, 1], s * ctx.alpha[5, 0] + c * ctx.alpha[5, 1]
    residual, limit, dense = orthonormality_line(ctx, alpha)
    assert 1e-7 < residual and residual >= limit
    assert residual == pytest.approx(dense, rel=0, abs=1e-15)


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("kind", [1, 2])
def test_orthonormality_line_sees_a_row_off_unit_length(kind, N):
    # at N = 1 no two rows share a psi index, so only the diagonal |alpha[n, r]|^2 - 1 sees this
    ctx = build_family(FamilySpec(kind, N, np.resize([0.8, -1.3], N - 1)), 10)
    alpha = ctx.alpha.copy()
    alpha[5, N - 1] *= 1.0 + 1e-6
    residual, limit, dense = orthonormality_line(ctx, alpha)
    assert residual == pytest.approx(2e-6, rel=1e-5) and residual >= limit
    assert residual == pytest.approx(dense, rel=0, abs=1e-15)


@pytest.mark.parametrize("N", range(1, 7))
def test_row_coverage(N):
    # the front multipliers C_+ = cos((pi/2)J) and C_- = sin((pi/2)J) of the real equations split the rows of P_n
    cos_rows, sin_rows = (set(np.flatnonzero(np.diag(trig_diag(N, kind)))) for kind in ("cos", "sin"))
    assert cos_rows | sin_rows == set(range(N))
    assert cos_rows.isdisjoint(sin_rows)


def test_transform_inverse_roundtrip():
    rng = np.random.default_rng(21)
    f = MatrixGaussian.from_poly(rng.standard_normal((9, 3, 3)))
    g = transform_apply(transform_apply(f, 1), 1, direction=-1)
    assert (g - f).max_abs() < 1e-12 * f.max_abs()


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("direction", [1, -1])
def test_transform_is_the_fourier_phase_then_i_kJ(kind, direction):
    # one phase i^{direction (m + kJ_b)} per coefficient, exactly the product of the two exact factors
    rng = np.random.default_rng(22)
    for N in (1, 3, 8):
        real = rng.standard_normal((12, N, N))
        for f in (MatrixGaussian(real), MatrixGaussian(real + 1j * rng.standard_normal((12, N, N)))):
            ref = f.fourier(direction).right_mul(phase_diag(N, direction * kind))
            got = transform_apply(f, kind, direction)
            assert got.coeffs.dtype == np.complex128
            np.testing.assert_array_equal(got.coeffs, ref.coeffs)
    with pytest.raises(ValueError, match="direction"):
        transform_apply(f, kind, direction=2)


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


# -- the per-n MatrixGaussian algebra, as the reference for the batched residuals


def reference_lines(ctx, n):
    """Every batched line at index n, from Phi-tilde_n = ctx.phi_tilde[n] alone: {name: (relative, absolute, scale)}.

    A coefficient-space line is relative to max |coefficient| of its function
    (absolute and scale None); a pointwise one to scale = max(1, max
    |Phi-tilde_n|) at its points, and absolute is its largest residual there.
    The three-term line exists for n < n_max only.
    """
    k, N = ctx.spec.kind, ctx.size
    phi = ctx.phi_tilde[n]
    lines = {}

    def coefficient_line(name, residual, f):
        lines[name] = (residual.max_abs() / f.max_abs(), None, None)

    def pointwise_line(name, lhs, rhs, values):
        resid, scale = float(np.max(np.abs(lhs - rhs))), max(1.0, float(np.max(np.abs(values))))
        lines[name] = (resid / scale, resid, scale)

    c, J = potential_shift(k), ctx.structured.J
    coefficient_line("schrodinger", schrodinger_apply(phi, J, c) + phi.left_mul((2 * n + 1) * np.eye(N) + c * J), phi)
    at = phi(POINTWISE_GRID)
    pointwise_line("fourier", quadrature_transform(phi, k, POINTWISE_GRID), (1j) ** n * phase_diag(N, k) @ at, at)
    if n < ctx.n_max:
        x, pt = POINTWISE_GRID, ctx.phi_tilde
        rhs = sum(matrix_element(ctx, 1, n, m) @ pt[m](x) for m in range(max(0, n - 1), n + 2))
        pointwise_line("three_term", x[:, None, None] * pt[n](x), rhs, pt[n](x))

    t = operators._trapezoid_nodes(phi.degree)
    vals, xs = phi(t), POINTWISE_GRID

    def integral(kernel):
        return TRAPEZOID_STEP * np.einsum("xi,iab->xab", kernel(np.outer(xs, t)), vals)

    E, I = phase_diag(N, 2).real, np.eye(N)
    phi_vals = phi(xs)
    if k == 2:
        lhs = E @ phi_vals
        kernel = np.cos if n % 2 == 0 else np.sin
        rhs = ((-1.0) ** (n // 2) / np.sqrt(2.0 * np.pi)) * integral(kernel) @ E
        sides = {("even", 1): (lhs, rhs)}
    else:
        sides = {}
        for s in (1.0, -1.0):
            Cp, Cm = trig_diag(N, "cos"), trig_diag(N, "sin")
            right = Cp if s > 0 else Cm
            lhs = (E + s * I) @ phi_vals @ right
            rhs = right @ integral(np.cos if n % 2 == 0 else np.sin) @ (E + s * I)
            sides["even", s] = (lhs, ((-1.0) ** (n // 2) / np.sqrt(2.0 * np.pi)) * rhs)
            lhs = (E + s * I) @ phi_vals @ (Cm if s > 0 else Cp)
            rhs = (Cp if s > 0 else Cm) @ integral(np.cos if (n + 1) % 2 == 0 else np.sin) @ (E - s * I)
            sides["odd", s] = (lhs, (s * (-1.0) ** ((n + 1) // 2) / np.sqrt(2.0 * np.pi)) * rhs)
    for (form, s), (lhs, rhs) in sides.items():
        pointwise_line(f"real_{form}_{s:+.0f}", lhs, rhs, phi_vals)
    return lines


def batched_lines(ctx):
    """The same lines from the whole-family residuals: {name: relative}, indexed by n."""
    reports = {"schrodinger": schrodinger_residual(ctx), "fourier": fourier_eigen_residual(ctx)}
    if ctx.n_max > 0:
        reports["three_term"] = three_term_residual(ctx)
    variants = [("even", 1), ("even", -1), ("odd", 1), ("odd", -1)] if ctx.spec.kind == 1 else [("even", 1)]
    for form, s in variants:
        reports[f"real_{form}_{s:+.0f}"] = real_integral_residual(ctx, form, s)
    return {name: rep.relative for name, rep in reports.items()}


@pytest.mark.parametrize("n_max", [0, 1, 10, 40])
@pytest.mark.parametrize("N", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", [1, 2])
def test_batched_residuals_match_the_per_n_algebra(kind, N, n_max):
    ctx = build_family(FamilySpec(kind, N, [0.8, -1.3, 0.6, 1.1][: N - 1]), n_max)
    batched = batched_lines(ctx)
    for n in range(n_max + 1):
        reference = reference_lines(ctx, n)
        assert reference.keys() == batched.keys() - ({"three_term"} if n == n_max else set())
        for name, (relative, absolute, scale) in reference.items():
            got = batched[name][n]
            assert len(batched[name]) == n_max + (name != "three_term")
            assert abs(got - relative) <= 1e-14, (name, n, got, relative)
            if scale is not None:  # a pointwise line reports its absolute residual, as |Phi-tilde_n(x)| < 1
                assert abs(got - absolute) <= 1e-14 * scale and scale == 1.0, (name, n, got, absolute, scale)


def peak_bytes(f, *args):
    """f(*args) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_psi_tables_peak_memory_at_n_max_400():
    # one node range for every psi_m and one product with the psi table at its nodes (5 MB here); 5.5 MB measured
    ctx = build_family(FamilySpec(1, 8, [0.8] * 7), 400)
    operators._psi_tables.cache_clear()
    rep, peak = peak_bytes(fourier_eigen_residual, ctx)
    assert rep.passed(DEFAULT_TOL).all()
    assert peak < 25e6, peak


def test_schrodinger_peak_memory_at_n_max_400():
    # three psi rows per entry of alpha, O(n_max N^2): 5.3 MB measured
    ctx = build_family(FamilySpec(2, 8, [0.1, -0.1] * 3 + [0.1]), 400)
    rep, peak = peak_bytes(schrodinger_residual, ctx)
    assert rep.passed(DEFAULT_TOL).all()
    assert peak <= 8e6, peak


def test_psi_tables_are_made_once_for_a_family_and_its_copies(monkeypatch):
    # the tables are kept per psi-degree, not per family: a `dataclasses.replace` copy reads the same ones
    calls = []
    nodes = operators._trapezoid_nodes
    monkeypatch.setattr(operators, "_trapezoid_nodes", lambda degree: calls.append(degree) or nodes(degree))
    operators._psi_tables.cache_clear()
    ctx = build_family(FamilySpec(2, 3, [0.8, -1.3]), 12)
    for c in (ctx, dataclasses.replace(ctx), dataclasses.replace(ctx, alpha=-ctx.alpha)):
        for line in (fourier_eigen_residual, three_term_residual, real_integral_residual):
            line(c)
    assert calls == [12 + 2 * 2]
    assert operators._psi_tables.cache_info().currsize == 1


RESIDUALS = {
    "orthonormality": operators.orthonormality_residual,
    "schrodinger_kind1": schrodinger_residual,
    "fourier_eigen_k1": fourier_eigen_residual,
    "three_term_kind1": three_term_residual,
    "real_int_kind1_even_+": real_integral_residual,
}


@pytest.mark.parametrize("variant", RESIDUALS)
def test_residuals_of_a_non_finite_alpha_name_the_index(variant):
    # every line reads alpha or Phi-tilde_n, which stay finite for any n, so only a bad alpha makes a residual
    # non-finite; one NaN in alpha[5] reaches n = 4 first in the three-term line, which reads Phi-tilde_{n+1}
    ctx = build_family(FamilySpec(1, 3, [0.8, -1.3]), 8)
    alpha = ctx.alpha.copy()
    alpha[5, 1, 2] = np.nan
    bad = dataclasses.replace(ctx, alpha=alpha)
    n = 4 if variant.startswith("three_term") else 5
    message = rf"^kind 1, N=3, nu=\(0.8, -1.3\), n={n}: the {re.escape(variant)} residual is not finite$"
    with pytest.raises(ValueError, match=message):
        RESIDUALS[variant](bad)


@pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("N", [2, 3, 5, 8])
@pytest.mark.parametrize("kind", [1, 2])
def test_real_integral_is_at_most_twice_fourier_eigen(monkeypatch, kind, N, noise):
    # both lines read the one gap per psi_m of `_psi_tables`: real_integral |front alpha Re/Im(gap) back| with
    # |front| <= 1 and |back| <= 2, fourier_eigen |alpha gap|; so per n the relation holds for any gap, here with
    # complex noise added to it
    ctx = build_family(FamilySpec(kind, N, np.resize([0.8, -1.3, 0.6, 1.1], N - 1)), 30)
    gap, values = operators._psi_tables(30 + kind * (N - 1), TRAPEZOID_STEP)
    rng = np.random.default_rng([kind, N])
    noisy = gap + noise * (rng.standard_normal(gap.shape) + 1j * rng.standard_normal(gap.shape))
    monkeypatch.setattr(operators, "_psi_tables", lambda top, step: (noisy, values))
    fourier = fourier_eigen_residual(ctx).relative
    assert noise == 0.0 or fourier.min() > noise / 10
    for form, sign in [("even", 1), ("even", -1), ("odd", 1), ("odd", -1)] if kind == 1 else [("even", 1)]:
        real = real_integral_residual(ctx, form, sign).relative
        assert np.all(real <= 2.0 * fourier), (form, sign, np.max(real / fourier))
