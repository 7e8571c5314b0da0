import math
import warnings

import numpy as np
import pytest

from matschroed.families import (
    ConsistencyError,
    FamilySpec,
    build_family,
    closed_form_N2,
    gamma_seq,
    weight_eval,
)
from matschroed.expansion import inner_product, inner_product_weighted
from matschroed.structmat import build_structured, nilpotent_series

SPECS = [
    FamilySpec(1, 2, [1.0]),
    FamilySpec(1, 3, [0.8, -1.3]),
    FamilySpec(2, 2, [1.0]),
    FamilySpec(2, 3, [0.8, -1.3]),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(3, 2, [1.0])
    with pytest.raises(ValueError):
        FamilySpec(1, 0, [])
    with pytest.raises(ValueError):
        FamilySpec(1, 3, [1.0])
    with pytest.raises(ValueError):
        FamilySpec(2, 3, [0.5, float("nan")])


def test_spec_json_roundtrip():
    spec = FamilySpec(2, 3, [0.5, -2.0])
    assert FamilySpec.from_json(spec.to_json()) == spec


def test_gamma_seq_values():
    g1 = gamma_seq(FamilySpec(1, 2, [1.0]), 4)
    np.testing.assert_allclose(g1, [1.0, 1.5, 2.0, 2.5, 3.0])
    g2 = gamma_seq(FamilySpec(2, 2, [2.0]), 4)
    np.testing.assert_allclose(g2, [1.0, 1.0, 3.0, 7.0, 13.0])
    with pytest.raises(ValueError):
        gamma_seq(FamilySpec(1, 3, [1.0, 1.0]), 2)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_weight_properties(spec):
    np.testing.assert_allclose(weight_eval(spec, 0.0), np.eye(spec.size), atol=1e-15)
    for x in (-2.0, 0.7, 3.1):
        W = weight_eval(spec, x)
        np.testing.assert_allclose(W, W.T, atol=1e-13)
        assert np.all(np.linalg.eigvalsh(W) > 0)


def test_weight_scalar_case_is_gaussian():
    spec = FamilySpec(1, 1, [])
    xs = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(weight_eval(spec, xs)[:, 0, 0], np.exp(-xs ** 2), atol=1e-15)


def inv_sqrt_power(A, power):
    """(I + A)^{-power/2} for nilpotent A, via the exact binomial series."""
    N = A.shape[0]
    alpha = power / 2.0
    # Taylor derivatives of (1+x)^{-alpha}: f^(j)(0) = (-1)^j alpha (alpha+1) ... (alpha+j-1)
    taylor = np.empty(N)
    taylor[0] = 1.0
    for j in range(1, N):
        taylor[j] = -taylor[j - 1] * (alpha + j - 1)
    return nilpotent_series(taylor, A)


def normalizer(A, kind, n):
    """The paper's leading coefficient L_n of P_n: e^{-A^2/4} (family 1), (I+A)^{-(2n+1)/2} (family 2)."""
    if kind == 1:
        return nilpotent_series([(-0.25) ** j for j in range(A.shape[0])], A @ A)
    return inv_sqrt_power(A, 2 * n + 1)


def test_inv_sqrt_power_against_dense():
    # (I + A)^{-p/2} squared p times reproduces (I + A)^{-p}
    sp = build_structured(4, [0.5, -1.0, 2.0])
    M = inv_sqrt_power(sp.A, 3)
    lhs = np.linalg.matrix_power(M, 2)
    rhs = np.linalg.inv(np.linalg.matrix_power(np.eye(4) + sp.A, 3))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_leading_coefficient_is_paper_normalizer(spec):
    ctx = build_family(spec, 6)
    for n in range(7):
        L = normalizer(ctx.structured.A, spec.kind, n)
        np.testing.assert_allclose(ctx.pn[n][n], L, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_weighted_orthogonality(spec):
    ctx = build_family(spec, 8)
    for n in range(9):
        for m in range(n):
            G = inner_product_weighted(ctx.pn[n], ctx.pn[m], spec)
            assert np.max(np.abs(G)) < 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_norms_diagonal_positive(spec):
    ctx = build_family(spec, 8)
    for n in range(9):
        G = inner_product_weighted(ctx.pn[n], ctx.pn[n], spec)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(G))
        assert np.all(np.real(np.diag(G)) > 0)
        np.testing.assert_allclose(np.diag(ctx.norms[n]), np.real(np.diag(G)), rtol=1e-10)


@pytest.mark.parametrize("kind", [1, 2])
def test_norm_closed_form_N2(kind):
    spec = FamilySpec(kind, 2, [1.0])
    ctx = build_family(spec, 8)
    g = gamma_seq(spec, 11)
    for n in range(9):
        base = math.factorial(n) * math.sqrt(math.pi) / 2 ** n
        if kind == 1:
            expected = base * np.array([g[n + 1], 1.0 / g[n]])
        else:
            expected = base * np.array([g[n + 2], 1.0 / g[n]])
        np.testing.assert_allclose(np.diag(ctx.norms[n]), expected, rtol=1e-10)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_orthonormality_identity_weight(spec):
    ctx = build_family(spec, 8)
    for n in range(9):
        for m in range(9):
            G = inner_product(ctx.phi_tilde[n], ctx.phi_tilde[m])
            expected = np.eye(spec.size) if n == m else np.zeros((spec.size, spec.size))
            assert np.max(np.abs(G - expected)) < 1e-10


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("nu1", [0.5, 1.0, 2.0])
def test_closed_form_matches_pipeline(kind, nu1):
    spec = FamilySpec(kind, 2, [nu1])
    ctx = build_family(spec, 8)
    xs = np.linspace(-4, 4, 17)
    for n in range(9):
        cf = closed_form_N2(spec, n)
        for x in xs:
            np.testing.assert_allclose(ctx.phi_tilde[n](x), cf(x), atol=1e-10)


def test_closed_form_rejects_wrong_size():
    with pytest.raises(ValueError):
        closed_form_N2(FamilySpec(1, 3, [1.0, 1.0]), 0)


def test_build_family_quad_order_validation():
    with pytest.raises(ValueError):
        build_family(FamilySpec(1, 2, [1.0]), -1)


@pytest.mark.parametrize("kind, N, n_max", [(1, 2, 40), (2, 8, 20)])
def test_orthonormality_at_the_frontier(kind, N, n_max):
    # the accuracy frontier of monomial storage, checked by point evaluation on
    # a uniform grid (trapezoidal rule), independent of the coefficient algebra
    ctx = build_family(FamilySpec(kind, N, [0.8] * (N - 1)), n_max)
    h = 0.05
    xs = h * np.arange(-360, 361)
    vals = np.stack([f(xs) for f in ctx.phi_tilde])  # (n, x, a, c)
    M = vals.transpose(0, 2, 1, 3).reshape((n_max + 1) * N, -1)
    G = h * M @ M.conj().T
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-6


@pytest.mark.parametrize("kind", [1, 2])
def test_orthonormality_at_n_max_200(kind):
    # the last 21 functions against all 201, by point values on a uniform grid
    # (trapezoidal rule) over [-30, 30]; the highest index present, psi_214,
    # turns at sqrt(429) ~ 20.7.  Summed in chunks of x to bound the memory.
    N, n_max = 8, 200
    ctx = build_family(FamilySpec(kind, N, [0.8] * (N - 1)), n_max)
    h = 0.05
    xs = h * np.arange(-600, 601)
    G = 0.0
    for lo in range(0, xs.size, 300):
        vals = np.stack([f(xs[lo : lo + 300]) for f in ctx.phi_tilde])  # (n, x, a, c)
        assert not vals.imag.any()  # real functions; the Gram below is real
        M = vals.real.transpose(0, 2, 1, 3).reshape((n_max + 1) * N, -1)
        G = G + h * M[-21 * N :] @ M.T
    assert np.max(np.abs(G - np.eye((n_max + 1) * N)[-21 * N :])) <= 1e-12


def test_consistency_error_names_spec_and_index():
    # with nu this large the small entries of the degree condition fall below
    # the rounding of its large ones, so its numerical null space is 2-dimensional
    with pytest.raises(ConsistencyError, match=r"kind 1, N=3, nu=\(100000000\.0, 100000000\.0\), n=0, row 0"):
        build_family(FamilySpec(1, 3, [1e8, 1e8]), 0)
    # the first failure in n order: row 1 fails at n=4, before row 0 fails at n=6
    with pytest.raises(ConsistencyError, match=r"kind 2, N=8, nu=\(30\.0(, 30\.0){6}\), n=4, row 1:"):
        build_family(FamilySpec(2, 8, (30.0,) * 7), 10)


def test_log_norms_finite_where_norms_overflow():
    # ||P_n||^2 = n! sqrt(pi) / (2^n c_r^2) leaves the double range near n = 190
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = build_family(FamilySpec(2, 8, [0.8] * 7), 200)
    assert ctx.log_norms.shape == (201, 8)
    assert np.all(np.isfinite(ctx.log_norms))
    big = ctx.log_norms[200] > math.log(np.finfo(float).max)  # rows 0-4 here
    assert big.any()
    assert np.array_equal(np.isinf(np.diag(ctx.norms[200])), big)
    np.testing.assert_allclose(np.diag(ctx.norms[100]), np.exp(ctx.log_norms[100]), rtol=1e-14)


def test_null_margin_flags_the_barely_determined_rows():
    # second-smallest over largest singular value of each row's degree condition
    near = build_family(FamilySpec(2, 8, [10.0] * 7), 16)  # the last n_max that builds at nu = 10
    assert near.null_margin.shape == (17, 8)
    assert near.null_margin.min() < 1e-12
    safe = build_family(FamilySpec(2, 8, [0.8] * 7), 20)
    assert safe.null_margin.min() > 1e-9
    assert np.all(safe.null_margin <= 1.0)
    assert np.all(build_family(FamilySpec(1, 1, []), 3).null_margin == 1.0)  # one unknown per row


def test_build_family_scalar_reduces_to_hermite():
    # N = 1: P_n must be H_n / 2^n, the monic orthogonal family for e^{-x^2}
    from matschroed.hermite import hermite_phys

    ctx = build_family(FamilySpec(1, 1, []), 6)
    for n in range(7):
        np.testing.assert_allclose(
            ctx.pn[n][:, 0, 0], np.array(hermite_phys(n)) / 2.0 ** n, atol=1e-12
        )
