import numpy as np
import pytest

from matschroed.families import FamilySpec, build_family, gamma_seq
from matschroed.hermite import wave_function, wave_poly, wave_table
from matschroed.matpoly import MatrixGaussian
from matschroed.operators import quadrature_transform
from matschroed.structmat import phase_diag


def random_mg(rng, degree, N):
    return MatrixGaussian.from_poly(
        rng.standard_normal((degree + 1, N, N)) + 1j * rng.standard_normal((degree + 1, N, N))
    )


def test_eval_identity_coefficient():
    f = MatrixGaussian.from_poly(np.eye(2)[None])
    np.testing.assert_array_equal(f(0.0), np.eye(2))


def test_eval_matches_normalized_family_at_zero():
    spec = FamilySpec(1, 2, [1.0])
    ctx = build_family(spec, 0)
    g = gamma_seq(spec, 2)
    val = ctx.phi_tilde[0](0.0)
    assert abs(val[0, 0] - wave_function(0, 0.0) / np.sqrt(g[1])) < 1e-14
    assert abs(val[1, 1] - wave_function(0, 0.0) / np.sqrt(g[0])) < 1e-14


def test_eval_matches_naive_sum():
    rng = np.random.default_rng(3)
    p = rng.standard_normal((7, 3, 3)) + 1j * rng.standard_normal((7, 3, 3))
    f = MatrixGaussian.from_poly(p)
    x = 1.3
    naive = sum(p[j] * x ** j for j in range(7)) * np.exp(-x * x / 2)
    np.testing.assert_allclose(f(x), naive, atol=1e-14)


def test_add_cancel_gives_zero():
    rng = np.random.default_rng(4)
    f = random_mg(rng, 5, 2)
    z = f + f.scale(-1.0)
    assert z.degree == 0
    assert z.max_abs() == 0.0


def test_phase_left_mul_inverse():
    rng = np.random.default_rng(5)
    f = random_mg(rng, 4, 2)
    g = f.left_mul(phase_diag(2, 1)).left_mul(phase_diag(2, 3))
    assert (f - g).max_abs() < 1e-15


def test_poly_mul_pointwise():
    rng = np.random.default_rng(6)
    f = random_mg(rng, 5, 2)
    g = f.poly_mul([0.0, 0.0, 1.0])
    for x in np.linspace(-2.5, 2.5, 10):
        np.testing.assert_allclose(g(x), x * x * f(x), atol=1e-13)


def test_size_mismatch_raises():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        random_mg(rng, 2, 2) + random_mg(rng, 2, 3)


def test_derivative_of_gaussian():
    f = MatrixGaussian.from_poly(np.eye(2)[None])
    df = f.differentiate()
    # -x I e^{-x^2/2}
    expected = MatrixGaussian.from_poly([0 * np.eye(2), -np.eye(2)])
    np.testing.assert_allclose(df.coeffs, expected.coeffs, atol=1e-15)
    d2f = df.differentiate()
    # (x^2 - 1) I e^{-x^2/2}
    expected = MatrixGaussian.from_poly([-np.eye(2), 0 * np.eye(2), np.eye(2)])
    np.testing.assert_allclose(d2f.coeffs, expected.coeffs, atol=1e-15)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(8)
    f = random_mg(rng, 7, 3)
    df = f.differentiate()
    h = 1e-5
    x = 0.7
    fd = (f(x + h) - f(x - h)) / (2 * h)
    np.testing.assert_allclose(df(x), fd, atol=1e-8)


def test_fourier_gaussian_invariant():
    f = MatrixGaussian.from_poly(np.eye(3)[None])
    assert (f.fourier(1) - f).max_abs() < 1e-15


def test_fourier_degree_one():
    # (t I) e^{-t^2/2} -> (i x I) e^{-x^2/2}
    c = np.zeros((2, 2, 2), dtype=complex)
    c[1] = np.eye(2)
    g = MatrixGaussian.from_poly(c).fourier(1)
    np.testing.assert_allclose(g.coeffs, MatrixGaussian.from_poly(1j * c).coeffs, atol=1e-15)
    assert np.max(np.abs(g.coeffs[0])) < 1e-15


def test_fourier_matches_quadrature_oracle():
    rng = np.random.default_rng(9)
    f = random_mg(rng, 7, 2)
    g = f.fourier(1)
    for x in (-3.0, -1.0, 0.0, 2.0):
        q = quadrature_transform(f, 0, x)
        np.testing.assert_allclose(g(x), q, atol=1e-9)


def test_fourier_roundtrip_and_order_four():
    rng = np.random.default_rng(10)
    for N in (2, 5):
        f = random_mg(rng, 7, N)
        assert (f.fourier(1).fourier(-1) - f).max_abs() < 1e-12 * f.max_abs()
        g = f
        for _ in range(4):
            g = g.fourier(1)
        assert (g - f).max_abs() < 1e-12 * f.max_abs()


def test_fourier_preserves_parity():
    rng = np.random.default_rng(11)
    c = np.zeros((7, 2, 2), dtype=complex)
    c[1::2] = rng.standard_normal((3, 2, 2))  # odd function
    g = MatrixGaussian(c).fourier(1)
    assert np.max(np.abs(g.coeffs[0::2])) < 1e-13


def test_fourier_derivative_rule():
    # transform of f' equals (-ix) times transform of f (kernel e^{ixt})
    rng = np.random.default_rng(12)
    f = random_mg(rng, 6, 2)
    lhs = f.differentiate().fourier(1)
    rhs = f.fourier(1).poly_mul([0.0, -1j])
    for x in (-2.0, 0.3, 1.7):
        np.testing.assert_allclose(lhs(x), rhs(x), atol=1e-9)


def test_trailing_trim():
    c = np.zeros((5, 2, 2), dtype=complex)
    c[0] = np.eye(2)
    c[4] = 1e-16
    assert MatrixGaussian(c).degree == 0
    # the trim is relative to each degree's L^2 size, not absolute
    c[2] = np.eye(2)
    assert MatrixGaussian(1e-15 * c).degree == 2
    assert MatrixGaussian.from_poly(wave_poly(40)[:, None, None]).degree == 40


@pytest.mark.parametrize(
    "x, problem",
    [
        (np.nan, "finite"),
        ([0.0, np.inf], "finite"),
        (np.array([1.0, -np.inf, 2.0]), "finite"),
        (np.zeros((2, 3)), "1-d"),
        (1.0 + 0.5j, "real"),
        (np.array([0.5, 1.0], dtype=complex), "real"),
    ],
    ids=["nan", "inf", "-inf", "2-d", "complex scalar", "complex array"],
)
@pytest.mark.parametrize("method", ["__call__", "poly_at"])
def test_bad_evaluation_points_raise(x, problem, method):
    f = random_mg(np.random.default_rng(13), 3, 2)
    with pytest.raises(ValueError, match=problem):
        getattr(f, method)(x)


def test_value_and_polynomial_part_keep_separate_tables():
    rng = np.random.default_rng(14)
    p = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    f = MatrixGaussian.from_poly(p)
    x = np.linspace(-3, 3, 25)
    poly = sum(p[j] * (x**j)[:, None, None] for j in range(5))
    for _ in range(2):  # alternate on one grid
        np.testing.assert_allclose(f(x), poly * np.exp(-x * x / 2)[:, None, None], atol=1e-12)
        np.testing.assert_allclose(f.poly_at(x), poly, rtol=1e-12, atol=1e-12)


def test_values_are_fresh_writable_arrays():
    rng = np.random.default_rng(15)
    f, g = random_mg(rng, 6, 3), random_mg(rng, 4, 3)
    x = np.linspace(-4, 4, 33)
    a, b = f(x), g(x)
    table = wave_table(f.degree, x)  # the table the two calls shared
    assert not table.flags.writeable
    for out in (a, b):
        assert out.flags.writeable
        assert not np.shares_memory(out, table)
    assert not np.shares_memory(a, b)
    ref = a.copy()
    a[:] = 0.0
    np.testing.assert_array_equal(f(x), ref)
