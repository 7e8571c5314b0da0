import numpy as np
import pytest

from matschroed.expansion import CoefficientExpansion, band_pattern, expand, inner_product, matrix_element, reconstruct
from matschroed.families import FamilySpec, build_family, closed_form_N2, gamma_seq
from matschroed.hermite import wave_function, wave_poly, wave_table
from matschroed.matpoly import MatrixGaussian
from matschroed.operators import quadrature_transform, transform_apply
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


@pytest.mark.parametrize(
    "coeffs, problem",
    [
        (np.array([[[np.nan]]]), r"finite, got nan at index \(0, 0, 0\)"),
        (np.array([[[1.0, 2.0], [3.0, 4.0]], [[0.0, np.inf], [-np.inf, 0.0]]]), r"got inf at index \(1, 0, 1\)"),
        (np.array([[[0.0, complex(1.0, -np.inf)], [0.0, 1j]]]), r"finite, .* at index \(0, 0, 1\)"),
        (np.ones((1, 2, 2), dtype=bool), "numbers, got dtype bool"),
        (np.ones((1, 2, 2), dtype=object), "numbers, got dtype object"),
        (np.array([[["1.0"]]]), "numbers, got dtype <U3"),
    ],
    ids=["nan", "first-of-two-inf", "complex-inf", "bool", "object", "str"],
)
def test_bad_coefficients_raise(coeffs, problem):
    # Phi_n and P_n past the double range raise `families._finite`'s message first
    # (tests/test_families.py::test_no_overflow_up_to_n_max_400)
    with pytest.raises(ValueError, match=problem):
        MatrixGaussian(coeffs)


@pytest.fixture(scope="module")
def family():
    return build_family(FamilySpec(1, 3, [0.8, -1.3]), 6)


X = np.linspace(-4.0, 4.0, 9)
REAL, COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)
RNG = np.random.default_rng(16)
REAL_C = RNG.standard_normal((7, 3, 3))
COMPLEX_C = REAL_C + 1j * RNG.standard_normal((7, 3, 3))
DTYPES = {
    "phi_tilde": (lambda ctx, f: f, REAL),
    "phi": (lambda ctx, f: ctx.phi[4], REAL),
    "phi_tilde values": (lambda ctx, f: f(X), REAL),
    "phi values": (lambda ctx, f: ctx.phi[4](X), REAL),
    "polynomial part": (lambda ctx, f: f.poly_at(X), REAL),
    "closed_form_N2": (lambda ctx, f: closed_form_N2(FamilySpec(2, 2, [0.7]), 5), REAL),
    "integer input": (lambda ctx, f: MatrixGaussian(np.arange(8).reshape(2, 2, 2)), REAL),
    "from_poly": (lambda ctx, f: MatrixGaussian.from_poly(np.arange(8).reshape(2, 2, 2)), REAL),
    "zero": (lambda ctx, f: MatrixGaussian.zero(3), REAL),
    "reflect": (lambda ctx, f: f.reflect(), REAL),
    "differentiate": (lambda ctx, f: f.differentiate(), REAL),
    "poly_mul": (lambda ctx, f: f.poly_mul([0.5, 0, 2]), REAL),
    "scale": (lambda ctx, f: f.scale(-2.5), REAL),
    "left_mul": (lambda ctx, f: f.left_mul(REAL_C[0]), REAL),
    "right_mul": (lambda ctx, f: f.right_mul(REAL_C[1]), REAL),
    "add": (lambda ctx, f: f + ctx.phi[2], REAL),
    "sub": (lambda ctx, f: f - ctx.phi[2], REAL),
    "conj_transpose": (lambda ctx, f: f.conj_transpose(), REAL),
    "inner_product": (lambda ctx, f: inner_product(f, ctx.phi[2]), REAL),
    "matrix_element": (lambda ctx, f: matrix_element(ctx, 1, 4, 5), REAL),
    "matrix_element zero": (lambda ctx, f: matrix_element(ctx, 1, 0, 5), REAL),
    "band_pattern flat": (lambda ctx, f: band_pattern(ctx, 1).flat, REAL),
    "band_pattern blocks": (lambda ctx, f: band_pattern(ctx, 2).blocks, REAL),
    "reconstruct real": (lambda ctx, f: reconstruct(CoefficientExpansion(ctx.spec, 6, REAL_C), ctx), REAL),
    "expand real": (lambda ctx, f: expand(ctx.phi[3], ctx).coeffs, REAL),
    "fourier": (lambda ctx, f: f.fourier(), COMPLEX),
    "transform_apply": (lambda ctx, f: transform_apply(f, 1), COMPLEX),
    "scale(1j)": (lambda ctx, f: f.scale(1j), COMPLEX),
    "left_mul complex": (lambda ctx, f: f.left_mul(COMPLEX_C[0]), COMPLEX),
    "poly_mul complex": (lambda ctx, f: f.poly_mul([0, 1j]), COMPLEX),
    "complex values": (lambda ctx, f: MatrixGaussian(f.coeffs + 0j)(X), COMPLEX),
    "reconstruct complex": (lambda ctx, f: reconstruct(CoefficientExpansion(ctx.spec, 6, COMPLEX_C), ctx), COMPLEX),
    "expand complex": (lambda ctx, f: expand(MatrixGaussian(f.coeffs + 0j), ctx).coeffs, COMPLEX),
}


@pytest.mark.parametrize("name", DTYPES)
def test_dtype_follows_the_data(family, name):
    # real data stays float64; only complex input, a complex factor or the transform make complex128
    make, dtype = DTYPES[name]
    out = make(family, family.phi_tilde[4])
    assert (out.coeffs if isinstance(out, MatrixGaussian) else out).dtype == dtype


def test_real_and_complex_paths_agree(family):
    # the same complex data with every imaginary part 0, through the complex paths
    C = REAL_C[: family.n_max + 1]
    real = reconstruct(CoefficientExpansion(family.spec, 6, C), family)
    cplx = reconstruct(CoefficientExpansion(family.spec, 6, C + 0j), family)
    np.testing.assert_array_equal(cplx.coeffs, real.coeffs)
    np.testing.assert_array_equal(expand(MatrixGaussian(real.coeffs + 0j), family).coeffs, expand(real, family).coeffs)


@pytest.mark.parametrize("N, n_max", [(1, 200), (2, 200), (5, 200), (8, 200)])
@pytest.mark.parametrize("kind", [1, 2])
def test_real_evaluation_matches_complex_path(kind, N, n_max):
    nu = np.resize([0.8, -0.6, 0.9, 0.7], N - 1)
    ctx = build_family(FamilySpec(kind, N, nu), n_max)
    xs = np.linspace(-12.0, 12.0, 801)
    for table in (ctx.phi_tilde, ctx.phi):
        for n in (0, 1, n_max // 2, n_max):
            f = table[n]
            c = MatrixGaussian(f.coeffs + 0j)
            for real, cplx in ((f(xs), c(xs)), (f.poly_at(xs[::50]), c.poly_at(xs[::50]))):
                assert real.dtype == REAL and cplx.dtype == COMPLEX
                assert not cplx.imag.any()
                assert np.max(np.abs(real - cplx.real)) <= 1e-15 * np.max(np.abs(real)), n
