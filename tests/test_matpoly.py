import numpy as np
import pytest

from hermite_reference import wave_poly
from matschroed.expansion import CoefficientExpansion, band_pattern, expand, inner_product, matrix_element, reconstruct
from matschroed.families import FamilySpec, build_family, closed_form_N2, gamma_seq
from matschroed.hermite import wave_functions, wave_table
from matschroed.matpoly import MatrixGaussian, ladder, ladder_band
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
    psi0 = wave_functions(0, np.atleast_1d(0.0))[0, 0]
    assert abs(val[0, 0] - psi0 / np.sqrt(g[1])) < 1e-14
    assert abs(val[1, 1] - psi0 / np.sqrt(g[0])) < 1e-14


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


@pytest.mark.parametrize("m_max, steps", [(0, 0), (0, 3), (1, 4), (3, 1), (10, 2), (60, 14)])
def test_ladder_band_matches_dense_ladder(m_max, steps):
    # reference: x^j applied by `ladder` to the dense unit vectors, read along the band
    band = ladder_band(m_max, steps)
    assert band.shape == (steps + 1, m_max + 1, 2 * steps + 1)
    power = np.eye(m_max + 1)  # column m: psi-coefficients of x^j psi_m
    m = np.arange(m_max + 1)[:, None]
    q = m + np.arange(-steps, steps + 1)  # psi index of band[j, m, o]
    for j in range(steps + 1):
        inside = (q >= 0) & (q < power.shape[0])
        np.testing.assert_array_equal(band[j], np.where(inside, power[np.clip(q, 0, power.shape[0] - 1), m], 0.0))
        power = ladder(power)


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


@pytest.mark.parametrize("kind", [1, 2])
def test_eval_starts_at_the_lowest_nonzero_row(kind):
    # Phi-tilde_n has no psi-coefficient below psi_{n-D}, nor of the other parity at kind 2; evaluation skips those rows
    ctx = build_family(FamilySpec(kind, 3, [0.8, -1.3]), 12)
    D = kind * 2
    x = np.linspace(-5.0, 5.0, 41)
    psi = wave_table(ctx.n_max + D, x)
    for n, f in enumerate(ctx.phi_tilde):
        assert f.lo == (n - D if n >= D else (n - D) % kind) and not f.coeffs[: f.lo].any()
        full = np.einsum("jx,jab->xab", psi[: f.degree + 1], f.coeffs)
        np.testing.assert_allclose(f(x), full, rtol=0, atol=1e-14)
    zero = MatrixGaussian.zero(2)
    assert zero.lo == 0 and not zero(x).any()
    shifted = MatrixGaussian(np.concatenate([np.zeros((5, 2, 2)), np.ones((1, 2, 2)) * (1 + 2j)]))
    assert shifted.lo == 5
    np.testing.assert_array_equal(shifted(x), psi[5][:, None, None] * np.full((2, 2), 1 + 2j))


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
    "phi": (lambda ctx, f: f.left_mul(np.diag(np.exp(0.5 * ctx.log_norms[4]))), REAL),  # Phi_4
    "phi_tilde values": (lambda ctx, f: f(X), REAL),
    "phi values": (lambda ctx, f: f.left_mul(np.diag(np.exp(0.5 * ctx.log_norms[4])))(X), REAL),
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
    "add": (lambda ctx, f: f + ctx.phi_tilde[2], REAL),
    "sub": (lambda ctx, f: f - ctx.phi_tilde[2], REAL),
    "inner_product": (lambda ctx, f: inner_product(f, ctx.phi_tilde[2]), REAL),
    "matrix_element": (lambda ctx, f: matrix_element(ctx, 1, 4, 5), REAL),
    "matrix_element zero": (lambda ctx, f: matrix_element(ctx, 1, 0, 5), REAL),
    "band_pattern flat": (lambda ctx, f: band_pattern(ctx, 1).flat, REAL),
    "band_pattern blocks": (lambda ctx, f: band_pattern(ctx, 2).blocks, REAL),
    "reconstruct real": (lambda ctx, f: reconstruct(CoefficientExpansion(ctx.spec, 6, REAL_C), ctx), REAL),
    "expand real": (lambda ctx, f: expand(ctx.phi_tilde[3], ctx).coeffs, REAL),
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
    for n in (0, 1, n_max // 2, n_max):
        for f in (ctx.phi_tilde[n], ctx.phi_tilde[n].left_mul(np.diag(np.exp(0.5 * ctx.log_norms[n])))):  # and Phi_n
            c = MatrixGaussian(f.coeffs + 0j)
            for real, cplx in ((f(xs), c(xs)), (f.poly_at(xs[::50]), c.poly_at(xs[::50]))):
                assert real.dtype == REAL and cplx.dtype == COMPLEX
                assert not cplx.imag.any()
                assert np.max(np.abs(real - cplx.real)) <= 1e-15 * np.max(np.abs(real)), n


def test_coefficients_are_read_only_and_owned():
    rng = np.random.default_rng(17)
    for c in (rng.standard_normal((4, 2, 2)), rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))):
        f = MatrixGaussian(c)
        x = np.linspace(-3, 3, 7)
        before, coeffs = f(x), f.coeffs.copy()
        assert not f.coeffs.flags.writeable
        with pytest.raises(ValueError):
            f.coeffs[0, 0, 0] = 1.0
        c[:] = 7.0  # the caller's array, changed after construction
        assert np.array_equal(f.coeffs, coeffs) and np.array_equal(f(x), before)
    c = np.arange(8.0).reshape(2, 2, 2)
    c.flags.writeable = False
    assert np.shares_memory(MatrixGaussian(c).coeffs, c)  # a read-only input of the right dtype is not copied


def inputs_with_lo_and_trim():
    # real and complex data, N = 1, 2, 5, rows below lo exactly 0, and trailing rows the trim drops
    rng = np.random.default_rng(18)
    for N in (1, 2, 5):
        for dtype in (float, complex):
            c = rng.standard_normal((9, N, N)) + (1j * rng.standard_normal((9, N, N)) if dtype is complex else 0)
            c[:3] = 0.0  # lo = 3
            c[3, 0, 0] = -0.0
            c[7:] *= 1e-16  # trimmed
            yield MatrixGaussian(c)
            yield MatrixGaussian(c[3:7])  # lo = 0


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_exact_maps_equal_the_validated_constructor_bit_for_bit(k, direction):
    for f in inputs_with_lo_and_trim():
        assert f.degree < 8
        maps = [(transform_apply(f, k, direction), f.coeffs * _phase_of(f, k, direction))]
        if k == 0:
            maps.append((f.fourier(direction), f.coeffs * _phase_of(f, 0, direction)))
            maps.append((f.reflect(), (-1.0) ** np.arange(f.degree + 1)[:, None, None] * f.coeffs))
        for fast, product in maps:
            slow = MatrixGaussian(product)
            assert fast.coeffs.dtype == slow.coeffs.dtype and fast.coeffs.tobytes() == slow.coeffs.tobytes()
            assert fast.lo == slow.lo == f.lo and not fast.coeffs.flags.writeable


def _phase_of(f, k, direction):
    """The phase i^{direction(m + kJ_b)} as the transform was written before its table was kept."""
    power = direction * (np.arange(f.degree + 1)[:, None] + k * np.arange(f.size - 1, -1, -1))
    return np.array([1, 1j, -1, -1j])[power % 4][:, None, :]


def test_exact_maps_run_no_validation_and_keep_one_phase_table_per_shape(monkeypatch):
    from matschroed import matpoly

    f = inputs_with_lo_and_trim().__next__()
    validations = []
    checked = MatrixGaussian.__post_init__
    monkeypatch.setattr(MatrixGaussian, "__post_init__", lambda self: validations.append(1) or checked(self))
    matpoly._phase.cache_clear()
    for _ in range(3):
        transform_apply(f, 1)
        transform_apply(f, 1, -1)
        f.reflect().fourier()
    assert validations == []
    assert matpoly._phase.cache_info().misses == 3  # (k=1, +1), (k=1, -1), (k=0, +1) for the one shape
    MatrixGaussian(f.coeffs)
    assert validations == [1]
