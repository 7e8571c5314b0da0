import dataclasses
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from matschroed import families
from matschroed.cli import check_lines
from matschroed.expansion import (
    CoefficientExpansion,
    _gram_blocks,
    band_pattern,
    expand,
    inner_product,
    inner_product_weighted,
    matrix_element,
    reconstruct,
)
from matschroed.families import FamilySpec, build_family, gamma_seq
from matschroed.hermite import gauss_hermite
from matschroed.matpoly import MatrixGaussian
from matschroed.operators import three_term_residual, transform_apply

SPECS = [
    FamilySpec(1, 2, [1.0]),
    FamilySpec(1, 3, [0.8, -1.3]),
    FamilySpec(2, 2, [1.0]),
    FamilySpec(2, 3, [0.8, -1.3]),
]


@pytest.fixture(scope="module")
def contexts():
    return {spec: build_family(spec, 10) for spec in SPECS}


def _times_x(hs, k):
    """x^k h for each h, by the ladder operator (`poly_mul`)."""
    return [h.poly_mul([0.0] * k + [1.0]) for h in hs]


# -- closed-form oracle for N = 2 matrix elements ---------------------------
#
# The normalized functions have entries (coeff) psi_index, so every block of
# (x^k I)_{nm} reduces to the classical scalar elements (x)_{pq}, (x^2)_{pq}.


def _scalar_x(p, q):
    if q == p - 1:
        return np.sqrt(p / 2.0)
    if q == p + 1:
        return np.sqrt((p + 1) / 2.0)
    return 0.0


def _scalar_x2(p, q):
    if q == p - 2:
        return 0.5 * np.sqrt(p * (p - 1))
    if q == p:
        return p + 0.5
    if q == p + 2:
        return 0.5 * np.sqrt((p + 1) * (p + 2))
    return 0.0


def _entry_table(spec, n):
    """Entries of the normalized function as {(i, j): (psi index, coefficient)}."""
    nu1 = spec.nu[0]
    g = gamma_seq(spec, n + 3)
    if spec.kind == 1:
        table = {
            (0, 0): (n, 1.0 / np.sqrt(g[n + 1])),
            (0, 1): (n + 1, nu1 * np.sqrt((n + 1) / (2.0 * g[n + 1]))),
            (1, 1): (n, 1.0 / np.sqrt(g[n])),
        }
        if n >= 1:
            table[(1, 0)] = (n - 1, -nu1 * np.sqrt(n / (2.0 * g[n])))
    else:
        table = {
            (0, 0): (n, 1.0 / np.sqrt(g[n + 2])),
            (0, 1): (n + 2, 0.5 * nu1 * np.sqrt((n + 1) * (n + 2) / g[n + 2])),
            (1, 1): (n, 1.0 / np.sqrt(g[n])),
        }
        if n >= 2:
            table[(1, 0)] = (n - 2, -0.5 * nu1 * np.sqrt(n * (n - 1) / g[n]))
    return table


def oracle_block(spec, k, n, m):
    scalar = _scalar_x if k == 1 else _scalar_x2
    tn, tm = _entry_table(spec, n), _entry_table(spec, m)
    out = np.zeros((2, 2))
    for (i, j), (p, cp) in tn.items():
        for (l, jj), (q, cq) in tm.items():
            if j == jj:
                out[i, l] += cp * cq * scalar(p, q)
    return out


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_matrix_elements_match_closed_form(contexts, kind, k):
    spec = FamilySpec(kind, 2, [1.0])
    ctx = contexts[spec]
    for n in range(9):
        for m in range(9):
            got = matrix_element(ctx, k, n, m)
            expected = oracle_block(spec, k, n, m)
            assert np.max(np.abs(got - expected)) < 1e-9, (kind, k, n, m)


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("k", [1, 2])
def test_matrix_elements_symmetric(contexts, spec, k):
    # x^k is self-adjoint: the block at (m, n) is the conjugate transpose at (n, m)
    ctx = contexts[spec]
    for n in range(6):
        for m in range(6):
            a = matrix_element(ctx, k, n, m)
            b = matrix_element(ctx, k, m, n)
            assert np.max(np.abs(a - np.conj(b).T)) < 1e-10


def test_matrix_element_bad_power(contexts):
    with pytest.raises(ValueError):
        matrix_element(contexts[SPECS[0]], 3, 0, 0)


def _diag_entries(mask, offset):
    return np.diagonal(mask, offset=offset)


def test_band_pattern_family1_x(contexts):
    bm = band_pattern(contexts[SPECS[0]], 1, n_max=8)
    mask = bm.mask
    assert not _diag_entries(mask, 0).any()
    for off in (1, -1, 2, -2):
        assert _diag_entries(mask, off).any()
    for off in range(3, mask.shape[0]):
        assert not _diag_entries(mask, off).any()
        assert not _diag_entries(mask, -off).any()


def test_band_pattern_family2_x(contexts):
    bm = band_pattern(contexts[SPECS[2]], 1, n_max=8)
    mask = bm.mask
    for off in (0, 1, -1):
        assert not _diag_entries(mask, off).any()
    for off in (2, -2, 3, -3):
        assert _diag_entries(mask, off).any()
    for off in range(4, mask.shape[0]):
        assert not _diag_entries(mask, off).any()
        assert not _diag_entries(mask, -off).any()


@pytest.mark.parametrize("kind", [1, 2])
def test_band_pattern_mask_matches_oracle(contexts, kind):
    spec = FamilySpec(kind, 2, [1.0])
    bm = band_pattern(contexts[spec], 1, n_max=8)
    size = bm.flat.shape[0]
    oracle_flat = np.zeros((size, size))
    for n in range(9):
        for m in range(9):
            if abs(n - m) <= 1:
                oracle_flat[2 * n : 2 * n + 2, 2 * m : 2 * m + 2] = oracle_block(spec, 1, n, m)
    np.testing.assert_array_equal(bm.mask, np.abs(oracle_flat) > bm.threshold)


def test_band_pattern_csv_roundtrip(tmp_path, contexts):
    bm = band_pattern(contexts[SPECS[0]], 2, n_max=3)
    path = tmp_path / "band.csv"
    bm.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(f"c{j}" for j in range(bm.flat.shape[0]))  # one real column each, no _im columns
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    np.testing.assert_allclose(data, bm.flat, atol=1e-15)


def test_band_pattern_validation(contexts):
    ctx = contexts[SPECS[0]]
    for threshold in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="threshold must be a positive finite number"):
            band_pattern(ctx, 1, threshold=threshold)
    for n_max in (99, ctx.n_max + 1, -1):  # -1 must not reach numpy's reshape of an empty band
        message = rf"n_max must be in 0\.\.{ctx.n_max} \(the family's n_max\), got {n_max}$"
        with pytest.raises(ValueError, match=message):
            band_pattern(ctx, 1, n_max=n_max)


# -- expansion / reconstruction ---------------------------------------------


def random_member(ctx, rng, n_top=8):
    f = MatrixGaussian.zero(ctx.size)
    target = np.zeros((n_top + 1, ctx.size, ctx.size), dtype=complex)
    for n in range(n_top + 1):
        C = rng.standard_normal((ctx.size, ctx.size)) + 1j * rng.standard_normal(
            (ctx.size, ctx.size)
        )
        target[n] = C
        f = f + ctx.phi_tilde[n].left_mul(C)
    return f, target


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_expand_recovers_coefficients(contexts, spec):
    ctx = contexts[spec]
    rng = np.random.default_rng(31)
    f, target = random_member(ctx, rng)
    exp = expand(f, ctx)
    assert np.max(np.abs(exp.coeffs[:9] - target)) < 1e-9
    assert np.max(np.abs(exp.coeffs[9:])) < 1e-9


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_reconstruct_roundtrip(contexts, spec):
    ctx = contexts[spec]
    rng = np.random.default_rng(32)
    f, _ = random_member(ctx, rng)
    g = reconstruct(expand(f, ctx), ctx)
    for x in np.linspace(-4, 4, 9):
        assert np.max(np.abs(f(x) - g(x))) < 1e-9


def test_expand_rejects_out_of_span():
    spec = SPECS[0]
    big = build_family(spec, 12)
    small = build_family(spec, 4)
    f = big.phi_tilde[7]
    for scale in (1.0, 1e-9, 1e-12):  # the span test is relative to the input's size
        with pytest.raises(ValueError):
            expand(f.scale(scale), small)
    exp = expand(f, small, project=True)
    assert np.max(np.abs(exp.coeffs)) < 1e-9  # orthogonal to the whole span


def _nu(N):
    return [0.8, -0.6, 0.9, 0.7, -0.5, 0.6, 0.8][: N - 1]


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 5, 8])
@pytest.mark.parametrize("n_max", [0, 1, 20])
def test_expand_and_reconstruct_match_parseval(kind, N, n_max):
    # the gathers at the plan's offsets against the Parseval reference: <F, Phi-tilde_n> for
    # expand, and for reconstruct the sum of C_n Phi-tilde_n and its own inner products
    ctx = build_family(FamilySpec(kind, N, _nu(N)), n_max)
    phis = list(ctx.phi_tilde)
    rng = np.random.default_rng(36)
    real = rng.standard_normal((n_max + 1, N, N))
    for C in (real, real + 1j * rng.standard_normal((n_max + 1, N, N))):
        for top in sorted({n_max // 2, n_max}):  # an expansion below the context's n_max, and one at it
            F = reconstruct(CoefficientExpansion(ctx.spec, top, C[: top + 1]), ctx)
            ref = MatrixGaussian.zero(N)
            for n in range(top + 1):
                ref = ref + phis[n].left_mul(C[n])
            assert F.coeffs.dtype == C.dtype and F.degree == ref.degree
            assert np.max(np.abs(F.coeffs - ref.coeffs)) <= 1e-14 * ref.max_abs()
            got = expand(F, ctx).coeffs
            parseval = np.stack([inner_product(F, phi) for phi in phis])
            assert np.max(np.abs(got - parseval)) <= 1e-14 * np.max(np.abs(parseval))
            assert np.max(np.abs(parseval[: top + 1] - C[: top + 1])) <= 1e-14 * np.max(np.abs(C))


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("N", [5, 8])
@pytest.mark.parametrize("n_max", [20, 40])
def test_expand_rejects_a_small_step_out_of_span(kind, N, n_max):
    # member + eps Phi-tilde_{n_max+1}, the next function of a family built one step further:
    # the residual F - sum C_n Phi-tilde_n reads about eps
    spec = FamilySpec(kind, N, _nu(N))
    ctx, further = build_family(spec, n_max), build_family(spec, n_max + 1)
    rng = np.random.default_rng(37)
    C = rng.standard_normal((n_max + 1, N, N)) + 1j * rng.standard_normal((n_max + 1, N, N))
    member = reconstruct(CoefficientExpansion(spec, n_max, C), ctx)
    for eps in (1e-2, 1e-6, 1e-8):
        with pytest.raises(ValueError, match=rf"n_max {n_max}: .* of max \|F\|"):
            expand(member + further.phi_tilde[n_max + 1].scale(eps), ctx)
        projection = expand(member + further.phi_tilde[n_max + 1].scale(eps), ctx, project=True)
        assert np.max(np.abs(projection.coeffs - C)) <= 1e-12 * np.max(np.abs(C))


def test_expand_accepts_members_at_kind_2_n_max_100():
    spec = FamilySpec(2, 8, _nu(8))
    ctx = build_family(spec, 100)
    rng = np.random.default_rng(38)
    C = rng.standard_normal((101, 8, 8)) + 1j * rng.standard_normal((101, 8, 8))
    F = reconstruct(CoefficientExpansion(spec, 100, C), ctx)
    assert np.max(np.abs(expand(F, ctx).coeffs - C)) <= 1e-12 * np.max(np.abs(C))


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_expand_rejects_degree_above_n_max_plus_D(contexts, spec):
    # psi_{n_max+D+1} is orthogonal to every Phi-tilde_n, n <= n_max, whose degree is at most n + D
    ctx = contexts[spec]
    D = spec.kind * (spec.size - 1)
    coeffs = np.zeros((ctx.n_max + D + 2, spec.size, spec.size))
    coeffs[-1, 0, 0] = 1e-3
    high = MatrixGaussian(coeffs)
    for F in (high, random_member(ctx, np.random.default_rng(39))[0] + high):
        with pytest.raises(ValueError, match="leaves the span"):
            expand(F, ctx)
    assert not expand(high, ctx, project=True).coeffs.any()


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_expand_zero_function(contexts, spec):
    # max |F| = 0: the span test must not divide by it (pytest turns a RuntimeWarning into an error)
    ctx = contexts[spec]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exp = expand(MatrixGaussian.zero(spec.size), ctx)
    assert exp.coeffs.shape == (ctx.n_max + 1, spec.size, spec.size) and not exp.coeffs.any()


def _pair_block(f, g, k=0):
    """<x^k f, g> by one quadrature for the single pair, at that pair's own rule."""
    rule = gauss_hermite((f.degree + g.degree + k) // 2 + 8)
    t, w = rule.nodes, rule.weights
    return np.einsum("i,iab,icb->ac", w * t**k, f.poly_at(t), np.conj(g.poly_at(t)))


def test_batched_blocks_match_pairwise():
    # one Gram product for all pairs, at the rule of the highest-degree pair,
    # against one quadrature per pair
    ctx = build_family(FamilySpec(2, 5, [0.8, -1.3, 1.1, 0.6]), 12)
    phis = ctx.phi_tilde

    def gap(got, ref):
        return np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))

    gram = _gram_blocks(phis, phis)
    for n in range(13):
        for m in range(13):
            ref = _pair_block(phis[n], phis[m])
            assert gap(gram[n, m], ref) < 1e-12, (n, m)
            assert gap(inner_product(phis[n], phis[m]), ref) < 1e-12, (n, m)
    for k in (1, 2):
        blocks = band_pattern(ctx, k).blocks
        for n in range(13):
            for m in range(13):
                ref = _pair_block(phis[n], phis[m], k) if abs(n - m) <= k else 0.0
                assert gap(blocks[n, m], ref) < 1e-12, (k, n, m)
                if abs(n - m) <= k:
                    assert gap(matrix_element(ctx, k, n, m), ref) < 1e-12, (k, n, m)
    f = phis[3].left_mul(np.arange(25.0).reshape(5, 5) / 10) + phis[9]
    coeffs = expand(f, ctx).coeffs
    for n in range(13):
        assert gap(coeffs[n], _pair_block(f, phis[n])) < 1e-12, n


def _relative_gap(got, ref):
    """Largest |got - ref| relative to max(1, |ref|), entry by entry."""
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)), initial=0.0))


@pytest.mark.parametrize(
    "spec, n_max",
    [
        (FamilySpec(1, 8, [0.8, -0.6, 0.9, 0.7, -0.5, 0.6, 0.8]), 200),
        (FamilySpec(2, 8, [0.8, -0.6, 0.9, 0.7, -0.5, 0.6, 0.8]), 200),
        (FamilySpec(1, 1, []), 12),  # D = 0: every entry is one psi_n
        (FamilySpec(2, 1, []), 12),
        (FamilySpec(1, 3, [0.8, -1.3]), 0),
        (FamilySpec(2, 3, [0.8, -1.3]), 0),
    ],
    ids=str,
)
def test_alpha_paths_match_generic_gram(spec, n_max):
    # expand, reconstruct and band_pattern read the table alpha; the reference is
    # the Parseval path `_gram_blocks` on the materialized Phi-tilde_n (and x^k Phi-tilde_n)
    ctx = build_family(spec, n_max)
    phis, N = list(ctx.phi_tilde), spec.size
    rng = np.random.default_rng(34)
    C = rng.standard_normal((n_max + 1, N, N)) + 1j * rng.standard_normal((n_max + 1, N, N))
    F = reconstruct(CoefficientExpansion(spec, n_max, C), ctx)
    ref = MatrixGaussian.zero(N)
    for n in range(n_max + 1):
        ref = ref + phis[n].left_mul(C[n])
    assert F.degree == ref.degree
    assert _relative_gap(F.coeffs, ref.coeffs) <= 1e-12
    assert _relative_gap(expand(F, ctx).coeffs, _gram_blocks([F], phis)[0]) <= 1e-12
    for k in (1, 2):
        bm = band_pattern(ctx, k)
        reference = np.zeros_like(bm.blocks)
        for n in range(n_max + 1):  # each n against m = n-k..n+k
            lo, hi = max(0, n - k), min(n_max + 1, n + k + 1)
            reference[n, lo:hi] = _gram_blocks(_times_x([phis[n]], k), phis[lo:hi])[0]
        near = np.abs(np.arange(n_max + 1)[:, None] - np.arange(n_max + 1)) <= k
        assert not bm.blocks[~near].any()  # exactly 0 off the band
        assert _relative_gap(bm.blocks, reference) <= 1e-12, k
        reference_flat = reference.transpose(0, 2, 1, 3).reshape(bm.flat.shape)
        np.testing.assert_array_equal(bm.mask, np.abs(reference_flat) > bm.threshold)


def test_reconstruct_rejects_mismatched_expansion():
    one = build_family(FamilySpec(1, 3, [0.8, -1.3]), 6)
    two = build_family(FamilySpec(2, 3, [0.8, -1.3]), 6)
    C = np.random.default_rng(35).standard_normal((7, 3, 3))
    expansion = CoefficientExpansion(one.spec, 6, C)
    reconstruct(expansion, one)
    names_both = r"kind=1, size=3.*kind=2, size=3"
    with pytest.raises(ValueError, match=names_both):
        reconstruct(expansion, two)  # the same coefficients in another basis
    for bad in (C[:6], C[:, :2, :2], C[0]):
        with pytest.raises(ValueError, match=r"kind=1, size=3.*shape.*kind=1, size=3"):
            reconstruct(CoefficientExpansion(one.spec, 6, bad), one)
    with pytest.raises(ValueError, match=r"n_max=8 .*n_max=6"):
        reconstruct(CoefficientExpansion(one.spec, 8, np.zeros((9, 3, 3))), one)


def test_expand_size_mismatch(contexts):
    with pytest.raises(ValueError):
        expand(MatrixGaussian.from_poly(np.eye(3)[None]), contexts[SPECS[0]])


def test_inner_product_size_mismatch():
    with pytest.raises(ValueError):
        inner_product(
            MatrixGaussian.from_poly(np.eye(2)[None]), MatrixGaussian.from_poly(np.eye(3)[None])
        )
    P = MatrixGaussian.from_poly(np.eye(2)[None])
    with pytest.raises(ValueError, match=r"sizes 2 and 3 do not match the family's N=2"):
        inner_product_weighted(P, MatrixGaussian.from_poly(np.eye(3)[None]), SPECS[0])
    with pytest.raises(ValueError, match=r"sizes 2 and 2 do not match the family's N=3"):
        inner_product_weighted(P, P, SPECS[1])


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_transform_commutes_with_expansion(contexts, spec):
    # applying F_k to a span member keeps it in the span (diagonal eigenvalues)
    ctx = contexts[spec]
    rng = np.random.default_rng(33)
    f, _ = random_member(ctx, rng)
    g = transform_apply(f, spec.kind)
    exp = expand(g, ctx)
    h = reconstruct(exp, ctx)
    for x in (-2.0, 0.5, 3.0):
        assert np.max(np.abs(g(x) - h(x))) < 1e-9


def test_matrix_element_mask_matches_band_pattern():
    # blocks with |n - m| > k vanish by degree counting; at this size the Parseval sum
    # leaves rounding up to 1.2e-10 on them, above the default mask threshold
    ctx = build_family(FamilySpec(1, 8, [0.8, -0.6, 0.9, 0.7, -0.5, 0.6, 0.8]), 200)
    for k in (1, 2):
        band = band_pattern(ctx, k)
        blocks = np.zeros_like(band.blocks)
        for n in range(201):
            for m in range(max(0, n - k - 2), min(200, n + k + 2) + 1):
                blocks[n, m] = matrix_element(ctx, k, n, m)
        assert not np.any(blocks[np.abs(np.subtract.outer(range(201), range(201))) > k])
        mask = np.abs(blocks.transpose(0, 2, 1, 3).reshape(band.flat.shape)) > band.threshold
        np.testing.assert_array_equal(mask, band.mask)


def test_matrix_element_reads_negative_indices():
    ctx = build_family(SPECS[1], 10)
    np.testing.assert_array_equal(matrix_element(ctx, 1, -1, 9), matrix_element(ctx, 1, 10, 9))
    assert not np.any(matrix_element(ctx, 1, -1, 0))
    with pytest.raises(IndexError):
        matrix_element(ctx, 1, 11, 10)


@pytest.mark.parametrize("kind", [1, 2])
def test_real_gram_matches_complex_path(kind):
    # X Y^T on real rows against the (re, im) product on the same rows with imaginary parts 0
    ctx = build_family(FamilySpec(kind, 5, [0.8, -1.3, 1.1, 0.6]), 40)
    fs = list(ctx.phi_tilde)
    cs = [MatrixGaussian(f.coeffs + 0j) for f in fs]
    for k in (0, 1, 2):
        real, cplx = _gram_blocks(_times_x(fs, k), fs), _gram_blocks(_times_x(cs, k), cs)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert not cplx.imag.any()
        assert np.max(np.abs(real - cplx.real)) <= 1e-15 * np.max(np.abs(real)), k
    rng = np.random.default_rng(35)
    F = MatrixGaussian(rng.standard_normal((30, 5, 5)) + 1j * rng.standard_normal((30, 5, 5)))
    np.testing.assert_array_equal(_gram_blocks(_times_x([F], 1), fs), _gram_blocks(_times_x([F], 1), cs))  # mixed
    np.testing.assert_array_equal(_gram_blocks(fs, [F]), _gram_blocks(cs, [F]))


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 5])  # N = 1: D = 0 < k, so the ladder of `_band` must still take k steps
@pytest.mark.parametrize("k", [1, 2])
def test_band_storage_and_dense_views(kind, N, k):
    # the band against the Parseval blocks of x^k Phi-tilde_n, and every dense view against a dense
    # matrix assembled here from the band, bit for bit
    n_max = 9
    ctx = build_family(FamilySpec(kind, N, np.linspace(0.8, -1.1, N - 1)), n_max)
    phis = list(ctx.phi_tilde)
    for top in (n_max, 6):  # a truncated band drops the blocks past its own n_max
        bm = band_pattern(ctx, k, top)
        assert bm.band.shape == (top + 1, 2 * k + 1, N, N) and bm.band.dtype == np.float64
        dense = np.zeros((top + 1, top + 1, N, N))
        for n in range(top + 1):
            for d in range(-k, k + 1):
                if 0 <= n + d <= top:
                    ref = _gram_blocks(_times_x([phis[n]], k), [phis[n + d]])[0, 0]
                    assert _relative_gap(bm.band[n, d + k], ref) <= 1e-12, (n, d)
                    dense[n, n + d] = bm.band[n, d + k]
                else:
                    assert not bm.band[n, d + k].any(), (n, d)
        flat = dense.transpose(0, 2, 1, 3).reshape(((top + 1) * N,) * 2)
        assert bm.flat.tobytes() == flat.tobytes() and bm.flat.shape == flat.shape
        assert bm.blocks.shape == dense.shape and np.ascontiguousarray(bm.blocks).tobytes() == dense.tobytes()
        np.testing.assert_array_equal(bm.mask, np.abs(flat) > bm.threshold)
        for view in (bm.band, bm.flat, bm.blocks, bm.mask):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1
        assert bm.flat is bm.flat and bm.mask is bm.mask  # made once, on first access


@pytest.mark.parametrize(
    "spec, n_max",
    [
        (FamilySpec(1, 1, []), 6),
        (FamilySpec(2, 2, [1.0]), 9),
        (FamilySpec(1, 5, [0.8, -1.3, 1.1, 0.6]), 12),
        (FamilySpec(2, 5, [0.8, -1.3, 1.1, 0.6]), 12),
        (FamilySpec(1, 8, [0.8, -0.6, 0.9, 0.7, -0.5, 0.6, 0.8]), 60),
    ],
    ids=str,
)
def test_matrix_element_is_the_band_block(spec, n_max):
    ctx = build_family(spec, n_max)
    for k in (1, 2):
        blocks = band_pattern(ctx, k).blocks
        for n in range(n_max + 1):
            for m in range(max(0, n - k), min(n_max, n + k) + 1):
                got = matrix_element(ctx, k, n, m)
                assert got.dtype == np.float64 and np.array_equal(got, blocks[n, m]), (k, n, m)


def test_band_pattern_at_n_max_400_keeps_no_dense_matrix():
    # the dense flat and mask of this shape take 82 MB and 10 MB; the band takes 0.6 MB
    ctx = build_family(FamilySpec(1, 8, (0.8,) * 7), 400)
    band_pattern(ctx, 1)  # the plan is already cached by the build; this warms numpy's code paths
    tracemalloc.start()
    try:
        bm = band_pattern(ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert bm.band.shape == (401, 3, 8, 8) and np.isfinite(bm.band).all()


def test_band_is_made_once_per_family_and_k(monkeypatch):
    calls = []

    def counted(alpha, spec, j):
        calls.append((spec, j))
        return band(alpha, spec, j)

    band = families._band
    monkeypatch.setattr(families, "_band", counted)
    spec = FamilySpec(1, 3, [0.8, -1.3])
    ctx = build_family(spec, 12)
    for _ in range(2):
        for k in (1, 2):
            band_pattern(ctx, k)
            band_pattern(ctx, k, n_max=5)
            matrix_element(ctx, k, 4, 4 + k)
        three_term_residual(ctx)
    assert sorted(calls) == [(spec, 0), (spec, 1)]
    assert band_pattern(ctx, 1).band is ctx.bands[0] and band_pattern(ctx, 2).band is ctx.bands[1]
    copy = dataclasses.replace(ctx)  # a new instance keeps nothing of the old one's
    band_pattern(copy, 1)
    assert sorted(calls) == [(spec, 0), (spec, 0), (spec, 1)]


@pytest.mark.parametrize("spec", [FamilySpec(1, 3, [0.8, -1.3]), FamilySpec(2, 5, [0.8, -1.3, 1.1, 0.6])], ids=str)
def test_a_family_reads_its_plan_once(monkeypatch, spec):
    # with no plan kept, each read of the plan cache makes the plan again; a family reads it once and keeps it
    monkeypatch.setattr(families, "PLAN_CACHE_BYTES", 0)
    monkeypatch.setattr(families, "_plans", OrderedDict())
    made, make = [], families._make_plan
    monkeypatch.setattr(families, "_make_plan", lambda *shape: made.append(shape) or make(*shape))
    ctx = build_family(spec, 10)
    made.clear()
    assert all(residual < limit for _, residual, limit in check_lines(ctx, 1e-9, 0))
    for k in (1, 2):
        band_pattern(ctx, k)
    F = reconstruct(CoefficientExpansion(spec, 10, np.ones((11, spec.size, spec.size))), ctx)
    reconstruct(expand(F, ctx), ctx)
    assert len(made) <= 1 and ctx.plan is ctx.plan
    # the bands make their own indices: a new instance builds them with no plan at all
    monkeypatch.setattr(families, "_plan", lambda *shape: pytest.fail(f"_plan{shape} called"))
    copy = dataclasses.replace(ctx)
    for k in (1, 2):
        assert copy.bands[k - 1].tobytes() == ctx.bands[k - 1].tobytes()


def test_replaced_family_makes_its_own_band_from_its_own_alpha():
    ctx, other = (build_family(FamilySpec(2, 3, nu), 12) for nu in ([0.8, -1.3], [1.1, 0.4]))
    kept = [band_pattern(ctx, k).band for k in (1, 2)]
    copy = dataclasses.replace(ctx, alpha=other.alpha)
    for k in (1, 2):
        assert band_pattern(copy, k).band.tobytes() == band_pattern(other, k).band.tobytes()
        assert band_pattern(ctx, k).band is kept[k - 1] and not np.array_equal(kept[k - 1], band_pattern(copy, k).band)
        assert np.array_equal(matrix_element(copy, k, 6, 6 + k), band_pattern(other, k).band[6, 2 * k])


def test_family_keeps_both_bands_and_no_dense_view():
    # the bands of x and x^2 take 0.62 MB and 1.03 MB at this shape; a BandMatrix's flat takes 82 MB, and goes with it
    ctx = build_family(FamilySpec(1, 8, (0.8,) * 7), 400)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in (1, 2):
            assert band_pattern(ctx, k).band.nbytes == 401 * (2 * k + 1) * 64 * 8
        bm = band_pattern(ctx, 1)
        assert bm.flat.nbytes == (401 * 8) ** 2 * 8
        del bm
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 1.8e6, held
