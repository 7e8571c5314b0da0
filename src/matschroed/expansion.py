"""Inner products, expansion/reconstruction in the orthonormal basis,
matrix elements of multiplication by x^k, and band patterns.

Functions are stored as psi-coefficients, so by Parseval every inner
product is a sum of coefficient products and multiplication by x^k is k
steps of the ladder operator; no quadrature is involved.  Only the weighted
inner product of monomial matrix polynomials uses a Gauss-Hermite rule.
Expansion, reconstruction and band matrices read the family's table alpha
directly: entry (r, a) of Phi-tilde_n is alpha[n, r, a] psi_{n+k(a-r)}, so
each is one gather or scatter over alpha, with no Phi-tilde_n built.
"""

from dataclasses import dataclass, field

import numpy as np

from .families import FamilyContext, FamilySpec, build_structured, right_factor_poly
from .hermite import gauss_hermite
from .matpoly import MatrixGaussian, degree_of, ladder, ladder_band, poly_eval, poly_times

# size, relative to the largest, below which a psi-coefficient of F R^{-1} counts as zero
SPAN_RTOL = 1e-10


def _rows(hs, length, k, dtype):
    """psi-coefficients of x^k h (by ladder steps) for each h, entry row by entry row: (len(hs), N, length*N)."""
    N = hs[0].size
    out = np.zeros((length - k, len(hs), N, N), dtype=dtype)
    for i, h in enumerate(hs):
        out[: h.degree + 1, i] = h.coeffs
    for _ in range(k):
        out = ladder(out)
    return np.ascontiguousarray(out.transpose(1, 2, 0, 3).reshape(len(hs), N, length * N))  # a strided view at N = 1


def _conj_product(X, Y):
    """X Y^* for 2-d X, Y of one dtype as one real product: X Y^T, or on the (re, im) views (Y gives Re, i Y Im).

    BLAS hands complex products above ~6.5e4 multiply-adds to a second
    thread, real ones above 1e6 (`matpoly.PRODUCT_BUDGET`); for 5 x 145 x 105
    that took 360 us against 19 us as a real product.
    """
    if not np.iscomplexobj(X):
        return X @ Y.T
    P = X.view(float) @ np.concatenate([Y, 1j * Y]).view(float).T
    return P[:, : Y.shape[0]] + 1j * P[:, Y.shape[0] :]


def _support(ctx, n_max):
    """psi index n + k(a - r) of entry (r, a) of Phi-tilde_n, shape (n_max+1, N, N); alpha is 0 where it is < 0."""
    r = np.arange(ctx.size)
    return np.arange(n_max + 1)[:, None, None] + ctx.spec.kind * (r - r[:, None])


def _gram_blocks(fs, gs, k=0):
    """Every block <x^k f_n, g_m> = int x^k f_n(x) g_m(x)^* dx, shape (len(fs), len(gs), N, N).

    The psi_j are orthonormal, so a block is sum_j (x^k f_n)_j (g_m)_j^*;
    with the coefficients laid out by `_rows`, the blocks are the one
    product X Y^*.
    """
    N = fs[0].size
    if any(h.size != N for h in (*fs, *gs)):
        raise ValueError("size mismatch")
    length = max(max(f.degree for f in fs) + k, max(g.degree for g in gs)) + 1
    dtype = np.result_type(*{h.coeffs.dtype for h in (*fs, *gs)})  # complex if either side is
    X = _rows(fs, length, k, dtype).reshape(len(fs) * N, -1)
    Y = _rows(gs, length, 0, dtype).reshape(len(gs) * N, -1)
    return _conj_product(X, Y).reshape(len(fs), N, len(gs), N).transpose(0, 2, 1, 3)


def inner_product(F: MatrixGaussian, G: MatrixGaussian):
    """<F, G> = int F(x) G(x)^* dx, exact up to rounding."""
    return _gram_blocks([F], [G])[0, 0]


def inner_product_weighted(P, Q, spec: FamilySpec):
    """<P, Q>_W = int P(x) W(x) Q(x)^* dx for matrix polynomials P, Q.

    P and Q are monomial coefficient arrays (degree+1, N, N), such as the
    `pn` of a family; the Gauss-Hermite rule is exact for the product.
    """
    R = right_factor_poly(build_structured(spec.size, spec.nu), spec.kind)
    deg = (P.shape[0] - 1) + (Q.shape[0] - 1) + 2 * (R.shape[0] - 1)
    rule = gauss_hermite(deg // 2 + 8)
    t, w = rule.nodes, rule.weights
    # W = e^{-x^2} R R^T; pairing P R with Q R avoids the cancellation inside R R^T
    Rt = poly_eval(R, t)
    return np.einsum("i,iab,icb->ac", w, poly_eval(P, t) @ Rt, np.conj(poly_eval(Q, t) @ Rt))


@dataclass(frozen=True)
class CoefficientExpansion:
    """F = sum_n coeffs[n] Phi-tilde_n, coefficients against the orthonormal family."""

    spec: FamilySpec
    n_max: int
    coeffs: np.ndarray = field(repr=False)


def expand(F: MatrixGaussian, ctx: FamilyContext, project=False):
    """Coefficients C_n = <F, Phi-tilde_n> of F against the orthonormal family.

    F must lie in the span of Phi-tilde_0..Phi-tilde_{n_max}; equivalently
    F(x) R(x)^{-1} must have no psi-coefficient above n_max.  Out-of-span
    inputs raise unless project=True, which returns the truncated projection
    instead.
    """
    if F.size != ctx.size:
        raise ValueError("size mismatch")
    if not project:
        deg = degree_of(poly_times(F.coeffs, ctx.right_factor_inv), SPAN_RTOL)
        if deg > ctx.n_max:
            raise ValueError(
                f"input spans degree {deg} > n_max {ctx.n_max}; expansion would truncate "
                "(pass project=True for a projection)"
            )
    # C_n[:, r] = sum_a F_{n+k(a-r)}[:, a] alpha[n, r, a]
    m = _support(ctx, ctx.n_max)
    gathered = F.coeffs[np.clip(m, 0, F.degree), :, np.arange(ctx.size)]  # (n, r, a, :); masked above F.degree
    coeffs = np.einsum("nrai,nra->nir", gathered, ctx.alpha * (m <= F.degree))
    return CoefficientExpansion(spec=ctx.spec, n_max=ctx.n_max, coeffs=coeffs)


def reconstruct(expansion: CoefficientExpansion, ctx: FamilyContext):
    """Sum C_n Phi-tilde_n, as one scatter-add of C_n[:, r] alpha[n, r, a] into psi index n + k(a - r)."""
    N, n_max = ctx.size, expansion.n_max
    if expansion.spec != ctx.spec or expansion.coeffs.shape != (n_max + 1, N, N) or n_max > ctx.n_max:
        raise ValueError(
            f"expansion of {expansion.spec} with n_max={n_max} and coefficients of shape "
            f"{expansion.coeffs.shape} does not fit the family {ctx.spec} with n_max={ctx.n_max}"
        )
    m = _support(ctx, n_max)
    out = np.zeros((m.max() + 1, N, N), dtype=np.result_type(expansion.coeffs, float))
    terms = np.einsum("nir,nra->nrai", expansion.coeffs, ctx.alpha[: n_max + 1])
    np.add.at(out, (np.maximum(m, 0)[..., None], np.arange(N), np.arange(N)[:, None]), terms)
    return MatrixGaussian(out)


def matrix_element(ctx: FamilyContext, k, n, m):
    """(x^k I)_{nm} = int x^k Phi-tilde_n(x) Phi-tilde_m(x)^* dx; exactly zero for |n - m| > k."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    n, m = range(ctx.n_max + 1)[n], range(ctx.n_max + 1)[m]  # negative indices; IndexError out of range
    if abs(n - m) > k:  # vanishes by degree counting; the Parseval sum would leave rounding
        return np.zeros((ctx.size, ctx.size))  # the Parseval path's dtype: Phi-tilde_n is real
    return _gram_blocks([ctx.phi_tilde[n]], [ctx.phi_tilde[m]], k)[0, 0]


@dataclass(frozen=True)
class BandMatrix:
    """Blocks (x^k I)_{nm} for n, m <= n_max, plus the flattened scalar view."""

    spec: FamilySpec
    k: int
    n_max: int
    threshold: float
    blocks: np.ndarray = field(repr=False)
    flat: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)

    def to_csv(self, path):
        """Flattened matrix as CSV in _re/_im column pairs; the matrix is real, so every _im column is 0."""
        size = self.flat.shape[0]
        pairs = np.stack([self.flat.real, self.flat.imag], axis=-1).reshape(size, 2 * size)
        header = ",".join(f"c{j}_{part}" for j in range(size) for part in ("re", "im"))
        np.savetxt(path, pairs, fmt="%.17g", delimiter=",", newline="\r\n", header=header, comments="")


def band_pattern(ctx: FamilyContext, k, n_max=None, threshold=1e-10):
    """Matrix of the homomorphism F -> x^k F in the orthonormal basis.

    Blocks with |n - m| > k vanish by degree counting and are not computed;
    the boolean mask marks entries of the flattened scalar matrix above the
    threshold.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if n_max is None:
        n_max = ctx.n_max
    if n_max > ctx.n_max:
        raise ValueError("n_max exceeds context")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    N, kind = ctx.size, ctx.spec.kind
    alpha, i = ctx.alpha[: n_max + 1], _support(ctx, n_max)
    # x^k Phi-tilde_n: entry (r, a) is sum_o alpha[n, r, a] <x^k psi_i, psi_{i+o}> psi_{i+o}, o = -k..k
    E = ladder_band(i.max(), k)[k]
    shifted = (alpha[..., None] * E[np.maximum(i, 0)]).transpose(0, 3, 1, 2).reshape(n_max + 1, 1, -1, N)
    # block (n, m = n + d), entry (r, s): the sum over a at the shift o = d + kind(r - s) that meets
    # psi_{m+kind(a-s)}; m is clipped into range and those blocks are dropped at the ends
    n, r, o = np.arange(n_max + 1)[:, None], np.arange(N), np.arange(-k, k + 1)
    m = n + o
    keep = (m >= 0) & (m <= n_max)
    meets = o[:, None, None] == o[:, None, None, None] + kind * (r[:, None] - r)  # (d, o, r, s)
    pairs = shifted @ alpha[np.clip(m, 0, n_max)].transpose(0, 1, 3, 2)  # (n, d, (o, r), s)
    near = np.einsum("ndors,dors->ndrs", pairs.reshape(n_max + 1, 2 * k + 1, 2 * k + 1, N, N), meets)
    flat = np.zeros(((n_max + 1) * N, (n_max + 1) * N))  # real, as alpha is
    blocks = flat.reshape(n_max + 1, N, n_max + 1, N).transpose(0, 2, 1, 3)  # a view: one dense array
    blocks[np.broadcast_to(n, m.shape)[keep], m[keep]] = near[keep]
    return BandMatrix(
        spec=ctx.spec,
        k=k,
        n_max=n_max,
        threshold=threshold,
        blocks=blocks,
        flat=flat,
        mask=np.abs(flat) > threshold,
    )
