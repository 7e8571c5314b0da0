"""Inner products, expansion/reconstruction in the orthonormal basis,
matrix elements of multiplication by x^k, and band patterns.

Functions are stored as psi-coefficients, so by Parseval every inner
product is a sum of coefficient products; no quadrature is involved, also
not in the weighted inner product of the P_n, which multiplies by R in the
psi basis.  Expansion, reconstruction and band matrices read the family's
table alpha directly: entry (r, a) of Phi-tilde_n is alpha[n, r, a]
psi_{n+k(a-r)}, so expansion and reconstruction are each one gather at the
offsets of the family's shape plan and one real product, with no
Phi-tilde_n built.  A band matrix is stored as its 2k+1 block diagonals,
kept by the family; `matrix_element` reads one of its blocks.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .families import FamilyContext, FamilySpec, _behind, right_factor_poly
from .matpoly import MatrixGaussian, poly_times

# largest |F - sum C_n Phi-tilde_n|, relative to max |F| (both over psi-coefficients), that `expand` accepts
SPAN_RTOL = 1e-10


def _rows(hs, length, dtype):
    """psi-coefficients of each h, entry row by entry row: (len(hs), N, length*N)."""
    N = hs[0].size
    out = np.zeros((length, len(hs), N, N), dtype=dtype)
    for i, h in enumerate(hs):
        out[: h.degree + 1, i] = h.coeffs
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


def _gram_blocks(fs, gs):
    """Every block <f_n, g_m> = int f_n(x) g_m(x)^* dx, shape (len(fs), len(gs), N, N).

    The psi_j are orthonormal, so a block is sum_j (f_n)_j (g_m)_j^*; with
    the coefficients laid out by `_rows`, the blocks are the one product X Y^*.
    """
    N = fs[0].size
    if any(h.size != N for h in (*fs, *gs)):
        raise ValueError("size mismatch")
    length = max(h.degree for h in (*fs, *gs)) + 1
    dtype = np.result_type(*{h.coeffs.dtype for h in (*fs, *gs)})  # complex if either side is
    X = _rows(fs, length, dtype).reshape(len(fs) * N, -1)
    Y = _rows(gs, length, dtype).reshape(len(gs) * N, -1)
    return _conj_product(X, Y).reshape(len(fs), N, len(gs), N).transpose(0, 2, 1, 3)


def inner_product(F: MatrixGaussian, G: MatrixGaussian):
    """<F, G> = int F(x) G(x)^* dx, exact up to rounding."""
    return _gram_blocks([F], [G])[0, 0]


def inner_product_weighted(P: MatrixGaussian, Q: MatrixGaussian, spec: FamilySpec):
    """<P, Q>_W = int P(x) W(x) Q(x)^* dx for matrix polynomials P, Q, given as P(x) e^{-x^2/2} and Q(x) e^{-x^2/2}.

    The arguments are MatrixGaussians, such as the `pn` of a family.  W =
    e^{-x^2} R R^T, so this is the Parseval inner product of P e^{-x^2/2} R
    and Q e^{-x^2/2} R (R is real); pairing them avoids the cancellation
    inside R R^T.
    """
    if P.size != spec.size or Q.size != spec.size:
        raise ValueError(f"sizes {P.size} and {Q.size} do not match the family's N={spec.size}")
    R = right_factor_poly(spec)
    return inner_product(MatrixGaussian(poly_times(P.coeffs, R)), MatrixGaussian(poly_times(Q.coeffs, R)))


@dataclass(frozen=True, eq=False)
class CoefficientExpansion:
    """F = sum_n coeffs[n] Phi-tilde_n, coefficients against the orthonormal family."""

    spec: FamilySpec
    n_max: int
    coeffs: np.ndarray = field(repr=False)


def _change(X, weights, plan, D):
    """out[j, i, u] = sum_v X[j + k(v-u), i, v] weights[j, u, v] for j < len(weights): a gather at `plan.spread`.

    The sum over v is real, on the (re, im) view of a complex X, and `einsum` keeps its order at any width
    (a batched `matmul` does not), so real data with 0 imaginary parts gives bit-identical results.
    """
    gathered = _behind(X, len(weights), D).take(plan.spread, axis=1)  # (j, u, v, i)
    return np.einsum("juv,juvi->jui", weights, gathered.view(float)).view(X.dtype).transpose(0, 2, 1)


def _synthesis(coeffs, ctx, rows):
    """psi_0..psi_{rows-1} of sum C_n Phi-tilde_n: F_m[:, a] = sum_r C_n[:, r] alpha[n, r, a], n = m - k(a - r)."""
    D = ctx.spec.kind * (ctx.size - 1)
    weights = _behind(ctx.alpha[: len(coeffs)], rows, D).take(ctx.plan.spread_alpha, axis=1)  # (m, a, r)
    return _change(coeffs, weights, ctx.plan, D)


def expand(F: MatrixGaussian, ctx: FamilyContext, project=False):
    """Coefficients C_n = <F, Phi-tilde_n> = sum_a F_{n+k(a-r)}[:, a] alpha[n, r, a] (column r) of F.

    F must lie in the span of Phi-tilde_0..Phi-tilde_{n_max}, that is, equal
    sum C_n Phi-tilde_n.  The residual is taken on psi-coefficients, where the
    Phi-tilde_n are orthonormal, so it is well-conditioned (below 1e-14 of
    max |F| on members, of order eps for a member plus eps Phi-tilde_{n_max+1});
    above SPAN_RTOL times max |F| it raises, unless project=True, which
    returns the truncated projection instead.
    """
    if F.size != ctx.size:
        raise ValueError("size mismatch")
    D = ctx.spec.kind * (ctx.size - 1)
    coeffs = _change(F.coeffs, ctx.alpha, ctx.plan, D)
    if not project:
        residual = _synthesis(coeffs, ctx, max(len(F.coeffs), ctx.n_max + D + 1))
        residual[: len(F.coeffs)] -= F.coeffs
        if np.abs(residual).max() > SPAN_RTOL * F.max_abs():
            raise ValueError(f"input leaves the span of the kind {ctx.spec.kind}, N={ctx.size}, nu={ctx.spec.nu} "
                             f"family up to n_max {ctx.n_max}: |F - sum C_n Phi-tilde_n| is "
                             f"{np.abs(residual).max() / F.max_abs():.3e} of max |F|; expansion would truncate "
                             "(pass project=True for a projection)")
    return CoefficientExpansion(spec=ctx.spec, n_max=ctx.n_max, coeffs=coeffs)


def reconstruct(expansion: CoefficientExpansion, ctx: FamilyContext):
    """Sum C_n Phi-tilde_n, as one gather of the C_n and alpha at the plan's offsets (`_synthesis`)."""
    N, n_max = ctx.size, expansion.n_max
    if expansion.spec != ctx.spec or expansion.coeffs.shape != (n_max + 1, N, N) or n_max > ctx.n_max:
        raise ValueError(
            f"expansion of {expansion.spec} with n_max={n_max} and coefficients of shape "
            f"{expansion.coeffs.shape} does not fit the family {ctx.spec} with n_max={ctx.n_max}"
        )
    C = np.asarray(expansion.coeffs, dtype=np.result_type(expansion.coeffs, float))
    return MatrixGaussian(_synthesis(C, ctx, n_max + ctx.spec.kind * (N - 1) + 1))


def matrix_element(ctx: FamilyContext, k, n, m):
    """(x^k I)_{nm} = int x^k Phi-tilde_n(x) Phi-tilde_m(x)^* dx: a block of the family's band; 0 if |n - m| > k."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    n, m = range(ctx.n_max + 1)[n], range(ctx.n_max + 1)[m]  # negative indices; IndexError out of range
    if abs(n - m) > k:  # vanishes by degree counting
        return np.zeros((ctx.size, ctx.size))
    return ctx.bands[k - 1][n, m - n + k].copy()  # writable, as the zero block is


@dataclass(frozen=True, eq=False)
class BandMatrix:
    """Multiplication by x^k in the orthonormal basis, stored as its band; every array is read-only.

    band[n, d + k] = (x^k I)_{n,n+d}, d = -k..k, shape (n_max+1, 2k+1, N, N), 0 where n + d leaves 0..n_max:
    O(n_max N^2) numbers.  The dense views take O((n_max N)^2) memory and are made on first access: blocks
    (n_max+1, n_max+1, N, N), 0 off the band; flat, the same as one scalar matrix; mask, |flat| > threshold.
    """

    spec: FamilySpec
    k: int
    n_max: int
    threshold: float
    band: np.ndarray = field(repr=False)

    @functools.cached_property
    def flat(self):
        n, N = self.band.shape[0], self.band.shape[-1]
        flat = np.zeros((n * N, n * N))  # real, as alpha is
        m = np.arange(n)[:, None] + np.arange(-self.k, self.k + 1)  # the block column of band[n, d + k]
        rows, d = np.nonzero((m >= 0) & (m < n))
        flat.reshape(n, N, n, N).transpose(0, 2, 1, 3)[rows, m[rows, d]] = self.band[rows, d]
        flat.flags.writeable = False
        return flat

    @functools.cached_property
    def blocks(self):
        return self.flat.reshape(len(self.band), self.spec.size, -1, self.spec.size).transpose(0, 2, 1, 3)  # a view

    @functools.cached_property
    def mask(self):
        mask = np.abs(self.flat) > self.threshold
        mask.flags.writeable = False
        return mask

    def to_csv(self, path):
        """Flattened matrix as CSV, one column c{j} per scalar column j; the matrix is real."""
        header = ",".join(f"c{j}" for j in range(self.flat.shape[0]))
        np.savetxt(path, self.flat, fmt="%.17g", delimiter=",", newline="\r\n", header=header, comments="")


def band_pattern(ctx: FamilyContext, k, n_max=None, threshold=1e-10):
    """Matrix of the homomorphism F -> x^k F in the orthonormal basis, as a BandMatrix.

    Blocks with |n - m| > k vanish by degree counting and are not computed; the
    band is the family's (`FamilyContext.bands`), cut to rows 0..n_max and 0 past
    them for a lower n_max, and the dense views are made only when read.
    """
    if not 0 < threshold < np.inf:  # also false for nan
        raise ValueError(f"threshold must be a positive finite number, got {threshold}")
    if n_max is None:
        n_max = ctx.n_max
    if not 0 <= n_max <= ctx.n_max:
        raise ValueError(f"n_max must be in 0..{ctx.n_max} (the family's n_max), got {n_max}")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    band = ctx.bands[k - 1]
    if n_max < ctx.n_max:
        band = band[: n_max + 1].copy()
        band[np.add.outer(np.arange(n_max + 1), np.arange(-k, k + 1)) > n_max] = 0.0
        band.flags.writeable = False
    return BandMatrix(spec=ctx.spec, k=k, n_max=n_max, threshold=threshold, band=band)
