"""Inner products, expansion/reconstruction in the orthonormal basis,
matrix elements of multiplication by x^k, and band patterns.

Functions are stored as psi-coefficients, so by Parseval every inner
product is a sum of coefficient products and multiplication by x^k is k
steps of the ladder operator; no quadrature is involved.  Only the weighted
inner product of monomial matrix polynomials uses a Gauss-Hermite rule.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .families import FamilyContext, FamilySpec, build_structured, right_factor_poly
from .hermite import gauss_hermite
from .matpoly import MatrixGaussian, degree_of, ladder, poly_eval, poly_times

# size, relative to the largest, below which a psi-coefficient of F R^{-1} counts as zero
SPAN_RTOL = 1e-10


def _rows(hs, length, k=0):
    """psi-coefficients of x^k h (by ladder steps) for each h, entry row by entry row: (len(hs), N, length*N)."""
    N = hs[0].size
    out = np.zeros((length - k, len(hs), N, N), dtype=complex)
    for i, h in enumerate(hs):
        out[: h.degree + 1, i] = h.coeffs
    for _ in range(k):
        out = ladder(out)
    return out.transpose(1, 2, 0, 3).reshape(len(hs), N, length * N)


def _conj_product(X, Y):
    """X Y^* for complex 2-d X, Y, as one real product on the (re, im) views (Y gives Re, i Y gives Im).

    BLAS hands complex products above ~6.5e4 multiply-adds to a second
    thread, real ones above 1e6 (`matpoly.PRODUCT_BUDGET`); for 5 x 145 x 105
    that took 360 us against 19 us as a real product.
    """
    P = X.view(float) @ np.concatenate([Y, 1j * Y]).view(float).T
    return P[:, : Y.shape[0]] + 1j * P[:, Y.shape[0] :]


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
    X = _rows(fs, length, k).reshape(len(fs) * N, -1)
    Y = _rows(gs, length).reshape(len(gs) * N, -1)
    return _conj_product(X, Y).reshape(len(fs), N, len(gs), N).transpose(0, 2, 1, 3)


def inner_product(F: MatrixGaussian, G: MatrixGaussian):
    """<F, G> = int F(x) G(x)^* dx, exact up to rounding."""
    return _gram_blocks([F], [G])[0, 0]


def inner_product_weighted(P, Q, spec: FamilySpec):
    """<P, Q>_W = int P(x) W(x) Q(x)^* dx for matrix polynomials P, Q.

    P and Q are monomial coefficient arrays (degree+1, N, N), such as the
    `pn` of a family; the Gauss-Hermite rule is exact for the product.
    """
    pair = build_structured(spec.size, spec.nu)
    R = right_factor_poly(pair, spec.kind)
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
        q = poly_times(F.coeffs, right_factor_poly(ctx.structured, ctx.spec.kind, sign=-1))
        deg = degree_of(q, SPAN_RTOL)
        if deg > ctx.n_max:
            raise ValueError(
                f"input spans degree {deg} > n_max {ctx.n_max}; expansion would truncate "
                "(pass project=True for a projection)"
            )
    coeffs = _gram_blocks([F], ctx.phi_tilde)[0]
    return CoefficientExpansion(spec=ctx.spec, n_max=ctx.n_max, coeffs=coeffs)


def reconstruct(expansion: CoefficientExpansion, ctx: FamilyContext):
    """Sum C_n Phi-tilde_n in exact coefficient algebra."""
    if expansion.n_max > ctx.n_max:
        raise ValueError("expansion index exceeds context")
    out = MatrixGaussian.zero(ctx.size)
    for n in range(expansion.n_max + 1):
        out = out + ctx.phi_tilde[n].left_mul(expansion.coeffs[n])
    return out


def matrix_element(ctx: FamilyContext, k, n, m):
    """(x^k I)_{nm} = int x^k Phi-tilde_n(x) Phi-tilde_m(x)^* dx."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
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
        """Flattened matrix as CSV, complex entries split into _re/_im pairs."""
        size = self.flat.shape[0]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = []
            for j in range(size):
                header += [f"c{j}_re", f"c{j}_im"]
            writer.writerow(header)
            for i in range(size):
                row = []
                for j in range(size):
                    row += [format(self.flat[i, j].real, ".17g"), format(self.flat[i, j].imag, ".17g")]
                writer.writerow(row)


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
    N = ctx.size
    phis = ctx.phi_tilde[: n_max + 1]
    length = max(h.degree for h in phis) + k + 1
    X, Y = _rows(phis, length, k), _rows(phis, length)
    # Phi-tilde_n against Phi-tilde_m for m = n-k..n+k only, one small product per n;
    # m is clipped into range at the ends and those products are dropped
    n = np.arange(n_max + 1)[:, None]
    m = n + np.arange(-k, k + 1)
    window = np.conj(Y[np.clip(m, 0, n_max)]).reshape(n_max + 1, (2 * k + 1) * N, -1)
    near = (X @ window.transpose(0, 2, 1)).reshape(n_max + 1, N, 2 * k + 1, N).transpose(0, 2, 1, 3)
    keep = (m >= 0) & (m <= n_max)
    blocks = np.zeros((n_max + 1, n_max + 1, N, N), dtype=complex)
    blocks[np.broadcast_to(n, m.shape)[keep], m[keep]] = near[keep]
    flat = blocks.transpose(0, 2, 1, 3).reshape((n_max + 1) * N, (n_max + 1) * N)
    return BandMatrix(
        spec=ctx.spec,
        k=k,
        n_max=n_max,
        threshold=threshold,
        blocks=blocks,
        flat=flat,
        mask=np.abs(flat) > threshold,
    )
