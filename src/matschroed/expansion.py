"""Inner products, expansion/reconstruction in the orthonormal basis,
matrix elements of multiplication by x^k, and band patterns.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .families import (
    FamilyContext,
    FamilySpec,
    build_structured,
    poly_matmul,
    right_factor_poly,
)
from .hermite import gauss_hermite
from .matpoly import MatrixGaussian, degree_of, poly_eval

# relative L^2 size below which a coefficient of F e^{x^2/2} R^{-1} counts as zero
SPAN_RTOL = 1e-10


def _gram_blocks(fs, gs, k=0):
    """Every block <x^k f_n, g_m> = int x^k f_n(x) g_m(x)^* dx, shape (len(fs), len(gs), N, N).

    The paired Gaussian envelopes leave a polynomial against e^{-x^2}, so one
    Gauss-Hermite rule, exact for the highest-degree pair times x^k, serves
    all pairs.  Each function is evaluated once; with X and Y the sqrt(w)-scaled
    values stacked as (function, entry row) x (node, entry column), the
    blocks are the one product (t^k X) Y^*.
    """
    N = fs[0].size
    if any(h.size != N for h in (*fs, *gs)):
        raise ValueError("size mismatch")
    deg = max(f.degree for f in fs) + max(g.degree for g in gs) + k
    rule = gauss_hermite(deg // 2 + 8)
    t, sw = rule.nodes, np.sqrt(rule.weights)

    def stacked(hs, scale):
        vals = np.stack([h.poly_at(t) for h in hs]) * scale[None, :, None, None]
        return vals.transpose(0, 2, 1, 3).reshape(len(hs) * N, t.size * N)

    X = stacked(fs, sw * t**k)
    Y = stacked(gs, sw)
    return (X @ Y.conj().T).reshape(len(fs), N, len(gs), N).transpose(0, 2, 1, 3)


def inner_product(F: MatrixGaussian, G: MatrixGaussian):
    """<F, G> = int F(x) G(x)^* dx, quadrature-exact."""
    return _gram_blocks([F], [G])[0, 0]


def inner_product_weighted(P, Q, spec: FamilySpec):
    """<P, Q>_W = int P(x) W(x) Q(x)^* dx for matrix polynomials P, Q.

    P and Q are coefficient arrays (degree+1, N, N) or MatrixGaussian objects,
    in which case their polynomial parts are used.
    """
    if isinstance(P, MatrixGaussian):
        P = P.coeffs
    if isinstance(Q, MatrixGaussian):
        Q = Q.coeffs
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
    F(x) e^{x^2/2} R(x)^{-1} must be a matrix polynomial of degree <= n_max.
    Out-of-span inputs raise unless project=True, which returns the truncated
    projection instead.
    """
    if F.size != ctx.size:
        raise ValueError("size mismatch")
    if not project:
        q = poly_matmul(F.coeffs, right_factor_poly(ctx.structured, ctx.spec.kind, sign=-1))
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

    Blocks with |n - m| > k vanish by degree counting; the boolean mask marks
    entries of the flattened scalar matrix above the threshold.
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
    blocks = _gram_blocks(phis, phis, k)
    index = np.arange(n_max + 1)
    blocks[np.abs(index[:, None] - index[None, :]) > k] = 0.0
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
