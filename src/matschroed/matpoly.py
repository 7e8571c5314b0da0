"""Exact algebra on matrix-valued functions in the Hermite-function basis.

A MatrixGaussian represents f(x) = sum_m C_m psi_m(x), with psi_m the
normalized (real) Hermite wave functions and N x N coefficients C_m: float64
for real data and complex128 for complex data, as numpy promotion gives.
Every operation is a simple map on the coefficients: the Fourier transform is
the phase (+-i)^m (so its result is complex), the reflection x -> -x the sign
(-1)^m, and multiplication by x and d/dx are the ladder operators, so
identities can be checked by comparing coefficients instead of sampling.
The psi_m are orthonormal, so |C_m| is the L^2 size of its term and inner
products are coefficient sums.
A MatrixGaussian is immutable, validated once into a read-only array it owns.
The phase of `transform_apply`, the sign of `reflect` and the placement of
alpha (`families._function`) keep every |C_m|, so they skip validation
(`_exact`).  Evaluation reads psi rows lo::stride (2 for a kind 2 Phi-tilde_n).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .hermite import wave_table
from .structmat import _I_POW

TRIM_TOL = 1e-14
# Largest real product (multiply-adds) in evaluation: points x (degree+1) x N^2
# for a real function, x 2N^2 for a complex one (its interleaved (re, im) view).
# BLAS runs larger ones on two threads, whose hand-off costs more than the
# product at these sizes (801 x 29 x 50: 414 us against 50 us on one thread,
# 2-core x86 host, OpenBLAS 0.3.31) and stalls whenever the other core is busy.
PRODUCT_BUDGET = 10**6


def poly_eval(p, xs):
    """Matrix polynomial (ascending monomial coeffs) at 1-d points xs -> (len(xs), N, N), by Horner's scheme."""
    out = np.broadcast_to(p[-1], (xs.size,) + p.shape[1:]).copy()
    for j in range(p.shape[0] - 2, -1, -1):
        out = out * xs[:, None, None] + p[j]
    return out


def ladder(v, sign=1, start=None):
    """Multiplication by x (sign=1) or d/dx (sign=-1) on psi-coefficients along axis 0.

    x psi_m = sqrt(m/2) psi_{m-1} + sqrt((m+1)/2) psi_{m+1}; d/dx flips the
    sign of the second term.  The result has one more index.  v[j] is the
    psi_j coefficient, or with start the psi_{start+j} one of a band window:
    start is an integer array broadcast against v[0] (one start per stacked
    function), coefficients at negative psi indices must be 0, and the
    psi_{start-1} term of v[0] is dropped, so a window needs a zero first row.
    """
    s = np.arange(1, v.shape[0] + 1)  # 1 + psi index of v[j]
    if start is not None:
        s = np.maximum(np.add.outer(s, start), 0)
    s = np.sqrt(s / 2.0).reshape(s.shape + (1,) * (v.ndim - s.ndim))
    out = np.zeros((v.shape[0] + 1,) + v.shape[1:], dtype=v.dtype)
    out[:-2] = s[:-1] * v[1:]
    out[1:] += sign * s * v
    return out


def ladder_band(m_max, steps):
    """band[j, m, o]: the psi_{m+o-steps} coefficient of x^j psi_m, for j = 0..steps and m = 0..m_max.

    By the ladder recurrence on the band itself: x^j psi_m reaches only
    psi_{m-j}..psi_{m+j}, and coefficients at negative psi indices stay 0.
    """
    q = np.arange(m_max + 1)[:, None] + np.arange(-steps, steps + 1)  # psi index of each entry
    down, up = np.sqrt(np.maximum(q + 1, 0) / 2.0), np.sqrt(np.maximum(q, 0) / 2.0)  # from psi_{q+1}, psi_{q-1}
    band = np.zeros((steps + 1, m_max + 1, 2 * steps + 1))
    band[0, :, steps] = 1.0
    for j in range(1, steps + 1):
        band[j, :, :-1] = down[:, :-1] * band[j - 1, :, 1:]
        band[j, :, 1:] += up[:, 1:] * band[j - 1, :, :-1]
    return band


def poly_times(c, P):
    """psi-coefficients of f(x) P(x), by Horner's scheme in the ladder operator.

    c holds the psi-coefficients of f along axis 0 (each a matrix with N
    columns); P holds the monomial coefficients of a matrix polynomial
    (degree+1, N, N'), multiplied on the right.  Each c P[j] is one 2-d
    product on c's rows, not a batch of N x N products.
    """
    rows = c.reshape(-1, c.shape[-1])
    out = (rows @ P[-1]).reshape(c.shape[:-1] + P.shape[-1:])
    for j in range(P.shape[0] - 2, -1, -1):
        out = ladder(out)
        out[: c.shape[0]] += (rows @ P[j]).reshape(c.shape[:-1] + P.shape[-1:])
    return out


@dataclass(frozen=True)
class MatrixGaussian:
    """f(x) = sum_m coeffs[m] psi_m(x), coeffs[m] N x N: float64 for real or integer input, else complex128.

    Immutable: coeffs is read-only and owned (copied where it would alias a writeable input), validated once.
    """

    coeffs: np.ndarray = field(repr=False)
    lo: int = field(init=False, repr=False, compare=False)  # lowest index with a nonzero coefficient (0 if none)
    stride: int = field(default=1, init=False, repr=False, compare=False)  # rows lo::stride hold every nonzero one

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.dtype.kind not in "iufc":
            raise ValueError(f"coeffs must be real or complex numbers, got dtype {c.dtype}")
        c = c.astype(np.result_type(c, float), copy=False)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ValueError("coeffs must have shape (degree+1, N, N)")
        sizes = np.abs(c).reshape(c.shape[0], -1).max(axis=1)  # nan or inf in a row with a nan or inf
        if not np.isfinite(sizes).all() and not np.isfinite(c).all():
            first = tuple(int(i) for i in np.argwhere(~np.isfinite(c))[0])
            raise ValueError(f"coeffs must be finite, got {c[first]} at index {first}")
        keep = np.flatnonzero(sizes > TRIM_TOL * sizes.max())  # trailing indices below it are dropped
        kept = np.ascontiguousarray(c[: keep[-1] + 1 if keep.size else 1])
        if kept.flags.writeable and isinstance(self.coeffs, np.ndarray) and np.may_share_memory(kept, self.coeffs):
            kept = kept.copy()  # the caller could change it later
        kept.flags.writeable = False
        object.__setattr__(self, "coeffs", kept)
        object.__setattr__(self, "lo", int(np.argmax(sizes > 0.0)))

    @classmethod
    def _exact(cls, coeffs, lo, stride=1):
        """For exact maps only: finite, trimmed coeffs, nonzero on rows lo::stride, taken without validation."""
        f, coeffs.flags.writeable = object.__new__(cls), False
        f.__dict__.update(coeffs=coeffs, lo=lo, stride=stride)
        return f

    @property
    def size(self):
        return self.coeffs.shape[1]

    @property
    def degree(self):
        """Highest psi index, which is also the degree of the polynomial part."""
        return self.coeffs.shape[0] - 1

    @classmethod
    def from_poly(cls, poly):
        """The function P(x) e^{-x^2/2} for monomial matrix coefficients P, shape (degree+1, N, N)."""
        poly = np.asarray(poly)
        gaussian = np.pi**0.25 * np.eye(poly.shape[1])[None]  # e^{-x^2/2} = pi^{1/4} psi_0
        return cls(poly_times(gaussian, poly))

    @classmethod
    def zero(cls, N):
        return cls(np.zeros((1, N, N)))

    # -- evaluation -------------------------------------------------------

    def _at(self, x, envelope):
        x = np.asarray(x)
        if np.iscomplexobj(x):
            raise ValueError("evaluation points must be real, got a complex array")
        x = x.astype(float, copy=False)
        if x.ndim > 1:
            raise ValueError(f"evaluation points must be a scalar or a 1-d array, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"evaluation points must be finite, got {x[~np.isfinite(x)][:3]}")
        rows = slice(self.lo, None, self.stride)  # the other rows meet zeros
        psi = wave_table(self.degree, np.atleast_1d(x), envelope)[rows]
        # a real product; a complex function runs on its interleaved (re, im) view, with no complex psi table
        flat = self.coeffs[rows].reshape(psi.shape[0], -1).view(float)
        out = np.empty((psi.shape[1], flat.shape[1]))
        step = max(1, PRODUCT_BUDGET // flat.size)  # points per product
        for s in range(0, psi.shape[1], step):
            np.matmul(psi[:, s : s + step].T, flat, out=out[s : s + step])
        out = out.view(self.coeffs.dtype).reshape((-1,) + self.coeffs.shape[1:])
        return out[0] if x.ndim == 0 else out

    def poly_at(self, x):
        """Polynomial part f(x) e^{x^2/2} at x (scalar or 1-d array)."""
        return self._at(x, envelope=False)

    def __call__(self, x):
        """Value at x (a finite real scalar or 1-d array) in the dtype of coeffs; finite at any x (psi_m recurrence).

        The psi table comes from `hermite.wave_table`, which keeps one table per
        point set (least recently used dropped first, up to 1 MiB in 256 tables in
        total): evaluating several functions on the same points builds it once,
        also between calls on other points, with bit-identical results.
        """
        return self._at(x, envelope=True)

    # -- algebra ----------------------------------------------------------

    def _check_size(self, other):
        if self.size != other.size:
            raise ValueError("size mismatch")

    def __add__(self, other):
        self._check_size(other)
        d = max(self.degree, other.degree)
        c = np.zeros((d + 1, self.size, self.size), dtype=np.result_type(self.coeffs, other.coeffs))
        c[: self.degree + 1] += self.coeffs
        c[: other.degree + 1] += other.coeffs
        return MatrixGaussian(c)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, alpha):
        return MatrixGaussian(alpha * self.coeffs)

    def left_mul(self, M):
        """x -> M f(x) for a constant matrix M."""
        return MatrixGaussian(np.einsum("ab,jbc->jac", np.asarray(M), self.coeffs))

    def right_mul(self, M):
        """x -> f(x) M for a constant matrix M."""
        return MatrixGaussian(np.einsum("jab,bc->jac", self.coeffs, np.asarray(M)))

    def poly_mul(self, p):
        """Multiply by a scalar polynomial with monomial coefficients p."""
        P = np.multiply.outer(np.asarray(p), np.eye(self.size))
        return MatrixGaussian(poly_times(self.coeffs, P))

    def reflect(self):
        """x -> f(-x): psi_m has parity (-1)^m."""
        signs = (-1.0) ** np.arange(self.degree + 1)
        return MatrixGaussian._exact(signs[:, None, None] * self.coeffs, self.lo, self.stride)  # |sign| = 1

    def differentiate(self):
        """Exact derivative, by the ladder operator."""
        return MatrixGaussian(ladder(self.coeffs, sign=-1))

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))

    def fourier(self, direction=1):
        """Unitary Fourier transform f -> (1/sqrt(2pi)) int f(t) e^{+-ixt} dt: `transform_apply(f, 0, direction)`.

        Exact on this class: psi_m is an eigenfunction with eigenvalue (+-i)^m.
        """
        return transform_apply(self, 0, direction)


@functools.lru_cache(maxsize=32, typed=True)
def _phase(rows, N, k, direction):
    """The read-only (rows, 1, N) table i^{direction(m + kJ_b)} of `transform_apply`, kept per shape."""
    power = direction * (np.arange(rows)[:, None] + k * np.arange(N - 1, -1, -1))
    table = _I_POW[power % 4][:, None, :]
    table.flags.writeable = False
    return table


def transform_apply(f: MatrixGaussian, k, direction=1):
    """The Fourier-type transform F_k (or its inverse), exactly: coefficient (m, a, b) times i^{direction(m + kJ_b)}.

    The phase has modulus 1, so f's validation, trim and `lo` carry over; its table is kept for 32 shapes.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    return MatrixGaussian._exact(f.coeffs * _phase(f.degree + 1, f.size, k, direction), f.lo, f.stride)
