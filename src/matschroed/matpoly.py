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
"""

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


def degree_of(coeffs, rtol):
    """Highest index whose coefficient exceeds rtol times the largest one in size; 0 for an all-zero input."""
    sizes = np.abs(coeffs).reshape(coeffs.shape[0], -1).max(axis=1)
    keep = np.flatnonzero(sizes > rtol * sizes.max())
    return int(keep[-1]) if keep.size else 0


def _trim(coeffs):
    """Drop trailing indices whose coefficients are below TRIM_TOL times the largest."""
    return np.ascontiguousarray(coeffs[: degree_of(coeffs, TRIM_TOL) + 1])


def poly_eval(p, xs):
    """Matrix polynomial (ascending monomial coeffs) at 1-d points xs -> (len(xs), N, N), by Horner's scheme."""
    out = np.broadcast_to(p[-1], (xs.size,) + p.shape[1:]).copy()
    for j in range(p.shape[0] - 2, -1, -1):
        out = out * xs[:, None, None] + p[j]
    return out


def ladder(v, sign=1):
    """Multiplication by x (sign=1) or d/dx (sign=-1) on psi-coefficients along axis 0.

    x psi_m = sqrt(m/2) psi_{m-1} + sqrt((m+1)/2) psi_{m+1}; d/dx flips the
    sign of the second term.  The result has one more index.
    """
    s = np.sqrt(np.arange(1, v.shape[0] + 1) / 2.0).reshape((-1,) + (1,) * (v.ndim - 1))
    out = np.zeros((v.shape[0] + 1,) + v.shape[1:], dtype=v.dtype)
    out[:-2] = s[:-1] * v[1:]
    out[1:] += sign * s * v
    return out


def ladder_band(m_max, steps):
    """band[j, m, o]: the psi_{m+o-steps} coefficient of x^j psi_m, for j = 0..steps and m = 0..m_max.

    By j ladder steps on the unit vectors; x^j psi_m reaches only psi_{m-j}..psi_{m+j}.
    """
    power = np.eye(m_max + 1)  # column m: psi-coefficients of x^j psi_m
    padded = np.zeros((m_max + 1 + 2 * steps, m_max + 1))  # `steps` zero rows below index 0
    cols = np.arange(m_max + 1)[:, None]
    band = np.empty((steps + 1, m_max + 1, 2 * steps + 1))
    for j in range(steps + 1):
        if j:
            power = ladder(power)
        padded[steps : steps + power.shape[0]] = power
        band[j] = padded[cols + np.arange(2 * steps + 1), cols]
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
    """f(x) = sum_m coeffs[m] psi_m(x), coeffs[m] N x N: float64 for real or integer input, else complex128."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.dtype.kind not in "iufc":
            raise ValueError(f"coeffs must be real or complex numbers, got dtype {c.dtype}")
        c = c.astype(np.result_type(c, float), copy=False)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ValueError("coeffs must have shape (degree+1, N, N)")
        if not np.isfinite(c).all():
            first = tuple(int(i) for i in np.argwhere(~np.isfinite(c))[0])
            raise ValueError(f"coeffs must be finite, got {c[first]} at index {first}")
        object.__setattr__(self, "coeffs", _trim(c))

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
        psi = wave_table(self.degree, np.atleast_1d(x), envelope)
        # a real product; a complex function runs on its interleaved (re, im) view, with no complex psi table
        flat = self.coeffs.reshape(psi.shape[0], -1).view(float)
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

        The psi table comes from `hermite.wave_table`: evaluating several
        functions on the same points builds it once (tables up to
        TABLE_CACHE_BYTES = 1 MiB are kept), with bit-identical results.
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
        return MatrixGaussian(signs[:, None, None] * self.coeffs)

    def conj_transpose(self):
        """x -> f(x)^*, entrywise conjugate transpose of each coefficient (the psi_m are real)."""
        return MatrixGaussian(np.conj(np.swapaxes(self.coeffs, 1, 2)))

    def differentiate(self):
        """Exact derivative, by the ladder operator."""
        return MatrixGaussian(ladder(self.coeffs, sign=-1))

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))

    def fourier(self, direction=1):
        """Unitary Fourier transform f -> (1/sqrt(2pi)) int f(t) e^{+-ixt} dt.

        Exact on this class: psi_m is an eigenfunction with eigenvalue (+-i)^m.
        """
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        phases = _I_POW[(direction * np.arange(self.degree + 1)) % 4]
        return MatrixGaussian(phases[:, None, None] * self.coeffs)
