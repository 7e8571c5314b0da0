"""Exact algebra on matrix-valued functions in the Hermite-function basis.

A MatrixGaussian represents f(x) = sum_m C_m psi_m(x), with psi_m the
normalized Hermite wave functions and complex N x N coefficients C_m.  Every
operation is a simple map on the coefficients: the Fourier transform is the
phase (+-i)^m, the reflection x -> -x the sign (-1)^m, and multiplication by
x and d/dx are the ladder operators, so identities can be checked by
comparing coefficients instead of sampling.  The psi_m are orthonormal, so
|C_m| is the L^2 size of its term and inner products are coefficient sums.
"""

from dataclasses import dataclass, field

import numpy as np

from .hermite import wave_functions
from .structmat import _I_POW

TRIM_TOL = 1e-14
# Largest real product (multiply-adds) in evaluation.  BLAS runs larger ones on
# two threads, whose hand-off costs more than the product at these sizes (801 x
# 29 x 50: 414 us against 50 us on one thread, 2-core x86 host, OpenBLAS 0.3.31)
# and stalls whenever the other core is busy.
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


def poly_times(c, P):
    """psi-coefficients of f(x) P(x), by Horner's scheme in the ladder operator.

    c holds the psi-coefficients of f along axis 0 (each a matrix with N
    columns); P holds the monomial coefficients of a matrix polynomial
    (degree+1, N, N'), multiplied on the right.
    """
    out = c @ P[-1]
    for j in range(P.shape[0] - 2, -1, -1):
        out = ladder(out)
        out[: c.shape[0]] += c @ P[j]
    return out


@dataclass(frozen=True)
class MatrixGaussian:
    """f(x) = sum_m coeffs[m] psi_m(x), coeffs[m] complex N x N."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise ValueError("coeffs must have shape (degree+1, N, N)")
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
        poly = np.asarray(poly, dtype=complex)
        gaussian = np.pi**0.25 * np.eye(poly.shape[1])[None]  # e^{-x^2/2} = pi^{1/4} psi_0
        return cls(poly_times(gaussian, poly))

    @classmethod
    def zero(cls, N):
        return cls(np.zeros((1, N, N), dtype=complex))

    # -- evaluation -------------------------------------------------------

    def _at(self, x, envelope):
        x = np.asarray(x, dtype=float)
        psi = wave_functions(self.degree, np.atleast_1d(x), envelope)
        # real product on the interleaved (re, im) view: no complex copy of the psi table
        flat = self.coeffs.reshape(psi.shape[0], -1).view(float)
        out = np.empty((psi.shape[1], flat.shape[1]))
        step = max(1, PRODUCT_BUDGET // flat.size)  # points per product
        for s in range(0, psi.shape[1], step):
            np.matmul(psi[:, s : s + step].T, flat, out=out[s : s + step])
        out = out.view(complex).reshape((-1,) + self.coeffs.shape[1:])
        return out[0] if x.ndim == 0 else out

    def poly_at(self, x):
        """Polynomial part f(x) e^{x^2/2} at x (scalar or 1-d array)."""
        return self._at(x, envelope=False)

    def __call__(self, x):
        """Value at x (scalar or 1-d array); the psi_m recurrence keeps it finite at any x."""
        return self._at(x, envelope=True)

    # -- algebra ----------------------------------------------------------

    def _check_size(self, other):
        if self.size != other.size:
            raise ValueError("size mismatch")

    def __add__(self, other):
        self._check_size(other)
        d = max(self.degree, other.degree)
        c = np.zeros((d + 1, self.size, self.size), dtype=complex)
        c[: self.degree + 1] += self.coeffs
        c[: other.degree + 1] += other.coeffs
        return MatrixGaussian(c)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, alpha):
        return MatrixGaussian(alpha * self.coeffs)

    def left_mul(self, M):
        """x -> M f(x) for a constant matrix M."""
        return MatrixGaussian(np.einsum("ab,jbc->jac", np.asarray(M, dtype=complex), self.coeffs))

    def right_mul(self, M):
        """x -> f(x) M for a constant matrix M."""
        return MatrixGaussian(np.einsum("jab,bc->jac", self.coeffs, np.asarray(M, dtype=complex)))

    def poly_mul(self, p):
        """Multiply by a scalar polynomial with monomial coefficients p."""
        P = np.multiply.outer(np.asarray(p, dtype=complex), np.eye(self.size))
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
