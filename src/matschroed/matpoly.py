"""Exact algebra on (matrix polynomial) x Gaussian objects.

A MatrixGaussian represents f(x) = (sum_j C_j x^j) e^{-x^2/2} with complex
N x N coefficients C_j.  Addition, products with constant matrices or scalar
polynomials, differentiation and the Fourier transform are all closed on this
class and computed at coefficient level, so identities can be checked by
comparing coefficients instead of sampling.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hermite import hermite_monic

TRIM_TOL = 1e-14
FOURIER_DEGREE_CAP = 64


@lru_cache(maxsize=None)
def _degree_norms(count):
    """sqrt(Gamma(j + 1/2)) / sqrt(Gamma(count - 1/2)) for j < count: relative L^2 norms of x^j e^{-x^2/2}."""
    logs = np.array([0.5 * math.lgamma(j + 0.5) for j in range(count)])
    return np.exp(logs - logs[-1])


def degree_of(coeffs, rtol):
    """Highest degree whose L^2 size exceeds rtol times the largest; 0 for an all-zero input.

    The size of degree j is max|C_j| times the L^2 norm of x^j e^{-x^2/2}, so
    the tiny leading coefficients of high wave functions count at full weight.
    """
    count = coeffs.shape[0]
    sizes = np.abs(coeffs).reshape(count, -1).max(axis=1) * _degree_norms(count)
    keep = np.flatnonzero(sizes > rtol * sizes.max())
    return int(keep[-1]) if keep.size else 0


def _trim(coeffs):
    """Drop trailing degrees whose L^2 size is below TRIM_TOL times the largest."""
    return np.ascontiguousarray(coeffs[: degree_of(coeffs, TRIM_TOL) + 1])


def poly_eval(p, xs):
    """Matrix polynomial (ascending coeffs) at 1-d points xs -> (len(xs), N, N), by Horner's scheme."""
    out = np.broadcast_to(p[-1], (xs.size,) + p.shape[1:]).copy()
    for j in range(p.shape[0] - 2, -1, -1):
        out = out * xs[:, None, None] + p[j]
    return out


@dataclass(frozen=True)
class MatrixGaussian:
    """f(x) = (sum_j coeffs[j] x^j) e^{-x^2/2}, coeffs[j] complex N x N."""

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
        return self.coeffs.shape[0] - 1

    @classmethod
    def from_poly(cls, poly):
        """Wrap an array of monomial matrix coefficients (degree+1, N, N)."""
        return cls(np.asarray(poly, dtype=complex))

    @classmethod
    def zero(cls, N):
        return cls(np.zeros((1, N, N), dtype=complex))

    # -- evaluation -------------------------------------------------------

    def poly_at(self, x):
        """Polynomial part at x (scalar or 1-d array)."""
        x = np.asarray(x, dtype=float)
        out = poly_eval(self.coeffs, np.atleast_1d(x))
        return out[0] if x.ndim == 0 else out

    def __call__(self, x):
        """Value at x: polynomial part times e^{-x^2/2}."""
        x = np.asarray(x, dtype=float)
        env = np.exp(-x * x / 2.0)
        p = self.poly_at(x)
        return p * env if x.ndim == 0 else p * env[:, None, None]

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
        p = np.asarray(p, dtype=complex)
        d = self.degree + len(p) - 1
        c = np.zeros((d + 1, self.size, self.size), dtype=complex)
        for k, pk in enumerate(p):
            if pk != 0:
                c[k : k + self.degree + 1] += pk * self.coeffs
        return MatrixGaussian(c)

    def reflect(self):
        """x -> f(-x), exact coefficient sign flips."""
        signs = (-1.0) ** np.arange(self.degree + 1)
        return MatrixGaussian(signs[:, None, None] * self.coeffs)

    def conj_transpose(self):
        """x -> f(x)^*, entrywise conjugate transpose of each coefficient."""
        return MatrixGaussian(np.conj(np.swapaxes(self.coeffs, 1, 2)))

    def differentiate(self):
        """Exact derivative: coefficient polynomial P maps to P' - x P."""
        d = self.degree
        c = np.zeros((d + 2, self.size, self.size), dtype=complex)
        for j in range(1, d + 1):
            c[j - 1] += j * self.coeffs[j]
        c[1:] -= self.coeffs
        return MatrixGaussian(c)

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))

    def fourier(self, direction=1):
        """Unitary Fourier transform f -> (1/sqrt(2pi)) int f(t) e^{+-ixt} dt.

        Exact on this class: the monomial Gaussian t^j e^{-t^2/2} maps to
        (+-i)^j hat-H_j(x) e^{-x^2/2}, so the transform is a fixed linear map
        on the coefficient polynomial.
        """
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        d = self.degree
        if d > FOURIER_DEGREE_CAP:
            raise ValueError(f"degree {d} exceeds transform cap {FOURIER_DEGREE_CAP}")
        M = monic_hermite_matrix(d)
        unit = 1j if direction == 1 else -1j
        phases = unit ** np.arange(d + 1)
        scaled = phases[:, None, None] * self.coeffs
        out = np.einsum("ij,jab->iab", M, scaled)
        return MatrixGaussian(out)


@lru_cache(maxsize=None)
def monic_hermite_matrix(d):
    """(d+1) x (d+1) matrix whose column k holds the monomial coefficients of hat-H_k."""
    M = np.zeros((d + 1, d + 1))
    for k in range(d + 1):
        M[: k + 1, k] = hermite_monic(k)
    return M
