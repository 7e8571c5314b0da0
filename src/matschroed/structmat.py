"""Structured matrices: nilpotent shift, level diagonal, phase and trig diagonals.

The whole construction is driven by two matrices: a nilpotent superdiagonal
shift A (parameters nu_1..nu_{N-1}) and the level diagonal
J = diag(N-1, ..., 1, 0).  They satisfy [A^k, J] = -k A^k, which is what makes
the diagonal phase matrices i^{kJ} act on powers of A like powers of the
imaginary unit act on monomials.
"""

from dataclasses import dataclass, field
from math import factorial

import numpy as np

# i^r for r mod 4, exact values
_I_POW = np.array([1, 1j, -1, -1j], dtype=complex)
_SIN_HALF_PI = np.array([0.0, 1.0, 0.0, -1.0])
_COS_HALF_PI = np.array([1.0, 0.0, -1.0, 0.0])

NILPOTENCY_TOL = 1e-12


@dataclass(frozen=True)
class StructuredPair:
    """Nilpotent shift A and level diagonal J for a given size and parameters."""

    size: int
    nu: np.ndarray
    A: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)


def build_structured(N, nu):
    """Build the pair (A, J) of size N from superdiagonal parameters nu.

    A has entry (j, j+1) equal to nu_j and zeros elsewhere, so A^N = 0.
    J = diag(N-1, N-2, ..., 0).
    """
    if N < 1:
        raise ValueError("size must be >= 1")
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (N - 1,):
        raise ValueError(f"expected {N - 1} superdiagonal parameters, got {nu.shape}")
    A = np.zeros((N, N))
    if N > 1:
        A[np.arange(N - 1), np.arange(1, N)] = nu
    J = np.diag(np.arange(N - 1, -1, -1.0))
    return StructuredPair(size=N, nu=nu, A=A, J=J)


def phase_diag(N, k):
    """Diagonal unitary i^{kJ}: entry (j, j) is i^{k(N-j)} (1-based j).

    k is taken mod 4; k = 0 gives the identity, k = 2 the real reflection
    diagonal whose square is the identity.
    """
    if N < 1:
        raise ValueError("size must be >= 1")
    levels = np.arange(N - 1, -1, -1)
    return np.diag(_I_POW[(k * levels) % 4])


def trig_diag(N, kind):
    """Diagonal sin((pi/2)J) or cos((pi/2)J); entries exactly in {-1, 0, 1}."""
    if N < 1:
        raise ValueError("size must be >= 1")
    if kind not in ("sin", "cos"):
        raise ValueError("kind must be 'sin' or 'cos'")
    levels = np.arange(N - 1, -1, -1)
    table = _SIN_HALF_PI if kind == "sin" else _COS_HALF_PI
    return np.diag(table[levels % 4])


def nilpotent_series(taylor, A):
    """Evaluate f(A) = sum_j f^(j)(0) A^j / j! for a nilpotent A.

    taylor[j] must be the j-th derivative of f at 0; only the first N terms
    matter since A^N = 0.  Raises if A is not nilpotent within tolerance.
    """
    A = np.asarray(A)
    N = A.shape[0]
    if len(taylor) < N:
        raise ValueError(f"need at least {N} Taylor coefficients, got {len(taylor)}")
    power = np.linalg.matrix_power(A, N)
    if np.max(np.abs(power)) > NILPOTENCY_TOL:
        raise ValueError("matrix is not nilpotent (A^N != 0 within tolerance)")
    return _taylor_sum(taylor, A)


def _taylor_sum(taylor, A):
    """sum_{j<N} taylor[j] A^j / j!, with no check: for an A known to be nilpotent, such as build_structured's."""
    N = A.shape[0]
    out = np.zeros((N, N), dtype=np.result_type(A, np.asarray(taylor), float))
    term = np.eye(N)
    for j in range(N):
        out += (taylor[j] / factorial(j)) * term
        term = term @ A
    return out
