"""Scalar Hermite polynomials, wave functions and Gauss-Hermite quadrature.

Conventions: H_n are the physicists' polynomials (H_{n+1} = 2x H_n - 2n H_{n-1})
and psi_n(x) = (2^n n! sqrt(pi))^{-1/2} e^{-x^2/2} H_n(x) the normalized wave
functions.  The quadrature rule integrates against the weight e^{-x^2} on R;
it needs numpy only, is computed once per order and is shared read-only.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for the weight e^{-x^2}."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def hermite_phys(n):
    """Monomial coefficients (ascending) of the physicists' Hermite polynomial."""
    if n == 0:
        return np.array([1.0])
    prev = np.array([1.0])
    cur = np.array([0.0, 2.0])
    for k in range(1, n):
        nxt = np.zeros(k + 2)
        nxt[1:] = 2.0 * cur
        nxt[: k] -= 2.0 * k * prev
        prev, cur = cur, nxt
    return cur


def wave_functions(n, x, envelope=True):
    """psi_0..psi_n at the 1-d points x, shape (n+1, len(x)), by the normalized three-term recurrence.

    psi_{k+1} = x sqrt(2/(k+1)) psi_k - sqrt(k/(k+1)) psi_{k-1}; no factorials,
    stable for large n.  With envelope=False the factor e^{-x^2/2} is left
    out, which gives the orthonormal Hermite polynomials.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    out = np.empty((n + 1, x.size))
    out[0] = np.pi ** -0.25 * (np.exp(-x * x / 2.0) if envelope else 1.0)
    if n >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, n):
        out[k + 1] = x * np.sqrt(2.0 / (k + 1)) * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def wave_function(n, x):
    """psi_n(x) for scalar or array x; see `wave_functions`."""
    x = np.asarray(x, dtype=float)
    return wave_functions(n, x.ravel())[n].reshape(x.shape)


def wave_polys(n):
    """Monomial coefficients of the polynomial parts of psi_0..psi_n, shape (n+1, n+1).

    Column j holds psi_j: psi_j(x) = (sum_i W[i, j] x^i) e^{-x^2/2}; computed
    by the normalized recurrence of `wave_functions` on coefficient vectors.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    out = np.zeros((n + 1, n + 1))
    out[0, 0] = np.pi ** -0.25
    if n >= 1:
        out[1, 1] = np.sqrt(2.0) * np.pi ** -0.25
    for k in range(1, n):
        out[1 : k + 2, k + 1] = np.sqrt(2.0 / (k + 1)) * out[: k + 1, k]
        out[:k, k + 1] -= np.sqrt(k / (k + 1.0)) * out[:k, k - 1]
    return out


def wave_poly(n):
    """Monomial coefficients of the polynomial part of psi_n; see `wave_polys`."""
    return wave_polys(n)[:, n]


@lru_cache(maxsize=None)
def gauss_hermite(m):
    """m-point Gauss-Hermite rule, cached by order; the returned arrays are read-only.

    The nodes are the eigenvalues of the symmetric Jacobi matrix with
    off-diagonal sqrt(k/2) (Golub & Welsch, Math. Comp. 23, 1969), refined
    by one Newton step on psi_m.  The weights are the Christoffel numbers
    e^{-x^2} / (m psi_{m-1}(x)^2), scaled to sum to sqrt(pi); unlike the
    squared first eigenvector components, they keep full relative accuracy
    at the small outer nodes.  Weights below the double range are 0.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    beta = np.sqrt(np.arange(1, m) / 2.0)
    nodes = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = np.exp(-nodes * nodes)
    live = weights > 0
    t = nodes[live]
    t -= wave_function(m, t) / (np.sqrt(2.0 * m) * wave_function(m - 1, t))
    nodes[live] = t
    weights[live] = np.exp(-t * t) / wave_function(m - 1, t) ** 2
    weights *= np.sqrt(np.pi) / weights.sum()
    # symmetrize: the rule is symmetric up to rounding
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order=m, nodes=nodes, weights=weights)
