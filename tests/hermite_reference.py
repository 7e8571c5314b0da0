"""Monomial forms of the scalar Hermite polynomials and wave functions, as test references.

The library stores every function in the psi basis and never needs these;
the tests compare against them.  H_n are the physicists' polynomials
(H_{n+1} = 2x H_n - 2n H_{n-1}) and psi_n(x) = (2^n n! sqrt(pi))^{-1/2}
e^{-x^2/2} H_n(x).
"""

import numpy as np


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


def wave_polys(n):
    """Monomial coefficients of the polynomial parts of psi_0..psi_n, shape (n+1, n+1).

    Column j holds psi_j: psi_j(x) = (sum_i W[i, j] x^i) e^{-x^2/2}; computed
    by the normalized recurrence of `matschroed.hermite.wave_functions` on coefficient vectors.
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
