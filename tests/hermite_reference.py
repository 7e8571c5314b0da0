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


def wave_function_decimal(m, xs, digits=40):
    """psi_m at each x in xs by the normalized recurrence in `decimal` arithmetic, rounded to float.

    With `digits` significant digits and decimal's wide exponent range, e^{-x^2/2} does not underflow at any x a
    test uses, so the values are right to double precision where the library's double-precision start would be 0.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits + 10
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
        up = [(Decimal(2) / (k + 1)).sqrt() for k in range(m)]
        down = [(Decimal(k) / (k + 1)).sqrt() for k in range(m)]
        out = []
        for x in xs:
            x = Decimal(float(x))
            prev, cur = Decimal(0), (-x * x / 2).exp() / pi.sqrt().sqrt()
            for k in range(m):
                prev, cur = cur, x * up[k] * cur - down[k] * prev
            out.append(float(cur))
    return np.array(out)
