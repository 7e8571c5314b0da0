"""Accuracy oracle owned by the benchmark: the trapezoidal rule on a uniform grid.

For analytic integrands with Gaussian decay the uniform-grid trapezoidal rule
converges geometrically in the step h (Trefethen & Weideman, SIAM Review 56,
2014), so its error falls as the grid is refined.  The oracle only evaluates
the functions it is given at points: each function is any callable mapping a
1-d array of x to an array of shape (len(x), N, N).  It imports nothing from
the library under test.
"""

import math

import numpy as np

STEP = 0.05
HALF_WIDTH = 14.0
CHUNK = 64


def grid(h=STEP, half_width=HALF_WIDTH):
    """Uniform nodes on [-half_width, half_width] with step h."""
    m = int(round(half_width / h))
    return h * np.arange(-m, m + 1)


def _chunks(xs):
    for lo in range(0, xs.size, CHUNK):
        yield xs[lo : lo + CHUNK]


def gram(fns, h=STEP, half_width=HALF_WIDTH):
    """Block Gram matrix G[(n,a),(m,b)] = int (f_n f_m^*)_{ab} dx, shape (n*N, n*N)."""
    G = None
    for xs in _chunks(grid(h, half_width)):
        V = np.stack([f(xs) for f in fns])  # (n, x, a, c)
        M = V.transpose(0, 2, 1, 3).reshape(V.shape[0] * V.shape[2], -1)
        part = M @ M.conj().T
        G = part if G is None else G + part
    return h * G


def gram_error(fns, h=STEP, half_width=HALF_WIDTH):
    """Worst entry of |<f_n, f_m> - delta_nm I| over the whole list."""
    G = gram(fns, h, half_width)
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def transform_at(f, xq, h=STEP, half_width=HALF_WIDTH):
    """(1/sqrt(2 pi)) int f(t) e^{+i x t} dt at the points xq, shape (len(xq), N, N)."""
    xq = np.asarray(xq, dtype=float)
    out = 0.0
    for ts in _chunks(grid(h, half_width)):
        kern = np.exp(1j * np.outer(xq, ts))
        out = out + np.einsum("qt,tab->qab", kern, f(ts))
    return out * (h / math.sqrt(2.0 * math.pi))


def phase(N, k):
    """Diagonal i^{kJ} with J = diag(N-1, ..., 0)."""
    return np.diag(1j ** (k * np.arange(N - 1, -1, -1)))


def fourier_eigen_error(fns, k, xq, h=STEP, half_width=HALF_WIDTH):
    """Worst |(F f_n)(x) i^{kJ} - i^n i^{kJ} f_n(x)| over n and the points xq."""
    worst = 0.0
    for n, f in enumerate(fns):
        fx = f(np.asarray(xq, dtype=float))
        P = phase(fx.shape[1], k)
        lhs = transform_at(f, xq, h, half_width) @ P
        rhs = (1j ** n) * np.einsum("ab,qbc->qac", P, fx)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def moment(f, g, k, h=STEP, half_width=HALF_WIDTH):
    """int x^k f(x) g(x)^* dx, one N x N block."""
    out = 0.0
    for xs in _chunks(grid(h, half_width)):
        out = out + np.einsum("x,xab,xcb->ac", xs**k, f(xs), np.conj(g(xs)))
    return h * out


def hermite_functions(n_max, x):
    """psi_0..psi_{n_max} at x by the normalized three-term recurrence, shape (n_max+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    out[0] = math.pi**-0.25 * np.exp(-x * x / 2.0)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for j in range(1, n_max):
        out[j + 1] = math.sqrt(2.0 / (j + 1)) * x * out[j] - math.sqrt(j / (j + 1.0)) * out[j - 1]
    return out


def scalar_functions(n_max):
    """psi_n as 1 x 1 matrix-valued callables, for checking the oracle itself."""
    return [lambda x, n=n: hermite_functions(n, x)[n][:, None, None] for n in range(n_max + 1)]


def self_check(n_max=30):
    """Oracle error on psi_n, which are orthonormal with psi-hat_n = i^n psi_n."""
    fns = scalar_functions(n_max)
    return max(gram_error(fns), fourier_eigen_error(fns, 0, [-2.5, -1.0, 0.0, 0.7, 1.9]))
