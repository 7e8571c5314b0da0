"""Hermite wave functions and Gauss-Hermite quadrature.

Conventions: psi_n(x) = (2^n n! sqrt(pi))^{-1/2} e^{-x^2/2} H_n(x) are the
normalized wave functions, H_n the physicists' Hermite polynomials
(H_{n+1} = 2x H_n - 2n H_{n-1}); the library stores functions in the psi
basis and never forms monomial coefficients of H_n or psi_n.  The values are
right at every degree and point: where e^{-x^2/2} would underflow, the
recurrence carries a per-point exponent (`wave_functions`).  The quadrature
rule integrates against the weight e^{-x^2} on R; it needs numpy only, is
computed once per order and is shared read-only.

`wave_table` keeps one psi table per point set and envelope flag, so many
functions of the same or lower degree on one grid run the recurrence once, also
between reads on other points: each reads a row slice of its grid's table.  A
higher degree builds a new table from psi_0 whose rows are rounded up to a power
of two while it is kept, so its size never depends on earlier reads.  The kept
tables and the copies of their points total at most TABLE_CACHE_BYTES (1 MiB)
in at most TABLE_CACHE_ENTRIES (256) tables, least recently used dropped first;
a larger table is returned but not kept.  Values are bit-identical to
`wave_functions`.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for the weight e^{-x^2}."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


# Past this |x| the start e^{-x^2/2} of the recurrence nears the subnormal range (from 37.6; 0 from 38.6), while
# psi_m has mass out to its turning point sqrt(2m+1): those points take `_scaled_wave_functions`.
SCALED_FROM = 37.0


def wave_functions(n, x, envelope=True):
    """psi_0..psi_n at the 1-d points x, shape (n+1, len(x)), by the normalized three-term recurrence.

    psi_{k+1} = x sqrt(2/(k+1)) psi_k - sqrt(k/(k+1)) psi_{k-1}; no factorials,
    stable for large n.  Right at every (m, x): points with |x| > SCALED_FROM
    run the same recurrence on a per-point power-of-two scale, so psi_m is not
    lost to the underflow of e^{-x^2/2}; the others are untouched by it.  With
    envelope=False the factor e^{-x^2/2} is left out, which gives the
    orthonormal Hermite polynomials.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if envelope:  # clip: x x stays finite
        x = np.clip(x, -1e154, 1e154)
    out = np.empty((n + 1, x.size))
    out[0] = np.pi ** -0.25 * (np.exp(-x * x / 2.0) if envelope else 1.0)
    for k in range(n):
        out[k + 1] = x * np.sqrt(2.0 / (k + 1)) * out[k]
        if k:
            out[k + 1] -= np.sqrt(k / (k + 1.0)) * out[k - 1]
    far = np.flatnonzero(np.abs(x) > SCALED_FROM) if envelope else ()
    if len(far):
        out[:, far] = _scaled_wave_functions(n, x[far])
    return out


def _scaled_wave_functions(n, x):
    """`wave_functions(n, x)` for points past SCALED_FROM, each value carried as v 2^e.

    e starts at -x^2 / (2 ln 2) and takes the exponent of v whenever |v| > 1,
    so rescaling is exact: 1.5e-14 off a 40-digit reference up to m = 2000,
    where dividing by |v| and adding its log read 2.4e-13.
    """
    out = np.empty((n + 1, x.size))
    e, f = np.divmod(-x * x / (2.0 * np.log(2.0)), 1.0)  # e^{-x^2/2} = 2^{e + f}
    prev, cur = np.zeros(x.size), np.pi ** -0.25 * np.exp2(f)
    out[0] = np.ldexp(cur, np.maximum(e, -1e4).astype(int))  # 2^-10000: 0, as |cur| < 2
    for k in range(n):
        prev, cur = cur, x * np.sqrt(2.0 / (k + 1)) * cur - np.sqrt(k / (k + 1.0)) * prev
        shift = np.maximum(np.frexp(cur)[1], 0)
        prev, cur, e = np.ldexp(prev, -shift), np.ldexp(cur, -shift), e + shift
        out[k + 1] = np.ldexp(cur, np.maximum(e, -1e4).astype(int))
    return out


# Bytes and count of psi tables that `wave_table` keeps in `_tables`, (envelope, dtype, shape, first and last point)
# -> (bytes of the points, table), least recently used first; an entry counts its table and its points, and a larger
# one is not kept.  A density request's is 211 kB.  An entry costs ~570 bytes besides those, so 8192 one-point tables
# of 16 rows would hold 5.5 MB.
TABLE_CACHE_BYTES, TABLE_CACHE_ENTRIES = 1 << 20, 256
_tables, _tables_lock, _table_bytes = OrderedDict(), threading.Lock(), 0


def wave_table(n, x, envelope=True):
    """`wave_functions(n, x, envelope)` as a read-only array, reused while x holds the same values.

    x must be a 1-d float array.  A table is built from and kept under a copy of
    the bytes of x, so changing x in place between calls gives the new values.
    """
    global _table_bytes
    if n < 0:
        raise ValueError("index must be >= 0")
    key, data = (envelope, x.dtype, x.shape, x[:1].tobytes(), x[-1:].tobytes()), x.tobytes()
    with _tables_lock:
        kept = _tables.get(key)  # the one candidate: no scan over the tables of this shape
        if kept is not None and n < kept[1].shape[0] and kept[0] == data:
            _tables.move_to_end(key)
            return kept[1][: n + 1]
    # rows rounded up to a power of two while kept: n rising one by one makes O(log n) tables
    rows = 1 << int(n).bit_length()
    points = np.frombuffer(data, x.dtype)  # the bytes the table is kept under
    out = wave_functions(rows - 1 if (rows + 1) * x.nbytes <= TABLE_CACHE_BYTES else n, points, envelope)
    out.flags.writeable = False
    if out.nbytes + len(data) <= TABLE_CACHE_BYTES:
        with _tables_lock:  # replaces a lower degree, or other points with the same key
            old = _tables.pop(key, None)
            _table_bytes += len(data) + out.nbytes - (len(old[0]) + old[1].nbytes if old else 0)
            _tables[key] = (data, out)
            while _table_bytes > TABLE_CACHE_BYTES or len(_tables) > TABLE_CACHE_ENTRIES:
                d, t = _tables.popitem(last=False)[1]
                _table_bytes -= len(d) + t.nbytes
    return out[: n + 1]


def wave_function(n, x):
    """psi_n(x) for scalar or array x; see `wave_functions`."""
    x = np.asarray(x, dtype=float)
    return wave_functions(n, x.ravel())[n].reshape(x.shape)


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
