"""The two concrete families of matrix-valued orthogonal functions.

Family k (k = 1, 2) has weight W(x) = e^{-x^2} R(x) R(x)^T with right factor
R(x) = e^{Ax} (k = 1) or e^{Bx^2}, B = A(I+A)^{-1} (k = 2), and functions
Phi_n(x) = e^{-x^2/2} P_n(x) R(x) with deg P_n = n.  The potential x^2 I + 2kJ
of their Schrodinger operator acts on the right, so it decouples column by
column into scalar harmonic oscillators: entry (r, a) of the orthonormal
Phi-tilde_n is alpha[n, r, a] psi_m(x) with m = n + k(a - r), or zero when
m < 0.  Each row of the table alpha is the null vector of the linear
condition deg(Phi-tilde_n e^{x^2/2} R^{-1}) <= n, computed in the psi basis
where multiplication by x is the ladder operator.  Row r of every n depends
only on rows q < r of earlier n, so the table is built one row index at a
time for all n at once: the psi-coefficients of psi_m e_a R^{-1} are one
product table per build, and each row index takes one stacked SVD per set
of supported columns.  The norms, Phi_n and P_n follow from the table in
closed form.  Phi-tilde_n and Phi_n are stored as their psi-coefficients,
the table placed at index m; only P_n is returned as monomial coefficients.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import wave_polys
from .matpoly import MatrixGaussian, ladder, poly_eval
from .structmat import StructuredPair, build_structured, nilpotent_series


class ConsistencyError(RuntimeError):
    """A structural identity the construction relies on failed numerically."""


@dataclass(frozen=True)
class FamilySpec:
    """Which family (1 or 2), matrix size N and superdiagonal parameters nu."""

    kind: int
    size: int
    nu: tuple

    def __post_init__(self):
        if self.kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        object.__setattr__(self, "nu", tuple(float(v) for v in self.nu))
        if len(self.nu) != self.size - 1:
            raise ValueError(f"expected {self.size - 1} parameters, got {len(self.nu)}")
        if not all(math.isfinite(v) for v in self.nu):
            raise ValueError(f"parameters must be finite, got {self.nu}")

    def to_json(self):
        return json.dumps({"kind": self.kind, "N": self.size, "nu": list(self.nu)})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(kind=data["kind"], size=data["N"], nu=data["nu"])


def gamma_seq(spec, n_max):
    """The scalar normalization sequence for N = 2 closed forms.

    Family 1: gamma_n = 1 + n nu1^2 / 2.  Family 2: gamma_n = 1 + (nu1^2/2) C(n, 2).
    """
    if spec.size != 2:
        raise ValueError("gamma sequence is defined for N = 2 only")
    nu1 = spec.nu[0]
    n = np.arange(n_max + 1)
    if spec.kind == 1:
        return 1.0 + 0.5 * n * nu1 ** 2
    return 1.0 + 0.5 * nu1 ** 2 * (n * (n - 1) / 2.0)


def right_factor_poly(pair: StructuredPair, kind, sign=1):
    """Matrix polynomial part of the weight factor R = e^{Ax} or e^{Bx^2}; sign=-1 gives R^{-1}."""
    N, A = pair.size, pair.A
    if kind == 2:
        A = A @ nilpotent_series([(-1) ** j * math.factorial(j) for j in range(N)], A)  # B = A (I+A)^{-1}
    coeffs = np.zeros((kind * (N - 1) + 1, N, N))
    term = np.eye(N)
    for j in range(N):
        coeffs[kind * j] = term / math.factorial(j)
        term = sign * term @ A
    return coeffs


def weight_eval(spec, x):
    """The weight matrix W(x) = e^{-x^2} R(x) R(x)^T; symmetric positive definite, W(0) = I."""
    pair = build_structured(spec.size, spec.nu)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    R = poly_eval(right_factor_poly(pair, spec.kind), xs)
    vals = R @ np.swapaxes(R, 1, 2) * np.exp(-xs * xs)[:, None, None]
    return vals[0] if scalar else vals


@dataclass(frozen=True)
class FamilyContext:
    """Everything built for one family up to index n_max.

    norms[n] = ||P_n||^2 is inf once it leaves the double range (from n near
    190 for N = 8); log_norms[n] holds log ||P_n||^2, finite for every n.
    null_margin[n, r] is the second-smallest over the largest singular value
    of the degree condition of row r of Phi-tilde_n (1.0 when the row has a
    single unknown): near machine epsilon, the row is barely determined.
    """

    spec: FamilySpec
    structured: StructuredPair
    n_max: int
    right_factor: np.ndarray = field(repr=False)
    pn: list = field(repr=False)
    norms: list = field(repr=False)
    phi: list = field(repr=False)
    phi_tilde: list = field(repr=False)
    log_norms: np.ndarray = field(repr=False)
    null_margin: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.spec.size


def _product_table(R_inv, m_max):
    """psi-coefficients of psi_m e_a R^{-1} for m = 0..m_max, shape (m_max+1, 2D+1, N, N).

    T[m, o, a, b] is the psi_{m+o-D} coefficient of column b of psi_m(x) times
    row a of R^{-1}(x), D = deg R^{-1}; by D ladder steps on the unit columns.
    """
    D = R_inv.shape[0] - 1
    power = np.eye(m_max + 1)  # column m: psi-coefficients of x^j psi_m
    padded = np.zeros((m_max + 1 + 2 * D, m_max + 1))  # D zero rows below index 0
    cols = np.arange(m_max + 1)[:, None]
    band = np.empty((D + 1, m_max + 1, 2 * D + 1))
    for j in range(D + 1):
        if j:
            power = ladder(power)
        padded[D : D + power.shape[0]] = power
        band[j] = padded[cols + np.arange(2 * D + 1), cols]
    return np.tensordot(band, R_inv, axes=(0, 0))


def _table(spec, T, n_max):
    """The coefficient table alpha of Phi-tilde_0..n_max, and the windowed psi-coefficients of P_n.

    Entry (r, a) of Phi-tilde_n is alpha[n, r, a] psi_m with m = n + k(a - r)
    (k = kind).  Row r is the unit vector with deg(row R^{-1}) <= n, i.e. no
    psi-coefficient above n in any column of row R^{-1}, orthogonal to the
    rows with the same eigenvalue n + kJ_r, which are the rows q < r of
    earlier n; the sign makes the psi_n coefficient of column r positive.
    So row r depends only on rows q < r, and the loop runs over r, with one
    stacked SVD for all n whose row r has the same supported columns
    a >= r - n // k.  Returns alpha, psi with psi[n, w, r, b] the
    psi_{n-2D+w} coefficient of column b of row r of Phi-tilde_n R^{-1}
    (D = k(N-1); nothing lower is reached), and the null-space margins.
    Raises ConsistencyError for the first failing (n, row) in n order.
    """
    N, k = spec.size, spec.kind
    D = k * (N - 1)
    alpha = np.zeros((n_max + 1, N, N))
    psi = np.zeros((n_max + 1, 2 * D + 1, N, N))
    margin = np.ones((n_max + 1, N))
    eps = np.finfo(float).eps
    first_bad, message = (n_max + 1, N), None  # first failure, in n order then row order
    for r in range(N):
        above = k * (N - 1 - r)  # psi indices n+1..n+above of row R^{-1} must vanish
        w = np.arange(2 * D + 1 + above)  # window n-2D..n+above
        for a0 in range(r, -1, -1):  # first supported column
            lo = k * (r - a0)
            hi = min(lo + k if a0 else n_max + 1, first_bad[0])  # rows q < r are valid below first_bad
            if lo >= hi:
                break
            ns, a = np.arange(lo, hi), np.arange(a0, N)
            shift = k * (a - r) + D  # window index of the lowest psi index each column reaches
            offset = w[:, None] - shift
            # prod[g, w, c, b]: psi_{n-2D+w} coefficient of column b of psi_{m_c} e_{a_c} R^{-1}
            prod = T[(ns[:, None] + k * (a - r))[:, None, :], np.maximum(offset, 0), a]
            prod *= (offset >= 0)[:, :, None]
            high = prod[:, 2 * D + 1 :].transpose(0, 1, 3, 2).reshape(ns.size, above * N, a.size)
            earlier = ns[:, None] - k * (r - np.arange(r))  # rows q < r with the same eigenvalue
            same = alpha[np.maximum(earlier, 0), np.arange(r), a0:] * (earlier >= 0)[:, :, None]
            rows = np.concatenate([high, same], axis=1)
            _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[1] < a.size)
            s = np.concatenate([s, np.zeros((ns.size, a.size - s.shape[1]))], axis=1)  # zeros of a wide matrix
            # numpy's default rank tolerance, from the shape without the padding rows of `same`
            height = above * N + (earlier >= 0).sum(axis=1)
            null_dim = (s <= s[:, :1] * np.maximum(height, a.size)[:, None] * eps).sum(axis=1)
            v = vh[:, -1]
            row_psi = np.einsum("gwcb,gc->gwb", prod[:, : 2 * D + 1], v)
            lead = row_psi[:, 2 * D, r]
            sign = np.sign(lead)
            alpha[ns, r, a0:] = sign[:, None] * v
            psi[ns, :, r, :] = sign[:, None, None] * row_psi
            bad = np.flatnonzero((null_dim != 1) | (lead == 0.0))
            if bad.size:  # before first_bad[0], so it is the first failure so far; later rows stop below it
                g = bad[0]
                n = int(ns[g])
                where = f"kind {spec.kind}, N={N}, nu={spec.nu}, n={n}, row {r}"
                if null_dim[g] != 1:
                    message = (
                        f"{where}: degree condition leaves a {null_dim[g]}-dimensional solution space, "
                        f"expected 1 (singular values {s[g]})"
                    )
                else:
                    message = f"{where}: psi_{n} coefficient of the diagonal entry vanishes"
                first_bad = (n, r)
                break
            if a.size > 1:
                margin[ns, r] = s[:, -2] / s[:, 0]
    if message is not None:
        raise ConsistencyError(message)
    return alpha, psi, margin


def build_family(spec, n_max):
    """Construct the orthonormal functions, their norms and polynomials up to n_max.

    Each Phi-tilde_n is stored as its table of wave-function coefficients
    (see `_table`).  With c_r the psi_n coefficient of column r of row r of
    Phi-tilde_n R^{-1}: ||P_n||^2 = diag(n! sqrt(pi) / (2^n c_r^2)),
    Phi_n = ||P_n|| Phi-tilde_n and P_n is the polynomial part of
    Phi_n R^{-1} e^{x^2/2}, whose leading coefficient has unit diagonal; P_n
    alone is returned as monomial coefficients.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    pair = build_structured(spec.size, spec.nu)
    N, k = spec.size, spec.kind
    D = k * (N - 1)
    R = right_factor_poly(pair, k)
    alpha, psi, margin = _table(spec, _product_table(right_factor_poly(pair, k, sign=-1), n_max + D), n_max)

    n = np.arange(n_max + 1)
    log_scale = np.array([math.lgamma(j + 1) for j in n]) - n * math.log(2.0) + 0.5 * math.log(math.pi)
    log_norms = log_scale[:, None] - 2.0 * np.log(np.diagonal(psi[:, 2 * D], axis1=1, axis2=2))
    with np.errstate(over="ignore"):  # ||P_n||^2 leaves the double range near n = 190
        norms = [np.diag(v) for v in np.exp(log_norms)]
    root = np.exp(0.5 * log_norms)
    waves = wave_polys(n_max)  # column j: monomial coefficients of psi_j
    rows, cols = np.indices((N, N))
    pn, phi, phi_tilde = [], [], []
    for j in range(n_max + 1):
        coeffs = np.zeros((j + D + 1, N, N))
        coeffs[np.maximum(j + k * (cols - rows), 0), rows, cols] = alpha[j]  # alpha is 0 where m < 0
        phi_tilde.append(MatrixGaussian(coeffs))
        phi.append(MatrixGaussian(phi_tilde[-1].coeffs * root[j][:, None]))
        low = max(0, j - 2 * D)
        window = (root[j][:, None] * psi[j, low - j + 2 * D :]).reshape(j + 1 - low, N * N)
        pn.append((waves[: j + 1, low : j + 1] @ window).reshape(j + 1, N, N))

    return FamilyContext(
        spec=spec,
        structured=pair,
        n_max=n_max,
        right_factor=R,
        pn=pn,
        norms=norms,
        phi=phi,
        phi_tilde=phi_tilde,
        log_norms=log_norms,
        null_margin=margin,
    )


def closed_form_N2(spec, n):
    """The explicit normalized Phi-tilde_n for N = 2: each entry is a multiple of one wave function."""
    if spec.size != 2:
        raise ValueError("closed forms are available for N = 2 only")
    nu1 = spec.nu[0]
    g = gamma_seq(spec, n + 3)
    if spec.kind == 1:
        entries = {
            (0, 0): (n, 1.0 / np.sqrt(g[n + 1])),
            (0, 1): (n + 1, nu1 * np.sqrt((n + 1) / (2.0 * g[n + 1]))),
            (1, 0): (n - 1, -nu1 * np.sqrt(n / (2.0 * g[n]))),
            (1, 1): (n, 1.0 / np.sqrt(g[n])),
        }
    else:
        entries = {
            (0, 0): (n, 1.0 / np.sqrt(g[n + 2])),
            (0, 1): (n + 2, 0.5 * nu1 * np.sqrt((n + 1) * (n + 2) / g[n + 2])),
            (1, 0): (n - 2, -0.5 * nu1 * np.sqrt(n * (n - 1) / g[n])),
            (1, 1): (n, 1.0 / np.sqrt(g[n])),
        }
    coeffs = np.zeros((n + spec.kind + 1, 2, 2))
    for (i, j), (m, c) in entries.items():
        if m >= 0:
            coeffs[m, i, j] = c
    return MatrixGaussian(coeffs)
