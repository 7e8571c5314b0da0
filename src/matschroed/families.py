"""The two concrete families of matrix-valued orthogonal functions.

Family k (k = 1, 2) has weight W(x) = e^{-x^2} R(x) R(x)^T with right factor
R(x) = e^{Ax} (k = 1) or e^{Bx^2}, B = A(I+A)^{-1} (k = 2), and functions
Phi_n(x) = e^{-x^2/2} P_n(x) R(x) with deg P_n = n.  The potential x^2 I + 2kJ
of their Schrodinger operator acts on the right, so it decouples column by
column into scalar harmonic oscillators: entry (r, a) of the orthonormal
Phi-tilde_n is alpha[n, r, a] psi_m(x) with m = n + k(a - r), or zero when
m < 0.  Each row of the table alpha is the null vector of the linear
condition deg(Phi-tilde_n e^{x^2/2} R^{-1}) <= n, computed in the psi basis
where multiplication by x is the ladder operator; the norms, Phi_n and P_n
follow from the table in closed form.  Phi-tilde_n and Phi_n are stored as
their psi-coefficients, the table placed at index m; only P_n is returned as
monomial coefficients.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import wave_poly
from .matpoly import MatrixGaussian, poly_eval, poly_times
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
    """Everything built for one family up to index n_max."""

    spec: FamilySpec
    structured: StructuredPair
    n_max: int
    right_factor: np.ndarray = field(repr=False)
    pn: list = field(repr=False)
    norms: list = field(repr=False)
    phi: list = field(repr=False)
    phi_tilde: list = field(repr=False)

    @property
    def size(self):
        return self.spec.size


def _table(spec, R_inv, alpha, n):
    """The coefficient table alpha[n] of Phi-tilde_n, and the psi-coefficients of its P_n.

    Entry (r, a) of Phi-tilde_n is alpha[n, r, a] psi_m with m = n + k(a - r)
    (k = kind).  Row r is the unit vector with deg(row R^{-1}) <= n, i.e. no
    psi-coefficient above n in any column of row R^{-1}, orthogonal to the
    rows already built with the same eigenvalue n + kJ_r; the sign makes the
    psi_n coefficient of column r positive.  The rows of one n depend only on
    earlier n, so one Horner product gives e_a psi_m R^{-1} for every entry,
    on the window of psi indices it can reach.  Returns alpha[n] and the
    psi-coefficients 0..n of Phi-tilde_n R^{-1}, shape (n+1, N, N).
    """
    N, k = spec.size, spec.kind
    m = n + k * (np.arange(N)[None, :] - np.arange(N)[:, None])
    rows_of, cols_of = np.nonzero(m >= 0)
    lo = max(0, n - k * (N - 1) - (R_inv.shape[0] - 1))  # lowest index any product reaches
    units = np.zeros((m.max() + 1 - lo, rows_of.size, N))
    units[m[rows_of, cols_of] - lo, np.arange(rows_of.size), cols_of] = 1.0
    # prod[j - lo, i, b]: psi_j coefficient of column b of unit i times R^{-1}
    prod = poly_times(units, R_inv, start=lo)
    table, psi = np.zeros((N, N)), np.zeros((n + 1, N, N))
    for r in range(N):
        own = np.flatnonzero(rows_of == r)
        sup = cols_of[own]
        top = n + k * (N - 1 - r)  # highest psi index of any column of row R^{-1}
        high = prod[n + 1 - lo : top + 1 - lo, own, :].transpose(0, 2, 1).reshape(-1, sup.size)
        same = [alpha[n - k * (r - q), q, sup] for q in range(r) if n - k * (r - q) >= 0]
        rows = np.vstack([high] + same)
        _, s, vh = np.linalg.svd(rows)
        s = np.pad(s, (0, sup.size - s.size))  # zero singular values of a wide or empty matrix
        tol = s[0] * max(rows.shape) * np.finfo(float).eps
        null_dim = int(np.count_nonzero(s <= tol))
        where = f"kind {spec.kind}, N={N}, nu={spec.nu}, n={n}, row {r}"
        if null_dim != 1:
            raise ConsistencyError(
                f"{where}: degree condition leaves a {null_dim}-dimensional solution space, expected 1 "
                f"(singular values {s})"
            )
        v = vh[-1]
        row_psi = np.zeros((n + 1, N))
        row_psi[lo:] = np.einsum("jib,i->jb", prod[: n + 1 - lo, own, :], v)
        if row_psi[n, r] == 0.0:
            raise ConsistencyError(f"{where}: psi_{n} coefficient of the diagonal entry vanishes")
        sign = np.sign(row_psi[n, r])
        table[r, sup] = sign * v
        psi[:, r, :] = sign * row_psi
    return table, psi


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
    R = right_factor_poly(pair, k)
    R_inv = right_factor_poly(pair, k, sign=-1)
    waves = np.zeros((n_max + 1, n_max + 1))  # column m: monomial coefficients of psi_m
    for j in range(n_max + 1):
        waves[: j + 1, j] = wave_poly(j)

    alpha = np.zeros((n_max + 1, N, N))
    pn, norms, phi, phi_tilde = [], [], [], []
    for n in range(n_max + 1):
        alpha[n], psi = _table(spec, R_inv, alpha, n)
        lead = np.diagonal(psi[n])
        log_scale = math.lgamma(n + 1) - n * math.log(2.0) + 0.5 * math.log(math.pi)
        log_norm = log_scale - 2.0 * np.log(lead)  # ||P_n||^2 leaves the double range near n = 190
        norms.append(np.diag(np.exp(log_norm)))
        rows, cols = np.indices((N, N))
        coeffs = np.zeros((n + k * (N - 1) + 1, N, N))
        coeffs[np.maximum(n + k * (cols - rows), 0), rows, cols] = alpha[n]  # alpha is 0 where m < 0
        phi_tilde.append(MatrixGaussian(coeffs))
        root = np.exp(0.5 * log_norm)
        phi.append(phi_tilde[-1].left_mul(np.diag(root)))
        pn.append(np.einsum("dj,jab->dab", waves[: n + 1, : n + 1], root[:, None] * psi))

    return FamilyContext(
        spec=spec,
        structured=pair,
        n_max=n_max,
        right_factor=R,
        pn=pn,
        norms=norms,
        phi=phi,
        phi_tilde=phi_tilde,
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
