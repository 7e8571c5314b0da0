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
follow from the table in closed form.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import wave_poly
from .matpoly import MatrixGaussian, poly_eval
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


# -- matrix polynomial helpers (ascending coeffs, shape (d+1, N, N)) --------


def poly_matmul(p, q):
    """Product of two matrix polynomials (convolution with matrix products)."""
    dp, dq = p.shape[0] - 1, q.shape[0] - 1
    N = p.shape[1]
    out = np.zeros((dp + dq + 1, N, N), dtype=np.result_type(p, q))
    for a in range(dp + 1):
        for b in range(dq + 1):
            out[a + b] += p[a] @ q[b]
    return out


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


def _ladder(v):
    """Multiplication by x on psi-coefficients along axis 0 (truncated at the top).

    x psi_m = sqrt(m/2) psi_{m-1} + sqrt((m+1)/2) psi_{m+1}.
    """
    s = np.sqrt(np.arange(1, v.shape[0]) / 2.0)[:, None]
    out = np.zeros_like(v)
    out[:-1] += s * v[1:]
    out[1:] += s * v[:-1]
    return out


def _table_row(spec, R_inv, alpha, n, r):
    """Row r of the coefficient table of Phi-tilde_n, and the psi-coefficients of its P_n row.

    Column a of the row is alpha_a psi_m with m = n + k(a - r) (k = kind).  The
    row is the unit vector alpha with deg(row R^{-1}) <= n, i.e. no
    psi-coefficient above n in any column of row R^{-1}, orthogonal to the
    rows already built with the same eigenvalue n + kJ_r; the sign makes the
    psi_n coefficient of column r positive.  Returns alpha over all N columns
    and the psi-coefficients 0..n of each column of row R^{-1}, shape (n+1, N).
    """
    N, k = spec.size, spec.kind
    m = n + k * (np.arange(N) - r)
    sup = np.flatnonzero(m >= 0)
    top = n + k * (N - 1 - r)  # highest psi index of any column of row R^{-1}
    # krylov[p][:, i] = x^p psi_{m[sup[i]]}; the truncation at `top` is exact
    # for every power that R^{-1} pairs with that column
    krylov = np.zeros((R_inv.shape[0], top + 1, sup.size))
    krylov[0, m[sup], np.arange(sup.size)] = 1.0
    for p in range(1, krylov.shape[0]):
        krylov[p] = _ladder(krylov[p - 1])
    cols = np.einsum("pja,pab->bja", krylov, R_inv[:, sup, :])  # column b of psi_{m_a} e_a R^{-1}
    same = [alpha[n - k * (r - q), q, sup] for q in range(r) if n - k * (r - q) >= 0]
    rows = np.vstack([cols[:, n + 1 :, :].reshape(-1, sup.size)] + same)
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
    psi = np.einsum("bja,a->jb", cols[:, : n + 1, :], v)
    if psi[n, r] == 0.0:
        raise ConsistencyError(f"{where}: psi_{n} coefficient of the diagonal entry vanishes")
    sign = np.sign(psi[n, r])
    row = np.zeros(N)
    row[sup] = sign * v
    return row, sign * psi


def build_family(spec, n_max):
    """Construct the orthonormal functions, their norms and polynomials up to n_max.

    Each Phi-tilde_n is built from its table of wave-function coefficients
    (see `_table_row`).  With c_r the psi_n coefficient of column r of row r
    of Phi-tilde_n R^{-1}: ||P_n||^2 = diag(n! sqrt(pi) / (2^n c_r^2)),
    Phi_n = ||P_n|| Phi-tilde_n and P_n is the polynomial part of
    Phi_n R^{-1} e^{x^2/2}, whose leading coefficient has unit diagonal.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    pair = build_structured(spec.size, spec.nu)
    N, k = spec.size, spec.kind
    R = right_factor_poly(pair, k)
    R_inv = right_factor_poly(pair, k, sign=-1)
    top = n_max + k * (N - 1)
    waves = np.zeros((top + 1, top + 1))  # column m: monomial coefficients of psi_m
    for j in range(top + 1):
        waves[: j + 1, j] = wave_poly(j)

    alpha = np.zeros((n_max + 1, N, N))
    pn, norms, phi, phi_tilde = [], [], [], []
    for n in range(n_max + 1):
        psi = np.zeros((n + 1, N, N))
        for r in range(N):
            alpha[n, r], psi[:, r, :] = _table_row(spec, R_inv, alpha, n, r)
        lead = np.diagonal(psi[n])
        log_scale = math.lgamma(n + 1) - n * math.log(2.0) + 0.5 * math.log(math.pi)
        norm = np.exp(log_scale - 2.0 * np.log(lead))
        norms.append(np.diag(norm))
        m = n + k * (np.arange(N)[None, :] - np.arange(N)[:, None])
        coeffs = waves[: n + k * (N - 1) + 1, np.maximum(m, 0)] * alpha[n]
        phi_tilde.append(MatrixGaussian(coeffs))
        root = np.sqrt(norm)
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
    """The explicit normalized Phi-tilde_n for N = 2, assembled from wave functions."""
    if spec.size != 2:
        raise ValueError("closed forms are available for N = 2 only")
    nu1 = spec.nu[0]
    gseq = gamma_seq(spec, n + 3)

    def entry(idx, coeff):
        if coeff == 0.0 or idx < 0:
            return np.zeros(1)
        return coeff * wave_poly(idx)

    if spec.kind == 1:
        e11 = entry(n, 1.0 / np.sqrt(gseq[n + 1]))
        e12 = entry(n + 1, nu1 * np.sqrt((n + 1) / (2.0 * gseq[n + 1])))
        e21 = entry(n - 1, -nu1 * np.sqrt(n / (2.0 * gseq[n]))) if n >= 1 else np.zeros(1)
        e22 = entry(n, 1.0 / np.sqrt(gseq[n]))
        deg = n + 1
    else:
        e11 = entry(n, 1.0 / np.sqrt(gseq[n + 2]))
        e12 = entry(n + 2, 0.5 * nu1 * np.sqrt((n + 1) * (n + 2) / gseq[n + 2]))
        e21 = entry(n - 2, -0.5 * nu1 * np.sqrt(n * (n - 1) / gseq[n])) if n >= 2 else np.zeros(1)
        e22 = entry(n, 1.0 / np.sqrt(gseq[n]))
        deg = n + 2
    coeffs = np.zeros((deg + 1, 2, 2), dtype=complex)
    for (i, j), e in (((0, 0), e11), ((0, 1), e12), ((1, 0), e21), ((1, 1), e22)):
        coeffs[: len(e), i, j] = e
    return MatrixGaussian(coeffs)
