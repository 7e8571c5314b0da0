"""The two concrete families of matrix-valued orthogonal functions.

Family k (k = 1, 2) has weight W(x) = e^{-x^2} R(x) R(x)^T with right factor
R(x) = e^{Ax} (k = 1) or e^{Bx^2}, B = A(I+A)^{-1} (k = 2), and functions
Phi_n(x) = e^{-x^2/2} P_n(x) R(x) with deg P_n = n.  The potential x^2 I + 2kJ
of their Schrodinger operator acts on the right, so it decouples column by
column into scalar harmonic oscillators: entry (r, a) of the orthonormal
Phi-tilde_n is alpha[n, r, a] psi_m(x) with m = n + k(a - r), or zero when
m < 0.  Row r of the table alpha is the null vector of the linear condition
deg(Phi-tilde_n e^{x^2/2} R^{-1}) <= n in the psi basis, where x is the
ladder operator; it depends only on rows q < r, so building takes one stacked
SVD per row index, over all n, of the constraints that do not vanish by
degree, then one pass of signs and checks.  Phi-tilde_n, Phi_n and
P_n e^{-x^2/2} = Phi_n R^{-1} are made from alpha when first read, all three
as psi-coefficients; expansion, reconstruction and band matrices read alpha
directly.
"""

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .matpoly import MatrixGaussian, ladder_band, poly_eval
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


class LazyTable(Sequence):
    """A read-only sequence of `length` items: item n is make(n), computed the first time it is read, then kept."""

    def __init__(self, length, make):
        self._length, self._make, self._built = length, make, {}

    def __len__(self):
        return self._length

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[j] for j in range(*n.indices(len(self)))]
        n = range(len(self))[n]  # negative indices; IndexError out of range
        if n not in self._built:
            self._built[n] = self._make(n)
        return self._built[n]


@dataclass(frozen=True)
class FamilyContext:
    """Everything built for one family up to index n_max.

    alpha (n_max+1, N, N) is the read-only table of `_table`; phi_tilde, phi
    and pn are LazyTables over it.  pn[n] is the MatrixGaussian of
    P_n(x) e^{-x^2/2} on psi_0..psi_n, and pn[n].poly_at(x) gives P_n(x).
    norms[n] = ||P_n||^2 is inf once it leaves the double range (from n near
    190 for N = 8); log_norms[n] holds log ||P_n||^2, finite for every n.
    null_margin[n, r] is the second-smallest over the largest singular value
    of the degree condition of row r of Phi-tilde_n (1.0 when the row has a
    single unknown): near machine epsilon, the row is barely determined.
    """

    spec: FamilySpec
    structured: StructuredPair
    n_max: int
    right_factor_inv: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    pn: LazyTable = field(repr=False)
    norms: list = field(repr=False)
    phi: LazyTable = field(repr=False)
    phi_tilde: LazyTable = field(repr=False)
    log_norms: np.ndarray = field(repr=False)
    null_margin: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.spec.size


def _table(spec, T, n_max):
    """The coefficient table alpha of Phi-tilde_0..n_max, its leading coefficients and null-space margins.

    Row r of Phi-tilde_n (entry a at psi_m, m = n + k(a - r)) is the unit
    vector with no psi-coefficient above n in row R^{-1}, orthogonal to the
    rows q < r of earlier n that share its eigenvalue n + kJ_r, signed so the
    psi_n coefficient lead[n, r] of its column r is positive.  The rows
    psi_{n+i} of column b exist for i <= k(b - r) only (entry (a, b) of R^{-1}
    has degree k(b - a)); they are gathered before the loop, largest first for a
    QR accurate row by row, and each r takes one stacked SVD for all n.  A column
    with m < 0 has zero constraints and one pinning row e_a at the Frobenius norm
    of the rest (1 if 0); its singular value sorts first, and the rank tolerance
    (numpy's default, from the supported block's width and unpruned height),
    null-space check and margin read the supported block.  Signs (orthogonality
    ignores them) and checks follow in one pass; a failing row feeds only rows
    of larger n, so the smallest failing (n, row) raises ConsistencyError.
    """
    N, k = spec.size, spec.kind
    D, n, a = k * (N - 1), np.arange(n_max + 1), np.arange(N)
    m = n[:, None, None] + k * (a - a[:, None])  # (n, r, a)
    unsupported, m = m < 0, np.maximum(m, 0)
    alpha, s = np.zeros((n_max + 1, N, N)), np.empty((n_max + 1, N, N))
    r_of, i, b = np.nonzero(np.arange(1, D + 1)[:, None] <= k * (a - a[:, None])[:, None])  # psi_{n+i+1} of column b
    high = T[m[:, r_of], D + 1 + i[:, None] - k * (a - r_of[:, None]), a, b[:, None]] * ~unsupported[:, r_of]
    order = np.lexsort((-np.linalg.norm(high[-1], axis=1), r_of))  # by row index, then largest first at n_max
    high, r_of = high[:, order], r_of[order]
    for r in range(N):
        earlier = n[:, None] - k * (r - a[:r])  # rows q < r with the same eigenvalue
        same = alpha[np.maximum(earlier, 0), a[:r]] * (earlier >= 0)[:, :, None]
        rows = np.concatenate([high[:, r_of == r], same], axis=1)
        scale = np.linalg.norm(rows, axis=(1, 2))
        pins = np.eye(N) * (unsupported[:, r] * np.where(scale > 0, scale, 1.0)[:, None])[:, :, None]
        _, s[:, r], vh = np.linalg.svd(np.concatenate([rows, pins], axis=1), full_matrices=False)
        alpha[:, r] = vh[:, -1] * ~unsupported[:, r]
    pinned = unsupported.sum(axis=2)  # s[n, r, pinned:] are the supported block's singular values
    top = np.take_along_axis(s, pinned[..., None], axis=2)[..., 0]
    tol = top * np.maximum(k * (N - 1 - a) * N + np.minimum(a, n[:, None] // k), N - pinned) * np.finfo(float).eps
    null_dim = ((s <= tol[..., None]) & (a >= pinned[..., None])).sum(axis=2)
    diag = T[m, D - k * (a - a[:, None]), a, a[:, None]]  # psi_n coefficient of column r of psi_m e_a R^{-1}
    c = np.einsum("nra,nra->nr", diag, alpha)
    alpha *= np.sign(c)[..., None]
    margin = np.divide(s[..., N - 2], top, out=np.ones_like(top), where=(pinned < N - 1) & (top > 0))
    bad = np.argwhere((null_dim != 1) | (c == 0.0))  # in n order, then row order
    if bad.size:
        n, r = bad[0]
        where = f"kind {spec.kind}, N={N}, nu={spec.nu}, n={n}, row {r}"
        if null_dim[n, r] != 1:
            sv, cut = s[n, r, pinned[n, r] :], tol[n, r]  # those at or below the tolerance are rounding noise
            above = ", ".join(f"{v:.3e}" for v in sv[sv > cut])
            raise ConsistencyError(f"{where}: degree condition leaves a {null_dim[n, r]}-dimensional solution space, "
                                   f"expected 1 (rank tolerance {cut:.3e}; singular values above it [{above}], "
                                   f"{np.count_nonzero(sv <= cut)} at or below it)")
        raise ConsistencyError(f"{where}: psi_{n} coefficient of the diagonal entry vanishes")
    return alpha, np.abs(c), margin


def _finite(values, spec, n, name):
    """values, or a ValueError naming the spec, n and name when they have left the double range."""
    if not np.isfinite(values).all():
        raise ValueError(f"kind {spec.kind}, N={spec.size}, nu={spec.nu}, n={n}: {name} leaves the double range")
    return values


def _function(alpha, spec, scale, n):
    """Phi-tilde_n, or Phi_n = diag(scale[n]) Phi-tilde_n: alpha[n] placed at its psi indices m."""
    N, k = spec.size, spec.kind
    rows, cols = np.indices((N, N))
    coeffs = np.zeros((n + k * (N - 1) + 1, N, N))
    coeffs[np.maximum(n + k * (cols - rows), 0), rows, cols] = alpha[n]  # 0 where m < 0
    return MatrixGaussian(coeffs if scale is None else coeffs * _finite(scale[n], spec, n, "Phi_n")[:, None])


def _poly(alpha, T, spec, root, window, n):
    """P_n(x) e^{-x^2/2} = Phi_n R^{-1} on psi_0..psi_n; the first call puts every P_n's psi_{n-2D}..psi_n in window."""
    if not window:
        n_max, N, D, k = alpha.shape[0] - 1, spec.size, T.shape[1] // 2, spec.kind
        i, w, r, a = np.ogrid[: n_max + 1, : 2 * D + 1, :N, :N]
        m, o = i + k * (a - r), w - D - k * (a - r)  # o: offset of psi_{i-2D+w} from psi_m
        prod = T[np.maximum(m, 0), np.clip(o, 0, 2 * D), a]
        prod *= ((m >= 0) & (o >= 0) & (o <= 2 * D))[..., None]
        with np.errstate(over="ignore", invalid="ignore"):  # past the double range; `_finite` raises on read
            window.append(np.einsum("iwrab,ira->iwrb", prod, alpha) * root[:, None, :, None])
    coeffs = np.zeros((n + 1, spec.size, spec.size))  # P_n has degree n
    coeffs[max(0, n + 1 - window[0].shape[1]) :] = _finite(window[0][n, -(n + 1) :], spec, n, "P_n")
    return MatrixGaussian(coeffs)


def build_family(spec, n_max):
    """Construct the orthonormal functions, their norms and polynomials up to n_max.

    Building solves for the table alpha (`_table`, N stacked SVDs) and
    nothing else.  With c_r the psi_n coefficient of column r of row r of
    Phi-tilde_n R^{-1}: ||P_n||^2 = diag(n! sqrt(pi) / (2^n c_r^2)), Phi_n =
    ||P_n|| Phi-tilde_n, and P_n, the polynomial part of Phi_n R^{-1}
    e^{x^2/2}, has a unit-diagonal leading coefficient.  phi_tilde[n] and
    phi[n] are made on first read; the first pn read makes the
    psi-coefficients of every P_n e^{-x^2/2} in one batch.  Reading phi[n] or
    pn[n] raises ValueError once it leaves the double range (for N = 2, both
    from n near 340).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    pair = build_structured(spec.size, spec.nu)
    N, k = spec.size, spec.kind
    D = k * (N - 1)
    R_inv = right_factor_poly(pair, k, sign=-1)
    # T[m, o, a, b]: psi_{m+o-D} coefficient of column b of psi_m(x) times row a of R^{-1}(x)
    T = np.tensordot(ladder_band(n_max + D, D), R_inv, axes=(0, 0))
    alpha, lead, margin = _table(spec, T, n_max)
    alpha.flags.writeable = False

    n = np.arange(n_max + 1)
    log_scale = np.array([math.lgamma(j + 1) for j in range(n_max + 1)]) - n * math.log(2.0) + 0.5 * math.log(math.pi)
    log_norms = log_scale[:, None] - 2.0 * np.log(lead)
    with np.errstate(over="ignore"):  # ||P_n||^2 leaves the double range near n = 190, ||P_n|| near n = 340
        norms = list(np.where(np.eye(N, dtype=bool), np.exp(log_norms)[:, None], 0.0))  # diag(exp(log_norms[n]))
        root = np.exp(0.5 * log_norms)
    return FamilyContext(
        spec=spec,
        structured=pair,
        n_max=n_max,
        right_factor_inv=R_inv,
        alpha=alpha,
        pn=LazyTable(n_max + 1, functools.partial(_poly, alpha, T, spec, root, [])),
        norms=norms,
        phi=LazyTable(n_max + 1, functools.partial(_function, alpha, spec, root)),
        phi_tilde=LazyTable(n_max + 1, functools.partial(_function, alpha, spec, None)),
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
