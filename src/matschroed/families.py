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
degree, then one pass of signs and checks.

A build is split like a sparse direct solve: a symbolic plan, keyed on
(kind, N, n_max) and never on nu, and a numeric pass.  The plan (`_Plan`)
holds every index array the build and the band matrices of `expansion`
need, read-only.  Plans are kept, least recently used dropped first, up to
PLAN_CACHE_BYTES (4 MiB: two plans of the largest supported shape, kind 2,
N=8, n_max=400, at 1.8 MB; the 14 shapes of the benchmark's build workload
take 0.56 MB).  The numeric pass forms T = band R^{-1} from
R^{-1}, takes the constraint rows in one gather, orders them, runs the N
stacked SVDs and signs and checks the rows; the SVDs are about two thirds of
an N = 8 build at n_max 10 to 20 and four fifths at n_max 200 (one BLAS
thread).  Phi-tilde_n, Phi_n and P_n e^{-x^2/2} = Phi_n R^{-1} are made from
alpha when first read, all three as psi-coefficients (P_n from a T made again
from the plan, so a family keeps no T); expansion, reconstruction and band
matrices read alpha directly.
"""

import functools
import json
import math
import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .matpoly import MatrixGaussian, ladder_band, poly_eval
from .structmat import StructuredPair, _taylor_sum, build_structured


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
        A = A @ _taylor_sum([(-1) ** j * math.factorial(j) for j in range(N)], A)  # B = A (I+A)^{-1}; A^N = 0
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

    @property
    def plan(self):
        """The shape plan of (kind, N, n_max), from the plan cache (made again if it was dropped)."""
        return _plan(self.spec.kind, self.size, self.n_max)


# Bytes of shape plans that `_plan` keeps, least recently used dropped first:
# two plans of the largest supported shape (kind 2, N=8, n_max=400, 1.8 MB
# each).  A larger plan is made and used but not kept.
PLAN_CACHE_BYTES = 4 << 20
_plans, _plans_lock = OrderedDict(), threading.Lock()


@dataclass(frozen=True)
class _Plan:
    """The part of a build that depends on (kind, N, n_max) only, never on nu; every array is read-only.

    T is the product table of `_product_table`, D = k(N-1) and m = n + k(a-r).
    Offsets into T count from the start of T[n] and are the same for every n:
    high[c, a] locates the psi_{n+i} coefficient of column b of psi_m e_a
    R^{-1} for each constraint row c = (r, i, b) with 1 <= i <= k(b-r), the
    rows that can be nonzero; owner[c] = r, and the rows of r are
    rows[r]:rows[r+1].  diag[r, a] locates the psi_n coefficient of column r.
    same[r][q, a] locates alpha[n-k(r-q), q, a], the row q < r with the same
    eigenvalue, from the start of row n of an alpha behind D zero rows.
    support[n, r, a] = m; unsupported[n, r, a] is m < 0 and pinned[n, r] the
    count of such a; top[n, r] is the flat index of s[n, r, pinned[n, r]],
    the supported block's largest singular value, and tol[n, r] the rank
    tolerance over it.  log_scale[n] = log(n! sqrt(pi) / 2^n).  The band of
    x^j reads index j - 1 (o, d = -j..j): ladder[j-1][o+j, i] = <x^j psi_i,
    psi_{i+o}> for i <= n_max + D (also when D < j); near[j-1][n, d+j] = n + d
    clipped into 0..n_max, keep where unclipped; meets[j-1] lists the (d+j,
    o+j, r, s) with o = d + k(r - s), where x^j row r of n meets row s of n+d.
    """

    band: np.ndarray
    high: np.ndarray
    owner: np.ndarray
    rows: tuple
    diag: np.ndarray
    same: tuple
    unsupported: np.ndarray
    pinned: np.ndarray
    top: np.ndarray
    tol: np.ndarray
    log_scale: np.ndarray
    support: np.ndarray
    ladder: tuple
    near: tuple
    keep: tuple
    meets: tuple

    @property
    def arrays(self):
        return (self.band, self.high, self.owner, self.diag, *self.same, self.unsupported, self.pinned, self.top,
                self.tol, self.log_scale, self.support, *self.ladder, *self.near, *self.keep, *self.meets)

    @property
    def nbytes(self):
        return sum(x.nbytes for x in self.arrays)


def _make_plan(k, N, n_max):
    D, n, a = k * (N - 1), np.arange(n_max + 1), np.arange(N)
    W = 2 * D + 1  # psi offsets per m in T
    shift = k * (a - a[:, None])  # m - n of row r, column a
    owner, i, b = np.nonzero(np.arange(1, D + 1)[:, None] <= shift[:, None])  # psi_{n+i+1} of column b
    high = ((D + shift[owner]) * W + D + 1 + i[:, None] - shift[owner]) * N * N + a * N + b[:, None]
    diag = ((D + shift) * W + D - shift) * N * N + a * N + a[:, None]
    same = tuple((D - k * (r - a[:r, None])) * N * N + a[:r, None] * N + a for r in range(N))
    support = n[:, None, None] + shift
    unsupported = support < 0
    pinned = unsupported.sum(axis=2)
    width = np.maximum(k * (N - 1 - a) * N + np.minimum(a, n[:, None] // k), N - pinned)  # numpy's default tolerance
    log_scale = np.array([math.lgamma(j + 1) for j in range(n_max + 1)]) - n * math.log(2.0) + 0.5 * math.log(math.pi)
    band = np.moveaxis(ladder_band(n_max + D, D), 0, -1).reshape(-1, D + 1)  # T[D:] = band @ R^{-1}
    rows = tuple(np.searchsorted(owner, np.arange(N + 1)).tolist())
    top = (n[:, None] * N + a) * N + pinned
    o = [np.arange(-j, j + 1) for j in (1, 2)]
    plan = _Plan(np.ascontiguousarray(band), high, owner, rows, diag, same, unsupported, pinned, top,
                 width * np.finfo(float).eps, log_scale, support,
                 tuple(np.ascontiguousarray(ladder_band(n_max + D, j)[j].T) for j in (1, 2)),
                 tuple(np.clip(n[:, None] + d, 0, n_max) for d in o),
                 tuple((n[:, None] + d >= 0) & (n[:, None] + d <= n_max) for d in o),
                 tuple(np.argwhere(d[:, None, None] == d[:, None, None, None] + k * (a[:, None] - a)).T for d in o))
    for x in plan.arrays:
        x.flags.writeable = False
    return plan


def _plan(k, N, n_max):
    """The plan of (k, N, n_max): kept in `_plans` up to PLAN_CACHE_BYTES, made on a miss."""
    key = (k, N, n_max)
    with _plans_lock:
        if key in _plans:
            _plans.move_to_end(key)  # most recently used last
            return _plans[key]
        plan = _make_plan(k, N, n_max)
        if plan.nbytes <= PLAN_CACHE_BYTES:
            _plans[key] = plan
            while sum(p.nbytes for p in _plans.values()) > PLAN_CACHE_BYTES:
                _plans.popitem(last=False)
    return plan


def _product_table(plan, R_inv):
    """T[D + m, o, a, b]: psi_{m+o-D} coefficient of column b of psi_m(x) times row a of R^{-1}(x); 0 for m < 0."""
    D, N = R_inv.shape[0] - 1, R_inv.shape[1]
    T = np.empty((plan.band.shape[0] // (2 * D + 1) + D, 2 * D + 1, N, N))
    T[:D] = 0.0
    np.matmul(plan.band, R_inv.reshape(D + 1, N * N), out=T[D:].reshape(-1, N * N))
    return T


def _windows(x, count, width):
    """Rows w[n] = x[n:].flat[:width] for n < count, as one view of the C-contiguous x."""
    return np.ndarray((count, width), x.dtype, x, strides=(x[0].nbytes, x.itemsize))


def _table(spec, T, plan):
    """The coefficient table alpha of Phi-tilde_0..n_max, its leading coefficients and null-space margins.

    Row r of Phi-tilde_n (entry a at psi_m, m = n + k(a - r)) is the unit
    vector with no psi-coefficient above n in row R^{-1}, orthogonal to the
    rows q < r of earlier n that share its eigenvalue n + kJ_r, signed so the
    psi_n coefficient lead[n, r] of its column r is positive.  The rows
    psi_{n+i} of column b exist for i <= k(b - r) only (entry (a, b) of R^{-1}
    has degree k(b - a)); they are taken from T in one gather at the plan's
    offsets, largest first at n_max for a QR accurate row by row, and each r
    takes one stacked SVD for all n.  A column with m < 0 (a < r, n < kr) has
    zero constraints and one pinning row e_a at the Frobenius norm of the rest
    (1 if 0); its singular value sorts first, and the rank tolerance (numpy's
    default, from the supported block's width and unpruned height), null-space
    check and margin read the supported block.  Zero rows pad a matrix to N
    rows.  Signs (orthogonality ignores them) and checks follow in one pass; a
    failing row feeds only rows of larger n, so the smallest failing (n, row)
    raises ConsistencyError.
    """
    N, k, n_max = spec.size, spec.kind, plan.log_scale.size - 1
    D, unsupported, pinned = k * (N - 1), plan.unsupported, plan.pinned
    window = _windows(T, n_max + 1, T[: 2 * D + 1].size)
    order = np.lexsort((-np.linalg.norm(window[-1, plan.high], axis=1), plan.owner))  # by row, largest first
    high = window[:, plan.high[order]]
    padded = np.zeros((D + n_max + 1, N, N))  # alpha behind D zero rows: the rows q < r of n < k(r - q)
    alpha, known = padded[D:], _windows(padded, n_max + 1, (D + 1) * N * N)
    s = np.empty((n_max + 1, N, N))
    for r in range(N):
        h = plan.rows[r + 1] - plan.rows[r]
        p = max(r, N - h - r)
        M = np.zeros((n_max + 1, h + r + p, N))
        M[:, :h] = high[:, plan.rows[r] : plan.rows[r + 1]]
        M[:, h : h + r] = known[:, plan.same[r]]
        if r:  # pin row j is e_j, nonzero for the unsupported columns j < r of n < kr
            pinning = M[: k * r]
            scale = np.linalg.norm(pinning[:, : h + r], axis=(1, 2))
            pins = unsupported[: k * r, r, :p] * np.where(scale > 0, scale, 1.0)[:, None]
            pinning[:, h + r :].reshape(len(pinning), -1)[:, :: N + 1] = pins
        _, s[:, r], vh = np.linalg.svd(M, full_matrices=False)
        alpha[:, r] = vh[:, -1] * ~unsupported[:, r]
    top = s.take(plan.top)  # s[n, r, pinned:] are the supported block's singular values
    tol = top * plan.tol
    null_dim = ((s <= tol[..., None]) & ~unsupported).sum(axis=2)  # the unsupported columns come first
    c = np.einsum("nra,nra->nr", window[:, plan.diag], alpha)  # psi_n coefficient of column r of Phi-tilde_n R^{-1}
    alpha *= np.sign(c)[..., None]
    margin = np.divide(s[..., N - 2], top, out=np.ones_like(top), where=(pinned < N - 1) & (top > 0))
    bad = np.flatnonzero((null_dim != 1) | (c == 0.0))  # in n order, then row order
    if bad.size:
        n, r = divmod(int(bad[0]), N)
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


def _poly(alpha, R_inv, spec, root, window, n):
    """P_n(x) e^{-x^2/2} = Phi_n R^{-1} on psi_0..psi_n; the first call puts every P_n's psi_{n-2D}..psi_n in window."""
    if not window:
        n_max, N, k = alpha.shape[0] - 1, spec.size, spec.kind
        D = k * (N - 1)
        T = _product_table(_plan(k, N, n_max), R_inv)
        i, w, r, a = np.ogrid[: n_max + 1, : 2 * D + 1, :N, :N]
        m, o = i + k * (a - r), w - D - k * (a - r)  # o: offset of psi_{i-2D+w} from psi_m
        prod = T[D + m, np.clip(o, 0, 2 * D), a] * ((o >= 0) & (o <= 2 * D))[..., None]
        with np.errstate(over="ignore", invalid="ignore"):  # past the double range; `_finite` raises on read
            window.append(np.einsum("iwrab,ira->iwrb", prod, alpha) * root[:, None, :, None])
    coeffs = np.zeros((n + 1, spec.size, spec.size))  # P_n has degree n
    coeffs[max(0, n + 1 - window[0].shape[1]) :] = _finite(window[0][n, -(n + 1) :], spec, n, "P_n")
    return MatrixGaussian(coeffs)


def build_family(spec, n_max):
    """Construct the orthonormal functions, their norms and polynomials up to n_max.

    Building takes the plan of (kind, N, n_max), made on the first build of
    that shape, and solves for the table alpha (`_table`, N stacked SVDs) and
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
    plan = _plan(k, N, n_max)
    R_inv = right_factor_poly(pair, k, sign=-1)
    alpha, lead, margin = _table(spec, _product_table(plan, R_inv), plan)
    alpha.flags.writeable = False

    log_norms = plan.log_scale[:, None] - 2.0 * np.log(lead)
    with np.errstate(over="ignore"):  # ||P_n||^2 leaves the double range near n = 190, ||P_n|| near n = 340
        norms = list(np.where(np.eye(N, dtype=bool), np.exp(log_norms)[:, None], 0.0))  # diag(exp(log_norms[n]))
        root = np.exp(0.5 * log_norms)
    return FamilyContext(
        spec=spec,
        structured=pair,
        n_max=n_max,
        right_factor_inv=R_inv,
        alpha=alpha,
        pn=LazyTable(n_max + 1, functools.partial(_poly, alpha, R_inv, spec, root, [])),
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
