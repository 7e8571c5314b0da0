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
holds every index array the build, `_band` and `expansion` need, read-only.
Plans are kept, least recently used dropped first, up to
PLAN_CACHE_BYTES (4 MiB: two plans of the largest supported shape, kind 2,
N=8, n_max=400, at 1.8 MB; the 14 shapes of the benchmark's build workload
take 0.59 MB).  The numeric pass forms T = band R^{-1} from
R^{-1}, takes the constraint rows in one gather, orders them, runs the N
stacked SVDs and signs and checks the rows; the SVDs are about two thirds of
an N = 8 build at n_max 10 to 20 and four fifths at n_max 200 (one BLAS
thread).  Phi-tilde_n and P_n e^{-x^2/2} = ||P_n|| Phi-tilde_n R^{-1} are made
from alpha when first read, both as psi-coefficients (P_n from a T made again
from the plan, so a family keeps no T); expansion, reconstruction and band
matrices read alpha directly.
"""

import functools
import json
import math
import numbers
import threading
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .matpoly import MatrixGaussian, ladder_band, poly_eval
from .structmat import StructuredPair, _taylor_sum, build_structured


class ConsistencyError(RuntimeError):
    """A structural identity the construction relies on failed numerically."""


def _integer(value):
    """An int, numpy's included, but no bool: True is an Integral, and True == 1.0 == 1 would pass `in (1, 2)`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class FamilySpec:
    """Which family (1 or 2), matrix size N and superdiagonal parameters nu."""

    kind: int
    size: int
    nu: tuple

    def __post_init__(self):
        if not (_integer(self.kind) and self.kind in (1, 2)):
            raise ValueError(f"kind must be 1 or 2, got {self.kind!r}")
        if not (_integer(self.size) and self.size >= 1):
            raise ValueError(f"size must be an integer >= 1, got {self.size!r}")
        nu = tuple(self.nu) if isinstance(self.nu, Iterable) and not isinstance(self.nu, str) else None
        if nu is None or not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in nu):
            raise ValueError(f"nu must be a sequence of numbers, got {self.nu!r}")
        for name, value in (("kind", int(self.kind)), ("size", int(self.size)), ("nu", tuple(map(float, nu)))):
            object.__setattr__(self, name, value)  # plain int and float, as `to_json` writes them
        if len(self.nu) != self.size - 1:
            raise ValueError(f"expected {self.size - 1} parameters, got {len(self.nu)}")
        if not all(math.isfinite(v) for v in self.nu):
            raise ValueError(f"parameters must be finite, got {self.nu}")

    def to_json(self):
        return json.dumps({"kind": self.kind, "N": self.size, "nu": list(self.nu)})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a family spec must be a JSON object, got {text!r}")
        return cls(kind=data["kind"], size=data["N"], nu=data["nu"])


def gamma_seq(spec, n_max):
    """The scalar normalization sequence for N = 2 closed forms.

    Family 1: gamma_n = 1 + n nu1^2 / 2.  Family 2: gamma_n = 1 + (nu1^2/2) C(n, 2).
    A gamma_n past the double range raises a ValueError that names the spec.
    """
    if spec.size != 2:
        raise ValueError("gamma sequence is defined for N = 2 only")
    nu1 = np.float64(spec.nu[0])  # a numpy scalar: past the double range nu1 ** 2 is inf, not OverflowError
    n = np.arange(n_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, and 0 inf at n = 0: `_finite` raises
        g = 1.0 + 0.5 * n * nu1 ** 2 if spec.kind == 1 else 1.0 + 0.5 * nu1 ** 2 * (n * (n - 1) / 2.0)
    return _finite(g, spec, "gamma_n")


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

    alpha (n_max+1, N, N) is the read-only table of `_table`.  log_norms[n]
    holds the diagonal of log ||P_n||^2, finite for every n, where ||P_n||^2
    itself leaves the double range (from n near 190 for N = 8).
    null_margin[n, r] is the second-smallest over the largest singular value
    of the degree condition of row r of Phi-tilde_n (1.0 when the row has a
    single unknown): near machine epsilon, the row is barely determined.
    structured and the LazyTables phi_tilde, pn and bands are made from these fields
    on first read, then kept.  phi_tilde[n] is alpha[n] placed as is (`_function`: degree n + D, checked finite
    but not validated again as a MatrixGaussian).  pn[n] is the MatrixGaussian of P_n(x) e^{-x^2/2} on
    psi_0..psi_n; Phi_n is phi_tilde[n].left_mul(np.diag(np.exp(0.5 * log_norms[n]))).
    bands[k - 1] is the read-only band of x^k, made by `_band` on first read: at N = 8,
    n_max = 400, 0.62 MB in 0.9 ms (k = 1) and 1.03 MB in 1.9 ms (k = 2); later reads are O(1).
    """

    spec: FamilySpec
    n_max: int
    alpha: np.ndarray = field(repr=False)
    log_norms: np.ndarray = field(repr=False)
    null_margin: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.spec.size

    @property
    def plan(self):
        """The shape plan of (kind, N, n_max), from the plan cache (made again if it was dropped)."""
        return _plan(self.spec.kind, self.size, self.n_max)

    @functools.cached_property
    def structured(self):
        return build_structured(self.size, self.spec.nu)

    @functools.cached_property
    def phi_tilde(self):
        return LazyTable(self.n_max + 1, functools.partial(_function, self.alpha, self.spec))

    @functools.cached_property
    def pn(self):
        with np.errstate(over="ignore"):  # ||P_n|| leaves the double range near n = 340
            root = np.exp(0.5 * self.log_norms)
        return LazyTable(self.n_max + 1, functools.partial(_poly, _pn_window(self), root, self.spec))

    @functools.cached_property
    def bands(self):
        return LazyTable(2, functools.partial(_band, self.alpha, self.spec))


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
    `expansion` reads a stack X behind D zero rows: spread[u, v, i] locates X[j+k(v-u), i, v] and
    spread_alpha[u, v] alpha[j+k(v-u), v, u], from the start of row j (expand: X = F, reconstruct: X = C).
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
    spread: np.ndarray
    spread_alpha: np.ndarray

    @property
    def arrays(self):
        return (self.band, self.high, self.owner, self.diag, *self.same, self.unsupported, self.pinned, self.top,
                self.tol, self.log_scale, self.support, *self.ladder, *self.near, *self.keep, *self.meets,
                self.spread, self.spread_alpha)

    @property
    def nbytes(self):
        return sum(x.nbytes for x in self.arrays)


def _shift(k, N):
    """m - n of entry (r, a) of Phi-tilde_n, which is alpha[n, r, a] psi_m: k(a - r)."""
    a = np.arange(N)
    return k * (a - a[:, None])


def _make_plan(k, N, n_max):
    D, n, a = k * (N - 1), np.arange(n_max + 1), np.arange(N)
    W = 2 * D + 1  # psi offsets per m in T
    shift = _shift(k, N)
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
                 tuple(np.argwhere(d[:, None, None] == d[:, None, None, None] + k * (a[:, None] - a)).T for d in o),
                 ((D + shift) * N * N + a)[..., None] + a * N, (D + shift) * N * N + a * N + a[:, None])
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


def _behind(X, count, D):
    """Rows j-D..j+D of X (0 outside its rows) for j < count, flattened: one view over X placed behind D zero rows."""
    padded = np.zeros((count + 2 * D,) + X.shape[1:], dtype=X.dtype)
    padded[D : D + min(len(X), count + D)] = X[: count + D]
    return _windows(padded, count, (2 * D + 1) * X[0].size)


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
    (1 if 0; a norm past the double range raises ValueError); its singular
    value sorts first, and the rank tolerance (numpy's default, from the
    supported block's width and unpruned height), null-space check and margin
    read the supported block.  Zero rows pad a matrix to N rows.  Signs
    (orthogonality ignores them) and checks follow in one pass; a failing row
    feeds only rows of larger n, so the smallest failing (n, row) raises
    ConsistencyError.
    """
    N, k, n_max = spec.size, spec.kind, plan.log_scale.size - 1
    D, unsupported, pinned = k * (N - 1), plan.unsupported, plan.pinned
    window = _windows(T, n_max + 1, T[: 2 * D + 1].size)
    with np.errstate(over="ignore"):  # a norm past the double range sorts as inf
        order = np.lexsort((-np.linalg.norm(window[-1, plan.high], axis=1), plan.owner))  # by row, largest first
    high = _finite(window[:, plan.high[order]], spec, "the product table T = band R^{-1}")  # an SVD of inf hangs
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
            with np.errstate(over="ignore", invalid="ignore"):  # a norm past the double range: `_finite` raises
                scale = np.linalg.norm(pinning[:, : h + r], axis=(1, 2))
                pins = unsupported[: k * r, r, :p] * np.where(scale > 0, scale, 1.0)[:, None]
            pinning[:, h + r :].reshape(len(pinning), -1)[:, :: N + 1] = pins
        _, s[:, r], vh = np.linalg.svd(_finite(M, spec, f"the pinned degree condition of row {r}"), full_matrices=False)
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


def _finite(values, spec, name):
    """values, or a ValueError naming the spec and name (with its index n) when they have left the double range."""
    if not np.isfinite(values).all():
        raise ValueError(f"kind {spec.kind}, N={spec.size}, nu={spec.nu}, {name} leaves the double range")
    return values


def _at_support(ctx, table, rows=slice(None)):
    """Every Phi-tilde_n read from a per-psi_m table, psi index last: table[..., m] alpha[n, r, a] for r in `rows`."""
    return table[..., np.maximum(ctx.plan.support[:, rows], 0)] * ctx.alpha[:, rows]  # alpha is 0 where m < 0


def _band(alpha, spec, j):
    """Blocks (x^k I)_{n,n+d}, k = j + 1 and d = -k..k, of every n, (n_max+1, 2k+1, N, N), read-only; 0 past 0..n_max.

    Entry (r, a) of x^k Phi-tilde_n is sum_o alpha[n, r, a] <x^k psi_i, psi_{i+o}> psi_{i+o}, i = n + kind(a - r);
    entry (r, s) of block (n, n + d) takes the o that meets row s (plan.meets): one batched product over every n.
    """
    N, k, count, plan = spec.size, j + 1, len(alpha), _plan(spec.kind, spec.size, len(alpha) - 1)
    shifted = np.empty((count, 2 * k + 1, N, N))  # (n, o, r, a); `take` clips i < 0, where alpha is 0, to 0
    np.multiply(alpha[:, None], plan.ladder[j].take(plan.support, axis=1, mode="clip").swapaxes(0, 1), out=shifted)
    right = alpha.take(plan.near[j], axis=0) * plan.keep[j][..., None, None]  # (n, d, s, a)
    pairs = shifted.reshape(count, -1, N) @ right.reshape(count, -1, N).transpose(0, 2, 1)  # 0 where dropped
    pairs = pairs.reshape(count, 2 * k + 1, N, 2 * k + 1, N)  # (n, o, r, d, s)
    d, o, r, s = plan.meets[j]
    out = np.zeros((count, 2 * k + 1, N, N))
    out[:, d, r, s] = pairs[:, o, r, d, s]
    out.flags.writeable = False
    return out


def _function(alpha, spec, n):
    """Phi-tilde_n: the finite alpha[n] placed at its psi indices m, untrimmed; its nonzero rows are lo::kind."""
    N, k = spec.size, spec.kind
    rows, cols, m = *np.indices((N, N)), n + _shift(k, N)
    used = m[_finite(alpha[n], spec, f"alpha[{n}]") != 0]  # alpha is 0 where m < 0; a replaced alpha is checked
    lo, top = (int(used.min()), int(used.max())) if used.size else (0, 0)
    coeffs = np.zeros((n + k * (N - 1) + 1, N, N))
    coeffs[np.maximum(m, 0), rows, cols] = alpha[n]
    return MatrixGaussian._exact(coeffs[: top + 1], lo, k)


def _pn_window(ctx):
    """Every Phi-tilde_n R^{-1} on psi_{n-2D}..psi_n, R^{-1} from ctx.structured: P_n e^{-x^2/2} before its ||P_n||."""
    N, k, n_max, plan = ctx.size, ctx.spec.kind, ctx.n_max, ctx.plan
    D = k * (N - 1)
    T = _product_table(plan, right_factor_poly(ctx.structured, k, sign=-1))
    i, w, _, a = np.ogrid[: n_max + 1, : 2 * D + 1, :N, :N]
    m = plan.support[:, None]  # (i, 1, r, a)
    o = w - D - (m - i)  # offset of psi_{i-2D+w} from psi_m
    prod = T[D + m, np.clip(o, 0, 2 * D), a] * ((o >= 0) & (o <= 2 * D))[..., None]
    return np.einsum("iwrab,ira->iwrb", prod, ctx.alpha)


def _poly(window, root, spec, n):
    """P_n(x) e^{-x^2/2} = Phi_n R^{-1} on psi_0..psi_n: row r of `_pn_window`'s window[n] times root[n, r]."""
    coeffs = np.zeros((n + 1, spec.size, spec.size))  # P_n has degree n
    with np.errstate(over="ignore", invalid="ignore"):  # past the double range; `_finite` raises
        row = window[n, -(n + 1) :] * root[n][:, None]
    coeffs[max(0, n + 1 - window.shape[1]) :] = _finite(row, spec, f"n={n}: P_n")
    return MatrixGaussian(coeffs)


def build_family(spec, n_max):
    """Construct the table alpha of the orthonormal functions, their log norms and null margins up to n_max.

    Building takes the plan of (kind, N, n_max), made on the first build of
    that shape, and solves for the table alpha (`_table`, N stacked SVDs) and
    nothing else.  With c_r the psi_n coefficient of column r of row r of
    Phi-tilde_n R^{-1}: ||P_n||^2 = diag(n! sqrt(pi) / (2^n c_r^2)), Phi_n =
    ||P_n|| Phi-tilde_n, and P_n, the polynomial part of Phi_n R^{-1}
    e^{x^2/2}, has a unit-diagonal leading coefficient.  The context derives
    phi_tilde[n] on first read; its first pn read makes the psi-coefficients
    of every Phi-tilde_n R^{-1} in one batch (`_pn_window`), and pn[n] raises
    ValueError once ||P_n|| leaves the double range (for N = 2, from n near
    340).  A spec whose R^{-1}, product table T or pin scale leaves the double range raises ValueError.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    plan = _plan(spec.kind, spec.size, n_max)
    with np.errstate(over="ignore", invalid="ignore"):  # `_finite` raises on an R^{-1} or T past the double range
        R_inv = right_factor_poly(build_structured(spec.size, spec.nu), spec.kind, sign=-1)
        T = _product_table(plan, _finite(R_inv, spec, "R^{-1}"))
    alpha, lead, margin = _table(spec, T, plan)
    alpha.flags.writeable = False
    return FamilyContext(spec, n_max, alpha, plan.log_scale[:, None] - 2.0 * np.log(lead), margin)


def _closed_alpha(spec, n_max):
    """The table alpha of the N = 2 closed form for n = 0..n_max; entry (1, 0) is 0 for n < kind, where m < 0."""
    nu1, n = spec.nu[0], np.arange(n_max + 1)
    g = gamma_seq(spec, n_max + 2)
    if spec.kind == 1:
        up, down = nu1 * np.sqrt(0.5 * (n + 1) / g[n + 1]), -nu1 * np.sqrt(0.5 * n / g[n])  # 2 g may overflow
    else:
        up, down = 0.5 * nu1 * np.sqrt((n + 1) * (n + 2) / g[n + 2]), -0.5 * nu1 * np.sqrt(n * (n - 1) / g[n])
    return np.stack([1.0 / np.sqrt(g[n + spec.kind]), up, down, 1.0 / np.sqrt(g[n])], axis=1).reshape(-1, 2, 2)


def closed_form_N2(spec, n):
    """The explicit normalized Phi-tilde_n for N = 2: row n of `_closed_alpha`, placed as `phi_tilde[n]` is."""
    if spec.size != 2:
        raise ValueError("closed forms are available for N = 2 only")
    return _function(_closed_alpha(spec, n), spec, n)
