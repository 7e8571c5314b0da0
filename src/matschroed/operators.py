"""Eigen-operators and identity checks for the two families.

Each identity is checked for every n = 0..n_max in one array pass and
reported as a ResidualReport whose arrays are indexed by n.  The Schrodinger,
Fourier and symmetry identities are checked in coefficient space (primary,
exact up to rounding) on one stack of the psi-coefficients of every Phi_n:
its band window psi_{n-D}..psi_{n+D}, D = k(N-1), so the stack takes
O(n_max D N^2) memory; the residuals are also evaluated on a small grid
(secondary, human-readable).  The quadrature transform is the independent
numerical oracle for the exact Fourier transform of matpoly: the trapezoidal
rule on a uniform grid, fed with point values, which converges geometrically
for Gaussian-decaying analytic integrands (Trefethen & Weideman, SIAM Review
56, 2014).  The real integral equations and the oracle line of `check` take
their trapezoid sums from one shared table: every psi_m against cos and sin
kernels, summed over every centred node range, so Phi_n keeps the nodes
`quadrature_transform` would give it.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from .families import FamilyContext, _finite
from .hermite import wave_functions, wave_table
from .matpoly import TRIM_TOL, MatrixGaussian, ladder
from .structmat import _I_POW, phase_diag, trig_diag

POINTWISE_GRID = np.array([-3.0, -1.5, 0.0, 0.8, 2.2])
ORACLE_GRID = np.array([-3.0, -1.0, 0.0, 2.0])  # where `check` compares the quadrature and exact transforms
TRAPEZOID_STEP = 0.05


def _half_count(degree):
    """m of the nodes step * (-m..m): the turning point sqrt(2d+1) of degree d plus 10 units of decay."""
    return np.ceil((np.sqrt(2 * np.asarray(degree) + 1) + 10.0) / TRAPEZOID_STEP).astype(int)


@dataclass(frozen=True)
class ResidualReport:
    """Residual of one identity for n = 0..n_max: both arrays are indexed by n.

    relative[n] is the residual over the size of Phi_n (of its coefficients
    for an identity checked in coefficient space, of max(1, max |Phi_n|) at
    the points for a pointwise one); pointwise[n] is the largest residual at
    POINTWISE_GRID.
    """

    variant: str
    relative: np.ndarray
    pointwise: np.ndarray

    def passed(self, tol=1e-9):
        """Per n: relative[n] < tol."""
        return self.relative < tol


def potential_shift(kind):
    """Multiple of J in the potential: 2J for family 1, 4J for family 2."""
    return 2.0 if kind == 1 else 4.0


def schrodinger_apply(f: MatrixGaussian, J, c):
    """f -> f'' - f (x^2 I + c J), the potential acting on the right."""
    return f.differentiate().differentiate() - f.poly_mul([0.0, 0.0, 1.0]) - f.right_mul(c * J)


def _evaluate(stack, start, xs):
    """Values at the points xs, shape (n, len(xs), N, N), of the stacked functions stack[j, n] psi_{start[n]+j}."""
    q = np.arange(stack.shape[0])[:, None] + start  # psi index, (j, n)
    psi = wave_table(max(int(q.max()), 0), xs)
    return np.einsum("jnx,jnab->nxab", psi[np.maximum(q, 0)] * (q >= 0)[..., None], stack)


def _sizes(res, f, start):
    """Per n: max |res_n| over max |f_n| (coefficients), and max |res_n| at POINTWISE_GRID; both at psi_{start[n]+j}."""
    values = _evaluate(res, start, POINTWISE_GRID)
    return np.abs(res).max(axis=(0, 2, 3)) / np.abs(f).max(axis=(0, 2, 3)), np.abs(values).max(axis=(1, 2, 3))


def _report(ctx, variant, relative, pointwise):
    """The ResidualReport, or a ValueError naming the spec and the first n whose residual left the double range."""
    for n in np.flatnonzero(~np.isfinite(relative))[:1]:
        _finite(relative[n], ctx.spec, n, f"the {variant} residual")
    return ResidualReport(variant, relative, pointwise)


def _phi_window(ctx, pad=0):
    """psi-coefficients of every Phi_n as one stack: w[j, n] at psi_{start[n]+j}, start[n] = n - D - pad.

    Entry (r, a) of Phi_n is ||P_n||_r alpha[n, r, a] at psi_{n+k(a-r)}.
    Coefficients above the degree a MatrixGaussian keeps (`matpoly.TRIM_TOL`)
    are 0, so each Phi_n has the coefficients and degree of ctx.phi[n].
    Returns (w, start, degree); ValueError past the double range, as ctx.phi[n].
    """
    N, n_max = ctx.size, ctx.n_max
    D = ctx.spec.kind * (N - 1)
    with np.errstate(over="ignore"):
        root = np.exp(0.5 * ctx.log_norms)  # as `build_family` makes it
    for n in np.flatnonzero(~np.isfinite(root).all(axis=1))[:1]:
        _finite(root[n], ctx.spec, n, "Phi_n")
    start = np.arange(n_max + 1) - D - pad
    n, r, a = np.ogrid[: n_max + 1, :N, :N]
    w = np.zeros((2 * (D + pad) + 1, n_max + 1, N, N))
    w[ctx.plan.support - start[:, None, None], n, r, a] = ctx.alpha * root[:, :, None]
    sizes = np.abs(w).max(axis=(2, 3))
    top = w.shape[0] - 1 - np.argmax((sizes > TRIM_TOL * sizes.max(axis=0))[::-1], axis=0)
    w[np.arange(w.shape[0])[:, None] > top] = 0.0
    return w, start, start + top


@np.errstate(over="ignore", invalid="ignore")  # `_report` raises on what leaves the double range
def schrodinger_residual(ctx: FamilyContext):
    """Residual of Phi_n'' - Phi_n (x^2 I + cJ) + ((2n+1) I + cJ) Phi_n for every n, by ladder steps on the stack."""
    c = potential_shift(ctx.spec.kind)
    w, start, _ = _phi_window(ctx, pad=2)  # two leading zero rows: d^2/dx^2 and x^2 reach psi_{n-D-2}
    cJ = c * np.diag(ctx.structured.J)
    s = start[:, None, None]
    res = ladder(ladder(w, -1, s), -1, s) - ladder(ladder(w, 1, s), 1, s)
    res[: w.shape[0]] -= w * cJ  # Phi_n cJ: column a times cJ_a
    res[: w.shape[0]] += ((2 * np.arange(ctx.n_max + 1) + 1.0)[:, None] + cJ)[:, :, None] * w  # row r
    return _report(ctx, f"schrodinger_kind{ctx.spec.kind}", *_sizes(res, w, start))


def transform_apply(f: MatrixGaussian, k, direction=1):
    """The Fourier-type transform F_k (or its inverse), exactly."""
    return f.fourier(direction).right_mul(phase_diag(f.size, direction * k))


def _trapezoid_nodes(f: MatrixGaussian):
    """Uniform nodes step * (-m..m), m = `_half_count(f.degree)`."""
    m = int(_half_count(f.degree))
    return TRAPEZOID_STEP * np.arange(-m, m + 1)


def quadrature_transform(f: MatrixGaussian, k, x, direction=1):
    """Numeric (1/sqrt(2pi)) int f(t) e^{+-ixt} dt . i^{+-kJ} by the trapezoidal rule."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    t = _trapezoid_nodes(f)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    kern = np.exp(direction * 1j * np.outer(xs, t))
    vals = TRAPEZOID_STEP * np.einsum("xi,iab->xab", kern, f(t)) / np.sqrt(2.0 * np.pi)
    vals = vals @ phase_diag(f.size, direction * k)
    return vals[0] if scalar else vals


def _phases(ctx, start, length, k):
    """The phases of F_k on the stack: i^m of psi_m (row j, at m = start + j) times i^{kJ_a} of column a."""
    m = np.arange(length)[:, None] + start
    return _I_POW[m % 4][..., None, None] * np.diag(phase_diag(ctx.size, k))


@np.errstate(over="ignore", invalid="ignore")
def fourier_eigen_residual(ctx: FamilyContext):
    """Residual of (Phi_n F_k)(x) = i^n i^{kJ} Phi_n(x), with k = kind, for every n."""
    k = ctx.spec.kind
    w, start, _ = _phi_window(ctx)
    lhs = _phases(ctx, start, w.shape[0], k) * w
    phase = _I_POW[np.arange(ctx.n_max + 1) % 4][:, None] * np.diag(phase_diag(ctx.size, k))
    rhs = phase[:, :, None] * w  # row r times i^n i^{kJ_r}
    return _report(ctx, f"fourier_eigen_k{k}", *_sizes(lhs - rhs, w, start))


def _reflection_signs(ctx, parity):
    """f -> (-1)^n f(-x), e^{i pi J} on both sides for family 1, as stacked signs; parity[j, n] = m + n at psi_m."""
    signs = (-1.0) ** parity[..., None, None]  # psi_m has parity (-1)^m
    if ctx.spec.kind == 1:
        E = np.diag(phase_diag(ctx.size, 2)).real  # +-1
        signs = signs * E[:, None] * E
    return signs


@np.errstate(over="ignore", invalid="ignore")
def symmetry_residual(ctx: FamilyContext, target="phi"):
    """Residual of the reflection symmetry for every Phi_n or every P_n.

    Family 1: f(x) = (-1)^n e^{i pi J} f(-x) e^{i pi J}.
    Family 2: f(x) = (-1)^n f(-x).
    For target 'poly', f is P_n(x) e^{-x^2/2}, the psi-coefficients of
    ctx.pn[n] in one stack over psi_{n-2D}..psi_n.
    """
    n_max = ctx.n_max
    if target == "phi":
        f, start, _ = _phi_window(ctx)
    elif target == "poly":
        D2 = 2 * ctx.spec.kind * (ctx.size - 1)
        start = np.arange(n_max + 1) - D2
        f = np.zeros((D2 + 1, n_max + 1, ctx.size, ctx.size))
        for n, p in enumerate(ctx.pn):  # coefficients of P_n sit at psi_{max(0, n-2D)}..psi_{p.degree}
            f[max(0, -start[n]) : p.degree + 1 - start[n], n] = p.coeffs[max(0, start[n]) :]
    else:
        raise ValueError("target must be 'phi' or 'poly'")
    signs = _reflection_signs(ctx, np.arange(f.shape[0])[:, None] + start + np.arange(n_max + 1))
    return _report(ctx, f"symmetry_{target}_kind{ctx.spec.kind}", *_sizes(f - signs * f, f, start))


_kept = None  # (weak reference to ctx, TRAPEZOID_STEP, `_kernel_sums` of ctx)


def _kernel_sums(ctx):
    """Trapezoid sums and values of every Phi_n at xs = POINTWISE_GRID then ORACLE_GRID; the last ones made are kept.

    Returns (cos, sin, values, exact), each of shape (n, len(xs), N, N): step
    times the sum over Phi_n's nodes t of cos(x t) Phi_n(t) and of sin(x t)
    Phi_n(t), Phi_n(x), and the exact transform (Phi_n F_k)(x), the last at
    ORACLE_GRID only.  Phi_n takes the nodes step * (-h_n..h_n) that
    `quadrature_transform` gives it.  psi_m has parity (-1)^m, so its sums
    against the even cos and the odd sin kernel run over the nodes t >= 0
    (twice each t > 0), and one of them vanishes: the table holds, for each
    psi_m and each point x, the sum with cos (even m) or sin (odd m) over every
    range 0..h, one cumulative sum over all h at once.
    """
    global _kept
    kept = _kept
    if kept is not None and kept[0]() is ctx and kept[1] == TRAPEZOID_STEP:
        return kept[2]
    w, start, degree = _phi_window(ctx)
    h = _half_count(degree)
    t = TRAPEZOID_STEP * np.arange(h.max() + 1)
    xs = np.concatenate([POINTWISE_GRID, ORACLE_GRID])
    psi = wave_functions(int(degree.max()), t)  # (m, t), t >= 0
    arg = np.multiply.outer(xs, t)
    table = np.where((np.arange(psi.shape[0]) % 2 == 0)[:, None], np.cos(arg)[:, None], np.sin(arg)[:, None]) * psi
    table[..., 1:] *= 2.0  # the node -t
    np.cumsum(table, axis=-1, out=table)  # table[x, m, h]: sum over |t| <= step * h
    q = np.minimum(np.maximum(np.arange(w.shape[0])[:, None] + start, 0), psi.shape[0] - 1)  # w is 0 past its top
    sums = TRAPEZOID_STEP * table[:, q, h]  # (x, j, n)
    odd = (q % 2 == 1)[:, :, None, None]
    sums_cos = np.einsum("xjn,jnab->nxab", sums, np.where(odd, 0.0, w))
    sums_sin = np.einsum("xjn,jnab->nxab", sums, np.where(odd, w, 0.0))
    exact = _evaluate(_phases(ctx, start, w.shape[0], ctx.spec.kind) * w, start, ORACLE_GRID)
    data = sums_cos, sums_sin, _evaluate(w, start, xs), exact
    _kept = (weakref.ref(ctx), TRAPEZOID_STEP, data)
    return data


@np.errstate(over="ignore", invalid="ignore")
def quadrature_residual(ctx: FamilyContext):
    """The trapezoid transform F_k Phi_n (`quadrature_transform`'s nodes) against the exact one at ORACLE_GRID.

    relative[n] is the largest gap over max(1, max |Phi_n|) at ORACLE_GRID,
    for every n; pointwise[n] the largest gap itself.
    """
    (cos, sin, values, exact), X = _kernel_sums(ctx), len(POINTWISE_GRID)
    quad = (cos[:, X:] + 1j * sin[:, X:]) / np.sqrt(2.0 * np.pi) @ phase_diag(ctx.size, ctx.spec.kind)
    gap = np.abs(quad - exact).max(axis=(1, 2, 3))
    scale = np.maximum(1.0, np.abs(values[:, X:]).max(axis=(1, 2, 3)))
    return _report(ctx, f"quadrature_oracle_k{ctx.spec.kind}", gap / scale, gap)


@np.errstate(over="ignore", invalid="ignore")
def real_integral_residual(ctx: FamilyContext, form="even", sign=+1):
    """One of the real integral equations for the polynomials P_n, for every n.

    Family 1 has eight equations: form in {'even', 'odd'} times sign in {+1, -1}
    times the parity of n.  The 'even' form pairs (e^{i pi J} +- I) with the
    matching C_+- on both sides and the kernel k_n; the 'odd' form crosses the
    multipliers and uses the kernel k_{n+1}.  Family 2 has a single equation
    per parity (cos kernel for even n, sin for odd); form and sign are ignored.

    Returns the report of the pointwise residual over POINTWISE_GRID (relative
    to max(1, max |Phi_n|) there) together with the largest imaginary part seen
    on either side for each n (both sides must be real).
    """
    N, n_max = ctx.size, ctx.n_max
    if ctx.spec.kind == 1 and form not in ("even", "odd"):
        raise ValueError("form must be 'even' or 'odd'")
    (cos, sin, values, _), X = _kernel_sums(ctx), len(POINTWISE_GRID)
    n = np.arange(n_max + 1)
    phi_vals = values[:, :X]  # e^{-x^2/2} P_n(x) R(x)
    # every multiplier is diagonal: e^{i pi J} (+-1), C_+ = cos((pi/2)J) and C_- = sin((pi/2)J), as vectors
    e, cp, cm = np.diag(phase_diag(N, 2)).real, np.diag(trig_diag(N, "cos")), np.diag(trig_diag(N, "sin"))

    def kernel_sums(parity):  # cos where n + parity is even, sin where it is odd
        return np.where(((n + parity) % 2 == 0)[:, None, None, None], cos[:, :X], sin[:, :X])

    if ctx.spec.kind == 2:
        coeff = (-1.0) ** (n // 2)
        lhs = e[:, None] * phi_vals
        rhs = (coeff / np.sqrt(2.0 * np.pi))[:, None, None, None] * kernel_sums(0) * e
        variant = "real_int_kind2"
    else:
        s = 1.0 if sign > 0 else -1.0
        if form == "even":
            left, right = e + s, cp if s > 0 else cm
            front, back = right, e + s
            coeff, integ = (-1.0) ** (n // 2), kernel_sums(0)
        else:
            left, right = e + s, cm if s > 0 else cp
            front, back = cp if s > 0 else cm, e - s
            # ceil(n/2) here, not floor: verified against the derivation
            coeff, integ = s * (-1.0) ** ((n + 1) // 2), kernel_sums(1)
        lhs = left[:, None] * phi_vals * right
        rhs = (coeff / np.sqrt(2.0 * np.pi))[:, None, None, None] * (front[:, None] * integ * back)
        variant = f"real_int_kind1_{form}_{'+' if s > 0 else '-'}"
    max_imag = np.maximum(np.abs(np.imag(lhs)).max(axis=(1, 2, 3)), np.abs(np.imag(rhs)).max(axis=(1, 2, 3)))
    resid = np.abs(lhs - rhs).max(axis=(1, 2, 3))
    scale = np.maximum(1.0, np.abs(phi_vals).max(axis=(1, 2, 3)))
    return _report(ctx, variant, resid / scale, resid), max_imag


def row_coverage(N):
    """Rows of P_n constrained by the sin/cos multipliers of the real equations.

    The front multiplier C_+- selects the rows where its diagonal is nonzero;
    the union over both multipliers must cover all N rows.
    """
    cos_rows = {j for j in range(N) if trig_diag(N, "cos")[j, j] != 0}
    sin_rows = {j for j in range(N) if trig_diag(N, "sin")[j, j] != 0}
    return cos_rows, sin_rows, cos_rows | sin_rows == set(range(N))
