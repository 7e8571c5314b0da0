"""Eigen-operators and identity checks for the two families.

Each identity is checked for every n = 0..n_max in one array pass and
reported as a ResidualReport whose array is indexed by n.  Each reads
alpha or Phi-tilde_n, never Phi_n = ||P_n|| Phi-tilde_n (the identities are
linear in the rows, with diagonal left multipliers), and orthonormality
alpha alone.  The Schrodinger identity is checked in coefficient space on
one stack of the psi-coefficients of every Phi-tilde_n: its band window
psi_{n-D-2}..psi_{n+D}, D = k(N-1), so the stack takes O(n_max D N^2) memory.
The others are read at POINTWISE_GRID, from values of the psi recurrence, so
none compares a psi-phase or a psi-sign with itself: the Fourier
eigen-equation and the real integral equations against the trapezoidal rule
on a uniform grid, which converges geometrically for Gaussian-decaying
analytic integrands (Trefethen & Weideman, SIAM Review 56, 2014), and the
three-term relation of multiplication by x against the band of x the
family keeps.  Every Phi-tilde_n takes the trapezoid nodes of the highest
psi-degree, n_max + D, so the sums of every psi_m are one product of the cos
and sin kernels with the psi table at those nodes.  Entry (r, a) of
Phi-tilde_n is alpha[n, r, a] psi_m, m = n + k(a - r) (the plan's `support`),
so its value and its gap in the Fourier and real integral equations are alpha
times those of psi_m, read at `support` by `families._at_support`.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from .families import FamilyContext, _at_support, _behind
from .hermite import wave_functions
from .matpoly import MatrixGaussian, ladder, transform_apply  # noqa: F401 (re-exported)
from .structmat import _I_POW, phase_diag, trig_diag

POINTWISE_GRID = np.array([-3.0, -1.5, 0.0, 0.8, 2.2])
TRAPEZOID_STEP = 0.05


@dataclass(frozen=True)
class ResidualReport:
    """Residual of one identity for n = 0..n_max, indexed by n.

    relative[n] is the residual over the size of Phi-tilde_n.  In coefficient
    space (Schrodinger) that size is its largest psi-coefficient.  At points it
    is 1, as |Phi-tilde_n(x)| < 1, so relative[n] is the largest residual at
    POINTWISE_GRID.  For orthonormality it is the Gram residual itself.
    """

    variant: str
    relative: np.ndarray

    def passed(self, tol=1e-9):
        """Per n: relative[n] < tol."""
        return self.relative < tol


def potential_shift(kind):
    """Multiple of J in the potential: 2J for family 1, 4J for family 2."""
    return 2.0 if kind == 1 else 4.0


def schrodinger_apply(f: MatrixGaussian, J, c):
    """f -> f'' - f (x^2 I + c J), the potential acting on the right."""
    return f.differentiate().differentiate() - f.poly_mul([0.0, 0.0, 1.0]) - f.right_mul(c * J)


def _report(ctx, variant, relative):
    """The ResidualReport, or a ValueError naming the spec and the first n whose residual is not finite (bad alpha)."""
    for n in np.flatnonzero(~np.isfinite(relative))[:1]:
        spec = ctx.spec
        raise ValueError(f"kind {spec.kind}, N={spec.size}, nu={spec.nu}, n={n}: the {variant} residual is not finite")
    return ResidualReport(variant, relative)


def orthonormality_residual(ctx: FamilyContext):
    """max |<Phi-tilde_n, Phi-tilde_m> - delta_nm I| over the pairs whose later index is n, read from alpha.

    Rows r of n and s of m share a psi index only when m - n = k(s - r): the Gram is |alpha[n, r]|^2 - 1 on the
    diagonal, and off it row r of n against the rows q < r of n - k(r - q), at the plan's `same` as in `_table`.
    """
    N, D = ctx.size, ctx.spec.kind * (ctx.size - 1)
    known = _behind(ctx.alpha, ctx.n_max + 1, D)
    worst = np.abs(np.einsum("nra,nra->nr", ctx.alpha, ctx.alpha) - 1.0).max(axis=1)
    for r in range(1, N):
        pairs = np.einsum("nqa,na->nq", known[:, ctx.plan.same[r]], ctx.alpha[:, r])
        worst = np.maximum(worst, np.abs(pairs).max(axis=1))
    return _report(ctx, "orthonormality", worst)


def schrodinger_residual(ctx: FamilyContext):
    """Residual of Phi_n'' - Phi_n (x^2 I + cJ) + ((2n+1) I + cJ) Phi_n on Phi-tilde_n for every n, by ladder steps.

    relative[n] is max |residual| over max |Phi-tilde_n|, both over the psi-coefficients.  Its window of Phi-tilde_n
    has two leading zero rows, as d^2/dx^2 and x^2 reach psi_{n-D-2}.
    """
    N, n_max, D = ctx.size, ctx.n_max, ctx.spec.kind * (ctx.size - 1)
    s = (np.arange(n_max + 1) - D - 2)[:, None, None]  # w[j, n] at psi_{s[n]+j}
    n, r, a = np.ogrid[: n_max + 1, :N, :N]
    w = np.zeros((2 * D + 5, n_max + 1, N, N))
    w[ctx.plan.support - s, n, r, a] = ctx.alpha
    cJ = potential_shift(ctx.spec.kind) * np.diag(ctx.structured.J)
    res = ladder(ladder(w, -1, s), -1, s) - ladder(ladder(w, 1, s), 1, s)
    res[: w.shape[0]] -= w * cJ  # Phi_n cJ: column a times cJ_a
    res[: w.shape[0]] += ((2 * np.arange(n_max + 1) + 1.0)[:, None] + cJ)[:, :, None] * w  # row r
    relative = np.abs(res).max(axis=(0, 2, 3)) / np.abs(w).max(axis=(0, 2, 3))
    return _report(ctx, f"schrodinger_kind{ctx.spec.kind}", relative)


def _trapezoid_nodes(degree):
    """Uniform nodes step * (-m..m) for psi-degree d: the turning point sqrt(2d+1) plus 10 units of decay."""
    m = int(np.ceil((np.sqrt(2 * degree + 1) + 10.0) / TRAPEZOID_STEP))
    return TRAPEZOID_STEP * np.arange(-m, m + 1)


def quadrature_transform(f: MatrixGaussian, k, x, direction=1):
    """Numeric (1/sqrt(2pi)) int f(t) e^{+-ixt} dt . i^{+-kJ} by the trapezoidal rule."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    t = _trapezoid_nodes(f.degree)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    kern = np.exp(direction * 1j * np.outer(xs, t))
    vals = TRAPEZOID_STEP * np.einsum("xi,iab->xab", kern, f(t)) / np.sqrt(2.0 * np.pi)
    vals = vals @ phase_diag(f.size, direction * k)
    return vals[0] if scalar else vals


_kept = None  # (weak reference to ctx, TRAPEZOID_STEP, `_kernel_sums` of ctx)


def _kernel_sums(ctx):
    """The Fourier gap and the values of every Phi-tilde_n at POINTWISE_GRID; the last ones are kept.

    Returns (gap, values), each of shape (n, len(POINTWISE_GRID), N, N): entry
    (r, a) is alpha[n, r, a] times E_m(x) = (C_m + i S_m) / sqrt(2 pi) - i^m
    psi_m(x) and psi_m(x), with C_m and S_m step times the sums over the nodes t
    of cos(x t) psi_m(t) and sin(x t) psi_m(t).  Every n takes the nodes
    `_trapezoid_nodes` gives the highest psi-degree, n_max + D: past the range
    of a lower degree its terms are below rounding.  The cos and sin rows times
    the psi table at the nodes are one real product; the per-psi_m tables are
    read by `families._at_support`.
    """
    global _kept
    kept = _kept
    if kept is not None and kept[0]() is ctx and kept[1] == TRAPEZOID_STEP:
        return kept[2]
    top = ctx.n_max + ctx.spec.kind * (ctx.size - 1)
    t = _trapezoid_nodes(top)
    arg = np.multiply.outer(POINTWISE_GRID, t)
    cos, sin = np.split(TRAPEZOID_STEP * np.concatenate([np.cos(arg), np.sin(arg)]) @ wave_functions(top, t).T, 2)
    psi = wave_functions(top, POINTWISE_GRID).T  # point, psi index
    gap = (cos + 1j * sin) / np.sqrt(2.0 * np.pi) - _I_POW[np.arange(top + 1) % 4] * psi
    data = tuple(np.moveaxis(_at_support(ctx, table), 0, 1) for table in (gap, psi))  # n, point, r, a
    _kept = (weakref.ref(ctx), TRAPEZOID_STEP, data)
    return data


def fourier_eigen_residual(ctx: FamilyContext):
    """Residual of (Phi_n F_k)(x) = i^n i^{kJ} Phi_n(x), with k = kind, on Phi-tilde_n, F_k by the trapezoidal rule.

    F_k Phi-tilde_n is `quadrature_transform`'s at POINTWISE_GRID, on the nodes of degree n_max + D.  As i^n i^{kJ_r}
    = i^m i^{kJ_a}, entry (r, a) is off by i^{kJ_a} times its gap of `_kernel_sums`: relative[n] is the largest |gap|.
    """
    gap = np.abs(_kernel_sums(ctx)[0]).max(axis=(1, 2, 3))
    return _report(ctx, f"fourier_eigen_k{ctx.spec.kind}", gap)  # absolute: |psi_m| <= pi^{-1/4} and |alpha| <= 1


def three_term_residual(ctx: FamilyContext):
    """Residual of x Phi-tilde_n(x) = sum_{|d|<=1} (x I)_{n,n+d} Phi-tilde_{n+d}(x) at POINTWISE_GRID, for n < n_max.

    The blocks are the band of x the family keeps, `ctx.bands[0]`; relative[n] is the largest residual at the points,
    for n < n_max only, as Phi-tilde_{n_max+1} is not built.
    """
    n_max, values = ctx.n_max, _kernel_sums(ctx)[1]
    band = ctx.bands[0][:n_max]  # (n, d + 1, r, s), 0 where n + d < 0
    rhs = np.einsum("ndrs,ndxsa->nxra", band, values[ctx.plan.near[0][:n_max]])
    resid = np.abs(POINTWISE_GRID[:, None, None] * values[:n_max] - rhs).max(axis=(1, 2, 3))
    return _report(ctx, f"three_term_kind{ctx.spec.kind}", resid)  # absolute, as |Phi-tilde_n(x)| < 1


def real_integral_residual(ctx: FamilyContext, form="even", sign=+1):
    """One of the real integral equations for the polynomials P_n, for every n.

    Each reads left Phi-tilde_n(x) right = c_n / sqrt(2 pi) front K_n(x) back with diagonal multipliers; K_n is the
    trapezoid sum of cos(x t) Phi-tilde_n(t) where n + [form == 'odd'] is even and of sin(x t) Phi-tilde_n(t) where it
    is odd.  With e = e^{i pi J}, s = sign, C_+ = cos((pi/2)J) and C_- = sin((pi/2)J), the rows are
        (left, right, front, back; c_n) = (e + s, C_s, C_s, e + s; (-1)^floor(n/2))   family 1, 'even',
                                          (e + s, C_-s, C_s, e - s; s (-1)^ceil(n/2))  family 1, 'odd',
                                          (e, I, I, e; (-1)^floor(n/2))                 family 2,
    one equation per form, sign and parity of n for family 1 and per parity for family 2, which ignores form and
    sign.  Entry by entry left right = c_n front back Re(i^m) for cos and Im(i^m) for sin, so lhs - rhs = -c_n front G
    back, G the real (cos) or imaginary (sin) part of the gap of `_kernel_sums`.  As |Re z|, |Im z| <= |z|, |front|
    <= 1 and |back| <= 2, each variant reads at most twice `fourier_eigen_residual`, at every n and for any sums.

    Returns the report of the absolute residual on Phi-tilde_n at POINTWISE_GRID; both sides are real, as it is.
    """
    N, n = ctx.size, np.arange(ctx.n_max + 1)
    if ctx.spec.kind == 1 and form not in ("even", "odd"):
        raise ValueError("form must be 'even' or 'odd'")
    gap = _kernel_sums(ctx)[0]
    s = 1.0 if sign > 0 else -1.0
    odd = ctx.spec.kind == 1 and form == "odd"  # K_n of parity n + 1, and back e - s
    e = np.diag(phase_diag(N, 2)).real
    front, back = ((np.ones(N), e) if ctx.spec.kind == 2
                   else (np.diag(trig_diag(N, "cos" if s > 0 else "sin")), e - s if odd else e + s))
    G = np.where(((n + odd) % 2 == 0)[:, None, None, None], gap.real, gap.imag)
    variant = "real_int_kind2" if ctx.spec.kind == 2 else f"real_int_kind1_{form}_{'+' if s > 0 else '-'}"
    return _report(ctx, variant, np.abs(front[:, None] * G * back).max(axis=(1, 2, 3)))
