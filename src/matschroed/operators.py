"""Eigen-operators and identity checks for the two families.

Every identity is checked in coefficient space (primary, exact up to rounding)
and pointwise on a small grid (secondary, human-readable).  The quadrature
transform is the independent numerical oracle for the exact Fourier transform
of matpoly: the trapezoidal rule on a uniform grid, fed with point values,
which converges geometrically for Gaussian-decaying analytic integrands
(Trefethen & Weideman, SIAM Review 56, 2014).
"""

from dataclasses import dataclass

import numpy as np

from .families import FamilyContext
from .matpoly import MatrixGaussian
from .structmat import phase_diag, trig_diag

POINTWISE_GRID = np.array([-3.0, -1.5, 0.0, 0.8, 2.2])
TRAPEZOID_STEP = 0.05


def _trapezoid_nodes(f: MatrixGaussian):
    """Uniform nodes on [-L, L]: L is the turning point sqrt(2d+1) of degree d plus 10 units of decay."""
    half_width = np.sqrt(2 * f.degree + 1) + 10.0
    m = int(np.ceil(half_width / TRAPEZOID_STEP))
    return TRAPEZOID_STEP * np.arange(-m, m + 1)


@dataclass(frozen=True)
class ResidualReport:
    """Residual of one identity at one index."""

    n: int
    variant: str
    max_coeff_norm: float
    max_pointwise: float

    def passed(self, tol=1e-9):
        return self.max_coeff_norm < tol


def _report(n, variant, residual: MatrixGaussian, scale):
    vals = residual(POINTWISE_GRID)
    return ResidualReport(
        n=n,
        variant=variant,
        max_coeff_norm=residual.max_abs() / scale,
        max_pointwise=float(np.max(np.abs(vals))),
    )


def potential_shift(kind):
    """Multiple of J in the potential: 2J for family 1, 4J for family 2."""
    return 2.0 if kind == 1 else 4.0


def schrodinger_apply(f: MatrixGaussian, J, c):
    """f -> f'' - f (x^2 I + c J), the potential acting on the right."""
    return f.differentiate().differentiate() - f.poly_mul([0.0, 0.0, 1.0]) - f.right_mul(c * J)


def schrodinger_residual(ctx: FamilyContext, n):
    """Residual of Phi_n'' - Phi_n (x^2 I + cJ) + ((2n+1) I + cJ) Phi_n."""
    c = potential_shift(ctx.spec.kind)
    J = ctx.structured.J
    phi = ctx.phi[n]
    shift = (2 * n + 1) * np.eye(ctx.size) + c * J
    res = schrodinger_apply(phi, J, c) + phi.left_mul(shift)
    return _report(n, f"schrodinger_kind{ctx.spec.kind}", res, phi.max_abs())


def transform_apply(f: MatrixGaussian, k, direction=1):
    """The Fourier-type transform F_k (or its inverse), exactly."""
    return f.fourier(direction).right_mul(phase_diag(f.size, direction * k))


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


def fourier_eigen_residual(ctx: FamilyContext, n):
    """Residual of (Phi_n F_k)(x) = i^n i^{kJ} Phi_n(x), with k = kind."""
    k = ctx.spec.kind
    phi = ctx.phi[n]
    lhs = transform_apply(phi, k)
    rhs = phi.left_mul((1j) ** n * phase_diag(ctx.size, k))
    return _report(n, f"fourier_eigen_k{k}", lhs - rhs, phi.max_abs())


def symmetry_residual(ctx: FamilyContext, n, target="phi"):
    """Residual of the reflection symmetry for Phi_n or P_n.

    Family 1: f(x) = (-1)^n e^{i pi J} f(-x) e^{i pi J}.
    Family 2: f(x) = (-1)^n f(-x).
    """
    if target == "phi":
        f = ctx.phi[n]
    elif target == "poly":
        f = MatrixGaussian.from_poly(ctx.pn[n])
    else:
        raise ValueError("target must be 'phi' or 'poly'")
    refl = f.reflect().scale((-1.0) ** n)
    if ctx.spec.kind == 1:
        E = phase_diag(ctx.size, 2)
        refl = refl.left_mul(E).right_mul(E)
    return _report(n, f"symmetry_{target}_kind{ctx.spec.kind}", f - refl, f.max_abs())


def _kernel_integral(ctx, n, kernel, xs):
    """int e^{-t^2/2} kernel(x t) P_n(t) R(t) dt on the grid xs, by the trapezoidal rule."""
    t = _trapezoid_nodes(ctx.phi[n])
    return TRAPEZOID_STEP * np.einsum("xi,iab->xab", kernel(np.outer(xs, t)), ctx.phi[n](t))


def real_integral_residual(ctx: FamilyContext, n, form="even", sign=+1):
    """One of the real integral equations for the polynomials P_n.

    Family 1 has eight equations: form in {'even', 'odd'} times sign in {+1, -1}
    times the parity of n.  The 'even' form pairs (e^{i pi J} +- I) with the
    matching C_+- on both sides and the kernel k_n; the 'odd' form crosses the
    multipliers and uses the kernel k_{n+1}.  Family 2 has a single equation
    per parity (cos kernel for even n, sin for odd); form and sign are ignored.

    Returns the max pointwise residual over the grid together with the largest
    imaginary part seen on either side (both sides must be real).
    """
    xs = POINTWISE_GRID
    E = phase_diag(ctx.size, 2).real
    phi_vals = ctx.phi[n](xs)  # e^{-x^2/2} P_n(x) R(x)
    if ctx.spec.kind == 2:
        kernel = np.cos if n % 2 == 0 else np.sin
        coeff = (-1.0) ** (n // 2)
        lhs = np.einsum("ab,xbc->xac", E, phi_vals)
        integ = _kernel_integral(ctx, n, kernel, xs)
        rhs = (coeff / np.sqrt(2.0 * np.pi)) * integ @ E
        variant = f"real_int_kind2_parity{n % 2}"
    else:
        s = 1.0 if sign > 0 else -1.0
        Cp = trig_diag(ctx.size, "cos")
        Cm = trig_diag(ctx.size, "sin")
        if form == "even":
            kernel = np.cos if n % 2 == 0 else np.sin
            left_proj, right_mulmat = E + s * np.eye(ctx.size), Cp if s > 0 else Cm
            front, back = right_mulmat, E + s * np.eye(ctx.size)
            coeff = (-1.0) ** (n // 2)
        elif form == "odd":
            kernel = np.cos if (n + 1) % 2 == 0 else np.sin
            left_proj = E + s * np.eye(ctx.size)
            right_mulmat = Cm if s > 0 else Cp
            front = Cp if s > 0 else Cm
            back = E - s * np.eye(ctx.size)
            # ceil(n/2) here, not floor: verified against the derivation
            coeff = s * (-1.0) ** ((n + 1) // 2)
        else:
            raise ValueError("form must be 'even' or 'odd'")
        lhs = np.einsum("ab,xbc,cd->xad", left_proj, phi_vals, right_mulmat)
        integ = _kernel_integral(ctx, n, kernel, xs)
        rhs = (coeff / np.sqrt(2.0 * np.pi)) * np.einsum("ab,xbc,cd->xad", front, integ, back)
        variant = f"real_int_kind1_{form}_{'+' if s > 0 else '-'}_parity{n % 2}"
    max_imag = float(max(np.max(np.abs(lhs.imag)), np.max(np.abs(rhs.imag))))
    resid = float(np.max(np.abs(lhs - rhs)))
    report = ResidualReport(n=n, variant=variant, max_coeff_norm=resid, max_pointwise=resid)
    return report, max_imag


def row_coverage(N):
    """Rows of P_n constrained by the sin/cos multipliers of the real equations.

    The front multiplier C_+- selects the rows where its diagonal is nonzero;
    the union over both multipliers must cover all N rows.
    """
    cos_rows = {j for j in range(N) if trig_diag(N, "cos")[j, j] != 0}
    sin_rows = {j for j in range(N) if trig_diag(N, "sin")[j, j] != 0}
    return cos_rows, sin_rows, cos_rows | sin_rows == set(range(N))
