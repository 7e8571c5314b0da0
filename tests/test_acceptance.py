"""Top-level acceptance suite: ten criteria, one pass/fail line each.

The identity lines of `matschroed check` come from its registry,
`cli.check_lines`, with its limits; the other criteria are checked here.
Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
"""

import math

import numpy as np
import pytest

from hermite_reference import hermite_phys
from matschroed.cli import DEFAULT_TOL, check_lines
from matschroed.expansion import expand, inner_product, matrix_element, band_pattern, reconstruct
from matschroed.families import FamilySpec, build_family, closed_form_N2, gamma_seq
from matschroed.matpoly import MatrixGaussian
from matschroed.operators import potential_shift, quadrature_transform, schrodinger_apply, transform_apply
from matschroed.structmat import phase_diag

from test_expansion import oracle_block
from test_operators import reflected

SEED = 42
N_MAX = 10


def seeded_specs():
    rng = np.random.default_rng(SEED)
    specs = []
    for kind in (1, 2):
        for N in (2, 3, 5):
            specs.append(FamilySpec(kind, N, rng.uniform(-2.0, 2.0, N - 1)))
    return specs


@pytest.fixture(scope="module")
def contexts():
    return {spec: build_family(spec, N_MAX) for spec in seeded_specs()}


def report(num, name, value, tol):
    ok = value < tol
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:>2}  {name:<38} {value:.3e} < {tol:.1e}")
    assert ok, f"criterion {num} ({name}): {value:.3e} >= {tol:.1e}"


def registry(ctxs):
    """The `check_lines` of every family at the default tolerance: {name: (worst residual, limit)}."""
    worst = {}
    for ctx in ctxs:
        for name, residual, limit in check_lines(ctx, DEFAULT_TOL, SEED):
            worst[name] = (max(residual, worst.get(name, (0.0,))[0]), limit)  # a limit depends on the name only
    return worst


@pytest.fixture(scope="module")
def lines(contexts):
    return registry(contexts.values())


def test_01_orthonormality(lines):
    report(1, "orthonormality", *lines["orthonormality"])


def test_02_schrodinger(lines):
    report(2, "schrodinger eigen-equation", *lines["schrodinger"])


def test_03_integral_eigen_equations(contexts, lines):
    # the registry reads the trapezoid transform at POINTWISE_GRID; here it is read on a wider grid too
    xs = np.linspace(-5, 5, 21)
    worst_oracle = 0.0
    for spec, ctx in contexts.items():
        k = spec.kind
        lam = (1j) ** np.arange(N_MAX + 1)
        for n in range(N_MAX + 1):
            phi = ctx.phi_tilde[n]
            q = quadrature_transform(phi, k, xs)
            rhs = np.einsum("ab,xbc->xac", lam[n] * phase_diag(spec.size, k), phi(xs))
            worst_oracle = max(worst_oracle, float(np.max(np.abs(q - rhs))))
    report(3, "integral eigen-equation", *lines["fourier_eigen"])
    report(3, "integral eigen-equation (x in -5..5)", worst_oracle, 1e-8)


def test_04_symmetry(contexts):
    # f(x) = (-1)^n f(-x), conjugated by e^{i pi J} for family 1, for f = Phi-tilde_n and P_n e^{-x^2/2}; exactly, as
    # entry (r, a) of either holds only psi_m with m of the parity of n + kind (a - r)
    worst = 0.0
    for spec, ctx in contexts.items():
        for n in range(N_MAX + 1):
            for f in (ctx.phi_tilde[n], ctx.pn[n]):
                worst = max(worst, (f - reflected(f, spec.kind, n)).max_abs())
    print(f"{'PASS' if worst == 0.0 else 'FAIL'}  criterion  4  {'reflection symmetry':<38} {worst:.3e} == 0")
    assert worst == 0.0, f"criterion 4 (reflection symmetry): {worst:.3e}"


def test_05_real_integral_equations(lines):
    report(5, "real integral equations", *lines["real_integral"])


def test_06_closed_forms_N2():
    worst_fn, worst_poly, worst_norm = 0.0, 0.0, 0.0
    xs = np.linspace(-4, 4, 33)
    for kind in (1, 2):
        for nu1 in (0.5, 1.0, 2.0):
            spec = FamilySpec(kind, 2, [nu1])
            ctx = build_family(spec, 8)
            g = gamma_seq(spec, 12)
            for n in range(9):
                cf = closed_form_N2(spec, n)
                diff = ctx.phi_tilde[n] - cf
                worst_fn = max(worst_fn, float(np.max(np.abs(diff(xs)))))

                Hn = np.polyval(hermite_phys(n)[::-1], xs)
                Hn1 = np.polyval(hermite_phys(n - 1)[::-1], xs) if n >= 1 else np.zeros_like(xs)
                Hn2 = np.polyval(hermite_phys(n - 2)[::-1], xs) if n >= 2 else np.zeros_like(xs)
                if kind == 1:
                    a = n * nu1 * Hn1
                    rows = [
                        [Hn, -a],
                        [-a / g[n], (Hn + n * nu1 ** 2 * xs * Hn1) / g[n]],
                    ]
                else:
                    b = n * (n - 1) * Hn2
                    rows = [
                        [Hn, -nu1 * ((n + 0.5) * Hn + b)],
                        [-nu1 * b / g[n], (Hn + nu1 ** 2 * xs ** 2 * b) / g[n]],
                    ]
                P = np.stack([np.stack(r, -1) for r in rows], -2) / 2.0 ** n
                Pgot = ctx.pn[n].poly_at(xs)
                scale = max(1.0, float(np.max(np.abs(P))))
                worst_poly = max(worst_poly, float(np.max(np.abs(Pgot - P))) / scale)

                base = math.factorial(n) * math.sqrt(math.pi) / 2 ** n
                hi = g[n + 1] if kind == 1 else g[n + 2]
                expected = base * np.array([hi, 1.0 / g[n]])
                worst_norm = max(
                    worst_norm,
                    float(np.max(np.abs(np.exp(ctx.log_norms[n]) - expected) / expected)),
                )
    report(6, "N=2 polynomial closed forms", worst_poly, 1e-10)
    report(6, "N=2 normalized closed forms", worst_fn, 1e-10)
    report(6, "N=2 norm closed forms", worst_norm, 1e-10)


def test_07_matrix_elements(lines):
    worst = 0.0
    for kind in (1, 2):
        spec = FamilySpec(kind, 2, [1.0])
        ctx = build_family(spec, 10)
        for k in (1, 2):
            for n in range(9):
                for m in range(9):
                    diff = matrix_element(ctx, k, n, m) - oracle_block(spec, k, n, m)
                    worst = max(worst, float(np.max(np.abs(diff))))
        bp = band_pattern(ctx, 1, n_max=8, threshold=1e-10)
        size = bp.flat.shape[0]
        expected_mask = np.zeros((size, size), dtype=bool)
        for n in range(9):
            for m in range(9):
                if abs(n - m) <= 1:
                    block = oracle_block(spec, 1, n, m)
                    expected_mask[2 * n : 2 * n + 2, 2 * m : 2 * m + 2] = np.abs(block) > 1e-10
        assert np.array_equal(bp.mask, expected_mask), f"band mask mismatch, kind {kind}"
        diag_offsets_zero = (0,) if kind == 1 else (0, 1, -1)
        for off in diag_offsets_zero:
            assert not np.diagonal(bp.mask, off).any()
    report(7, "matrix-element closed forms", worst, 1e-9)
    report(7, "three-term relation, read at points", *lines["three_term"])


def test_08_figure_densities():
    worst_int = 0.0
    for kind, nu1 in ((1, 1.0), (2, 0.5)):
        spec = FamilySpec(kind, 2, [nu1])
        ctx = build_family(spec, 5)
        for n in range(6):
            g = inner_product(ctx.phi_tilde[n], ctx.phi_tilde[n])
            worst_int = max(worst_int, float(np.max(np.abs(np.real(np.diag(g)) - 1.0))))
            if kind == 1:
                xs = np.arange(-6.0, 6.0 + 0.005, 0.01)
                vals = ctx.phi_tilde[n](xs)
                dens = np.einsum("xab,xcb->xac", vals, np.conj(vals))
                assert np.min(np.real(dens[:, 0, 0])) > 0.0
                assert np.min(np.real(dens[:, 1, 1])) > 0.0
    report(8, "figure densities integrate to 1", worst_int, 1e-9)


def test_09_round_trips(contexts):
    worst_exp, worst_tr = 0.0, 0.0
    rng = np.random.default_rng(SEED)
    for spec, ctx in contexts.items():
        N = spec.size
        target = rng.standard_normal((9, N, N)) + 1j * rng.standard_normal((9, N, N))
        F = MatrixGaussian.zero(N)
        for n in range(9):
            F = F + ctx.phi_tilde[n].left_mul(target[n])
        e = expand(F, ctx)
        worst_exp = max(worst_exp, float(np.max(np.abs(e.coeffs[:9] - target))))
        worst_exp = max(worst_exp, float(np.max(np.abs(e.coeffs[9:]))))
        G = reconstruct(e, ctx)
        worst_exp = max(worst_exp, (F - G).max_abs() / F.max_abs())
        k = spec.kind
        H = transform_apply(transform_apply(F, k, 1), k, -1)
        worst_tr = max(worst_tr, (F - H).max_abs() / F.max_abs())
    report(9, "expand/reconstruct round trip", worst_exp, 1e-9)
    report(9, "transform round trip", worst_tr, 1e-9)


def test_10_commutation(contexts):
    worst = 0.0
    rng = np.random.default_rng(SEED + 1)
    for spec, ctx in contexts.items():
        N = spec.size
        F = MatrixGaussian.zero(N)
        for n in range(9):
            C = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            F = F + ctx.phi_tilde[n].left_mul(C)
        c = potential_shift(spec.kind)
        J = ctx.structured.J
        k = spec.kind
        a = transform_apply(schrodinger_apply(F, J, c), k)
        b = schrodinger_apply(transform_apply(F, k), J, c)
        worst = max(worst, (a - b).max_abs() / F.max_abs())
    report(10, "transform/Schrodinger commutation", worst, 1e-9)
