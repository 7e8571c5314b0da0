import dataclasses
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hermite_reference import hermite_phys
from matschroed import families
from matschroed.families import (
    ConsistencyError,
    FamilySpec,
    _at_support,
    build_family,
    closed_form_N2,
    gamma_seq,
    right_factor_poly,
    weight_eval,
)
from matschroed.expansion import inner_product, inner_product_weighted
from matschroed.hermite import TABLE_CACHE_BYTES, wave_functions
from matschroed.matpoly import poly_times
from matschroed.structmat import build_structured, nilpotent_series

SPECS = [
    FamilySpec(1, 2, [1.0]),
    FamilySpec(1, 3, [0.8, -1.3]),
    FamilySpec(2, 2, [1.0]),
    FamilySpec(2, 3, [0.8, -1.3]),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(3, 2, [1.0])
    with pytest.raises(ValueError):
        FamilySpec(1, 0, [])
    with pytest.raises(ValueError):
        FamilySpec(1, 3, [1.0])
    with pytest.raises(ValueError):
        FamilySpec(2, 3, [0.5, float("nan")])
    # what malformed JSON gives: a size that is no integer, a nu that is no sequence of numbers
    for size, nu in [("2", [1.0]), (2.0, [1.0]), (None, [])]:
        with pytest.raises(ValueError, match=r"size must be an integer >= 1, got "):
            FamilySpec(1, size, nu)
    for nu in [5, None, "5", [[1.0]], ["1"], [None]]:
        with pytest.raises(ValueError, match=r"nu must be a sequence of numbers, got "):
            FamilySpec(1, 2, nu)
    assert FamilySpec(1, np.int64(3), np.array([0.5, -1.0])).nu == (0.5, -1.0)
    assert FamilySpec(np.int64(2), np.int64(2), [np.float64(1)]).to_json() == '{"kind": 2, "N": 2, "nu": [1.0]}'
    # True == 1 == 1.0, so a bool or a float would pass `kind in (1, 2)`, and True is an Integral
    for kind, size in [(True, 2), (2.0, 2), (True, True)]:
        with pytest.raises(ValueError, match=r"kind must be 1 or 2, got "):
            FamilySpec(kind, size, [1.0])
    for size in (True, 1.0):
        with pytest.raises(ValueError, match=r"size must be an integer >= 1, got "):
            FamilySpec(1, size, [])
    with pytest.raises(ValueError, match=r"nu must be a sequence of numbers, got "):
        FamilySpec(1, 2, [True])
    for text in ('{"kind": 2.0, "N": 2, "nu": [1]}', '{"kind": true, "N": true, "nu": []}'):
        with pytest.raises(ValueError, match=r"kind must be 1 or 2, got "):
            FamilySpec.from_json(text)
    for text in ("[1]", "5", "null", '"spec"'):
        with pytest.raises(ValueError, match="a family spec must be a JSON object"):
            FamilySpec.from_json(text)


@pytest.mark.parametrize("kind", [1, 2])
def test_right_factor_inverse_past_the_double_range_is_rejected(kind):
    # entry (0, 2) of R^{-1} holds multiples of nu1 nu2 = 1e310, past the double range: a named ValueError,
    # before any RuntimeWarning or a LinAlgError from the SVD
    spec = FamilySpec(kind, 3, (1e155, 1e155))
    message = rf"^kind {kind}, N=3, nu=\(1e\+155, 1e\+155\), R\^\{{-1\}} leaves the double range$"
    with pytest.raises(ValueError, match=message):
        build_family(spec, 4)


def test_spec_json_roundtrip():
    spec = FamilySpec(2, 3, [0.5, -2.0])
    assert FamilySpec.from_json(spec.to_json()) == spec


def test_gamma_seq_values():
    g1 = gamma_seq(FamilySpec(1, 2, [1.0]), 4)
    np.testing.assert_allclose(g1, [1.0, 1.5, 2.0, 2.5, 3.0])
    g2 = gamma_seq(FamilySpec(2, 2, [2.0]), 4)
    np.testing.assert_allclose(g2, [1.0, 1.0, 3.0, 7.0, 13.0])
    with pytest.raises(ValueError):
        gamma_seq(FamilySpec(1, 3, [1.0, 1.0]), 2)


@pytest.mark.parametrize("kind, nu1", [(1, 1e155), (1, -7e153), (2, 1e154)])
def test_gamma_seq_past_the_double_range_names_the_spec(kind, nu1):
    # nu1^2 or n nu1^2 / 2 leaves the double range: a ValueError, from the closed form too, never an OverflowError
    spec = FamilySpec(kind, 2, [nu1])
    message = f"kind {kind}, N=2, nu={spec.nu}, gamma_n leaves the double range"
    for make in (gamma_seq, closed_form_N2):
        with pytest.raises(ValueError) as info:
            make(spec, 8)
        assert str(info.value) == message


def test_closed_form_where_two_gamma_n_leaves_the_double_range():
    # gamma_5 = 9e307 fits a double and 2 gamma_5 does not; the off-diagonal entries are 1 and -1 to rounding
    spec = FamilySpec(1, 2, [6e153])
    table = families._closed_alpha(spec, 4)
    assert np.isfinite(table).all()
    np.testing.assert_allclose(table[:, 0, 1], 1.0, rtol=1e-15)
    np.testing.assert_allclose(table[1:, 1, 0], -1.0, rtol=1e-15)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_weight_properties(spec):
    np.testing.assert_allclose(weight_eval(spec, 0.0), np.eye(spec.size), atol=1e-15)
    for x in (-2.0, 0.7, 3.1):
        W = weight_eval(spec, x)
        np.testing.assert_allclose(W, W.T, atol=1e-13)
        assert np.all(np.linalg.eigvalsh(W) > 0)


def test_weight_scalar_case_is_gaussian():
    spec = FamilySpec(1, 1, [])
    xs = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(weight_eval(spec, xs)[:, 0, 0], np.exp(-xs ** 2), atol=1e-15)


def inv_sqrt_power(A, power):
    """(I + A)^{-power/2} for nilpotent A, via the exact binomial series."""
    N = A.shape[0]
    alpha = power / 2.0
    # Taylor derivatives of (1+x)^{-alpha}: f^(j)(0) = (-1)^j alpha (alpha+1) ... (alpha+j-1)
    taylor = np.empty(N)
    taylor[0] = 1.0
    for j in range(1, N):
        taylor[j] = -taylor[j - 1] * (alpha + j - 1)
    return nilpotent_series(taylor, A)


def normalizer(A, kind, n):
    """The paper's leading coefficient L_n of P_n: e^{-A^2/4} (family 1), (I+A)^{-(2n+1)/2} (family 2)."""
    if kind == 1:
        return nilpotent_series([(-0.25) ** j for j in range(A.shape[0])], A @ A)
    return inv_sqrt_power(A, 2 * n + 1)


def test_inv_sqrt_power_against_dense():
    # (I + A)^{-p/2} squared p times reproduces (I + A)^{-p}
    sp = build_structured(4, [0.5, -1.0, 2.0])
    M = inv_sqrt_power(sp.A, 3)
    lhs = np.linalg.matrix_power(M, 2)
    rhs = np.linalg.inv(np.linalg.matrix_power(np.eye(4) + sp.A, 3))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_leading_coefficient_is_paper_normalizer(spec):
    ctx = build_family(spec, 6)
    for n in range(7):
        L = normalizer(ctx.structured.A, spec.kind, n)
        # psi_n = pi^{-1/4} (2^n / n!)^{1/2} x^n e^{-x^2/2} + lower degrees, and P_n has degree n
        lead = ctx.pn[n].coeffs[n] * np.pi**-0.25 * math.sqrt(2.0**n / math.factorial(n))
        np.testing.assert_allclose(lead, L, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_weighted_orthogonality(spec):
    ctx = build_family(spec, 8)
    for n in range(9):
        for m in range(n):
            G = inner_product_weighted(ctx.pn[n], ctx.pn[m], spec)
            assert np.max(np.abs(G)) < 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_norms_diagonal_positive(spec):
    ctx = build_family(spec, 8)
    for n in range(9):
        G = inner_product_weighted(ctx.pn[n], ctx.pn[n], spec)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(G))
        assert np.all(np.real(np.diag(G)) > 0)
        np.testing.assert_allclose(np.exp(ctx.log_norms[n]), np.real(np.diag(G)), rtol=1e-10)


@pytest.mark.parametrize("kind, N", [(1, 2), (2, 5)])
def test_weighted_gram_of_pn_matches_norms_at_large_n(kind, N):
    # <P_n, P_n>_W by Parseval on the psi-coefficients of P_n e^{-x^2/2} R, against ||P_n||^2 from the table
    spec = FamilySpec(kind, N, [0.8] * (N - 1))
    ctx = build_family(spec, 180)
    for n in (40, 80, 120, 180):
        G, norms = inner_product_weighted(ctx.pn[n], ctx.pn[n], spec), np.exp(ctx.log_norms[n])
        np.testing.assert_allclose(np.diag(G), norms, rtol=1e-12, atol=0)
        assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-12 * norms.max(), n


@pytest.mark.parametrize("kind", [1, 2])
def test_norm_closed_form_N2(kind):
    spec = FamilySpec(kind, 2, [1.0])
    ctx = build_family(spec, 8)
    g = gamma_seq(spec, 11)
    for n in range(9):
        base = math.factorial(n) * math.sqrt(math.pi) / 2 ** n
        if kind == 1:
            expected = base * np.array([g[n + 1], 1.0 / g[n]])
        else:
            expected = base * np.array([g[n + 2], 1.0 / g[n]])
        np.testing.assert_allclose(np.exp(ctx.log_norms[n]), expected, rtol=1e-10)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_orthonormality_identity_weight(spec):
    ctx = build_family(spec, 8)
    for n in range(9):
        for m in range(9):
            G = inner_product(ctx.phi_tilde[n], ctx.phi_tilde[m])
            expected = np.eye(spec.size) if n == m else np.zeros((spec.size, spec.size))
            assert np.max(np.abs(G - expected)) < 1e-10


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("nu1", [0.5, 1.0, 2.0])
def test_closed_form_matches_pipeline(kind, nu1):
    spec = FamilySpec(kind, 2, [nu1])
    ctx = build_family(spec, 8)
    xs = np.linspace(-4, 4, 17)
    for n in range(9):
        cf = closed_form_N2(spec, n)
        for x in xs:
            np.testing.assert_allclose(ctx.phi_tilde[n](x), cf(x), atol=1e-10)


def test_closed_form_rejects_wrong_size():
    with pytest.raises(ValueError):
        closed_form_N2(FamilySpec(1, 3, [1.0, 1.0]), 0)


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("nu1", [0.7, -1.5])
@pytest.mark.parametrize("n_max", [0, 1, 10, 400])
def test_closed_form_table_is_the_built_alpha(kind, nu1, n_max):
    # measured at most 3.3e-16 over these cases (kind 2, n_max = 400)
    spec = FamilySpec(kind, 2, [nu1])
    table = families._closed_alpha(spec, n_max)
    assert table.shape == (n_max + 1, 2, 2)
    assert np.abs(table - build_family(spec, n_max).alpha).max() < 1e-15


@pytest.mark.parametrize("kind", [1, 2])
def test_closed_form_adds_no_plans(kind):
    spec = FamilySpec(kind, 2, [0.7])
    ctx = build_family(spec, 20)
    kept = list(families._plans)
    for n in range(21):
        assert (closed_form_N2(spec, n) - ctx.phi_tilde[n]).max_abs() < 1e-15
    assert list(families._plans) == kept


def test_build_family_quad_order_validation():
    with pytest.raises(ValueError):
        build_family(FamilySpec(1, 2, [1.0]), -1)


@pytest.mark.parametrize("kind, N, n_max", [(1, 2, 40), (2, 8, 20)])
def test_orthonormality_at_the_frontier(kind, N, n_max):
    # the accuracy frontier of monomial storage, checked by point evaluation on
    # a uniform grid (trapezoidal rule), independent of the coefficient algebra
    ctx = build_family(FamilySpec(kind, N, [0.8] * (N - 1)), n_max)
    h = 0.05
    xs = h * np.arange(-360, 361)
    vals = np.stack([f(xs) for f in ctx.phi_tilde])  # (n, x, a, c)
    M = vals.transpose(0, 2, 1, 3).reshape((n_max + 1) * N, -1)
    G = h * M @ M.conj().T
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-6


@pytest.mark.parametrize("kind", [1, 2])
def test_orthonormality_at_n_max_200(kind):
    # the last 21 functions against all 201, by point values on a uniform grid
    # (trapezoidal rule) over [-30, 30]; the highest index present, psi_214,
    # turns at sqrt(429) ~ 20.7.  Summed in chunks of x to bound the memory.
    N, n_max = 8, 200
    ctx = build_family(FamilySpec(kind, N, [0.8] * (N - 1)), n_max)
    h = 0.05
    xs = h * np.arange(-600, 601)
    G = 0.0
    for lo in range(0, xs.size, 300):
        vals = np.stack([f(xs[lo : lo + 300]) for f in ctx.phi_tilde])  # (n, x, a, c)
        assert not vals.imag.any()  # real functions; the Gram below is real
        M = vals.real.transpose(0, 2, 1, 3).reshape((n_max + 1) * N, -1)
        G = G + h * M[-21 * N :] @ M.T
    assert np.max(np.abs(G - np.eye((n_max + 1) * N)[-21 * N :])) <= 1e-12


@pytest.mark.parametrize("which", ["phi_tilde", "pn"])
def test_function_table_is_a_read_only_sequence(which):
    # each item is built from alpha on first read and then kept
    ctx = build_family(FamilySpec(2, 3, [0.8, -1.3]), 6)
    table = getattr(ctx, which)
    assert len(table) == 7
    assert table[-1] is table[6]
    assert table[3] is table[3]
    with pytest.raises(IndexError):
        table[7]
    with pytest.raises(IndexError):
        table[-8]
    part = table[1:6:2]
    assert isinstance(part, list) and all(f is table[j] for f, j in zip(part, (1, 3, 5)))
    assert all(f is table[n] for n, f in enumerate(table))
    assert not ctx.alpha.flags.writeable
    with pytest.raises(ValueError):
        ctx.alpha[0, 0, 0] = 2.0
    again = getattr(pickle.loads(pickle.dumps(ctx)), which)  # a context pickles, read items or not
    if which == "pn":
        assert [p.coeffs.shape for p in table] == [(n + 1, 3, 3) for n in range(7)]
        np.testing.assert_array_equal(again[5].coeffs, table[5].coeffs)
        return
    np.testing.assert_array_equal(again[5].coeffs, table[5].coeffs)
    for n, f in enumerate(table):
        rows, cols = np.indices((3, 3))
        np.testing.assert_array_equal(f.coeffs[np.maximum(n + 2 * (cols - rows), 0), rows, cols], ctx.alpha[n])


def test_replaced_context_reads_its_own_alpha_and_spec():
    # structured, phi_tilde and pn are made from the fields on first read, so a copy made by
    # `dataclasses.replace` does not keep the views its source read
    ctx = build_family(FamilySpec(1, 3, [0.8, -1.3]), 10)
    assert [f.name for f in dataclasses.fields(ctx)] == ["spec", "n_max", "alpha", "log_norms", "null_margin"]
    before = ctx.phi_tilde[5], ctx.pn[5], ctx.structured
    c, s = np.cos(1e-6), np.sin(1e-6)
    alpha = ctx.alpha.copy()
    alpha[5, 0], alpha[5, 1] = c * ctx.alpha[5, 0] - s * ctx.alpha[5, 1], s * ctx.alpha[5, 0] + c * ctx.alpha[5, 1]
    turned = dataclasses.replace(ctx, alpha=alpha)
    rows, cols = np.indices((3, 3))
    for n in (4, 5):
        np.testing.assert_array_equal(turned.phi_tilde[n].coeffs[np.maximum(n + cols - rows, 0), rows, cols], alpha[n])
    assert np.abs(turned.phi_tilde[5].coeffs - before[0].coeffs).max() > 1e-7
    # a new spec: its own nu in structured, and pn = ||P_n|| Phi-tilde_n R^{-1} with the new nu's R^{-1}
    spec = FamilySpec(1, 3, [0.5, 2.0])
    moved = dataclasses.replace(ctx, spec=spec)
    assert moved.structured.nu.tolist() == list(spec.nu) and before[2].nu.tolist() == [0.8, -1.3]
    R_inv = right_factor_poly(build_structured(3, spec.nu), 1, -1)
    for n in (0, 5, 10):
        Phi = ctx.phi_tilde[n].left_mul(np.diag(np.exp(0.5 * ctx.log_norms[n])))
        expected = poly_times(Phi.coeffs, R_inv)[: n + 1]
        np.testing.assert_allclose(moved.pn[n].coeffs, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
    assert np.abs(moved.pn[5].coeffs - before[1].coeffs).max() > 1e-3 * np.abs(before[1].coeffs).max()


def test_consistency_error_names_spec_and_index():
    for kind, N, nu, n_max, where in [
        # with nu this large the small entries of the degree condition fall below
        # the rounding of its large ones, so its numerical null space is 2-dimensional
        (1, 3, 1e8, 0, "n=0, row 0"),
        # the first failure in n order: row 1 fails at n=4, before row 0 fails at n=6
        (2, 8, 30.0, 10, "n=4, row 1"),
        # at large n (unit-size orthogonality rows under the rank tolerance) and at large nu
        (2, 8, 0.8, 260, "n=248, row 1"),
        (2, 8, 5.0, 40, "n=37, row 1"),
        (1, 8, 12.0, 40, "n=20, row 0"),
    ]:
        spec = FamilySpec(kind, N, (nu,) * (N - 1))
        with pytest.raises(Exception) as info:  # rows past the first failure are solved too: never a LinAlgError
            build_family(spec, n_max)
        assert info.type is ConsistencyError
        assert str(info.value).startswith(f"kind {kind}, N={N}, nu={spec.nu}, {where}: ")
        # the rank tolerance is printed, and the singular values under it, rounding noise, only counted
        assert re.search(r"\(rank tolerance \d\.\d{3}e[+-]\d+; singular values above it \[.+\], \d+ at or below it\)$",
                         str(info.value)), str(info.value)


@pytest.mark.parametrize("kind", [1, 2])
def test_boundary_rows_match_a_plain_svd(kind):
    # every row against one SVD of its full constraint stack: every psi-coefficient above n,
    # the rows `_table` drops as exactly 0 included, and only the supported columns (for
    # n < kind * r, row r has columns with m = n + kind (a - r) < 0, which the stacked solve pins)
    N, n_max = 5, 12
    ctx = build_family(FamilySpec(kind, N, [0.8, -1.3, 0.6, 1.1]), n_max)
    n, r, a = np.ogrid[: n_max + 1, :N, :N]
    supported = np.broadcast_to(n + kind * (a - r) >= 0, ctx.alpha.shape)
    assert np.all(ctx.alpha[~supported] == 0.0)
    one = supported.sum(axis=2) == 1
    assert one.any() and np.all(ctx.null_margin[one] == 1.0)
    R_inv = right_factor_poly(ctx.structured, kind, -1)
    for r in range(N):
        for n in range(n_max + 1):
            cols = [a for a in range(N) if n + kind * (a - r) >= 0]
            # psi-coefficients of psi_m(x) times row a of R^{-1}(x), m = n + kind (a - r)
            funcs = np.zeros((len(cols), n + 2 * kind * N, N))
            for i, a in enumerate(cols):
                unit = np.eye(n + kind * (a - r) + 1)[-1][:, None, None]
                f = poly_times(unit, R_inv[:, a : a + 1])[:, 0]
                funcs[i, : f.shape[0]] = f
            high = funcs[:, n + 1 :].reshape(len(cols), -1).T  # no psi-coefficient above n
            same = [ctx.alpha[n - kind * (r - q), q, cols] for q in range(r) if n >= kind * (r - q)]
            M = np.vstack([high] + same)
            _, s, vh = np.linalg.svd(M)
            s = np.concatenate([s, np.zeros(len(cols) - s.size)])
            v = vh[-1] * np.sign(vh[-1] @ funcs[:, n, r])  # positive psi_n coefficient in column r
            assert np.max(np.abs(ctx.alpha[n, r, cols] - v)) <= 1e-13
            margin = s[-2] / s[0] if len(cols) > 1 else 1.0
            np.testing.assert_allclose(ctx.null_margin[n, r], margin, rtol=1e-9)


def test_one_stacked_svd_per_row_index(monkeypatch):
    # row r stacks its h degree rows, r orthogonality rows and pin rows for the columns a < r only,
    # padded to N rows so the SVD returns N singular values
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, *args, **kw: shapes.append(M.shape) or svd(M, *args, **kw))
    for kind, N, n_max in [(1, 5, 12), (2, 8, 40), (1, 1, 3), (1, 2, 5)]:
        shapes.clear()
        build_family(FamilySpec(kind, N, [0.8] * (N - 1)), n_max)
        h = [kind * (N - 1 - r) * (N - r) // 2 for r in range(N)]  # psi_{n+i} of column b, 1 <= i <= kind (b - r)
        assert shapes == [(n_max + 1, h[r] + r + max(r, N - h[r] - r), N) for r in range(N)]


@pytest.mark.parametrize("kind", [1, 2])
def test_cold_and_warm_plan_give_identical_builds(kind):
    spec = FamilySpec(kind, 5, [0.8, -1.3, 0.6, 1.1])
    families._plans.clear()
    cold = build_family(spec, 30)
    assert (kind, 5, 30) in families._plans
    warm = build_family(spec, 30)
    for name in ("alpha", "log_norms", "null_margin"):
        np.testing.assert_array_equal(getattr(warm, name), getattr(cold, name))


def test_cached_plan_is_read_only():
    build_family(FamilySpec(2, 3, [0.8, -1.3]), 6)
    plan = families._plans[(2, 3, 6)]
    values = [getattr(plan, f.name) for f in dataclasses.fields(plan)]
    arrays = [x for v in values for x in (v if isinstance(v, tuple) else (v,)) if isinstance(x, np.ndarray)]
    assert len(arrays) == len(plan.arrays) > 10
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0


def test_plan_cache_stays_within_its_bound():
    # the bound holds two plans of the largest supported shape; a plan above it is used but not kept
    assert 2 * families._make_plan(2, 8, 400).nbytes <= families.PLAN_CACHE_BYTES
    families._plans.clear()
    shapes = [(kind, N, n_max) for kind in (1, 2) for N in (2, 5, 8) for n_max in (10, 40, 150, 400)]
    for shape in shapes:
        plan = families._plan(*shape)
        assert families._plan(*shape) is plan and next(reversed(families._plans)) == shape
        assert sum(p.nbytes for p in families._plans.values()) <= families.PLAN_CACHE_BYTES
    assert len(families._plans) < len(shapes)
    kept = list(families._plans)
    assert families._plan(2, 8, 1200).nbytes > families.PLAN_CACHE_BYTES
    assert list(families._plans) == kept


def test_context_keeps_no_product_table_alive():
    # the product table (3.2 MB here) is made again from the plan on the first pn read
    spec = FamilySpec(2, 8, (0.8,) * 7)
    build_family(spec, 200)  # its plan is cached outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctx = build_family(spec, 200)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20, kept
    assert ctx.pn[200].degree == 200


def test_pn_built_in_one_batch_on_first_read(monkeypatch):
    # every P_n is a psi-window of one product over all n, the window einsum below
    calls, einsum = [], np.einsum

    def counting(subscripts, *operands, **kw):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kw)

    monkeypatch.setattr(np, "einsum", counting)
    ctx = build_family(FamilySpec(1, 3, [0.8, -1.3]), 8)
    assert calls.count("iwrab,ira->iwrb") == 0  # building makes no P_n
    first = ctx.pn[5]
    assert calls.count("iwrab,ira->iwrb") == 1
    assert all(p.degree == n and p.size == 3 for n, p in enumerate(ctx.pn)) and ctx.pn[5] is first
    assert calls.count("iwrab,ira->iwrb") == 1


@pytest.mark.parametrize("kind", [1, 2])
def test_no_overflow_up_to_n_max_400(kind):
    # ||P_n||, and with it the psi-coefficients of P_n, leave the double range near n = 340
    spec = FamilySpec(kind, 2, (0.8,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = build_family(spec, 400)
        assert np.all(np.isfinite(ctx.alpha)) and np.all(np.isfinite(ctx.log_norms))
        assert np.isfinite(ctx.phi_tilde[400].coeffs).all()
        assert np.isfinite(ctx.phi_tilde[300].coeffs).all() and np.isfinite(ctx.pn[300].coeffs).all()
        for n in (360, 400):
            with pytest.raises(ValueError, match=rf"kind {kind}, N=2, nu=\(0\.8,\), n={n}: P_n leaves"):
                ctx.pn[n]


def test_log_norms_finite_where_norms_overflow():
    # ||P_n||^2 = n! sqrt(pi) / (2^n c_r^2) leaves the double range near n = 190
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = build_family(FamilySpec(2, 8, [0.8] * 7), 200)
    assert ctx.log_norms.shape == (201, 8)
    assert np.all(np.isfinite(ctx.log_norms))
    big = ctx.log_norms[200] > math.log(np.finfo(float).max)  # rows 0-4 here
    assert big.any()


def test_null_margin_flags_the_barely_determined_rows():
    # second-smallest over largest singular value of each row's degree condition
    near = build_family(FamilySpec(2, 8, [10.0] * 7), 16)  # the last n_max that builds at nu = 10
    assert near.null_margin.shape == (17, 8)
    assert near.null_margin.min() < 1e-12
    safe = build_family(FamilySpec(2, 8, [0.8] * 7), 20)
    assert safe.null_margin.min() > 1e-9
    assert np.all(safe.null_margin <= 1.0)
    assert np.all(build_family(FamilySpec(1, 1, []), 3).null_margin == 1.0)  # one unknown per row


def test_build_family_scalar_reduces_to_hermite():
    # N = 1: P_n must be H_n / 2^n, the monic orthogonal family for e^{-x^2}
    ctx = build_family(FamilySpec(1, 1, []), 6)
    xs = np.linspace(-3.0, 3.0, 13)
    for n in range(7):
        np.testing.assert_allclose(
            ctx.pn[n].poly_at(xs)[:, 0, 0], np.polyval(hermite_phys(n)[::-1], xs) / 2.0 ** n, atol=1e-12
        )


@pytest.mark.parametrize(
    "kind, N, n_max, points",
    [(kind, N, 30, 101) for kind in (1, 2) for N in (1, 2, 5, 8)] + [(1, 2, 200, 700), (2, 5, 60, 2000)],
)
def test_values_at_support_equal_phi_tilde_bit_for_bit(kind, N, n_max, points):
    # one gather of the psi table at plan.support times alpha against one MatrixGaussian call per n; the last two
    # tables are above the 1 MiB cap of `wave_table`, so each of those calls makes its own
    ctx = build_family(FamilySpec(kind, N, np.resize([0.8, -1.3, 0.6, 1.1], N - 1)), n_max)
    x = np.linspace(-12.0, 12.0, points)
    psi = wave_functions(n_max + kind * (N - 1), x)
    assert (points < 700) != (psi.nbytes > TABLE_CACHE_BYTES)
    values = _at_support(ctx, psi.T)  # point, n, r, a
    np.testing.assert_array_equal(values, np.stack([f(x) for f in ctx.phi_tilde], axis=1))
    rows = _at_support(ctx, psi.T, [N - 1, 0])
    np.testing.assert_array_equal(rows, values[:, :, [N - 1, 0]])


@pytest.mark.parametrize("kind", [1, 2])
def test_phi_tilde_is_the_exact_alpha_placement(kind):
    # at nu = 1e-6 the corner alpha[n, 0, N-1] is near nu^4 = 1e-24, below the 1e-14 trim of a validated
    # MatrixGaussian, which read degree n + 2 at kind 1; placed without the trim every Phi-tilde_n keeps degree n + D
    N, D = 5, kind * 4
    ctx = build_family(FamilySpec(kind, N, [1e-6] * (N - 1)), 12)
    rows, cols = np.indices((N, N))
    for n, f in enumerate(ctx.phi_tilde):
        assert f.degree == n + D and f.stride == kind and not f.coeffs.flags.writeable
        assert f.coeffs[f.lo].any() and not f.coeffs[: f.lo].any()  # some alpha underflow to 0 at this nu
        assert np.array_equal(f.coeffs[np.maximum(n + kind * (cols - rows), 0), rows, cols], ctx.alpha[n])
    grids = np.linspace(-12.0, 12.0, 801), np.array([-2.5, -1.0, 0.0, 0.7, 1.9]), np.array([-3.0, -1.5, 0.0, 0.8, 2.2])
    for x in grids:  # the density, oracle and pointwise grids of the benchmark and `check`
        values = _at_support(ctx, wave_functions(ctx.n_max + D, x).T)
        np.testing.assert_array_equal(values, np.stack([f(x) for f in ctx.phi_tilde], axis=1))


def test_kind_2_evaluation_multiplies_only_the_rows_of_its_parity(monkeypatch):
    # m = n + 2(a - r) keeps the parity of n, so a kind 2 Phi-tilde_n reads D + 1 psi rows instead of 2D + 1
    ctx = build_family(FamilySpec(2, 5, [0.8, -0.6, 0.9, 0.7]), 20)
    x = np.linspace(-12.0, 12.0, 801)
    inner, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, **kw: inner.append(a.shape[1]) or matmul(a, b, **kw))
    for n in range(8, 21):
        f = ctx.phi_tilde[n]
        inner.clear()
        values = f(x)
        assert set(inner) == {9}  # D + 1, D = 8
        psi = wave_functions(f.degree, x)[f.lo :]
        full = (psi.T @ f.coeffs[f.lo :].reshape(psi.shape[0], -1)).reshape(values.shape)
        np.testing.assert_array_equal(values, full)


def test_phi_tilde_of_a_replaced_non_finite_alpha_raises():
    ctx = build_family(FamilySpec(1, 3, [0.8, -1.3]), 6)
    alpha = ctx.alpha.copy()
    alpha[4, 1, 2] = np.nan
    broken = dataclasses.replace(ctx, alpha=alpha)
    assert np.isfinite(broken.phi_tilde[3].coeffs).all()
    with pytest.raises(ValueError, match=r"alpha\[4\] leaves the double range"):
        broken.phi_tilde[4]
