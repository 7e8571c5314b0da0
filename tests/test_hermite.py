import math
import sys
import threading
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_reference import hermite_phys, wave_function_decimal, wave_poly
from matschroed import hermite
from matschroed.families import FamilySpec, build_family
from matschroed.hermite import TABLE_CACHE_BYTES, TABLE_CACHE_ENTRIES, gauss_hermite, wave_functions, wave_table


def test_phys_recurrence_pointwise():
    xs = np.linspace(-6, 6, 61)
    for n in range(1, 21):
        Hm = np.polyval(hermite_phys(n - 1)[::-1], xs)
        Hn = np.polyval(hermite_phys(n)[::-1], xs)
        Hp = np.polyval(hermite_phys(n + 1)[::-1], xs)
        np.testing.assert_allclose(Hp, 2 * xs * Hn - 2 * n * Hm, rtol=1e-10, atol=1e-10)


def test_wave_function_values():
    psi = wave_functions(1, np.atleast_1d(0.0))[:, 0]
    assert abs(psi[0] - np.pi ** -0.25) < 1e-15
    assert psi[1] == 0.0


def test_wave_function_normalized():
    rule = gauss_hermite(40)
    # psi_3(x)^2 = (poly e^{-x^2/2})^2: pair with the e^{-x^2} weight
    vals = wave_functions(3, rule.nodes)[3] * np.exp(rule.nodes ** 2 / 2)
    assert abs(np.sum(rule.weights * vals ** 2) - 1.0) < 1e-12


def test_wave_function_large_n_finite():
    assert np.isfinite(wave_functions(200, np.atleast_1d(1.0))[200]).all()


def test_wave_poly_matches_wave_function():
    xs = np.linspace(-5, 5, 11)
    for n in (0, 1, 5, 12):
        c = wave_poly(n)
        np.testing.assert_allclose(
            np.polyval(c[::-1], xs) * np.exp(-xs ** 2 / 2), wave_functions(n, xs)[n], atol=1e-12
        )


def test_wave_derivative_identity():
    # psi_n' = sqrt(n/2) psi_{n-1} - sqrt((n+1)/2) psi_{n+1}, against central differences
    h = 1e-5
    xs = np.linspace(-6, 6, 25)
    for n in range(1, 21):
        fd = (wave_functions(n, xs + h)[n] - wave_functions(n, xs - h)[n]) / (2 * h)
        psi = wave_functions(n + 1, xs)
        ident = np.sqrt(n / 2.0) * psi[n - 1] - np.sqrt((n + 1) / 2.0) * psi[n + 1]
        np.testing.assert_allclose(fd, ident, atol=1e-6)


def test_gauss_hermite_order_1_and_2():
    r1 = gauss_hermite(1)
    np.testing.assert_allclose(r1.nodes, [0.0])
    np.testing.assert_allclose(r1.weights, [np.sqrt(np.pi)])
    r2 = gauss_hermite(2)
    np.testing.assert_allclose(sorted(r2.nodes), [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    np.testing.assert_allclose(r2.weights, [np.sqrt(np.pi) / 2] * 2, atol=1e-14)


def test_gauss_hermite_invariants():
    for m in (1, 5, 17, 30):
        rule = gauss_hermite(m)
        assert abs(np.sum(rule.weights) - np.sqrt(np.pi)) < 1e-12
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-13)


def test_gauss_hermite_moment():
    # int x^10 e^{-x^2} dx = 945 sqrt(pi) / 32
    rule = gauss_hermite(30)
    got = np.sum(rule.weights * rule.nodes ** 10)
    expected = 945 * np.sqrt(np.pi) / 32
    assert abs(got - expected) < 1e-12 * expected


@pytest.mark.parametrize("p", range(0, 19))
def test_gauss_hermite_polynomial_exactness(p):
    rule = gauss_hermite(10)  # exact through degree 19
    got = np.sum(rule.weights * rule.nodes ** p)
    expected = 0.0 if p % 2 else math.gamma((p + 1) / 2.0)
    assert abs(got - expected) < 1e-11 * max(1.0, abs(expected))


def test_gauss_hermite_cached_read_only():
    rule = gauss_hermite(12)
    assert gauss_hermite(12) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


def test_gauss_hermite_outer_weights():
    # the m-point rule is exact through degree 2m - 1, so it must reproduce
    # <psi_j, psi_k> = delta_jk for all j, k < m; the high-index pairs live on
    # the small outer weights, which lose relative accuracy when taken from
    # the squared eigenvector components (error 1.9e-6 at m = 40)
    m = 40
    rule = gauss_hermite(m)
    t = rule.nodes
    polys = wave_functions(m - 1, t) * np.exp(t ** 2 / 2)
    gram = (polys * rule.weights) @ polys.T
    assert np.max(np.abs(gram - np.eye(m))) < 1e-12


def test_scalar_matrix_elements():
    # (x)_{nm} and (x^2)_{nm} for wave functions, via quadrature
    rule = gauss_hermite(40)
    t, w = rule.nodes, rule.weights
    psis = wave_functions(12, t) * np.exp(t ** 2 / 2)
    for n in range(11):
        for m in range(11):
            x1 = np.sum(w * t * psis[n] * psis[m])
            expected1 = 0.0
            if m == n - 1:
                expected1 = np.sqrt(n / 2.0)
            elif m == n + 1:
                expected1 = np.sqrt((n + 1) / 2.0)
            assert abs(x1 - expected1) < 1e-10
            x2 = np.sum(w * t ** 2 * psis[n] * psis[m])
            expected2 = 0.0
            if m == n - 2:
                expected2 = 0.5 * np.sqrt(n * (n - 1))
            elif m == n:
                expected2 = n + 0.5
            elif m == n + 2:
                expected2 = 0.5 * np.sqrt((n + 1) * (n + 2))
            assert abs(x2 - expected2) < 1e-10


def test_input_validation():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        wave_functions(-2, np.atleast_1d(0.0))


@pytest.mark.parametrize("envelope", [True, False])
def test_wave_table_reuse_is_bit_identical(envelope):
    x, y = np.linspace(-9, 9, 301), np.linspace(-4, 5, 77)
    built = wave_table(12, x, envelope)
    assert np.array_equal(built, wave_functions(12, x, envelope))
    hit = wave_table(7, x, envelope)  # a row slice of the kept table
    assert np.shares_memory(hit, built)
    assert np.array_equal(hit, wave_functions(7, x, envelope))
    higher = wave_table(30, x, envelope)  # a higher degree: a new table, which replaces the first one on x
    assert np.array_equal(higher, wave_functions(30, x, envelope))
    assert np.array_equal(wave_table(30, y, envelope), wave_functions(30, y, envelope))
    assert np.array_equal(wave_table(5, x, envelope), wave_functions(5, x, envelope))
    # the other flag on the same points is another table
    assert np.array_equal(wave_table(5, x, not envelope), wave_functions(5, x, not envelope))
    # a higher degree than a kept table of one row
    wave_table(0, y, envelope)
    assert np.array_equal(wave_table(3, y, envelope), wave_functions(3, y, envelope))


@pytest.mark.parametrize("x", [1e200, -1e200, 1e300, -1e300, np.finfo(float).max, -np.finfo(float).max])
def test_wave_functions_read_0_at_huge_points_without_warning(x):
    # e^{-x^2/2} underflows to 0 from |x| = 38.6 on, and with it every psi_m; x x must not overflow on the way
    points = np.array([0.5, x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = wave_functions(40, points)
        values = build_family(FamilySpec(1, 3, [0.8, -1.3]), 5).phi_tilde[3](points)
    assert np.all(table[:, 1] == 0.0) and np.array_equal(table[:, :1], wave_functions(40, points[:1]))
    assert np.all(values[1] == 0.0) and np.all(np.isfinite(values))


@pytest.mark.parametrize("m", [700, 745, 800, 1000, 1500])
def test_wave_functions_match_a_decimal_reference_past_the_underflow(m):
    # e^{-x^2/2} is subnormal from |x| = 37.6 and 0 from 38.6, while psi_m has mass out to sqrt(2m+1): 38.7 at m = 745
    top = math.sqrt(2 * m + 1) + 5.0
    x = np.concatenate([np.linspace(-top, top, 41), [37.0, 37.5, 38.0, 38.7, 39.0, 40.0]])
    values = wave_functions(m, x)[m]
    np.testing.assert_allclose(values, wave_function_decimal(m, x), rtol=0, atol=1e-13)
    assert np.all(values[np.abs(x) > 38.6] != 0.0)  # a row that read 0 there


@pytest.mark.parametrize("top", [600, 1000, 2000])
def test_trapezoid_norms_stay_1_at_every_degree(top):
    # step 0.01 resolves psi_m^2 up to m = 2000 (frequency 2 sqrt(2m+1) < pi / 0.01); read in chunks of points
    x = np.arange(-7000, 7001) * 0.01
    norms = sum((wave_functions(top, x[s : s + 1000]) ** 2).sum(axis=1) for s in range(0, x.size, 1000)) * 0.01
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_scaled_points_leave_the_others_bit_identical():
    # the scaled recurrence runs on the points past |x| = 37 only; in one call with them the others read as alone
    near, far = np.linspace(-36.9, 36.9, 35), np.array([-60.0, -38.0, 37.1, 45.0])
    both = wave_functions(300, np.concatenate([near, far]))
    assert both[:, : near.size].tobytes() == wave_functions(300, near).tobytes()
    assert np.array_equal(both[:, near.size :], wave_functions(300, far))


def test_wave_table_follows_points_changed_in_place():
    x = np.linspace(-3, 3, 41)
    wave_table(6, x)
    x *= 2.0
    assert np.array_equal(wave_table(6, x), wave_functions(6, x))
    x[5] = 0.25
    assert np.array_equal(wave_table(4, x), wave_functions(4, x))


def test_wave_table_is_read_only():
    x = np.linspace(-2, 2, 9)
    for n in (4, 2, 8):  # built, hit, built again at a higher degree
        table = wave_table(n, x)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_wave_table_keeps_no_table_above_the_cap():
    n = 9
    points = TABLE_CACHE_BYTES // (8 * (n + 2)) + 1  # one point over the cap, which counts the table and its points
    x = np.linspace(-5, 5, points)
    first, second = wave_table(n, x), wave_table(n, x)
    assert first.nbytes + x.nbytes > TABLE_CACHE_BYTES
    assert not np.shares_memory(first, second)
    assert np.array_equal(second, wave_functions(n, x))
    x = np.linspace(-5, 5, points - 1)  # at the cap: kept
    assert np.shares_memory(wave_table(n, x), wave_table(n, x))


def test_wave_table_is_consistent_across_threads():
    # more threads than cores, each switching the one kept entry between its own grid, flag and degrees
    grids = [np.linspace(-6, 6, 97 + t) for t in range(6)]
    wrong, done = [], []

    def work(t):
        x, envelope = grids[t], bool(t % 2)
        refs = {n: wave_functions(n, x, envelope) for n in (3, 17, 40)}
        for i in range(2000):
            n = (3, 17, 40)[(i + t) % 3]
            if not np.array_equal(wave_table(n, x, envelope), refs[n]):
                wrong.append((t, i, n))
        done.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(len(grids))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(done) == list(range(len(grids)))
    assert not wrong


def forget_tables(monkeypatch):
    """An empty psi-table cache for the rest of the test; monkeypatch puts the process-wide one back after it."""
    monkeypatch.setattr(hermite, "_tables", OrderedDict())
    monkeypatch.setattr(hermite, "_table_bytes", 0)


def test_wave_table_builds_few_tables_for_rising_degrees(monkeypatch):
    # a family read n by n on one grid asks for degrees D, D+1, ...: each table past the kept degree has its rows
    # rounded up to a power of two while it stays under the cap, so 41 rising degrees take 7 tables here
    x = np.linspace(-7, 7, 64)
    calls = []

    def counted(n, x, envelope):
        calls.append(n)
        return wave_functions(n, x, envelope)

    monkeypatch.setattr(hermite, "wave_functions", counted)
    forget_tables(monkeypatch)
    for n in range(41):
        assert np.array_equal(wave_table(n, x), wave_functions(n, x))
    assert calls == [0, 1, 3, 7, 15, 31, 63]
    # the table depends on the degree alone, not on the order of the reads: 28 after 24 is a slice, as 24 after 28
    for first, second in ((24, 28), (28, 24)):
        forget_tables(monkeypatch)
        calls.clear()
        assert np.shares_memory(wave_table(first, x), wave_table(second, x)) and calls == [31]
    # near the cap a higher degree takes just that degree, as the rounded-up table would not be kept
    y = np.linspace(-7, 7, TABLE_CACHE_BYTES // (8 * 100))
    wave_table(60, y)
    calls.clear()
    assert wave_table(70, y).shape == (71, y.size) and calls == [70]


def test_wave_table_keeps_the_density_grid_between_reads_on_other_points(monkeypatch):
    # the benchmark's apply loop: a density request reads degree 28 on 801 points, and the checks between two
    # requests evaluate at 5 points and on 64-point chunks; the 801-point recurrence runs once, not once a request
    grid, few, wide = np.linspace(-12, 12, 801), np.linspace(-2, 2, 5), np.linspace(-20, 20, 640)
    sizes = []

    def counted(n, x, envelope):
        sizes.append(x.size)
        return wave_functions(n, x, envelope)

    forget_tables(monkeypatch)
    monkeypatch.setattr(hermite, "wave_functions", counted)
    for _ in range(5):
        assert np.array_equal(wave_table(28, grid), wave_functions(28, grid))
        assert np.array_equal(wave_table(9, few), wave_functions(9, few))
        for s in range(0, wide.size, 64):
            assert np.array_equal(wave_table(28, wide[s : s + 64]), wave_functions(28, wide[s : s + 64]))
    assert sizes.count(801) == 1 and sizes.count(5) == 1 and sizes.count(64) == 10


def test_wave_table_holds_about_what_it_counts_for_one_point_reads(monkeypatch):
    # phi_tilde[10] of a kind 1, N=5 family read at 20000 single points asks for degree 14 at each: a table of 16
    # rows is 128 bytes, and its entry costs ~570 more, so by bytes alone 8192 would be kept and 5.5 MB held.  The
    # entry count keeps what is held near what is counted.  Only memory is measured, so the recurrence is stubbed.
    monkeypatch.setattr(hermite, "wave_functions", lambda n, x, envelope: np.zeros((n + 1, x.size)))
    xs = np.random.default_rng(0).uniform(-5, 5, 20000)
    wave_table(14, xs[:1])
    forget_tables(monkeypatch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in xs:
            wave_table(14, np.array([x]))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(hermite._tables) == TABLE_CACHE_ENTRIES and hermite._table_bytes == TABLE_CACHE_ENTRIES * (16 + 1) * 8
    assert held <= 1.5 * 2**20, held


def test_wave_table_counts_the_points_it_keeps(monkeypatch):
    # degree 0 on 100 distinct 1300-point grids: a table and the copy of its points are 10.4 kB each, so counting
    # both keeps 50 of them, and what is held stays near the 1 MiB cap (counting the tables alone held 2.13 MB)
    monkeypatch.setattr(hermite, "wave_functions", lambda n, x, envelope: np.zeros((n + 1, x.size)))
    grids = [np.linspace(-6, 6 + g, 1300) for g in range(100)]
    wave_table(0, grids[0])
    forget_tables(monkeypatch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in grids:
            wave_table(0, x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(hermite._tables) == 50 and hermite._table_bytes == 50 * 2 * 1300 * 8
    assert held <= 1.1 * 2**20, held


# point sets whose tables of degree 0..40 fill the cap in a few reads: 32 rows on 2000 points are 512 kB, 64 rows
# on 3000 points are over the cap (so degree 40 there is a table of 41 rows), and 8 rows on 20000 points are too
LRU_GRIDS = [np.linspace(-12, 12, 801), np.linspace(-2, 2, 5), np.linspace(-3, 4, 64), np.linspace(-6, 6, 2000),
             np.linspace(-8, 8, 3000), np.linspace(-2, 2, 20000)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, len(LRU_GRIDS) - 1), st.integers(0, 40), st.booleans()), max_size=30))
def test_wave_table_keeps_at_most_the_cap_dropping_the_least_recently_used(reads):
    # the policy as a model: (grid, envelope) -> rows, most recently used last, next to the kept tables
    model, grid_of = OrderedDict(), {x.tobytes(): i for i, x in enumerate(LRU_GRIDS)}
    with pytest.MonkeyPatch.context() as mp:
        forget_tables(mp)
        for g, n, envelope in reads:
            x = LRU_GRIDS[g]
            assert wave_table(n, x, envelope).tobytes() == wave_functions(n, x, envelope).tobytes()
            if model.get((g, envelope), 0) > n:
                model.move_to_end((g, envelope))
            else:
                rows = 1 << n.bit_length()  # an entry counts its rows and its points
                rows = rows if (rows + 1) * x.nbytes <= TABLE_CACHE_BYTES else n + 1
                if (rows + 1) * x.nbytes <= TABLE_CACHE_BYTES:
                    model.pop((g, envelope), None)
                    model[g, envelope] = rows
                while sum((r + 1) * LRU_GRIDS[k[0]].nbytes for k, r in model.items()) > TABLE_CACHE_BYTES:
                    model.popitem(last=False)
            kept = [(grid_of[data], key[0], table.shape[0]) for key, (data, table) in hermite._tables.items()]
            assert kept == [(g, envelope, rows) for (g, envelope), rows in model.items()]
            kept_bytes = sum(len(data) + t.nbytes for data, t in hermite._tables.values())
            assert hermite._table_bytes == kept_bytes <= TABLE_CACHE_BYTES
