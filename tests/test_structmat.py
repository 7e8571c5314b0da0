import numpy as np
import pytest

from matschroed.structmat import (
    build_structured,
    nilpotent_series,
    phase_diag,
    trig_diag,
)


def test_scalar_degenerate_case():
    sp = build_structured(1, [])
    assert sp.A.shape == (1, 1)
    assert sp.A[0, 0] == 0.0
    assert sp.J[0, 0] == 0.0


def test_n2_explicit():
    sp = build_structured(2, [0.7])
    np.testing.assert_array_equal(sp.A, [[0.0, 0.7], [0.0, 0.0]])
    np.testing.assert_array_equal(sp.J, [[1.0, 0.0], [0.0, 0.0]])


def test_nilpotency_and_commutator_n3():
    sp = build_structured(3, [1.0, 1.0])
    assert np.max(np.abs(np.linalg.matrix_power(sp.A, 3))) == 0.0
    np.testing.assert_allclose(sp.A @ sp.J - sp.J @ sp.A, -sp.A, atol=1e-15)


def test_nu_length_mismatch():
    with pytest.raises(ValueError):
        build_structured(3, [1.0])


@pytest.mark.parametrize("N", range(1, 7))
def test_ad_relation_all_powers(N):
    rng = np.random.default_rng(7 + N)
    sp = build_structured(N, rng.uniform(-2, 2, N - 1))
    for k in range(1, N):
        Ak = np.linalg.matrix_power(sp.A, k)
        np.testing.assert_allclose(Ak @ sp.J - sp.J @ Ak, -k * Ak, atol=1e-13)


def test_phase_diag_examples():
    np.testing.assert_array_equal(np.diag(phase_diag(2, 1)), [1j, 1.0])
    np.testing.assert_array_equal(np.diag(phase_diag(3, 2)), [1.0, -1.0, 1.0])
    for N in (1, 2, 5):
        np.testing.assert_array_equal(phase_diag(N, 0), np.eye(N))


@pytest.mark.parametrize("N", range(1, 7))
@pytest.mark.parametrize("k", range(4))
def test_phase_commutation_lemma(N, k):
    # i^{kJ} A^m = i^{km} A^m i^{kJ}
    rng = np.random.default_rng(100 + 4 * N + k)
    sp = build_structured(N, rng.uniform(-2, 2, N - 1))
    D = phase_diag(N, k)
    for m in range(1, N):
        Am = np.linalg.matrix_power(sp.A, m)
        np.testing.assert_allclose(D @ Am, (1j) ** (k * m) * Am @ D, atol=1e-13)


@pytest.mark.parametrize("N", range(1, 7))
@pytest.mark.parametrize("k", range(4))
def test_phase_unitary_mod4(N, k):
    np.testing.assert_allclose(phase_diag(N, k) @ phase_diag(N, 4 - k), np.eye(N), atol=0)


def test_trig_diag_patterns():
    np.testing.assert_array_equal(np.diag(trig_diag(3, "sin")), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(np.diag(trig_diag(3, "cos")), [-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(np.diag(trig_diag(2, "sin")), [1.0, 0.0])
    np.testing.assert_array_equal(np.diag(trig_diag(2, "cos")), [0.0, 1.0])


@pytest.mark.parametrize("N", range(1, 7))
def test_trig_identity_and_relations(N):
    S = trig_diag(N, "sin")
    C = trig_diag(N, "cos")
    I = np.eye(N)
    np.testing.assert_allclose(S @ S + C @ C, I, atol=1e-15)
    F = phase_diag(N, 1)
    E = phase_diag(N, 2)
    F3 = phase_diag(N, 3)
    np.testing.assert_allclose(F @ C, (I + E) / 2.0, atol=1e-15)
    np.testing.assert_allclose(F @ S, (E - I) / 2.0j, atol=1e-15)
    np.testing.assert_allclose(E @ C, C, atol=1e-15)
    np.testing.assert_allclose(E @ S, -S, atol=1e-15)
    np.testing.assert_allclose(F3 @ C, (I + E) / 2.0, atol=1e-15)
    np.testing.assert_allclose(F3 @ S, -(E - I) / 2.0j, atol=1e-15)


def test_nilpotent_series_exp_of_zero():
    np.testing.assert_array_equal(nilpotent_series([1.0, 1.0, 1.0], np.zeros((3, 3))), np.eye(3))


def test_nilpotent_series_geometric():
    # (I + A)^{-1} = I - A for a 2x2 nilpotent A
    A = np.array([[0.0, 1.3], [0.0, 0.0]])
    taylor = [1.0, -1.0]  # derivatives of (1+x)^{-1} at 0
    np.testing.assert_allclose(nilpotent_series(taylor, A), np.eye(2) - A, atol=1e-15)


def test_nilpotent_series_exp_truncation():
    sp = build_structured(3, [0.5, 2.0])
    x = 0.9
    got = nilpotent_series([x ** j for j in range(3)], sp.A)
    A2 = sp.A @ sp.A
    expected = np.eye(3) + sp.A * x + A2 * x * x / 2.0
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_nilpotent_series_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        nilpotent_series([1.0, 1.0], np.eye(2))
