"""matrix_core contracts: norms, decompositions, conventions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import andovar.matrix_core as mc
from andovar.errors import InputError


def _random_matrix(n, seed, hermitian=False, unitary=False):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if hermitian:
        return 0.5 * (A + A.conj().T)
    if unitary:
        return np.linalg.qr(A)[0]
    return A


class TestOperatorNorm:
    def test_zero_matrix(self):
        assert mc.operator_norm(np.zeros((2, 2))) == 0.0

    def test_identity(self):
        assert mc.operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_jordan_cell(self):
        # oracle: sqrt of the largest eigenvalue of M M*
        M = np.array([[0, 1], [0, 0]], complex)
        oracle = np.sqrt(np.max(np.linalg.eigvalsh(M @ M.conj().T)))
        assert oracle == pytest.approx(1.0, abs=1e-15)
        assert mc.operator_norm(M) == pytest.approx(oracle, abs=1e-14)

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            mc.operator_norm(np.array([[np.nan, 0], [0, 1]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_unitary_invariance(self, n, seed):
        M = _random_matrix(n, seed)
        U = _random_matrix(n, seed + 1, unitary=True)
        assert mc.operator_norm(U @ M) == pytest.approx(
            mc.operator_norm(M), abs=1e-10)


class TestHermEig:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 10**6))
    def test_reconstruction_and_orthonormality(self, n, seed):
        H = _random_matrix(n, seed, hermitian=True)
        w, V = mc.herm_eig(H)
        scale = max(1.0, mc.operator_norm(H))
        assert mc.operator_norm((V * w) @ V.conj().T - H) <= 1e-10 * scale
        assert mc.operator_norm(V.conj().T @ V - np.eye(n)) <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            mc.herm_eig(np.array([[0, 1], [0, 0]], complex))

    def test_phase_convention(self):
        w, V = mc.herm_eig(_random_matrix(5, 3, hermitian=True))
        for j in range(5):
            i = np.argmax(np.abs(V[:, j]))
            assert V[i, j].imag == pytest.approx(0.0, abs=1e-14)
            assert V[i, j].real > 0


class TestEig:
    def test_diagonal(self):
        w, _ = mc.eig(np.diag([0.5, 0.3]))
        np.testing.assert_allclose(w, [0.3, 0.5], atol=1e-14)

    def test_nilpotent(self):
        w, _ = mc.eig(np.array([[0, 1], [0, 0]], complex))
        np.testing.assert_allclose(w, [0, 0], atol=1e-14)

    def test_deterministic_order(self):
        A = _random_matrix(6, 11)
        w1, V1 = mc.eig(A)
        w2, V2 = mc.eig(A.copy())
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(V1, V2)


class TestSvd:
    def test_zero(self):
        _, s, _ = mc.svd(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0.0)

    def test_descending_and_reconstruction(self):
        A = _random_matrix(6, 5)
        U, s, Vh = mc.svd(A)
        assert np.all(np.diff(s) <= 1e-12)
        np.testing.assert_allclose((U * s) @ Vh, A, atol=1e-12)


class TestHelpers:
    def test_spectral_radius(self):
        assert mc.spectral_radius(np.diag([0.2, -0.7])) == pytest.approx(0.7)

    def test_matrix_power_norm(self):
        assert mc.matrix_power_norm(np.diag([0.5, 0.25]), 3) == pytest.approx(0.125)

    def test_polar_unitary(self):
        X = _random_matrix(5, 13)
        Q = mc.polar_unitary(X)
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(5), atol=1e-12)
