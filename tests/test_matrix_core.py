"""matrix_core contracts: norms, decompositions, conventions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import andovar as av
import andovar.matrix_core as mc
from andovar.errors import InputError, NumericError
from andovar.pair_analysis import GENERATOR_KINDS


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

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty(self, shape):
        norm = mc.operator_norm(np.zeros(shape))
        assert type(norm) is float and norm == 0.0

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

    def test_empty(self):
        w, V = mc.herm_eig(np.zeros((0, 0)))
        assert (w.shape, w.dtype) == ((0,), np.float64)
        assert (V.shape, V.dtype) == ((0, 0), np.complex128)

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

    def test_empty(self):
        w, V = mc.eig(np.zeros((0, 0)))
        assert (w.shape, w.dtype) == ((0,), np.complex128)
        assert (V.shape, V.dtype) == ((0, 0), np.complex128)


class TestSvd:
    def test_zero(self):
        _, s, _ = mc.svd(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0.0)

    def test_descending_and_reconstruction(self):
        A = _random_matrix(6, 5)
        U, s, Vh = mc.svd(A)
        assert np.all(np.diff(s) <= 1e-12)
        np.testing.assert_allclose((U * s) @ Vh, A, atol=1e-12)


class TestAsMatrix:
    @pytest.mark.parametrize("M, shape", [([1, 2], (1, 2)), ([], (0, 0))])
    def test_vector_is_one_row(self, M, shape):
        A = mc.as_matrix(M)
        assert (A.shape, A.dtype) == (shape, np.complex128)

    def test_rejects_three_dimensions(self):
        with pytest.raises(InputError, match="must be 2-dimensional, got ndim=3"):
            mc.as_matrix(np.zeros((2, 2, 2)))


class TestHelpers:
    def test_spectral_radius(self):
        assert mc.spectral_radius(np.diag([0.2, -0.7])) == pytest.approx(0.7)

    def test_polar_unitary(self):
        X = _random_matrix(5, 13)
        Q = mc.polar_unitary(X)
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(5), atol=1e-12)

    def test_empty(self):
        rho = mc.spectral_radius(np.zeros((0, 0)))
        assert type(rho) is float and rho == 0.0
        Q = mc.polar_unitary(np.zeros((0, 0)))
        assert (Q.shape, Q.dtype) == ((0, 0), np.complex128)

    def test_phase_fix_leaves_zero_and_empty_columns(self):
        U = np.array([[0, 1j], [0, 0]], complex)
        np.testing.assert_array_equal(mc.phase_fix_columns(U), [[0, 1], [0, 0]])
        out = mc.phase_fix_columns(np.zeros((0, 2), complex))
        assert (out.shape, out.dtype) == ((0, 2), np.complex128)


@pytest.mark.parametrize("fn, shape", [
    (mc.spectral_radius, (2, 3)),
    (mc.herm_eig, (2, 3)),
    (mc.eig, (2, 3)),
    (av.defect, (2, 3)),
    (av.canonical_split, (2, 3)),
    (mc.eigvals, (2, 3)),
    (mc.eigvals, (5, 4, 6)),
    (mc.unitary_eigvals, (5, 4, 6)),
    (mc.unitary_eigvals, (5, 6, 4)),
], ids=["spectral_radius", "herm_eig", "eig", "defect",
        "canonical_split", "eigvals", "eigvals-stack", "unitary_eigvals-wide",
        "unitary_eigvals-tall"])
def test_non_square_input_is_an_input_error(fn, shape):
    with pytest.raises(InputError, match="square"):
        fn(np.zeros(shape))


def _reject_every_row(U, omega):
    return np.zeros(U.shape[:-1], complex), np.zeros(len(U), bool)


@pytest.mark.parametrize("fn, routine, message", [
    (mc.operator_norm, "svd", "SVD failed while computing operator norm"),
    (mc.spectral_radius, "eigvals", "eigenvalue solve failed"),
    (mc.herm_eig, "eigh", "Hermitian eigensolver failed"),
    (mc.eig, "eig", "eigensolver failed to converge"),
    (mc.eigvals, "eigvals", "eigensolver failed to converge"),
    (lambda M: mc.unitary_eigvals(np.stack([M, M])), "eigvals",
     "eigensolver failed to converge"),
    (mc.svd, "svd", "SVD failed to converge"),
    (mc.polar_unitary, "svd", "polar factorization failed"),
], ids=["operator_norm", "spectral_radius", "herm_eig", "eig", "eigvals",
        "unitary_eigvals", "svd", "polar_unitary"])
def test_lapack_failure_is_a_numeric_error(monkeypatch, fn, routine, message):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("boom")

    monkeypatch.setattr(np.linalg, routine, fail)
    # unitary_eigvals reaches its per-row eigvals only for rows the Cayley
    # solve rejects
    monkeypatch.setattr(mc, "_cayley_eigvals", _reject_every_row)
    with pytest.raises(NumericError) as exc_info:
        fn(np.eye(4, dtype=complex))
    assert str(exc_info.value) == f"{message}: boom"
    assert isinstance(exc_info.value.__cause__, np.linalg.LinAlgError)


def _power_stack_loop(X0, T, count):
    """The term-by-term recurrence that ``power_stack`` replaced."""
    out = np.empty((count,) + X0.shape, complex)
    term = X0
    for k in range(count):
        out[k] = term
        term = term @ T
    return out


class _CountingProducts(np.ndarray):
    """A matrix that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingProducts.products += 1
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        return out.view(_CountingProducts) if isinstance(out, np.ndarray) else out


class TestPowerStack:
    @settings(max_examples=80, deadline=None)
    @given(r=st.integers(0, 4), c=st.integers(0, 6), count=st.integers(0, 130),
           seed=st.integers(0, 10_000), scale=st.floats(0.0, 1.0))
    def test_matches_the_recurrence(self, r, c, count, seed, scale):
        rng = np.random.default_rng(seed)
        X0 = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
        X0 /= max(1.0, mc.operator_norm(X0))
        T = _contraction("dense", c, seed, scale) if c else np.zeros((0, 0))
        got = mc.power_stack(X0, T, count)
        assert got.shape == (count, r, c) and got.dtype == complex
        np.testing.assert_allclose(got, _power_stack_loop(X0, T, count), rtol=0, atol=1e-14)
        if count:
            assert np.array_equal(got[0], X0)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 94, 372, 2001])
    def test_doubling_product_count(self, count):
        """One stacked product and one squaring per doubling step."""
        _CountingProducts.products = 0
        T = np.diag([1.0, 1j]).view(_CountingProducts)
        got = mc.power_stack(np.ones((3, 2)), T, count)
        assert _CountingProducts.products == 2 * int(np.ceil(np.log2(count)))
        # the powers of diag(1, i) are exact: row 0 of term k is [1, i^k]
        i_k = np.array([1, 1j, -1, -1j])[np.arange(count) % 4]
        assert np.array_equal(got[:, 0], np.stack([np.ones(count), i_k], axis=1))


def _first_power_below_scan(norms, tol):
    """Linear-scan oracle: first k (from 1) with norms[k-1] < tol, else
    len(norms) + 1."""
    return next((k for k, v in enumerate(norms, start=1) if v < tol), len(norms) + 1)


def _contraction(kind, r, seed, scale):
    """A diagonal, Jordan-block or dense random matrix of norm ``scale``."""
    rng = np.random.default_rng(seed)
    if kind == "diag":
        M = np.diag(rng.uniform(size=r) * np.exp(2j * np.pi * rng.uniform(size=r)))
    elif kind == "jordan":
        M = rng.uniform() * np.exp(2j * np.pi * rng.uniform()) * np.eye(r) + np.eye(r, k=1)
    else:
        M = _random_matrix(r, seed)
    norm = mc.operator_norm(M)
    return scale * M / norm if norm else M


class TestFirstPowerBelow:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["diag", "jordan", "dense"]), r=st.integers(1, 6),
           seed=st.integers(0, 10_000), scale=st.floats(0.0, 1.0),
           log_tol=st.floats(-12.0, float(np.log10(0.99))), cap=st.integers(0, 300))
    def test_matches_linear_scan(self, kind, r, seed, scale, log_tol, cap):
        T = _contraction(kind, r, seed, scale)
        tol = 10.0 ** log_tol
        norms = [np.linalg.norm(np.linalg.matrix_power(T, k), 2) for k in range(1, cap + 1)]
        # the search is exact up to rounding: keep tol off every computed norm
        assume(all(abs(v - tol) > 1e-9 * tol for v in norms))
        assert mc.first_power_below(T, tol, cap) == _first_power_below_scan(norms, tol)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 5, 64, 93, 300, 2000])
    @pytest.mark.parametrize("tol", [1e-12, 1e-5, 0.5, 0.99])
    @pytest.mark.parametrize("T", [np.eye(3), np.zeros((3, 3)), np.diag([0.999, 0.5j]),
                                   _contraction("jordan", 4, 7, 1.0)],
                             ids=["identity", "zero", "diag", "jordan"])
    def test_norm_count_and_no_fresh_powers(self, monkeypatch, T, tol, cap):
        """At most 2 ceil(log2(cap+1)) + 1 norms, and every probe is built
        from the kept squares: a fresh matrix power per probe fails here."""
        norms = []
        norm = mc.operator_norm

        def counting_norm(M):
            norms.append(1)
            return norm(M)

        def no_matrix_power(M, k):
            raise AssertionError("first_power_below took a fresh matrix power")

        monkeypatch.setattr(mc, "operator_norm", counting_norm)
        monkeypatch.setattr(np.linalg, "matrix_power", no_matrix_power)
        got = mc.first_power_below(T, tol, cap)
        monkeypatch.undo()
        assert len(norms) <= 2 * int(np.ceil(np.log2(cap + 1))) + 1
        powers = [np.eye(len(T))]
        for _ in range(cap):
            powers.append(powers[-1] @ T)
        assert got == _first_power_below_scan([mc.operator_norm(P) for P in powers[1:]], tol)

    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 100, 300])
    def test_zero_matrix_is_one(self, cap):
        assert mc.first_power_below(np.zeros((3, 3)), 1e-9, cap) == 1

    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 100, 300])
    def test_identity_is_cap_plus_one(self, cap):
        assert mc.first_power_below(np.eye(3), 1e-9, cap) == cap + 1

    def test_cap_one(self):
        T = np.diag([0.5, 0.25])
        assert mc.first_power_below(T, 0.6, 1) == 1
        assert mc.first_power_below(T, 0.4, 1) == 2

    def test_non_power_of_two_cap(self):
        # 0.5^k < 1e-3 first at k = 10, which the doubling overshoots to 16
        T = np.array([[0.5]], complex)
        for cap in (10, 11, 13):
            assert mc.first_power_below(T, 1e-3, cap) == 10
        assert mc.first_power_below(T, 1e-3, 9) == 10


def _matched_distance(a, b):
    """Largest |a_i - b_j| over a greedy nearest pairing of two spectra."""
    rest, worst = list(b), 0.0
    for x in a:
        j = int(np.argmin(np.abs(np.asarray(rest) - x)))
        worst = max(worst, abs(rest.pop(j) - x))
    return worst


def _assert_matches_eigvals(U, tol=1e-13):
    got = mc.unitary_eigvals(U)
    for row, u in zip(got, U):
        assert _matched_distance(row, np.linalg.eigvals(u)) <= tol


def _pole_preimage(w):
    """A double u with POLE * u == w exactly, as the solver forms omega * U."""
    pole = np.full(1, mc._CAYLEY_POLE)
    base = np.conj(mc._CAYLEY_POLE) * w
    for i in range(-8, 9):
        for j in range(-8, 9):
            u = complex(base.real + i * np.spacing(base.real),
                        base.imag + j * np.spacing(base.imag))
            if (pole * np.full(1, u))[0] == w:
                return u
    raise AssertionError(f"no exact preimage of {w} near {base}")


class TestUnitaryEigvals:
    @pytest.mark.parametrize("r", [4, 5, 8, 13, 24, 40])
    def test_random_unitaries_match_eigvals(self, r):
        U = np.stack([_random_matrix(r, 1000 * r + s, unitary=True) for s in range(40)])
        _assert_matches_eigvals(U)

    def test_psi_values_of_generated_pairs_match_eigvals(self):
        for kind in GENERATOR_KINDS:
            for dim in (4, 8, 16):
                a = av.analyze(av.ContractionPair.create(*av.generate_pair(kind, dim, dim)))
                psi_cnu = av.cnu_part(a.psi, a.split)
                assert psi_cnu.dim >= 4  # past the eigvals cutoff
                values = av.eval_tau_many(psi_cnu, 97, lambda v: v)
                _assert_matches_eigvals(values)

    def test_eigenvalue_at_the_first_pole(self, monkeypatch):
        # one eigenvalue of U at -1/omega: I + omega U is singular to rounding
        Q = _random_matrix(6, 7, unitary=True)
        lam = np.exp(1j * np.array([np.pi - 1.0, 0.2, 1.1, 2.0, -2.5, -0.7]))
        U = (Q * lam) @ Q.conj().T
        poles = []
        cayley = mc._cayley_eigvals
        monkeypatch.setattr(mc, "_cayley_eigvals",
                            lambda U, omega: poles.append(omega) or cayley(U, omega))
        _assert_matches_eigvals(U[None])
        assert len(poles) == 2 and poles[1][0] != mc._CAYLEY_POLE  # re-solved once

    def test_single_matrix_is_solved_by_eigvals(self):
        U = _random_matrix(6, 21, unitary=True)
        np.testing.assert_array_equal(mc.unitary_eigvals(U), mc.eigvals(U))

    @pytest.mark.parametrize("z", [np.exp(0.3j), -np.conj(mc._CAYLEY_POLE), -1.0, 1.0])
    def test_repeated_eigenvalue(self, z):
        _assert_matches_eigvals((z * np.eye(8))[None])

    def test_exactly_singular_cayley_denominator(self):
        # omega U = [[(-1+i)/2, (1+i)/2], [(1+i)/2, (-1+i)/2]] in floating point,
        # a unitary whose I + omega U has two equal rows
        w_diag, w_off = (-1 + 1j) / 2, (1 + 1j) / 2
        U = np.diag([0, 0, np.exp(0.5j), np.exp(2j)]).astype(complex)
        U[0, 0] = U[1, 1] = _pole_preimage(w_diag)
        U[0, 1] = U[1, 0] = _pole_preimage(w_off)
        W = np.full(1, mc._CAYLEY_POLE)[:, None, None] * U[None]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.eye(4) + W)
        _assert_matches_eigvals(U[None])
        stack = np.stack([_random_matrix(4, s, unitary=True) for s in range(5)] + [U])
        got = mc.unitary_eigvals(stack)
        for row, u in zip(got, stack):
            np.testing.assert_array_equal(row, mc.unitary_eigvals(u[None])[0])

    def test_rows_of_a_stack_equal_single_calls(self):
        Q = _random_matrix(12, 3, unitary=True)
        pole = (Q * np.exp(1j * np.linspace(np.pi - 1.0, 5.0, 12))) @ Q.conj().T
        stack = np.stack([_random_matrix(12, 500 + s, unitary=True) for s in range(63)] + [pole])
        got = mc.unitary_eigvals(stack)
        for row, u in zip(got, stack):
            np.testing.assert_array_equal(row, mc.unitary_eigvals(u[None])[0])

    def test_rows_are_ordered_by_real_then_imag(self):
        got = mc.unitary_eigvals(np.stack([_random_matrix(9, s, unitary=True) for s in range(8)]))
        for row in got:
            assert list(row) == sorted(row, key=lambda x: (x.real, x.imag))

    def test_below_four_is_eigvals(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        for r in (1, 2, 3):
            U = np.stack([_random_matrix(r, s, unitary=True) for s in range(6)])
            np.testing.assert_array_equal(mc.unitary_eigvals(U), mc.eigvals(U))
        assert not calls
        mc.unitary_eigvals(_random_matrix(4, 0, unitary=True)[None])
        assert calls

    def test_empty_stack(self):
        assert mc.unitary_eigvals(np.zeros((0, 6, 6), complex)).shape == (0, 6)

    @pytest.mark.parametrize("shape", [(5, 0, 0), (0, 6, 6)])
    @pytest.mark.parametrize("solver", [mc.eigvals, mc.unitary_eigvals])
    def test_empty_rows(self, solver, shape):
        w = solver(np.zeros(shape, complex))
        assert (w.shape, w.dtype) == (shape[:2], np.complex128)
