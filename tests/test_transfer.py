"""Transfer functions: evaluation, isometry identity, canonical split,
boundary behavior."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import andovar as av
import andovar.matrix_core as mc
from andovar.errors import InputError, NumericError, ValidationError
from andovar.pair_analysis import GENERATOR_KINDS
from andovar.transfer import TransferFunction, circle_grid

from conftest import build_pipeline, interior_points, make_suite
from test_boundary_evaluator import pole_at_one, ref_eval_tau


# T2 unitary, so r2 = 0 and Psi has no D-block; T1 pure, with r1 = 2
UNITARY_T2_PAIR = (np.diag([0.5, 0.3]), np.diag([1.0, 1j]))


def random_colligation(n1, n2, seed):
    """A haar-ish random unitary cut into colligation blocks."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n1 + n2, n1 + n2))
                     + 1j * rng.normal(size=(n1 + n2, n1 + n2)))[0]
    return TransferFunction(Q[:n1, :n1], Q[:n1, n1:], Q[n1:, :n1], Q[n1:, n1:])


class TestEval:
    def test_z_zero_returns_a_block(self):
        tf = random_colligation(3, 2, seed=1)
        np.testing.assert_allclose(av.eval_tau(tf, 0.0), tf.A, atol=1e-15)

    def test_adjoint_direction_at_zero(self, scalar_half_pair):
        _, _, _, coll, _ = scalar_half_pair
        psi = av.adjoint_transfer(coll)
        np.testing.assert_allclose(av.eval_tau(psi, 0.0), coll.A.conj().T, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_zero_pair_multiplier_is_z_times_identity(self, m):
        Z = np.zeros((m, m), complex)
        _, _, _, coll, _ = build_pipeline(Z, Z)
        psi = av.adjoint_transfer(coll)
        for z in interior_points(20, seed=5, radius=0.99):
            np.testing.assert_allclose(av.eval_tau(psi, z), z * np.eye(m), atol=1e-12)

    def test_scalar_half_against_scalar_oracle(self, scalar_half_pair):
        _, _, _, coll, _ = scalar_half_pair
        psi = av.adjoint_transfer(coll)
        a = complex(coll.A[0, 0])
        b = complex(coll.B[0, 0])
        c = complex(coll.C[0, 0])
        d = complex(coll.D[0, 0])
        # oracle: plain complex arithmetic, no matrix solve
        oracle = a.conjugate() + 0.5 * c.conjugate() * b.conjugate() / (1 - 0.5 * d.conjugate())
        assert abs(av.eval_tau(psi, 0.5)[0, 0] - oracle) <= 1e-14
        assert abs(oracle - 0.5) <= 1e-14

    def test_contractive_on_disc(self):
        tf = random_colligation(3, 3, seed=9)
        for z in interior_points(25, seed=2):
            assert mc.operator_norm(av.eval_tau(tf, z)) <= 1.0 + 1e-9

    def test_rejects_outside_disc(self):
        tf = random_colligation(2, 2, seed=3)
        with pytest.raises(InputError):
            av.eval_tau(tf, 1.5)

    def test_rejects_nan_points(self):
        tf = random_colligation(2, 2, seed=3)
        with pytest.raises(InputError):
            av.eval_tau(tf, np.nan)
        for z in ([np.nan], [0.5, np.nan]):
            with pytest.raises(InputError):
                av.eval_tau_many(tf, z, mc.eigvals)

    def test_boundary_pole_detected(self):
        # D-block norm 1 forces B = C = 0; the resolvent blows up at z = 1
        tf = TransferFunction(
            A=np.array([[0.0]], complex), B=np.zeros((1, 1), complex),
            C=np.zeros((1, 1), complex), D=np.array([[1.0]], complex))
        with pytest.raises(NumericError):
            av.eval_tau(tf, 1.0)


class TestSchurIdentity:
    def test_z_zero_is_column_unitarity(self):
        tf = random_colligation(3, 2, seed=6)
        assert av.schur_identity_residual(tf, 0.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interior(self, seed):
        tf = random_colligation(4, 4, seed=seed)
        for z in interior_points(10, seed=100 + seed, radius=0.9):
            assert av.schur_identity_residual(tf, z) <= 1e-10

    def test_near_boundary(self):
        tf = random_colligation(3, 3, seed=21)
        for z in 0.999 * np.exp(1j * np.linspace(0.1, 6.0, 8)):
            assert av.schur_identity_residual(tf, z) <= 1e-8

    def test_unitary_second_entry(self):
        # r2 = 0: Psi is the constant unitary A*, and the right side is 0
        psi = av.analyze(av.ContractionPair.create(UNITARY_T2_PAIR[0], UNITARY_T2_PAIR[1])).psi
        assert psi.D.shape == (0, 0)
        lhs = mc.operator_norm(np.eye(2) - mc.adjoint(psi.A) @ psi.A)
        for z in (0.0, 0.5j, -0.9 + 0.1j):
            assert av.schur_identity_residual(psi, z) == lhs <= 1e-14


def _conjugated_diag(entries, seed):
    rng = np.random.default_rng(seed)
    n = len(entries)
    Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return Q @ np.diag(entries) @ Q.conj().T


class TestCanonicalSplit:
    def test_mixed_diagonal(self):
        lam = np.exp(1j * np.pi / 4)
        split = av.canonical_split(np.diag([lam, 0.5]))
        assert split.k == 1
        np.testing.assert_allclose(split.lambdas, [lam], atol=1e-12)
        np.testing.assert_allclose(split.E_cnu, [[0.5]], atol=1e-12)

    def test_two_unimodular_diagonal(self):
        lam = np.exp([0.7j, 2.1j])
        split = av.canonical_split(np.diag([lam[0], 0.4, lam[1], 0.1j]))
        assert split.k == 2
        np.testing.assert_allclose(split.lambdas, mc.eigvals(np.diag(lam)), atol=1e-12)
        np.testing.assert_allclose(mc.eigvals(split.E_cnu), [0.1j, 0.4], atol=1e-12)

    @pytest.mark.parametrize("A, k", [
        (np.diag([0.5, 0.3j, -0.2]), 0),
        (np.diag([np.exp(0.3j), 0.4, 0.2 + 0.1j]), 1),
        (np.diag([0.5, np.exp(0.7j), 0.3, np.exp(2.1j)]), 2),
        (_conjugated_diag([np.exp(0.7j), 0.4, np.exp(-1.2j), 0.1j, -0.6], 9), 2),
        (_conjugated_diag([np.exp(0.7j), np.exp(-1.2j), -1.0], 10), 3),
    ], ids=["k0", "k1", "k2-diagonal", "k2-conjugated", "k3-unitary"])
    def test_bases_are_orthogonal_complements(self, A, k):
        split = av.canonical_split(A)
        r = A.shape[0]
        assert (split.H0.shape, split.H1.shape) == ((r, k), (r, r - k))
        Q = np.hstack([split.H0, split.H1])
        assert mc.operator_norm(Q.conj().T @ Q - np.eye(r)) <= 1e-14
        assert mc.operator_norm(Q @ Q.conj().T - np.eye(r)) <= 1e-14
        assert mc.operator_norm(split.H0.conj().T @ split.H1) <= 1e-14
        if k == 0:
            np.testing.assert_array_equal(split.H1, np.eye(r, dtype=complex))
            assert split.H1.dtype == np.complex128

    def test_strict_contraction_is_cnu(self):
        A = 0.8 * random_colligation(3, 3, seed=4).A  # any strict contraction
        split = av.canonical_split(A)
        assert split.k == 0
        np.testing.assert_allclose(split.E_cnu, A, atol=1e-14)
        np.testing.assert_allclose(split.H1, np.eye(3), atol=1e-14)

    def test_unitary_input_fully_unitary(self):
        rng = np.random.default_rng(8)
        U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        split = av.canonical_split(U)
        assert split.k == 4
        assert split.E_cnu.shape == (0, 0)
        assert np.all(np.abs(np.abs(split.lambdas) - 1) <= 1e-10)

    def test_block_diagonal_reconstruction(self):
        lam = np.exp(0.3j)
        A = np.diag([lam, 0.4, 0.2 + 0.1j])
        split = av.canonical_split(A)
        rebuilt = (split.H0 @ split.W @ split.H0.conj().T
                   + split.H1 @ split.E_cnu @ split.H1.conj().T)
        assert mc.operator_norm(rebuilt - A) <= 1e-9

    def test_rejects_expansion(self):
        with pytest.raises(ValidationError):
            av.canonical_split(np.diag([1.5, 0.2]))


class TestSplitLaw:
    """tau of the full colligation equals W (+) tau of the reduced one."""

    def test_with_unitary_direction(self):
        # T2 = I gives k = r1 and a constant multiplier
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, split = build_pipeline(J, np.eye(2, dtype=complex))
        psi = av.adjoint_transfer(coll)
        for z in interior_points(10, seed=3):
            assert av.split_residual(psi, split, z) <= 1e-9

    @pytest.mark.parametrize("idx", range(6))
    def test_on_generated_pairs(self, idx):
        kind, dim, T1, T2 = make_suite(6)[idx]
        pair, d1, d2, coll, split = build_pipeline(T1, T2)
        psi = av.adjoint_transfer(coll)
        for z in interior_points(10, seed=40 + idx):
            assert av.split_residual(psi, split, z) <= 1e-9


class TestUnimodularEigenvalues:
    def test_zero_pair_forward_transfer(self, zero_pair_m2):
        _, _, _, coll, _ = zero_pair_m2
        tau = TransferFunction(coll.A, coll.B, coll.C, coll.D)
        z = interior_points(10, seed=4, radius=0.98)
        eigs = av.eval_tau_many(tau, z, mc.eigvals)
        max_mod = np.max(np.abs(eigs), axis=1)
        assert np.all(max_mod <= 1.0 - 1e-9)
        np.testing.assert_allclose(max_mod, np.abs(z), rtol=0, atol=1e-10)

    def test_split_first_then_scan(self):
        # A* has a unimodular part; the c.n.u. reduction must not
        psi = TransferFunction(
            A=np.diag([1.0, 0.5]).astype(complex),
            B=np.zeros((2, 0)), C=np.zeros((0, 2)), D=np.zeros((0, 0)),
        )
        split = av.canonical_split(psi.A)
        sub = av.cnu_part(psi, split)
        eigs = av.eval_tau_many(sub, [0.3], mc.eigvals)
        max_mod = np.max(np.abs(eigs))
        assert max_mod <= 1.0 - 1e-9 and max_mod <= 0.5 + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_cnu_colligations(self, seed):
        tf = random_colligation(3, 3, seed=200 + seed)
        if av.canonical_split(tf.A).k != 0:
            pytest.skip("random unitary corner happened to be unitary-reducing")
        eigs = av.eval_tau_many(tf, interior_points(50, seed=seed), mc.eigvals)
        assert np.all(np.max(np.abs(eigs), axis=1) <= 1.0 - 1e-12)


class TestBoundaryScan:
    @pytest.mark.parametrize("idx", range(6))
    def test_inner_on_circle(self, idx):
        kind, dim, T1, T2 = make_suite(6, seed0=50)[idx]
        _, _, _, coll, _ = build_pipeline(T1, T2)
        psi = av.adjoint_transfer(coll)
        scan = av.boundary_scan(psi, n_theta=180)
        assert len(scan.thetas) == 180 and scan.skipped == []
        assert scan.max_deviation() <= 1e-6


def no_pole_pairs():
    """Pairs with T1 pure: the generator kinds at radii up to 1 - 1e-6, and
    diagonal pairs whose T2 has entries 1, -1 or i (some with a unitary
    part, so the variety has V0 sheets)."""
    for kind in GENERATOR_KINDS:
        for dim in (1, 2, 4, 8):
            for radius in (0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-6):
                yield f"{kind}-{dim}-{radius}", *av.generate_pair(kind, dim, 0, radius=radius)
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3, 4, 6):
        for seed in range(3):
            t1 = rng.uniform(0.0, 1 - 1e-6, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
            t2 = rng.choice(np.array([1.0, -1.0, 1j, 0.5, -0.3j]), size=dim)
            yield f"diag-{dim}-{seed}", np.diag(t1), np.diag(t2)


class TestNoBoundaryPoles:
    def test_pure_first_entry_leaves_no_pole_on_the_circle(self):
        # the theorem of transfer._eval_chunk: rho(D) < 1 for a colligation
        # of a pair with T1 pure, so no theta of the boundary grid raises
        for label, T1, T2 in no_pole_pairs():
            _, _, _, coll, split = build_pipeline(T1, T2)
            assert np.max(np.abs(np.linalg.eigvals(coll.D)), initial=0.0) < 1.0, label
            scan = av.boundary_scan(av.adjoint_transfer(coll), 720)
            assert len(scan.thetas) == len(scan.sigma_min) == 720, label
            assert len(av.boundary_samples(coll, split, 720).theta_grid) == 720, label


def assert_matches_the_pole_rule(tf, z):
    """eval_tau_many against the per-point cond rule: it raises at the first
    pole, with the reference cond, iff the rule finds a pole, and returns
    the same values otherwise; each pole raises from eval_tau too."""
    want, poles = [], []
    for point in z:
        try:
            want.append(ref_eval_tau(tf, point))
        except NumericError as exc:
            poles.append(exc.details)
    if poles:
        with pytest.raises(NumericError) as info:
            av.eval_tau_many(tf, z, lambda v: v)
        assert info.value.details == poles[0]
    else:
        np.testing.assert_array_equal(av.eval_tau_many(tf, z, lambda v: v), np.array(want))
    for details in poles:
        with pytest.raises(NumericError) as info:
            av.eval_tau(tf, details["z"])
        assert info.value.details == details


def near_pole_points(D):
    """For each eigenvalue lambda of D: the circle point nearest to 1/lambda,
    and 1/lambda itself when the disc check accepts it."""
    out = []
    for lam in np.linalg.eigvals(D):
        if lam == 0:
            continue
        z = 1.0 / lam
        out.append(z / abs(z))
        if abs(z) <= 1.0 + 1e-12:
            out.append(z)
    return np.array(out, complex)


class TestPoleScreen:
    def test_no_pole_svd_when_the_norm_rules_out_poles(self, monkeypatch):
        _, _, _, coll, _ = build_pipeline(*av.generate_pair("jordan-poly", 8, 11))
        psi = av.adjoint_transfer(coll)
        assert mc.operator_norm(psi.D) < 0.99
        stacked = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if np.ndim(a) == 3:
                stacked.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        values = av.eval_tau_many(psi, circle_grid(720)[1], lambda v: v)
        assert stacked == []
        assert values.shape == (720, psi.dim, psi.dim)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 14.0), st.integers(1, 5), st.booleans(), st.integers(0, 10**6))
    @example(14.0, 3, True, 0)  # cond about 2e14 at the circle points nearest the poles
    def test_screen_keeps_the_pole_rule(self, s, k, normal, seed):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        if normal:  # spectral radius = norm puts the poles on the circle
            Q = np.linalg.qr(G)[0]
            lam = rng.uniform(0.5, 1.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
            G = Q @ np.diag(lam) @ Q.conj().T
        D = G * ((1.0 - 10.0 ** -s) / np.linalg.norm(G, 2))
        tf = TransferFunction(A=rng.normal(size=(2, 2)) + 0j, B=rng.normal(size=(2, k)) + 0j,
                              C=rng.normal(size=(k, 2)) + 0j, D=D)
        z = np.concatenate([np.exp(2j * np.pi * rng.uniform(size=8)),
                            interior_points(8, seed), near_pole_points(D)])
        assert_matches_the_pole_rule(tf, z)

    def test_norm_one_pole_keeps_the_pole_rule(self):
        psi = av.adjoint_transfer(pole_at_one()[0])
        z = np.concatenate([[1.0, -1.0, 1j], np.exp(2j * np.pi * np.arange(16) / 16),
                            interior_points(8, 4), near_pole_points(psi.D)])
        assert_matches_the_pole_rule(psi, z)


class TestTaylorSymbols:
    def test_partial_sums_match_eval(self):
        tf = random_colligation(3, 3, seed=31)
        symbols = av.taylor_symbols(tf, 40)
        for z in (0.5, -0.3 + 0.4j, 0.9):
            total = sum(sym * z ** q for q, sym in enumerate(symbols))
            dnorm = mc.operator_norm(tf.D)
            tail = (mc.operator_norm(tf.B) * mc.operator_norm(tf.C)
                    * abs(z) ** 40 / max(1e-12, 1 - abs(z) * dnorm))
            assert mc.operator_norm(total - av.eval_tau(tf, z)) <= tail + 1e-12

    @pytest.mark.parametrize("count", [1, 4])
    def test_unitary_second_entry(self, count):
        # r2 = 0: Psi is the constant A*, so every later symbol is +0.0
        psi = av.analyze(av.ContractionPair.create(UNITARY_T2_PAIR[0], UNITARY_T2_PAIR[1])).psi
        symbols = av.taylor_symbols(psi, count)
        assert len(symbols) == count
        np.testing.assert_array_equal(symbols[0], psi.A)
        for sym in symbols[1:]:
            assert (sym.shape, sym.dtype) == ((2, 2), np.complex128)
            assert sym.tobytes() == bytes(sym.nbytes)

    def test_constant_multiplier_symbols(self):
        psi = TransferFunction(
            A=np.eye(2, dtype=complex), B=np.zeros((2, 0)),
            C=np.zeros((0, 2)), D=np.zeros((0, 0)))
        symbols = av.taylor_symbols(psi, 4)
        np.testing.assert_allclose(symbols[0], np.eye(2))
        for sym in symbols[1:]:
            np.testing.assert_allclose(sym, 0.0)
