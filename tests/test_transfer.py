"""Transfer functions: evaluation, isometry identity, canonical split,
boundary behavior.

The library evaluates only on ``circle_grid``; the identities at interior
points are checked on ``conftest.ref_eval_tau``, which the grid evaluator
matches bit for bit when it solves point by point and within
``conftest.coset_value_bound`` when it folds cosets (TestCosets)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import andovar as av
import andovar.matrix_core as mc
from andovar.errors import InputError, NumericError, ValidationError
from andovar.pair_analysis import GENERATOR_KINDS
import andovar.transfer as transfer
from andovar.transfer import _COSET_COND_MAX, TransferFunction, _coset_size, circle_grid

from conftest import (EDGE_T1, assert_grid_values, build_pipeline, exact_eval_tau,
                      interior_points, make_suite, ref_eval_tau)
from test_boundary_evaluator import pole_at_one


# T2 unitary, so r2 = 0 and Psi has no D-block; T1 pure, with r1 = 2
UNITARY_T2_PAIR = (np.diag([0.5, 0.3]), np.diag([1.0, 1j]))


def random_colligation(n1, n2, seed):
    """A haar-ish random unitary cut into colligation blocks."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n1 + n2, n1 + n2))
                     + 1j * rng.normal(size=(n1 + n2, n1 + n2)))[0]
    return TransferFunction(Q[:n1, :n1], Q[:n1, n1:], Q[n1:, :n1], Q[n1:, n1:])


def schur_residual(tf, z):
    """||I - tau(z)* tau(z) - (1-|z|^2) C*(I-zbar D*)^{-1}(I-z D)^{-1} C||,
    the isometry identity at an interior point z."""
    z = complex(z)
    val = ref_eval_tau(tf, z)
    lhs = np.eye(tf.dim) - mc.adjoint(val) @ val
    k = tf.D.shape[0]
    inner = np.linalg.solve(np.eye(k) - z * tf.D, tf.C)
    outer = np.linalg.solve(np.eye(k) - np.conj(z) * mc.adjoint(tf.D), inner)
    rhs = (1.0 - abs(z) ** 2) * mc.adjoint(tf.C) @ outer
    return mc.operator_norm(lhs - rhs)


def split_law_residual(tf, split, z):
    """||tau(z) - (H0 W H0* + H1 tau_cnu(z) H1*)||; the block-diagonal law."""
    sub = ref_eval_tau(av.cnu_part(tf, split), z)
    recomposed = (split.H0 @ split.W @ mc.adjoint(split.H0)
                  + split.H1 @ sub @ mc.adjoint(split.H1))
    return mc.operator_norm(ref_eval_tau(tf, z) - recomposed)


class TestEval:
    def test_z_zero_returns_a_block(self):
        tf = random_colligation(3, 2, seed=1)
        np.testing.assert_allclose(ref_eval_tau(tf, 0.0), tf.A, atol=1e-15)

    def test_adjoint_direction_at_zero(self, scalar_half_pair):
        _, _, _, coll, _ = scalar_half_pair
        psi = av.adjoint_transfer(coll)
        np.testing.assert_allclose(ref_eval_tau(psi, 0.0), coll.A.conj().T, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_zero_pair_multiplier_is_z_times_identity(self, m):
        Z = np.zeros((m, m), complex)
        _, _, _, coll, _ = build_pipeline(Z, Z)
        psi = av.adjoint_transfer(coll)
        for z in interior_points(20, seed=5, radius=0.99):
            np.testing.assert_allclose(ref_eval_tau(psi, z), z * np.eye(m), atol=1e-12)

    def test_scalar_half_against_scalar_oracle(self, scalar_half_pair):
        _, _, _, coll, _ = scalar_half_pair
        psi = av.adjoint_transfer(coll)
        a = complex(coll.A[0, 0])
        b = complex(coll.B[0, 0])
        c = complex(coll.C[0, 0])
        d = complex(coll.D[0, 0])
        # oracle: plain complex arithmetic, no matrix solve
        oracle = a.conjugate() + 0.5 * c.conjugate() * b.conjugate() / (1 - 0.5 * d.conjugate())
        assert abs(ref_eval_tau(psi, 0.5)[0, 0] - oracle) <= 1e-14
        assert abs(oracle - 0.5) <= 1e-14

    def test_contractive_on_disc(self):
        tf = random_colligation(3, 3, seed=9)
        for z in interior_points(25, seed=2):
            assert mc.operator_norm(ref_eval_tau(tf, z)) <= 1.0 + 1e-9

    def test_boundary_pole_detected(self):
        # D-block norm 1 forces B = C = 0; the resolvent blows up at z = 1
        tf = TransferFunction(
            A=np.array([[0.0]], complex), B=np.zeros((1, 1), complex),
            C=np.zeros((1, 1), complex), D=np.array([[1.0]], complex))
        with pytest.raises(NumericError):
            av.eval_tau_many(tf, 97, lambda v: v)


class TestSchurIdentity:
    def test_z_zero_is_column_unitarity(self):
        tf = random_colligation(3, 2, seed=6)
        assert schur_residual(tf, 0.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interior(self, seed):
        tf = random_colligation(4, 4, seed=seed)
        for z in interior_points(10, seed=100 + seed, radius=0.9):
            assert schur_residual(tf, z) <= 1e-10

    def test_near_boundary(self):
        tf = random_colligation(3, 3, seed=21)
        for z in 0.999 * np.exp(1j * np.linspace(0.1, 6.0, 8)):
            assert schur_residual(tf, z) <= 1e-8

    def test_unitary_second_entry(self):
        # r2 = 0: Psi is the constant unitary A*, and the right side is 0
        psi = av.analyze(av.ContractionPair.create(UNITARY_T2_PAIR[0], UNITARY_T2_PAIR[1])).psi
        assert psi.D.shape == (0, 0)
        lhs = mc.operator_norm(np.eye(2) - mc.adjoint(psi.A) @ psi.A)
        for z in (0.0, 0.5j, -0.9 + 0.1j):
            assert schur_residual(psi, z) == lhs <= 1e-14


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

    def test_rejects_an_unreduced_unimodular_eigenvector(self):
        # norm 1 + 6.7e-9 passes the contraction check; the eigenvector of
        # eigenvalue 1 does not reduce the matrix
        with pytest.raises(ValidationError, match="does not reduce") as exc:
            av.canonical_split([[1, 1e-4], [0, 0.5]])
        assert exc.value.details == {"offdiagonal_residual": pytest.approx(1e-4, rel=1e-9)}


class TestSplitLaw:
    """tau of the full colligation equals W (+) tau of the reduced one."""

    def test_with_unitary_direction(self):
        # T2 = I gives k = r1 and a constant multiplier
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, split = build_pipeline(J, np.eye(2, dtype=complex))
        psi = av.adjoint_transfer(coll)
        for z in interior_points(10, seed=3):
            assert split_law_residual(psi, split, z) <= 1e-9

    @pytest.mark.parametrize("idx", range(6))
    def test_on_generated_pairs(self, idx):
        kind, dim, T1, T2 = make_suite(6)[idx]
        pair, d1, d2, coll, split = build_pipeline(T1, T2)
        psi = av.adjoint_transfer(coll)
        for z in interior_points(10, seed=40 + idx):
            assert split_law_residual(psi, split, z) <= 1e-9


class TestUnimodularEigenvalues:
    def test_zero_pair_forward_transfer(self, zero_pair_m2):
        _, _, _, coll, _ = zero_pair_m2
        tau = TransferFunction(coll.A, coll.B, coll.C, coll.D)
        z = interior_points(10, seed=4, radius=0.98)
        eigs = np.array([mc.eigvals(ref_eval_tau(tau, point)) for point in z])
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
        eigs = mc.eigvals(ref_eval_tau(sub, 0.3))
        max_mod = np.max(np.abs(eigs))
        assert max_mod <= 1.0 - 1e-9 and max_mod <= 0.5 + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_cnu_colligations(self, seed):
        tf = random_colligation(3, 3, seed=200 + seed)
        if av.canonical_split(tf.A).k != 0:
            pytest.skip("random unitary corner happened to be unitary-reducing")
        eigs = np.array([mc.eigvals(ref_eval_tau(tf, z))
                         for z in interior_points(50, seed=seed)])
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

    def test_dimension_zero_multiplier(self):
        # T1 unitary: r1 = 0, so Psi maps the zero space to itself
        psi = av.analyze(av.ContractionPair.create(np.diag([1j, -1]), np.diag([0.5, 0.2]))).psi
        assert psi.dim == 0
        scan = av.boundary_scan(psi, 12)
        assert np.all(scan.sigma_min == 1.0) and np.all(scan.sigma_max == 1.0)
        assert scan.max_deviation() == 0.0


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
        # the theorem of TransferFunction.cond_bound: rho(D) < 1 for a
        # colligation of a pair with T1 pure, so no boundary grid raises
        for label, T1, T2 in no_pole_pairs():
            _, _, _, coll, split = build_pipeline(T1, T2)
            assert np.max(np.abs(np.linalg.eigvals(coll.D)), initial=0.0) < 1.0, label
            scan = av.boundary_scan(av.adjoint_transfer(coll), 720)
            assert len(scan.thetas) == len(scan.sigma_min) == 720, label
            assert len(av.boundary_samples(coll, split, 720).theta_grid) == 720, label


def assert_certified_or_refused(tf, n_theta, seed):
    """Either eval_tau_many refuses tf, before any solve, with a cond_bound
    past 1e12, or cond_bound bounds cond(I - zD) at every point of
    ``circle_grid(n_theta)`` and at 64 random interior points, and the grid
    values match the per-point oracle (``conftest.assert_grid_values``)."""
    try:
        values = av.eval_tau_many(tf, n_theta, lambda v: v)
    except NumericError as exc:
        assert exc.details == {"cond_bound": tf.cond_bound}
        assert tf.cond_bound > 1e12
        return
    grid = circle_grid(n_theta)[1]
    z = np.concatenate([grid, interior_points(64, seed, radius=1.0)])
    assert np.max(np.linalg.cond(np.eye(len(tf.D)) - z[:, None, None] * tf.D)) <= tf.cond_bound
    assert_grid_values(tf, n_theta, values)


def random_function(dim, k, s, normal, n_theta, seed):
    """A real-block transfer function whose D has norm 1 - 10^-s; with
    ``normal`` its eigenvalues point at grid points of ``circle_grid(n_theta)``,
    so the poles nearest the circle face the grid."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    if normal:  # spectral radius = norm puts the poles on the circle, at grid points
        Q = np.linalg.qr(G)[0]
        lam = (rng.uniform(0.5, 1.0, k)
               * np.exp(-2j * np.pi * rng.integers(n_theta, size=k) / n_theta))
        G = Q @ np.diag(lam) @ Q.conj().T
    D = G * ((1.0 - 10.0 ** -s) / np.linalg.norm(G, 2))
    return TransferFunction(A=rng.normal(size=(dim, dim)) + 0j, B=rng.normal(size=(dim, k)) + 0j,
                            C=rng.normal(size=(k, dim)) + 0j, D=D)


def count_stacked_svds(monkeypatch):
    """Record the leading size of every stacked (3-d) np.linalg.svd call."""
    stacked = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacked.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return stacked


class TestPoleScreen:
    def test_no_pole_svd_when_the_norm_rules_out_poles(self, monkeypatch):
        _, _, _, coll, _ = build_pipeline(*av.generate_pair("jordan-poly", 8, 11))
        psi = av.adjoint_transfer(coll)
        assert mc.operator_norm(psi.D) < 0.99
        stacked = count_stacked_svds(monkeypatch)
        values = av.eval_tau_many(psi, 720, lambda v: v)
        assert stacked == []
        assert values.shape == (720, psi.dim, psi.dim)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 14.0), st.integers(1, 5), st.booleans(), st.integers(8, 128),
           st.integers(0, 10**6))
    @example(14.0, 3, True, 97, 5)  # refused: the top eigenvalue sits 1e-14 inside the circle
    def test_certificate_bounds_the_condition_number(self, s, k, normal, n_theta, seed):
        tf = random_function(2, k, s, normal, n_theta, seed)
        assert_certified_or_refused(tf, n_theta, seed)

    def test_norm_one_pole_is_refused(self):
        psi = av.adjoint_transfer(pole_at_one()[0])
        assert psi.cond_bound == np.inf
        for n_theta in (1, 3, 16, 97):
            assert_certified_or_refused(psi, n_theta, n_theta)

    def test_norm_one_shift_needs_no_svd(self, monkeypatch):
        # a nilpotent Jordan block: ||D|| = 1, so Weyl's bound certifies
        # nothing, but rho(D) = 0 and the squares of D certify the disc
        k = 4
        rng = np.random.default_rng(5)
        tf = TransferFunction(A=rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
                              B=rng.normal(size=(3, k)) + 0j, C=rng.normal(size=(k, 3)) + 0j,
                              D=np.eye(k, k, 1, dtype=complex))
        assert mc.operator_norm(tf.D) == 1.0 and tf.cond_bound <= 1e12
        stacked = count_stacked_svds(monkeypatch)
        values = av.eval_tau_many(tf, 97, lambda v: v)
        assert stacked == []
        want = [ref_eval_tau(tf, z) for z in circle_grid(97)[1]]
        np.testing.assert_array_equal(values, np.array(want))


PRIMES = (2, 3, 5, 7, 61, 67, 97, 127, 719, 797)
POWERS_OF_TWO = tuple(2 ** j for j in range(10))


class TestCosets:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(1, 800), st.sampled_from(PRIMES + POWERS_OF_TWO + (720,))),
           st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 5.0), st.booleans(),
           st.integers(0, 10**6))
    @example(720, 6, 6, 3.6, True, 4)  # cond_bound 8e3, below _COSET_COND_MAX: cosets of 60
    @example(720, 3, 4, 4.5, True, 2)  # cond_bound past it: one point per coset
    @example(797, 4, 4, 1.0, False, 3)  # a prime grid: one point per coset
    @example(335, 1, 1, 0.0, False, 0)  # 67 cosets of 5: the solve chunks end inside a batch
    def test_coset_values_match_the_per_point_solve(self, n_theta, dim, k, s, normal, seed):
        tf = random_function(dim, k, s, normal, n_theta, seed)
        values = av.eval_tau_many(tf, n_theta, lambda v: v)
        if n_theta in PRIMES and n_theta > 64:
            assert _coset_size(tf, n_theta) == 1
        assert_grid_values(tf, n_theta, values)

    def test_the_purity_edge_keeps_one_point_per_coset(self, monkeypatch):
        # the folded power D^60 rounds away the gap 1 - |lambda|^60 of the
        # eigenvalue 1 - 2e-8, which the per-point solve keeps
        psi = av.adjoint_transfer(build_pipeline(EDGE_T1, 0.5 * EDGE_T1)[3])
        want = np.array([exact_eval_tau(psi, 720, j) for j in range(720)])
        assert psi.cond_bound > _COSET_COND_MAX and _coset_size(psi, 720) == 1
        assert np.max(np.abs(av.eval_tau_many(psi, 720, lambda v: v) - want)) <= 1e-14
        monkeypatch.setattr(transfer, "_COSET_COND_MAX", np.inf)
        assert _coset_size(psi, 720) == 60
        assert np.max(np.abs(av.eval_tau_many(psi, 720, lambda v: v) - want)) >= 1e-11

    def test_one_stacked_solve_per_call(self, monkeypatch):
        _, _, _, coll, _ = build_pipeline(*av.generate_pair("jordan-poly", 8, 11))
        psi = av.adjoint_transfer(coll)
        sizes = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            sizes.append(np.shape(a)[0] if np.ndim(a) == 3 else None)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        av.eval_tau_many(psi, 720, lambda v: v)
        assert sizes == [12]  # 12 cosets of the 60th roots of unity
        sizes.clear()
        av.eval_tau_many(psi, 97, lambda v: v)
        assert sizes == [64, 33]  # a prime grid: one point per coset, 64 per solve


class TestTaylorSymbols:
    def test_partial_sums_match_eval(self):
        tf = random_colligation(3, 3, seed=31)
        symbols = av.taylor_symbols(tf, 40)
        for z in (0.5, -0.3 + 0.4j, 0.9):
            total = sum(sym * z ** q for q, sym in enumerate(symbols))
            dnorm = mc.operator_norm(tf.D)
            tail = (mc.operator_norm(tf.B) * mc.operator_norm(tf.C)
                    * abs(z) ** 40 / max(1e-12, 1 - abs(z) * dnorm))
            assert mc.operator_norm(total - ref_eval_tau(tf, z)) <= tail + 1e-12

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

    def test_rejects_no_symbols(self):
        with pytest.raises(InputError, match="count must be >= 1"):
            av.taylor_symbols(random_colligation(2, 2, seed=31), 0)

    def test_constant_multiplier_symbols(self):
        psi = TransferFunction(
            A=np.eye(2, dtype=complex), B=np.zeros((2, 0)),
            C=np.zeros((0, 2)), D=np.zeros((0, 0)))
        symbols = av.taylor_symbols(psi, 4)
        np.testing.assert_allclose(symbols[0], np.eye(2))
        for sym in symbols[1:]:
            np.testing.assert_allclose(sym, 0.0)
