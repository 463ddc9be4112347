"""Colligation construction: closed forms, unitarity, defining action,
series identity."""

from __future__ import annotations

import collections

import numpy as np
import pytest

import andovar as av
import andovar.matrix_core as mc
from andovar import colligation

from conftest import build_pipeline, make_suite, random_unit_vectors


def action_residuals(pair, d1, d2, coll, H):
    """Per-column residual of U (E1*D1 h, E2*D2 T1* h) = (E1*D1 T2* h, E2*D2 h)."""
    E1s, E2s = d1.basis.conj().T, d2.basis.conj().T
    dom = np.vstack([E1s @ d1.D @ H, E2s @ d2.D @ pair.T1.conj().T @ H])
    ran = np.vstack([E1s @ d1.D @ pair.T2.conj().T @ H, E2s @ d2.D @ H])
    return np.linalg.norm(coll.matrix @ dom - ran, axis=0)


class TestClosedForms:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_zero_pair_gives_flip_with_identity_corner(self, m):
        Z = np.zeros((m, m), complex)
        pair, d1, d2, coll, _ = build_pipeline(Z, Z)
        target = np.block([
            [np.zeros((m, m)), np.eye(m)],
            [np.eye(m), np.zeros((m, m))],
        ])
        assert mc.operator_norm(coll.matrix - target) <= 1e-12

    def test_scalar_half_completion(self, scalar_half_pair):
        pair, d1, d2, coll, _ = scalar_half_pair
        # forced action: unit vector (2,1)/sqrt(5) must map to (1,2)/sqrt(5)
        v = np.array([2, 1], complex) / np.sqrt(5)
        w = np.array([1, 2], complex) / np.sqrt(5)
        assert np.linalg.norm(coll.matrix @ v - w) <= 1e-12
        # convention fixes the completion to the flip matrix
        np.testing.assert_allclose(
            coll.matrix, np.array([[0, 1], [1, 0]], complex), atol=1e-12)

    def test_unitary_pair_gives_the_empty_colligation(self):
        # r1 = r2 = 0: every block, and U itself, is 0 x 0
        pair, d1, d2, coll, _ = build_pipeline(np.diag([1.0, 1j]), np.diag([-1.0, 1.0]))
        for block in (coll.A, coll.B, coll.C, coll.D, coll.matrix):
            assert (block.shape, block.dtype) == ((0, 0), np.complex128)
        assert coll.basis1.shape == coll.basis2.shape == (2, 0)
        assert coll.unitarity_residual() == 0.0

    def test_identity_second_entry_gives_identity_block(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, _ = build_pipeline(J, np.eye(2, dtype=complex))
        assert coll.r2 == 0
        assert coll.B.shape == (coll.r1, 0)
        np.testing.assert_allclose(coll.A, np.eye(coll.r1), atol=1e-12)


class TestInconsistentDefects:
    def test_forced_rank_mismatch_is_a_numeric_error(self):
        # T2 = 0 makes the forced range [0; E2* D2], which vanishes for the
        # hand-made zero D2, while the forced domain keeps rank 1
        pair = av.ContractionPair.create(np.array([[0.5]]), np.array([[0.0]]))
        d1 = av.defect(pair.T1)
        fake_d2 = av.DefectData(D=np.zeros((1, 1), complex),
                                basis=np.ones((1, 1), complex), rank=1)
        with pytest.raises(av.NumericError) as info:
            av.build_colligation(pair, d1, fake_d2)
        assert info.value.details == {"forced_rank": 1, "range_rank": 0}


class TestInvariants:
    SUITE = make_suite(40)

    @pytest.mark.parametrize("idx", range(len(SUITE)))
    def test_unitarity_and_action(self, idx):
        kind, dim, T1, T2 = self.SUITE[idx]
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        assert coll.unitarity_residual() <= 1e-10
        H = random_unit_vectors(dim, 100, seed=1000 + idx)
        assert np.max(action_residuals(pair, d1, d2, coll, H)) <= 1e-10

    def test_determinism_bit_identical(self):
        T1, T2 = av.generate_pair("triangular-commuting", 5, seed=77)
        _, _, _, coll_a, _ = build_pipeline(T1, T2)
        _, _, _, coll_b, _ = build_pipeline(T1.copy(), T2.copy())
        np.testing.assert_array_equal(coll_a.matrix, coll_b.matrix)


class TestLaterCompletionStages:
    """Pairs the block-swap direction cannot complete on its own."""

    # T1, T2 and whether the eigenbasis pairing finishes the completion;
    # without it the identity direction does
    CASES = {
        "identity-direction": (np.diag([0.5, np.exp(1j)]), np.diag([0, 0.5]), False),
        "eigenbasis-pairing": (np.zeros((2, 2)), np.diag([np.exp(1j), 0]), True),
    }

    @pytest.mark.parametrize("swap", [False, True], ids=["pair", "swapped"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_completion(self, case, swap, monkeypatch):
        T1, T2, eigenbasis = self.CASES[case]
        if swap:
            T1, T2 = T2, T1
        pair = av.ContractionPair.create(T1, T2)
        d1, d2 = av.defect(pair.T1), av.defect(pair.T2)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            for name in ("svd", "herm_eig"):
                m.setattr(mc, name, counted(name, getattr(mc, name)))
            coll = av.build_colligation(pair, d1, d2)
        # two SVDs of the forced action, then one per direction tried; the
        # eigenbasis pairing diagonalizes both leftover projections
        assert calls["svd"] == 4
        assert calls["herm_eig"] == (2 if eigenbasis else 0)
        assert coll.unitarity_residual() <= 1e-10
        H = random_unit_vectors(2, 100, seed=5)
        assert np.max(action_residuals(pair, d1, d2, coll, H)) <= 1e-10
        again = av.analyze(av.ContractionPair.create(T1.copy(), T2.copy())).coll
        np.testing.assert_array_equal(coll.matrix, again.matrix)


def _dense_pair_complements(P_dom, P_ran, r2, deficiency):
    """The complement pairing with the swap as a dense permutation matrix Z
    and the identity direction as a dense identity: the oracle for the
    column-order product of ``colligation._pair_complements``."""
    n = P_dom.shape[0]
    r1 = n - r2
    Z = np.zeros((n, n))
    Z[:r2, r1:] = np.eye(r2)
    Z[r2:, :r1] = np.eye(r1)
    W = np.zeros((n, n), complex)
    rem_d, rem_r = P_dom.astype(complex), P_ran.astype(complex)
    matched = 0
    for Zk in (Z, np.eye(n)):
        if matched == deficiency:
            return W
        u, s, vh = mc.svd(rem_r @ Zk @ rem_d)
        t = min(int(np.sum(s > colligation._COMPLETION_COS_TOL)), deficiency - matched)
        if t == 0:
            continue
        W += u[:, :t] @ vh[:t, :]
        rem_d = rem_d - vh[:t, :].conj().T @ vh[:t, :]
        rem_r = rem_r - u[:, :t] @ u[:, :t].conj().T
        matched += t
    if matched < deficiency:
        _, vd = mc.herm_eig(rem_d)
        _, vr = mc.herm_eig(rem_r)
        left = deficiency - matched
        W += vr[:, -left:] @ mc.adjoint(vd[:, -left:])
    return W


COMPLETED_PAIRS = {f"{case}-{order}": (T1, T2)[::step]
                   for case, (T1, T2, _) in sorted(TestLaterCompletionStages.CASES.items())
                   for order, step in (("pair", 1), ("swapped", -1))}
COMPLETED_PAIRS.update({f"suite-{i}": s[2:] for i, s in enumerate(make_suite(40))})


@pytest.mark.parametrize("T1, T2", COMPLETED_PAIRS.values(), ids=COMPLETED_PAIRS.keys())
def test_column_order_swap_matches_the_dense_permutation(T1, T2, monkeypatch):
    pair = av.ContractionPair.create(T1, T2)
    d1, d2 = pair.report.defects
    coll = av.build_colligation(pair, d1, d2)
    monkeypatch.setattr(colligation, "_pair_complements", _dense_pair_complements)
    dense = av.build_colligation(pair, d1, d2)
    assert coll.matrix.tobytes() == dense.matrix.tobytes()


class TestSeriesIdentity:
    def test_zero_pair_truncates_immediately(self, zero_pair_m2):
        pair, d1, d2, coll, _ = zero_pair_m2
        h = np.array([1.0, -2.0], complex)
        rep = av.defect_series_residuals(pair, coll, h, m_max=3)
        assert rep.residuals[0] <= 1e-14

    def test_nilpotent_vanishes_past_order(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, _ = build_pipeline(J, J)
        h = np.array([0.3, 0.7], complex)
        rep = av.defect_series_residuals(pair, coll, h, m_max=6)
        # T1^2 = 0, so every partial sum from m = 0 on is exact
        assert np.max(rep.residuals) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pure_pair_respects_tail_envelope(self, seed):
        T1, T2 = av.generate_pair("triangular-commuting", 4, seed=seed)
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        rng = np.random.default_rng(seed)
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        rep = av.defect_series_residuals(pair, coll, h, m_max=50)
        assert np.all(rep.residuals <= rep.tail_bounds + 1e-10)
        # envelope itself decays, so late residuals are negligible
        assert rep.residuals[-1] <= 1e-9

    def test_purity_is_judged_by_the_pair_tolerance(self):
        # spectral radius 1 - 5e-9: pure under pure=1e-9, not under the
        # default 1e-8
        pair = av.ContractionPair.create([[1 - 5e-9]], [[0.5]], av.Tolerances(pure=1e-9))
        a = av.analyze(pair)
        assert pair.report.defect_ranks == (1, 1)
        rep = av.defect_series_residuals(pair, a.coll, np.array([1.0], complex), m_max=3)
        assert np.all(rep.residuals <= rep.tail_bounds + 1e-10)


class TestSerialization:
    def test_to_dict_round_trip(self, scalar_half_pair):
        from andovar.serialize import matrix_from_nested

        _, _, _, coll, _ = scalar_half_pair
        d = coll.to_dict()
        assert d["r1"] == 1 and d["r2"] == 1
        np.testing.assert_allclose(matrix_from_nested(d["B"]), coll.B)
