"""Variety sampling: fibers, membership, boundary, joint eigenvalues,
swap symmetry."""

from __future__ import annotations

import numpy as np
import pytest

import andovar as av
import andovar.matrix_core as mc
from andovar.colligation import Colligation
from andovar.errors import InputError, NumericError, PurityError
from andovar.vn import BivariatePolynomial, sup_on_variety

from conftest import build_pipeline, interior_points, make_suite
from test_boundary_evaluator import ALL_V0, NEAR_POLE


class TestFibers:
    def test_zero_pair_diagonal_fiber(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        values = av.fibers(coll, split, 0.3)
        assert values.shape == (1, 2)
        assert split.k == 0  # every value is a V1 value
        assert np.all(np.abs(values - 0.3) <= 1e-12)

    def test_identity_second_entry_constant_fiber(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        _, _, _, coll, split = build_pipeline(J, np.eye(2, dtype=complex))
        values = av.fibers(coll, split, [0.0, 0.4, -0.2 + 0.6j])
        assert values.shape[1] == split.k  # every value is a V0 value
        assert np.all(np.abs(values - 1.0) <= 1e-12)

    def test_scalar_half_fiber_at_origin(self, scalar_half_pair):
        _, _, _, coll, split = scalar_half_pair
        values = av.fibers(coll, split, 0.0)
        assert values.shape == (1, 1)
        assert abs(values[0, 0] - complex(coll.A.conj().T[0, 0])) <= 1e-14

    def test_fiber_cardinality_is_r1(self):
        for idx, (kind, dim, T1, T2) in enumerate(make_suite(6, seed0=10)):
            _, d1, _, coll, split = build_pipeline(T1, T2)
            values = av.fibers(coll, split, interior_points(5, seed=idx))
            assert values.shape == (5, d1.rank)

    def test_rejects_outside_disc(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        with pytest.raises(InputError):
            av.fibers(coll, split, 1.2)

    def test_v0_only_variety_rejects_outside_disc(self):
        # Psi_cnu has dimension 0, so nothing is evaluated at z1 = 5
        J = np.array([[0, 0.5], [0, 0]], complex)
        _, _, _, coll, split = build_pipeline(J, np.eye(2, dtype=complex))
        assert split.k == coll.r1
        with pytest.raises(InputError):
            av.fibers(coll, split, [5.0])

    def test_nan_points_are_refused(self):
        _, _, _, coll, split = build_pipeline(*ALL_V0)
        for z in ([np.nan], [0.5, np.nan]):
            with pytest.raises(InputError):
                av.fibers(coll, split, z)


class TestMembership:
    def test_on_fiber_point(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        values = av.fibers(coll, split, 0.4)
        assert np.min(np.abs(values - 0.4)) <= 1e-10

    def test_distance_to_diagonal(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        values = av.fibers(coll, split, 0.3)
        assert np.min(np.abs(values - 0.9)) == pytest.approx(0.6, abs=1e-10)

    @pytest.mark.parametrize("idx", range(5))
    def test_sampled_points_are_members(self, idx):
        kind, dim, T1, T2 = make_suite(5, seed0=20)[idx]
        _, _, _, coll, split = build_pipeline(T1, T2)
        psi = av.adjoint_transfer(coll)
        for z1 in interior_points(5, seed=idx):
            values = av.fibers(coll, split, z1)
            for z2 in mc.eigvals(av.eval_tau(psi, z1)):
                assert np.min(np.abs(values - z2)) <= 1e-8


class TestBoundary:
    def test_zero_pair_boundary_is_diagonal(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        sample = av.boundary_samples(coll, split, 64)
        assert len(sample) == 64 * 2
        z1 = np.exp(1j * sample.theta_grid)
        assert np.all(np.abs(sample.values - z1[:, None]) <= 1e-10)

    def test_identity_second_entry_boundary(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        _, _, _, coll, split = build_pipeline(J, np.eye(2, dtype=complex))
        sample = av.boundary_samples(coll, split, 32)
        assert sample.k == sample.values.shape[1] == 2  # every column is V0
        assert np.all(np.abs(sample.values - 1.0) <= 1e-10)

    def test_v0_only_variety_skips_no_theta(self):
        # U = diag(i, 1) is unitary with V0 sheets only; D = [[1]] is singular
        # at theta = 0, but with no c.n.u. part nothing is evaluated there,
        # so nothing raises
        coll = Colligation(A=np.array([[1j]]), B=np.zeros((1, 1), complex),
                           C=np.zeros((1, 1), complex), D=np.array([[1.0]], complex),
                           basis1=np.eye(1, dtype=complex), basis2=np.eye(1, dtype=complex))
        split = av.canonical_split(mc.adjoint(coll.A))
        assert split.k == 1
        sample = av.boundary_samples(coll, split, 97)
        sup = sup_on_variety(BivariatePolynomial(np.ones((2, 2))), coll, split, 97)
        assert sample.skipped_thetas == []
        assert len(sample) == 97
        assert sup.skipped == len(sample.skipped_thetas) == 0

    @pytest.mark.parametrize("idx", range(6))
    def test_boundary_values_unimodular(self, idx):
        kind, dim, T1, T2 = make_suite(6, seed0=30)[idx]
        _, _, _, coll, split = build_pipeline(T1, T2)
        sample = av.boundary_samples(coll, split, 90)
        assert len(sample.theta_grid) == 90
        assert np.all(np.abs(np.abs(sample.values) - 1.0) <= 1e-6)

    @pytest.mark.parametrize("idx", range(4))
    def test_interior_fibers_stay_inside(self, idx):
        kind, dim, T1, T2 = make_suite(4, seed0=35)[idx]
        _, _, _, coll, split = build_pipeline(T1, T2)
        assert split.k == 0  # pure-pure pairs have no unitary sheet
        values = av.fibers(coll, split, interior_points(10, seed=idx, radius=0.9))
        assert np.all(np.abs(values) < 1.0)


class TestFiberSolver:
    """Circle fibers take the Hermitian Cayley solve; interior ones do not.
    Its accuracy is tested in test_matrix_core, its batching against the
    per-point loop in test_boundary_evaluator."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        return calls

    def test_interior_points_never_call_eigvalsh(self, eigvalsh_calls):
        T1, T2 = av.generate_pair("triangular-commuting", 8, 3)
        pair = av.ContractionPair.create(T1, T2)
        a = av.analyze(pair)
        assert av.cnu_part(a.psi, a.split).dim >= 4
        av.fibers(a.coll, a.split, interior_points(20, seed=1))
        # one circle point among interior ones keeps the general solver
        av.fibers(a.coll, a.split, np.append(interior_points(5, seed=2), 1.0))
        av.symmetry_residual(pair, 4)
        av.joint_eig_membership(pair, a.coll, a.split)
        assert not eigvalsh_calls
        av.fibers(a.coll, a.split, np.exp(1j * np.arange(5)))
        assert eigvalsh_calls


class TestJointEigenvalues:
    def test_explicit_diagonal_pair(self):
        T1 = np.diag([0.3, 0.4]).astype(complex)
        T2 = np.diag([0.2, -0.5]).astype(complex)
        pair, d1, d2, coll, split = build_pipeline(T1, T2)
        rep = av.joint_eig_membership(pair, coll, split)
        assert rep.failures == 0
        got = {(round(l1.real, 8), round(l2.real, 8)) for l1, l2, _ in rep.entries}
        assert got == {(0.3, 0.2), (0.4, -0.5)}
        assert all(res <= 1e-8 for _, _, res in rep.entries)

    def test_zero_pair_origin(self, zero_pair_m2):
        pair, _, _, coll, split = zero_pair_m2
        rep = av.joint_eig_membership(pair, coll, split)
        assert rep.failures == 0
        assert all(res <= 1e-10 for _, _, res in rep.entries)

    def test_identity_second_entry_boundary_pair(self):
        T1 = np.diag([0.5]).astype(complex)
        pair, d1, d2, coll, split = build_pipeline(T1, np.eye(1, dtype=complex))
        rep = av.joint_eig_membership(pair, coll, split)
        assert rep.failures == 0
        assert len(rep.entries) == 1
        l1, l2, res = rep.entries[0]
        assert (l1, l2) == pytest.approx((0.5, 1.0), abs=1e-12)
        assert res <= 1e-10

    def test_pole_at_a_joint_eigenvalue_raises(self):
        # U is the permutation of e0 and e2, so Psi(z) = z; the resolvent of
        # D = diag(1, 0) has cond 1/|1 - z|, past the pole limit at lambda1
        lam1 = 1.0 - 1e-15
        coll = Colligation(A=np.zeros((1, 1), complex), B=np.array([[0, 1]], complex),
                           C=np.array([[0], [1]], complex), D=np.diag([1.0, 0.0]).astype(complex),
                           basis1=np.eye(1, dtype=complex), basis2=np.eye(2, dtype=complex))
        split = av.canonical_split(mc.adjoint(coll.A))
        pair = av.ContractionPair.create([[lam1]], [[0.0]])
        with pytest.raises(NumericError, match="resolvent numerically singular"):
            av.joint_eig_membership(pair, coll, split)

    def test_unitary_t1_has_no_variety(self):
        T1 = np.diag(np.exp(1j * np.array([0.3, 1.1])))
        pair, d1, d2, coll, split = build_pipeline(T1, 0.5 * np.eye(2, dtype=complex))
        with pytest.raises(NumericError, match="empty fiber"):
            av.joint_eig_membership(pair, coll, split)

    @pytest.mark.parametrize("idx", range(8))
    def test_generated_pairs(self, idx):
        kind, dim, T1, T2 = make_suite(8, seed0=45)[idx]
        pair, d1, d2, coll, split = build_pipeline(T1, T2)
        rep = av.joint_eig_membership(pair, coll, split)
        for _, _, res in rep.entries:
            assert res <= 1e-7


class TestSymmetry:
    def test_zero_pair(self):
        Z = np.zeros((2, 2), complex)
        pair = av.ContractionPair.create(Z, Z)
        assert av.symmetry_residual(pair, 6) <= 1e-10

    def test_scalar_half(self):
        pair = av.ContractionPair.create([[0.5]], [[0.5]])
        assert av.symmetry_residual(pair, 8) <= 1e-8

    def test_diagonal_dim3(self):
        T1, T2 = av.generate_pair("diag", 3, seed=2)
        pair = av.ContractionPair.create(T1, T2)
        assert av.symmetry_residual(pair, 8) <= 1e-8

    def test_rejects_nonpure(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair = av.ContractionPair.create(J, np.eye(2, dtype=complex))
        with pytest.raises(PurityError):
            av.symmetry_residual(pair, 4)


class TestOutputs:
    def test_csv_shape_and_determinism(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        sample = av.boundary_samples(coll, split, 16)
        from andovar.variety import sample_to_csv, sample_to_svg

        csv1 = sample_to_csv(sample)
        csv2 = sample_to_csv(av.boundary_samples(coll, split, 16))
        assert csv1 == csv2
        lines = csv1.strip().split("\n")
        assert lines[0] == "theta,re_z1,im_z1,re_z2,im_z2,kind,residual"
        assert len(lines) == 1 + 16 * 2
        svg = sample_to_svg(sample)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("T1, T2", [av.generate_pair("triangular-commuting", 5, 70),
                                        ALL_V0, NEAR_POLE],
                             ids=["generated", "all-V0", "near-pole"])
    def test_csv_matches_a_per_point_formatter(self, T1, T2):
        from andovar.variety import sample_to_csv

        _, _, _, coll, split = build_pipeline(T1, T2)
        sample = av.boundary_samples(coll, split, 97)
        lines = ["theta,re_z1,im_z1,re_z2,im_z2,kind,residual"]
        z1s = np.exp(1j * sample.theta_grid)
        for theta, z1, fiber in zip(sample.theta_grid, z1s, sample.values):
            for j, z2 in enumerate(fiber):
                kind = "V0" if j < sample.k else "V1"
                lines.append(f"{theta:.12e},{z1.real:.12e},{z1.imag:.12e},"
                             f"{z2.real:.12e},{z2.imag:.12e},{kind},{0.0:.12e}")
        assert sample_to_csv(sample) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("T1, T2", [av.generate_pair("triangular-commuting", 5, 70),
                                        av.generate_pair("diag", 16, 0),
                                        ALL_V0, NEAR_POLE],
                             ids=["generated", "diag-16", "all-V0", "near-pole"])
    def test_svg_draws_each_z1_once(self, T1, T2):
        from andovar.variety import sample_to_svg

        _, _, _, coll, split = build_pipeline(T1, T2)
        sample = av.boundary_samples(coll, split, 97)
        svg = sample_to_svg(sample)
        # two frame circles, one per kept z1, one per fiber value
        assert svg.count("<circle") == 2 + len(sample.theta_grid) + len(sample)
