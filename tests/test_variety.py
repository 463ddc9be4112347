"""Variety sampling: fibers, membership, boundary, the defining polynomial
and the joint eigenvalues it annihilates, swap symmetry.

The library computes fibers only over boundary grids; fibers over interior
points come from ``interior_fibers``, built on ``conftest.ref_eval_tau``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import andovar as av
import andovar.matrix_core as mc
from andovar import pair_analysis
from andovar.colligation import Colligation
from andovar.errors import InputError, NumericError, PurityError
from andovar.pair_analysis import GENERATOR_KINDS
from andovar.vn import BivariatePolynomial, eval_poly_pair, sup_on_variety

from conftest import build_pipeline, interior_points, make_suite, model_pair, ref_eval_tau
from test_boundary_evaluator import ALL_V0, NEAR_POLE, PAIRS


def interior_fibers(coll, split, z1):
    """Fiber rows over the points z1, as :func:`variety.fibers` lays them
    out: the V0 values, then the eigenvalues of Psi_cnu(z1_i) by ``eigvals``."""
    psi_cnu = av.cnu_part(av.adjoint_transfer(coll), split)
    return np.array([np.concatenate([split.lambdas, mc.eigvals(ref_eval_tau(psi_cnu, z))])
                     for z in np.atleast_1d(z1)])


class TestFibers:
    def test_zero_pair_diagonal_fiber(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        values = interior_fibers(coll, split, 0.3)
        assert values.shape == (1, 2)
        assert split.k == 0  # every value is a V1 value
        assert np.all(np.abs(values - 0.3) <= 1e-12)

    def test_identity_second_entry_constant_fiber(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        _, _, _, coll, split = build_pipeline(J, np.eye(2, dtype=complex))
        values = interior_fibers(coll, split, [0.0, 0.4, -0.2 + 0.6j])
        assert values.shape[1] == split.k  # every value is a V0 value
        assert np.all(np.abs(values - 1.0) <= 1e-12)

    def test_scalar_half_fiber_at_origin(self, scalar_half_pair):
        _, _, _, coll, split = scalar_half_pair
        values = interior_fibers(coll, split, 0.0)
        assert values.shape == (1, 1)
        assert abs(values[0, 0] - complex(coll.A.conj().T[0, 0])) <= 1e-14

    def test_fiber_cardinality_is_r1(self):
        for idx, (kind, dim, T1, T2) in enumerate(make_suite(6, seed0=10)):
            _, d1, _, coll, split = build_pipeline(T1, T2)
            values = interior_fibers(coll, split, interior_points(5, seed=idx))
            assert values.shape == (5, d1.rank)
            assert av.fibers(coll, split, 5).shape == (5, d1.rank)

    def test_every_variety_refuses_an_empty_grid(self, zero_pair_m2):
        # the V0-only variety evaluates nothing, and still checks the grid
        for _, _, _, coll, split in (zero_pair_m2, build_pipeline(*ALL_V0)):
            with pytest.raises(InputError, match="n_theta"):
                av.fibers(coll, split, 0)


class TestMembership:
    def test_on_fiber_point(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        values = interior_fibers(coll, split, 0.4)
        assert np.min(np.abs(values - 0.4)) <= 1e-10

    def test_distance_to_diagonal(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        values = interior_fibers(coll, split, 0.3)
        assert np.min(np.abs(values - 0.9)) == pytest.approx(0.6, abs=1e-10)

    @pytest.mark.parametrize("idx", range(5))
    def test_sampled_points_are_members(self, idx):
        kind, dim, T1, T2 = make_suite(5, seed0=20)[idx]
        _, _, _, coll, split = build_pipeline(T1, T2)
        psi = av.adjoint_transfer(coll)
        for z1 in interior_points(5, seed=idx):
            values = interior_fibers(coll, split, z1)
            for z2 in mc.eigvals(ref_eval_tau(psi, z1)):
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
        values = interior_fibers(coll, split, interior_points(10, seed=idx, radius=0.9))
        assert np.all(np.abs(values) < 1.0)


class TestFiberSolver:
    """Fibers, all over circle points, take the Hermitian Cayley solve.
    Its accuracy is tested in test_matrix_core, its batching against the
    per-point loop in test_boundary_evaluator."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        return calls

    def test_circle_points_call_eigvalsh(self, eigvalsh_calls):
        T1, T2 = av.generate_pair("triangular-commuting", 8, 3)
        pair = av.ContractionPair.create(T1, T2)
        a = av.analyze(pair)
        assert av.cnu_part(a.psi, a.split).dim >= 4
        av.fibers(a.coll, a.split, 5)
        assert eigvalsh_calls


def block_determinant(coll, z1, z2):
    """det([[z2 I - A*, -z1 C*], [-B*, I - z1 D*]]) for the colligation U."""
    A, B, C, D = (mc.adjoint(block) for block in (coll.A, coll.B, coll.C, coll.D))
    return np.linalg.det(np.block([[z2 * np.eye(coll.r1) - A, -z1 * C],
                                   [-B, np.eye(coll.r2) - z1 * D]]))


def annihilation(T1, T2):
    """(||q(T1, T2)||, sum |c|, the colligation, its split and q)."""
    _, _, _, coll, split = build_pipeline(T1, T2)
    c = av.defining_polynomial(coll, split)
    q = BivariatePolynomial(c)
    return mc.operator_norm(eval_poly_pair(q, T1, T2)), np.sum(np.abs(c)), coll, split, q


def property_pair(kind, dim, seed):
    """A generated pair, or for "unimodular-diag" a diagonal pair whose T2
    has one unimodular entry, so the variety has a V0 sheet."""
    if kind != "unimodular-diag":
        return av.generate_pair(kind, dim, seed)
    rng = np.random.default_rng(seed)
    t1, t2 = (0.9 * np.sqrt(rng.uniform(size=(2, dim)))
              * np.exp(2j * np.pi * rng.uniform(size=(2, dim))))
    t2[0] = np.exp(2j * np.pi * rng.uniform())
    return np.diag(t1), np.diag(t2)


class TestDefiningPolynomial:
    def test_matches_the_block_determinant(self):
        rng = np.random.default_rng(7)
        for label, T1, T2 in PAIRS:
            _, _, _, coll, split = build_pipeline(T1, T2)
            c = av.defining_polynomial(coll, split)
            assert c.shape == (coll.r2 + 1, coll.r1 + 1), label
            assert abs(c[0, coll.r1] - 1.0) <= 1e-13, label
            z = np.sqrt(rng.uniform(size=(2, 6))) * np.exp(2j * np.pi * rng.uniform(size=(2, 6)))
            want = [block_determinant(coll, z1, z2) for z1, z2 in z.T]
            got = BivariatePolynomial(c)(*z)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(c)), label

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([*GENERATOR_KINDS, "unimodular-diag"]),
           dim=st.integers(1, 4), seed=st.integers(0, 10_000))
    def test_annihilates_the_pair_and_the_boundary_samples(self, kind, dim, seed):
        norm, scale, coll, split, q = annihilation(*property_pair(kind, dim, seed))
        assert norm <= 1e-12 * scale
        sample = av.boundary_samples(coll, split, 64)
        z1 = np.exp(1j * sample.theta_grid)[:, None]
        assert np.max(np.abs(q(z1, sample.values))) <= 1e-12 * scale


def blaschke(z, zeros):
    out = np.ones_like(z)
    for a in zeros:
        out = out * (z - a) / (1 - np.conj(a) * z)
    return out


class TestModelPairs:
    """Known answers on (J_n, phi(J_n)): the variety is the graph of phi,
    and a direct sum of model pairs has the union of the graphs."""

    @pytest.mark.parametrize("n, zeros", [(6, [0.4 + 0.3j]), (40, [0.4 + 0.3j, -0.6j])])
    def test_fibers_are_phi(self, n, zeros):
        _, _, _, coll, split = build_pipeline(*model_pair(n, zeros))
        assert (coll.r1, coll.r2, split.k) == (1, len(zeros), 0)
        z1 = np.exp(2j * np.pi * np.arange(97) / 97)
        values = av.fibers(coll, split, 97)
        assert np.max(np.abs(values[:, 0] - blaschke(z1, zeros))) <= 1e-13

    def test_direct_sum_fibers_are_both_graphs(self):
        zeros = ([0.4 + 0.3j], [-0.5, 0.2j])
        (A1, A2), (B1, B2) = model_pair(6, zeros[0]), model_pair(5, zeros[1])
        Z = np.zeros((6, 5))
        _, _, _, coll, split = build_pipeline(np.block([[A1, Z], [Z.T, B1]]),
                                              np.block([[A2, Z], [Z.T, B2]]))
        assert (coll.r1, split.k) == (2, 0)
        z1 = np.exp(2j * np.pi * np.arange(97) / 97)
        want = np.stack([blaschke(z1, zeros[0]), blaschke(z1, zeros[1])], axis=1)
        values = av.fibers(coll, split, 97)
        # each row is ordered by (real, imag), so match both orders
        err = np.minimum(np.abs(values - want).max(axis=1),
                         np.abs(values - want[:, ::-1]).max(axis=1))
        assert np.max(err) <= 1e-13

    @pytest.mark.parametrize("n, zeros", [(6, [0.4 + 0.3j]), (40, [0.4 + 0.3j, -0.6j])])
    def test_defining_polynomial_is_the_graph_equation(self, n, zeros):
        # q = lam (z2 prod(1 - conj(a) z1) - prod(z1 - a)) with |lam| = 1
        _, _, _, coll, split = build_pipeline(*model_pair(n, zeros))
        c = av.defining_polynomial(coll, split)
        top, bottom = np.ones(1, complex), np.ones(1, complex)
        for a in zeros:  # coefficients in ascending powers of z1
            top = np.convolve(top, [1, -np.conj(a)])
            bottom = np.convolve(bottom, [-a, 1])
        want = np.stack([-bottom, top], axis=1)
        assert c.shape == want.shape
        lam = np.vdot(want, c)
        lam /= abs(lam)
        assert np.max(np.abs(c - lam * want)) <= 1e-14 * np.sum(np.abs(c))


class TestJointEigenvalues:
    """The joint eigenvalues lie on the variety because q(T1, T2) = 0 (see
    :func:`variety.defining_polynomial`)."""

    def test_explicit_diagonal_pair(self):
        T1 = np.diag([0.3, 0.4]).astype(complex)
        T2 = np.diag([0.2, -0.5]).astype(complex)
        norm, scale, _, _, q = annihilation(T1, T2)
        assert norm <= 1e-12 * scale
        assert np.all(np.abs(q([0.3, 0.4], [0.2, -0.5])) <= 1e-12 * scale)

    def test_zero_pair_origin(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        c = av.defining_polynomial(coll, split)
        want = np.zeros((3, 3), complex)
        want[0, 2], want[1, 1], want[2, 0] = 1.0, -2.0, 1.0  # (z2 - z1)^2
        np.testing.assert_allclose(c, want, rtol=0, atol=1e-14)

    def test_identity_second_entry_boundary_pair(self):
        T1 = np.diag([0.5]).astype(complex)
        norm, scale, coll, _, q = annihilation(T1, np.eye(1, dtype=complex))
        assert coll.r2 == 0  # q is z2 - 1, constant in z1
        assert norm <= 1e-12 * scale
        assert np.all(np.abs(q(interior_points(5, seed=3), 1.0)) <= 1e-14)

    def test_unitary_t1_has_no_variety(self):
        T1 = np.diag(np.exp(1j * np.array([0.3, 1.1])))
        _, _, _, coll, split = build_pipeline(T1, 0.5 * np.eye(2, dtype=complex))
        with pytest.raises(NumericError, match="empty fiber"):
            av.defining_polynomial(coll, split)

    @pytest.mark.parametrize("idx", range(8))
    def test_generated_pairs(self, idx):
        kind, dim, T1, T2 = make_suite(8, seed0=45)[idx]
        norm, scale, _, _, _ = annihilation(T1, T2)
        assert norm <= 1e-12 * scale


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

    def test_swapped_pair_is_not_validated_again(self, monkeypatch):
        pair = av.ContractionPair.create(*av.generate_pair("diag", 3, seed=2))
        calls = []
        validate = pair_analysis.validate_pair
        monkeypatch.setattr(pair_analysis, "validate_pair",
                            lambda *args: calls.append(args) or validate(*args))
        av.symmetry_residual(pair, 8)
        assert len(calls) == 0

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

    def test_csv_of_empty_fibers_is_the_header(self):
        from andovar.variety import VarietySample, sample_to_csv

        sample = VarietySample(values=np.zeros((4, 0), complex), k=0,
                               theta_grid=np.arange(4) * np.pi / 2)
        assert sample_to_csv(sample) == "theta,re_z1,im_z1,re_z2,im_z2,kind,residual\n"

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
