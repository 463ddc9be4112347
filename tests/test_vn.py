"""Polynomial calculus and the certified norm chain."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import andovar as av
import andovar.matrix_core as mc
import andovar.vn
from andovar.errors import ChainViolationError, InputError, PurityError
from andovar.vn import (
    BivariatePolynomial,
    SupEstimate,
    sup_on_bidisc,
    sup_on_variety,
    vn_report,
)

from conftest import build_pipeline, make_suite
from test_boundary_evaluator import NEAR_POLE

P_Z1_MINUS_Z2 = BivariatePolynomial(np.array([[0, -1], [1, 0]], complex))
P_Z1_PLUS_Z2 = BivariatePolynomial(np.array([[0, 1], [1, 0]], complex))
P_Z1_TIMES_Z2 = BivariatePolynomial(np.array([[0, 0], [0, 1]], complex))


def random_poly(max_total_degree, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(max_total_degree + 1, max_total_degree + 1)) \
        + 1j * rng.normal(size=(max_total_degree + 1, max_total_degree + 1))
    j = np.arange(max_total_degree + 1)
    mask = (j[:, None] + j[None, :]) <= max_total_degree
    return BivariatePolynomial(c * mask)


def _torus_sup_oracle(p, n=1024, patch=33):
    """Max of |p| on an unchunked n x n ifft2 grid, refined by Horner on a
    patch x patch grid two grid steps either side of the grid argmax."""
    grid = np.abs(np.fft.ifft2(p.coeffs, s=(n, n), norm="forward"))
    m1, m2 = np.unravel_index(np.argmax(grid), grid.shape)
    offsets = np.linspace(-2 * np.pi / n, 2 * np.pi / n, patch)
    z1 = np.exp(1j * (2 * np.pi * m1 / n + offsets))
    z2 = np.exp(1j * (2 * np.pi * m2 / n + offsets))
    return max(float(grid.max()), float(np.max(np.abs(p(z1[:, None], z2[None, :])))))


class TestPolynomial:
    def test_trimming(self):
        p = BivariatePolynomial(np.array([[1, 0, 0], [0, 0, 0]], complex))
        assert p.coeffs.shape == (1, 1)
        assert p.deg1 == 0 and p.deg2 == 0

    def test_scalar_eval(self):
        p = random_poly(3, seed=1)
        z1, z2 = 0.3 + 0.1j, -0.2 + 0.5j
        direct = sum(
            p.coeffs[j, k] * z1 ** j * z2 ** k
            for j in range(p.deg1 + 1) for k in range(p.deg2 + 1))
        assert p(z1, z2) == pytest.approx(direct, abs=1e-13)

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            BivariatePolynomial(np.array([[np.nan]]))

    def test_rejects_a_one_dimensional_grid(self):
        with pytest.raises(InputError, match="2-dimensional"):
            BivariatePolynomial(np.ones(3))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_grid_is_the_zero_polynomial(self, shape):
        p = BivariatePolynomial(np.zeros(shape))
        assert (p.coeffs.shape, p.coeffs.dtype) == ((1, 1), np.complex128)
        assert p.coeffs[0, 0] == 0 and p.deg1 == p.deg2 == 0

    def test_lipschitz_bound_dominates_gradient(self):
        p = random_poly(3, seed=4)
        L = p.lipschitz_bound()
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(50):
            t = np.exp(2j * np.pi * rng.uniform(size=2))
            grad1 = abs(p(t[0] * (1 + eps), t[1]) - p(t[0], t[1])) / eps
            grad2 = abs(p(t[0], t[1] * (1 + eps)) - p(t[0], t[1])) / eps
            assert grad1 <= L * (1 + 1e-3) + 1e-9
            assert grad2 <= L * (1 + 1e-3) + 1e-9


class TestEvalPolyPair:
    def test_constant(self):
        out = av.eval_poly_pair(BivariatePolynomial(np.array([[1.0]])),
                                np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_allclose(out, np.eye(2))

    def test_difference_of_equal_pair(self):
        T = np.diag([0.3, 0.1]).astype(complex)
        out = av.eval_poly_pair(P_Z1_MINUS_Z2, T, T)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_nilpotent_product(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        out = av.eval_poly_pair(P_Z1_TIMES_Z2, J, J)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_rejects_unequal_dimensions(self):
        with pytest.raises(InputError, match="square of equal dimension"):
            av.eval_poly_pair(P_Z1_MINUS_Z2, np.zeros((2, 2)), np.zeros((3, 3)))

    def test_against_diagonal_oracle(self):
        # diagonal pairs reduce functional calculus to scalar evaluation
        T1 = np.diag([0.3, -0.2 + 0.4j]).astype(complex)
        T2 = np.diag([0.1j, 0.5]).astype(complex)
        p = random_poly(4, seed=7)
        out = av.eval_poly_pair(p, T1, T2)
        expected = np.diag([p(T1[0, 0], T2[0, 0]), p(T1[1, 1], T2[1, 1])])
        np.testing.assert_allclose(out, expected, atol=1e-13)


class TestSups:
    def test_bidisc_products_and_sums(self):
        assert sup_on_bidisc(P_Z1_TIMES_Z2, 128).value == pytest.approx(1.0, abs=1e-12)
        assert sup_on_bidisc(P_Z1_PLUS_Z2, 128).value == pytest.approx(2.0, abs=1e-12)
        assert sup_on_bidisc(P_Z1_MINUS_Z2, 128).value == pytest.approx(2.0, abs=1e-12)

    def test_bidisc_rejects_coarse_grid(self):
        with pytest.raises(InputError):
            sup_on_bidisc(random_poly(4, seed=2), n_grid=8)

    def test_torus_cap_counts_rows_and_chunk(self):
        # only the check runs: no accepted grid near the cap is evaluated
        p = BivariatePolynomial(np.ones((13, 13)))  # degree 12 in z1: 58 n + 256 * 13 entries
        largest = (andovar.vn._TORUS_ENTRIES_MAX - 256 * 13) // 58
        andovar.vn._check_torus_grid(p, largest)
        andovar.vn._check_torus_grid(p, 4096)
        with pytest.raises(InputError, match="too fine"):
            andovar.vn._check_torus_grid(p, largest + 1)

    @pytest.mark.parametrize("degree", [0, 1, 4, 12])
    def test_bidisc_matches_horner(self, degree):
        column = BivariatePolynomial(random_poly(degree, seed=40 + degree).coeffs[:, :1])
        for p in (random_poly(degree, seed=20 + degree), column):
            for n in (max(4 * (p.deg1 + p.deg2), 1), 128):
                z = np.exp(2j * np.pi * np.arange(n) / n)
                horner = float(np.max(np.abs(p(z[:, None], z[None, :]))))
                value = sup_on_bidisc(p, n).value
                assert abs(value - horner) <= 1e-12 * max(1.0, horner), (p.coeffs.shape, n)

    def test_bidisc_is_bit_reproducible(self):
        p = random_poly(6, seed=11)
        assert sup_on_bidisc(p, 512) == sup_on_bidisc(p, 512)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_bidisc_slack_bounds_the_sup(self, d1, d2, seed, coarsest):
        rng = np.random.default_rng(seed)
        p = BivariatePolynomial(rng.normal(size=(d1 + 1, d2 + 1))
                                + 1j * rng.normal(size=(d1 + 1, d2 + 1)))
        n = max(4 * (p.deg1 + p.deg2), 1) if coarsest else 512
        est = sup_on_bidisc(p, n)
        assert _torus_sup_oracle(p) <= est.value + est.slack

    @pytest.mark.parametrize("d1, n", [(4, 4096), (12, 4096), (40, 2048)])
    def test_bidisc_peak_is_within_the_stated_count(self, d1, n):
        # the count _check_torus_grid caps; a dense n x n complex grid alone
        # would take 256 MB at n = 4096
        rng = np.random.default_rng(d1)
        p = BivariatePolynomial(rng.normal(size=(d1 + 1, 3)) + 1j * rng.normal(size=(d1 + 1, 3)))
        sup_on_bidisc(p, n)  # a first call also pays numpy's lazy imports
        tracemalloc.start()
        try:
            sup_on_bidisc(p, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * ((2 * d1 + 34) * n + 256 * (d1 + 1)), peak

    def test_variety_sup_on_diagonal(self, zero_pair_m2):
        _, _, _, coll, split = zero_pair_m2
        assert sup_on_variety(P_Z1_MINUS_Z2, coll, split, 360).value <= 1e-12
        assert sup_on_variety(P_Z1_PLUS_Z2, coll, split, 360).value == pytest.approx(
            2.0, abs=1e-12)

    def test_variety_sup_constant_sheet(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        _, _, _, coll, split = build_pipeline(J, np.eye(2, dtype=complex))
        p_z2 = BivariatePolynomial(np.array([[0, 1]], complex))
        assert sup_on_variety(p_z2, coll, split, 64).value == pytest.approx(
            1.0, abs=1e-12)

    def test_refinement_monotone(self, scalar_half_pair):
        _, _, _, coll, split = scalar_half_pair
        p = random_poly(3, seed=9)
        v180 = sup_on_variety(p, coll, split, 180).value
        v360 = sup_on_variety(p, coll, split, 360).value
        v720 = sup_on_variety(p, coll, split, 720).value
        assert v180 <= v360 + 1e-15 <= v720 + 2e-15


class TestReport:
    def test_zero_pair_difference(self):
        Z = np.zeros((1, 1), complex)
        pair = av.ContractionPair.create(Z, Z)
        rep = vn_report(pair, P_Z1_MINUS_Z2)
        assert rep.lhs == 0.0
        assert rep.sup_variety <= 1e-12
        assert rep.sup_bidisc == pytest.approx(2.0, abs=1e-12)

    def test_nilpotent_sum(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair = av.ContractionPair.create(J, J)
        rep = vn_report(pair, P_Z1_PLUS_Z2)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)  # ||2 T1||
        assert rep.lhs <= rep.sup_variety + rep.slack
        assert rep.sup_variety <= rep.sup_bidisc + rep.slack
        # dense-grid oracle agrees within combined slack
        dense = vn_report(pair, P_Z1_PLUS_Z2, n_theta=2880)
        assert abs(dense.sup_variety - rep.sup_variety) <= rep.slack

    def test_diag_pair_chain(self):
        pair = av.ContractionPair.create(
            np.diag([0.3, 0.4]).astype(complex), np.diag([0.2, -0.5]).astype(complex))
        p = BivariatePolynomial(np.array([[0, -1], [0, 1]], complex))  # z1 z2 - z2
        rep = vn_report(pair, p)
        assert rep.margins[0] >= 0 or rep.margins[0] >= -rep.slack
        assert rep.margins[1] >= -rep.slack

    @pytest.mark.xfail(strict=True, reason=(
        "the Lipschitz slack bounds how fast p moves along a fixed fiber, not "
        "how fast the fiber moves; ROADMAP open item 1"))
    def test_variety_slack_misses_the_racing_fiber(self):
        # ||D|| = 0.99994: the fiber races past theta = -2.1968 between grid
        # points, and the true variety sup is about 2
        pair = av.ContractionPair.create(*NEAR_POLE)
        p = BivariatePolynomial(np.array([[1.0, np.exp(1.8326j)]]))
        rep = vn_report(pair, p)
        assert rep.sup_bidisc == pytest.approx(2.0, abs=1e-5)
        assert rep.sup_variety + rep.slack >= 1.99

    def test_requires_pure_t1(self):
        pair = av.ContractionPair.create(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(PurityError):
            vn_report(pair, P_Z1_PLUS_Z2)

    def test_torus_inequality_uses_the_torus_slack(self, monkeypatch):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair = av.ContractionPair.create(J, J)
        rep = vn_report(pair, P_Z1_PLUS_Z2)
        torus_slack = sup_on_bidisc(P_Z1_PLUS_Z2).slack
        assert torus_slack < rep.slack
        # below sup_variety by more than the torus slack, less than the
        # variety slack
        fake = SupEstimate(value=rep.sup_variety - 0.5 * (torus_slack + rep.slack),
                           slack=torus_slack, grid=512)
        monkeypatch.setattr(andovar.vn, "sup_on_bidisc", lambda p, n_grid: fake)
        with pytest.raises(ChainViolationError):
            vn_report(pair, P_Z1_PLUS_Z2)

    def test_classical_two_variable_bound(self):
        # lhs <= torus sup holds even with a boundary-touching second entry
        T1 = np.diag([0.5]).astype(complex)
        pair = av.ContractionPair.create(T1, np.eye(1, dtype=complex))
        for seed in range(5):
            p = random_poly(3, seed=seed)
            rep = vn_report(pair, p)
            assert rep.lhs <= rep.sup_bidisc + rep.slack

    def test_report_serializes(self):
        Z = np.zeros((1, 1), complex)
        pair = av.ContractionPair.create(Z, Z)
        d = vn_report(pair, P_Z1_PLUS_Z2).to_dict()
        assert set(d) == {"lhs", "sup_variety", "sup_bidisc", "slack", "margins",
                          "grids", "pair_digest", "skipped_thetas"}
        assert d["grids"] == {"n_theta": 720, "torus_grid": 512}

    @pytest.mark.parametrize("idx", range(6))
    def test_generated_instances(self, idx):
        kind, dim, T1, T2 = make_suite(6, seed0=100)[idx]
        pair = av.ContractionPair.create(T1, T2)
        p = random_poly(4, seed=300 + idx)
        rep = vn_report(pair, p)
        assert rep.lhs <= rep.sup_variety + rep.slack
        assert rep.sup_variety <= rep.sup_bidisc + rep.slack
