"""Truncated Hardy-space dilation: assembly, intertwining, minimality."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import andovar as av
import andovar.matrix_core as mc
from andovar import serialize
from andovar.cli import main
from andovar.dilation import _SYMBOL_TOL
from andovar.errors import InputError, PurityError
from andovar.pair_analysis import GENERATOR_KINDS

from conftest import build_pipeline, make_suite, ref_eval_tau


def assemble_pi_oracle(T1, d1, N):
    """Independent assembly: each block row from a fresh matrix power."""
    r1, n = d1.rank, T1.shape[0]
    Pi = np.zeros(((N + 1) * r1, n), complex)
    for k in range(N + 1):
        Pi[k * r1:(k + 1) * r1] = (
            d1.basis.conj().T @ d1.D
            @ np.linalg.matrix_power(T1.conj().T, k))
    return Pi


def pi_loop_oracle(T1, d1, N):
    """The block-by-block loop that the doubling stack replaced."""
    r1, n = d1.rank, T1.shape[0]
    Pi = np.zeros(((N + 1) * r1, n), complex)
    block = d1.basis.conj().T @ d1.D
    for k in range(N + 1):
        Pi[k * r1:(k + 1) * r1] = block
        block = block @ T1.conj().T
    return Pi


def symbols_loop_oracle(coll, count):
    """Psi_0..Psi_(count-1) by the running recurrence on Psi = tau_(U*)."""
    psi = av.adjoint_transfer(coll)
    out, acc = [psi.A], psi.C
    for _ in range(count - 1):
        out.append(psi.B @ acc)
        acc = psi.D @ acc
    return np.array(out)


def bd_loop_oracle(coll, count):
    """B D^j for j < count, one block of rows each."""
    out, power = [], coll.B
    for _ in range(count):
        out.append(power)
        power = power @ coll.D
    return np.array(out).reshape(count * coll.r1, coll.r2)


def mpsi_adjoint_pi_correlation(dil):
    """The O(N^2) block correlation: block k is sum_q Psi_q* Pi_(k+q)."""
    r1 = dil.r1
    adj_row = dil.symbols.conj().transpose(2, 0, 1).reshape(r1, -1)
    out = np.empty_like(dil.Pi)
    for k in range(dil.N + 1):
        out[k * r1:(k + 1) * r1] = adj_row[:, :dil.rows - k * r1] @ dil.Pi[k * r1:]
    return out


J_HALF = np.array([[0, 0.5], [0, 0]], complex)
EDGE_PAIRS = {
    "t2-unitary": (np.diag([0.5, 0.3]), np.diag([1.0, 1j])),
    "t1-zero": (np.zeros((3, 3)), np.diag([0.5, -0.2j, 0.7])),
    "nilpotent": (J_HALF, J_HALF),
}


def check_stacks_against_loops(T1, T2, extra):
    """Pi, the symbols and B D^j agree with their loops within 1e-14, and
    MPsi* Pi with the correlation within 1e-13; ``extra`` is None for the
    automatic degree, else the excess of an explicit N over it."""
    pair, d1, d2, coll, _ = build_pipeline(T1, T2)
    N = None if extra is None else av.truncation_degree(pair) + extra
    dil = av.build_dilation(pair, coll, d1, N=N)
    np.testing.assert_allclose(dil.Pi, pi_loop_oracle(pair.T1, d1, dil.N), rtol=0, atol=1e-14)
    np.testing.assert_allclose(dil.symbols, symbols_loop_oracle(coll, dil.N + 1),
                               rtol=0, atol=1e-14)
    BD = mc.power_stack(coll.B, coll.D, dil.N + 1).reshape(dil.rows, coll.r2)
    np.testing.assert_allclose(BD, bd_loop_oracle(coll, dil.N + 1), rtol=0, atol=1e-14)
    np.testing.assert_allclose(dil.mpsi_adjoint_pi, mpsi_adjoint_pi_correlation(dil),
                               rtol=0, atol=1e-13)


class TestStacksAgainstLoops:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(GENERATOR_KINDS), dim=st.integers(1, 6),
           seed=st.integers(0, 10_000), extra=st.none() | st.integers(0, 40))
    def test_generated_pairs(self, kind, dim, seed, extra):
        check_stacks_against_loops(*av.generate_pair(kind, dim, seed), extra)

    @pytest.mark.parametrize("extra", [None, 0, 5])
    @pytest.mark.parametrize("name", EDGE_PAIRS)
    def test_edge_pairs(self, name, extra):
        check_stacks_against_loops(*EDGE_PAIRS[name], extra)

    def test_tail_bounds_from_one_power(self, monkeypatch):
        pair, d1, d2, coll, _ = build_pipeline(*av.generate_pair("jordan-poly", 4, 3))
        powers = []
        matrix_power = np.linalg.matrix_power

        def recording_power(M, k):
            powers.append(k)
            return matrix_power(M, k)

        monkeypatch.setattr(np.linalg, "matrix_power", recording_power)
        dil = av.build_dilation(pair, coll, d1)
        assert powers == [dil.N]
        T1s = mc.adjoint(pair.T1)
        tail = matrix_power(T1s, dil.N)
        assert dil.tail_bound_prev == mc.operator_norm(tail)
        assert dil.tail_bound == mc.operator_norm(tail @ T1s)


class TestAssembly:
    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_pair_structure(self, m):
        Z = np.zeros((m, m), complex)
        pair, d1, d2, coll, _ = build_pipeline(Z, Z)
        dil = av.build_dilation(pair, coll, d1, N=3)
        # embedding is the inclusion into the constant coefficients
        np.testing.assert_allclose(dil.Pi[:m], np.eye(m), atol=1e-14)
        np.testing.assert_allclose(dil.Pi[m:], 0.0, atol=1e-14)
        # multiplier is the block shift times W* = I
        np.testing.assert_allclose(dil.MPsi, dil.Mz, atol=1e-14)

    def test_nilpotent_exact_isometry(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, _ = build_pipeline(J, J)
        dil = av.build_dilation(pair, coll, d1, N=2)
        np.testing.assert_allclose(
            dil.Pi.conj().T @ dil.Pi, np.eye(2), atol=1e-12)
        assert dil.tail_bound == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle_assembly(self, seed):
        T1, T2 = av.generate_pair("triangular-commuting", 3, seed=seed)
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        np.testing.assert_allclose(
            dil.Pi, assemble_pi_oracle(pair.T1, d1, dil.N), atol=1e-12)
        assert mc.operator_norm(
            dil.Pi.conj().T @ dil.Pi - np.eye(pair.dim)
        ) <= dil.tail_bound ** 2 + 1e-10

    def test_truncation_degree_floor_enforced(self):
        T1, T2 = av.generate_pair("diag", 3, seed=1)
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        n_min = av.truncation_degree(pair, 1e-9)
        with pytest.raises(InputError):
            av.build_dilation(pair, coll, d1, N=n_min - 1)
        with pytest.raises(InputError):
            av.build_dilation(pair, coll, d1, N=5000)

    def test_rejects_nonpure(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, _ = build_pipeline(J, np.eye(2, dtype=complex))
        pair_swapped = av.ContractionPair.create(pair.T2, pair.T1)
        d1s = av.defect(pair_swapped.T1)
        with pytest.raises(PurityError):
            av.build_dilation(pair_swapped, coll, d1s)


class TestIntertwining:
    def test_nilpotent_zero_residuals(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, _ = build_pipeline(J, J)
        dil = av.build_dilation(pair, coll, d1, N=3)
        rep = av.intertwining_residuals(dil, pair)
        assert rep.res_z <= 1e-10
        assert rep.res_psi <= 1e-10

    def test_zero_pair_zero_residuals(self, zero_pair_m2):
        pair, d1, d2, coll, _ = zero_pair_m2
        dil = av.build_dilation(pair, coll, d1, N=2)
        rep = av.intertwining_residuals(dil, pair)
        assert rep.res_z <= 1e-12
        assert rep.res_psi <= 1e-12

    @pytest.mark.parametrize("idx", range(8))
    def test_residuals_below_computed_bounds(self, idx):
        kind, dim, T1, T2 = make_suite(8, dims=(2, 3, 4), seed0=60, radius=0.8)[idx]
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        rep = av.intertwining_residuals(dil, pair)
        assert rep.res_z <= rep.bound_z + 1e-9
        assert rep.res_psi <= rep.bound_psi + 1e-9

    def test_res_psi_computed_once_per_dilate(self, monkeypatch, capsys, tmp_path):
        # r2 = 2 < n = 3, so only res_z and res_psi take norms of shape (rows, n)
        path = tmp_path / "pair.json"
        path.write_text(serialize.pair_to_json(np.diag([0.5, 0.3, 0.2]),
                                               np.diag([1.0, 0.4, 0.1j])))
        shapes = []
        norm = mc.operator_norm
        monkeypatch.setattr(mc, "operator_norm", lambda M: shapes.append(np.shape(M)) or norm(M))
        assert main(["dilate", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert shapes.count((payload["rows"], 3)) == 2
        assert payload["res_psi"] > 0.0

    @pytest.mark.parametrize("idx", range(4))
    def test_compressions_recover_the_pair(self, idx):
        kind, dim, T1, T2 = make_suite(4, dims=(2, 3), seed0=70, radius=0.75)[idx]
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        rep = av.compression_residuals(dil, pair)
        assert rep.res_t1 <= rep.bound_t1 + 1e-9
        assert rep.res_t2 <= rep.bound_t2 + 1e-9


class TestMinimality:
    def test_zero_pair_full_rank(self, zero_pair_m2):
        pair, d1, d2, coll, _ = zero_pair_m2
        dil = av.build_dilation(pair, coll, d1, N=3)
        assert av.minimality_defect(dil) == 0

    def test_jordan_full_defect_space(self):
        # I - T1 T1* = diag(3/4, 1) has rank 2
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, _ = build_pipeline(J, J)
        assert d1.rank == 2
        dil = av.build_dilation(pair, coll, d1, N=2)
        # oracle: rank via raw SVD of the stacked Krylov blocks
        blocks, cur = [], dil.Pi
        for _ in range(dil.N + 1):
            blocks.append(cur)
            cur = dil.Mz @ cur
        s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
        assert int(np.sum(s > 1e-10)) == dil.rows
        assert av.minimality_defect(dil) == 0

    def test_empty_first_defect(self):
        # r1 = 0: the rank of the (0, n) block G is 0, and so is the defect
        empty = np.zeros((0, 0), complex)
        coll = av.Colligation(A=empty, B=empty, C=empty, D=empty,
                              basis1=np.zeros((2, 0), complex),
                              basis2=np.zeros((2, 0), complex))
        pair = av.ContractionPair.create(np.eye(2), np.zeros((2, 2)))
        dil = av.TruncatedDilation(N=3, n=2, Pi=np.zeros((0, 2), complex), coll=coll,
                                   pair=pair, tail_bound=0.0, tail_bound_prev=0.0,
                                   d1_norm=0.0)
        assert av.minimality_defect(dil) == 0

    @pytest.mark.parametrize("idx", range(4))
    def test_generated_pairs_minimal(self, idx):
        kind, dim, T1, T2 = make_suite(4, dims=(2, 3), seed0=80, radius=0.75)[idx]
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        assert av.minimality_defect(dil) == 0


class TestMultiplierIsometry:
    def test_shift_times_unitary(self, zero_pair_m2):
        pair, d1, d2, coll, _ = zero_pair_m2
        dil = av.build_dilation(pair, coll, d1, N=4)
        rep = av.mpsi_isometry_residual(dil, coll)
        assert rep.restricted <= 1e-12

    def test_constant_identity_multiplier(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        pair, d1, d2, coll, _ = build_pipeline(J, np.eye(2, dtype=complex))
        dil = av.build_dilation(pair, coll, d1, N=3)
        np.testing.assert_allclose(dil.MPsi, np.eye(dil.rows), atol=1e-12)
        rep = av.mpsi_isometry_residual(dil, coll)
        assert rep.raw <= 1e-12

    @pytest.mark.parametrize("idx", range(4))
    def test_restricted_residual_small(self, idx):
        kind, dim, T1, T2 = make_suite(4, dims=(2, 3), seed0=90, radius=0.7)[idx]
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        # window generous enough for the multiplier symbols to decay
        dil = av.build_dilation(pair, coll, d1, N=120)
        rep = av.mpsi_isometry_residual(dil, coll)
        assert rep.q_eff <= dil.N
        assert rep.restricted <= 1e-6


def q_eff_loop_oracle(coll, N, symbol_tol):
    """The linear symbol-horizon loop that ``first_power_below`` replaced:
    the first q in 1..N+1 with ||B|| ||C|| ||D*^(q-1)|| <= symbol_tol."""
    Dstar = mc.adjoint(coll.D)
    bc = mc.operator_norm(coll.B) * mc.operator_norm(coll.C)
    power = np.eye(Dstar.shape[0], dtype=complex)
    for q in range(1, N + 2):
        if bc * mc.operator_norm(power) <= symbol_tol:
            return q
        power = Dstar @ power
    return N + 1


def truncation_scan_oracle(T1, tol_trunc):
    """Linear scan for the first N with ||T1^N|| < tol_trunc."""
    power = np.eye(T1.shape[0], dtype=complex)
    for N in range(1, av.pair_analysis.TRUNCATION_CAP + 1):
        power = power @ T1
        if mc.operator_norm(power) < tol_trunc:
            return N
    return av.pair_analysis.TRUNCATION_CAP


class TestPowerSearchOracles:
    """N and q_eff come from ``first_power_below``; on the suite's pairs
    they equal the linear scans they replaced."""

    POPULATION = make_suite(12) + make_suite(4, dims=(2, 3), seed0=90, radius=0.7)

    @pytest.mark.parametrize("idx", range(len(POPULATION)))
    def test_truncation_degree_and_q_eff(self, idx):
        kind, dim, T1, T2 = self.POPULATION[idx]
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        assert dil.N == truncation_scan_oracle(pair.T1, pair.tol.trunc)
        for dil_n in (dil, av.build_dilation(pair, coll, d1, N=max(120, dil.N))):
            rep = av.mpsi_isometry_residual(dil_n, coll)
            assert rep.q_eff == q_eff_loop_oracle(coll, dil_n.N, _SYMBOL_TOL)


class TestAlgebra:
    @pytest.mark.parametrize("idx", range(3))
    def test_multiplier_commutes_with_shift(self, idx):
        kind, dim, T1, T2 = make_suite(3, dims=(2, 3), seed0=95, radius=0.75)[idx]
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        assert mc.operator_norm(dil.Mz @ dil.MPsi - dil.MPsi @ dil.Mz) <= 1e-12

    def test_symbols_match_transfer_eval(self):
        T1, T2 = av.generate_pair("triangular-commuting", 3, seed=17, radius=0.7)
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        psi = av.adjoint_transfer(coll)
        symbols = av.taylor_symbols(psi, dil.N + 1)
        z = 0.6 - 0.2j
        total = sum(sym * z ** q for q, sym in enumerate(symbols))
        dnorm = mc.operator_norm(coll.D)
        tail = abs(z) ** (dil.N + 1) / max(1e-12, 1 - abs(z) * dnorm)
        assert mc.operator_norm(total - ref_eval_tau(psi, z)) <= tail + 1e-12
