"""Matrix-free dilation residuals against dense formulas, and their cost."""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

import andovar as av
import andovar.dilation as dilation
import andovar.matrix_core as mc
from andovar.errors import InputError
from andovar.pair_analysis import GENERATOR_KINDS

from conftest import build_pipeline

ORACLE_ATOL = 1e-12


def dense_residuals(dil, pair, q_eff):
    """Every residual from the dense Mz and MPsi, by the defining formulas."""
    Pi, Mz, MPsi = dil.Pi, dil.Mz, dil.MPsi
    G = mc.adjoint(MPsi) @ MPsi - np.eye(dil.rows)
    keep = (dil.N + 1 - q_eff) * dil.r1
    return {
        "res_z": mc.operator_norm(Pi @ mc.adjoint(pair.T1) - mc.adjoint(Mz) @ Pi),
        "res_psi": mc.operator_norm(Pi @ mc.adjoint(pair.T2) - mc.adjoint(MPsi) @ Pi),
        "res_t1": mc.operator_norm(mc.adjoint(Pi) @ Mz @ Pi - pair.T1),
        "res_t2": mc.operator_norm(mc.adjoint(Pi) @ MPsi @ Pi - pair.T2),
        "raw": mc.operator_norm(G),
        "restricted": mc.operator_norm(G[:keep, :keep]) if keep > 0 else float("nan"),
    }


def dense_minimality_defect(dil):
    blocks, current = [], dil.Pi
    Mz = dil.Mz
    for _ in range(dil.N + 1):
        blocks.append(current)
        current = Mz @ current
    return dil.rows - int(np.linalg.matrix_rank(np.hstack(blocks)))


class TestDenseOracle:
    @pytest.mark.parametrize("truncation", ["auto", "small"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_residuals_match_dense_formulas(self, kind, dim, truncation):
        T1, T2 = av.generate_pair(kind, dim, seed=300 + dim, radius=0.75)
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        if truncation == "auto":
            dil = av.build_dilation(pair, coll, d1)
        else:
            # a loose tail target admits a small explicit degree
            n_min = av.truncation_degree(pair, 1e-3)
            dil = av.build_dilation(pair, coll, d1, N=n_min + 2, tol_trunc=1e-3)
        inter = av.intertwining_residuals(dil, pair)
        comp = av.compression_residuals(dil, pair)
        iso = av.mpsi_isometry_residual(dil, coll)
        got = {"res_z": inter.res_z, "res_psi": inter.res_psi,
               "res_t1": comp.res_t1, "res_t2": comp.res_t2,
               "raw": iso.raw, "restricted": iso.restricted}
        want = dense_residuals(dil, pair, iso.q_eff)
        for name, value in want.items():
            if np.isnan(value):
                assert np.isnan(got[name]), name
            else:
                assert abs(got[name] - value) <= ORACLE_ATOL, (name, got[name], value)
        assert av.minimality_defect(dil) == dense_minimality_defect(dil)
        assert comp.bound_t2 == dil.tail_bound ** 2 + inter.res_psi

    def test_dense_assembly_refuses_past_the_row_limit(self, monkeypatch, zero_pair_m2):
        pair, d1, d2, coll, _ = zero_pair_m2
        dil = av.build_dilation(pair, coll, d1, N=4)
        monkeypatch.setattr(dilation, "DENSE_ROWS_MAX", dil.rows - 1)
        with pytest.raises(InputError):
            dil.Mz
        with pytest.raises(InputError):
            dil.MPsi
        # the residuals never assemble the dense operators
        assert av.minimality_defect(dil) == 0
        assert av.intertwining_residuals(dil, pair).res_psi <= 1e-12


class TestLargeDegree:
    def test_dim8_radius097_dilate_sequence(self):
        """The dim-8 diagonal pair at radius 0.97: N = 371, 2976 rows.

        Dense Mz and MPsi would take 283 MB and tens of seconds here.
        """
        T1, T2 = av.generate_pair("diag", 8, seed=1, radius=0.97)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            pair, d1, d2, coll, _ = build_pipeline(T1, T2)
            dil = av.build_dilation(pair, coll, d1, tol_trunc=pair.tol.trunc,
                                    tol_pure=pair.tol.pure)
            inter = av.intertwining_residuals(dil, pair)
            comp = av.compression_residuals(dil, pair)
            defect = av.minimality_defect(dil)
            iso = av.mpsi_isometry_residual(dil, coll)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (dil.N, dil.rows) == (371, 2976)
        assert elapsed < 3.0, f"{elapsed:.2f}s"
        assert peak < 32 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"
        isometry_defect = mc.operator_norm(mc.adjoint(dil.Pi) @ dil.Pi - np.eye(dil.n))
        assert isometry_defect <= dil.tail_bound ** 2 + 1e-9
        assert inter.res_z <= inter.bound_z + 1e-9
        assert inter.res_psi <= inter.bound_psi + 1e-9
        assert comp.res_t1 <= comp.bound_t1 + 1e-9
        assert comp.res_t2 <= comp.bound_t2 + 1e-9
        assert defect == 0
        assert iso.restricted <= 1e-6
