"""Acceptance criteria, one test per criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import andovar as av
import andovar.matrix_core as mc
from andovar import serialize
from andovar.cli import main as cli_main
from andovar.vn import BivariatePolynomial, sup_on_bidisc, vn_report

from conftest import build_pipeline, interior_points, make_suite, random_unit_vectors
from test_colligation import action_residuals
from test_vn import random_poly

DATA_DIR = Path(__file__).parent / "data"


def criterion(num, description, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:2d} [{description}]: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"\nACCEPTANCE {num:2d} [{description}]: PASS ({elapsed:.2f}s)")
            if budget is not None:
                assert elapsed < budget, (
                    f"criterion {num} exceeded its runtime budget: "
                    f"{elapsed:.2f}s >= {budget}s")
        return wrapper
    return deco


@criterion(1, "zero-pair closed form", budget=1.0)
def test_criterion_01_zero_pair_closed_form():
    for m in (1, 2, 4):
        Z = np.zeros((m, m), complex)
        pair, d1, d2, coll, split = build_pipeline(Z, Z)
        target = np.block([
            [np.zeros((m, m)), np.eye(m)],
            [np.eye(m), np.zeros((m, m))],
        ])
        assert mc.operator_norm(coll.matrix - target) <= 1e-12
        psi = av.adjoint_transfer(coll)
        for z in interior_points(20, seed=m, radius=0.99):
            assert mc.operator_norm(av.eval_tau(psi, z) - z * np.eye(m)) <= 1e-12
        sample = av.boundary_samples(coll, split, 60)
        z1 = np.exp(1j * sample.theta_grid)
        assert np.all(np.abs(sample.values - z1[:, None]) <= 1e-10)


@criterion(2, "colligation unitarity and defining action", budget=30.0)
def test_criterion_02_colligation_invariants():
    suite = make_suite(200, dims=(2, 3, 4, 5, 6, 7, 8), seed0=2000)
    for idx, (kind, dim, T1, T2) in enumerate(suite):
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        assert coll.unitarity_residual() <= 1e-10, (kind, dim, idx)
        H = random_unit_vectors(dim, 100, seed=5000 + idx)
        assert np.max(action_residuals(pair, d1, d2, coll, H)) <= 1e-10, (kind, dim, idx)


@criterion(3, "defect series residual envelope")
def test_criterion_03_series_envelope():
    suite = make_suite(50, dims=(2, 3, 4, 5, 6), seed0=3000, radius=0.85)
    for idx, (kind, dim, T1, T2) in enumerate(suite):
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        rng = np.random.default_rng(idx)
        h = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        h /= np.linalg.norm(h)
        N = av.truncation_degree(pair.T1, 1e-10)
        m_max = max(50, N - 2)
        rep = av.defect_series_residuals(pair, coll, h, m_max=m_max)
        # vector envelope ||T1*^(m+2) h|| dominates every partial-sum residual
        # and is itself dominated by the operator-norm form of the bound
        assert np.all(rep.residuals <= rep.tail_bounds + 1e-10), (kind, dim, idx)
        assert rep.residuals[max(0, N - 2)] <= 1e-9, (kind, dim, idx)


@criterion(4, "transfer-function isometry identity")
def test_criterion_04_schur_identity():
    suite = make_suite(100, seed0=4000)
    for idx, (kind, dim, T1, T2) in enumerate(suite):
        _, _, _, coll, _ = build_pipeline(T1, T2)
        psi = av.adjoint_transfer(coll)
        tau = av.TransferFunction(coll.A, coll.B, coll.C, coll.D)
        points = interior_points(50, seed=6000 + idx)
        tf = psi if idx % 2 else tau
        for z in points:
            assert av.schur_identity_residual(tf, z) <= 1e-9, (kind, dim, idx)


@criterion(5, "boundary innerness of the multiplier")
def test_criterion_05_innerness():
    # every theta is kept: Psi of a pair with T1 pure has no boundary pole,
    # and a pole would raise NumericError
    suite = make_suite(25, seed0=5000)
    for idx, (kind, dim, T1, T2) in enumerate(suite):
        _, _, _, coll, _ = build_pipeline(T1, T2)
        scan = av.boundary_scan(av.adjoint_transfer(coll), n_theta=720)
        assert scan.max_deviation() <= 1e-6, (kind, dim, idx)
        assert len(scan.thetas) == 720, (kind, dim, idx)


@criterion(6, "dilation intertwining, compression, minimality")
def test_criterion_06_dilation():
    suite = make_suite(12, dims=(2, 3, 4), seed0=6000, radius=0.75)
    for idx, (kind, dim, T1, T2) in enumerate(suite):
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        inter = av.intertwining_residuals(dil, pair)
        assert inter.res_z <= inter.bound_z + 1e-9, (kind, dim, idx)
        assert inter.res_psi <= inter.bound_psi + 1e-9, (kind, dim, idx)
        comp = av.compression_residuals(dil, pair)
        assert comp.res_t1 <= comp.bound_t1 + 1e-9, (kind, dim, idx)
        assert comp.res_t2 <= comp.bound_t2 + 1e-9, (kind, dim, idx)
        assert av.minimality_defect(dil) == 0, (kind, dim, idx)
    # nilpotent first entries reach exact residuals at finite degree
    for idx in range(6):
        T1, T2 = av.generate_pair("jordan-poly", 3 + idx % 2, seed=6600 + idx)
        pair, d1, d2, coll, _ = build_pipeline(T1, T2)
        dil = av.build_dilation(pair, coll, d1)
        assert dil.tail_bound == 0.0
        inter = av.intertwining_residuals(dil, pair)
        comp = av.compression_residuals(dil, pair)
        assert max(inter.res_z, inter.res_psi, comp.res_t1, comp.res_t2) <= 1e-10
        assert av.minimality_defect(dil) == 0


@criterion(7, "canonical split and interior spectra")
def test_criterion_07_split_and_interior_spectra():
    # pure-pure pairs: no unitary part, interior eigenvalues stay inside
    suite = make_suite(100, seed0=7000)
    for idx, (kind, dim, T1, T2) in enumerate(suite):
        _, _, _, coll, split = build_pipeline(T1, T2)
        assert split.k == 0, (kind, dim, idx)
        Astar = mc.adjoint(coll.A)
        rebuilt = (split.H0 @ split.W @ mc.adjoint(split.H0)
                   + split.H1 @ split.E_cnu @ mc.adjoint(split.H1))
        assert mc.operator_norm(rebuilt - Astar) <= 1e-9
        psi = av.adjoint_transfer(coll)
        eigs = av.eval_tau_many(psi, interior_points(50, seed=7500 + idx), mc.eigvals)
        max_mod = np.max(np.abs(eigs), axis=1)
        assert np.all(max_mod <= 1.0 - 1e-12), (kind, dim, idx, max_mod.max())
    # unitary-direction instances exercise a nontrivial split
    for dim in (1, 2, 3, 4, 5):
        T1 = np.diag(np.linspace(0.1, 0.6, dim)).astype(complex)
        pair, d1, d2, coll, split = build_pipeline(T1, np.eye(dim, dtype=complex))
        assert split.k == d1.rank
        psi = av.adjoint_transfer(coll)
        for z in interior_points(10, seed=dim):
            assert av.split_residual(psi, split, z) <= 1e-9


@criterion(8, "certified norm chain", budget=60.0)
def test_criterion_08_norm_chain():
    suite = make_suite(100, seed0=8000)
    for idx, (kind, dim, T1, T2) in enumerate(suite):
        pair = av.ContractionPair.create(T1, T2)
        p = random_poly(4, seed=8500 + idx)
        rep = vn_report(pair, p)  # raises ChainViolationError on violation
        expected_slack = p.lipschitz_bound() * (2 * np.pi / 720) + 1e-9
        assert rep.slack == pytest.approx(expected_slack, rel=1e-12)
        assert rep.lhs <= rep.sup_variety + rep.slack
        assert rep.sup_variety <= rep.sup_bidisc + rep.slack


@criterion(9, "joint eigenvalues lie on the variety")
def test_criterion_09_joint_eigenvalues():
    for idx in range(50):
        dim = 2 + idx % 5
        T1, T2 = av.generate_pair("diag", dim, seed=9000 + idx)
        pair, d1, d2, coll, split = build_pipeline(T1, T2)
        rep = av.joint_eig_membership(pair, coll, split)
        assert rep.failures == 0, idx
        assert len(rep.entries) == dim
        assert all(res <= 1e-7 for _, _, res in rep.entries), idx


@criterion(10, "swap symmetry of the variety")
def test_criterion_10_swap_symmetry():
    suite = make_suite(50, dims=(2, 3, 4, 5), seed0=10_000)
    for idx, (kind, dim, T1, T2) in enumerate(suite):
        pair = av.ContractionPair.create(T1, T2)
        # both swap directions are folded into the residual
        assert av.symmetry_residual(pair, n_samples=8) <= 1e-6, (kind, dim, idx)


@criterion(11, "strict sharpening witness")
def test_criterion_11_sharpness_witness():
    frozen = json.loads((DATA_DIR / "sharpness_witness.json").read_text())
    J = np.array([[0.0, 0.5], [0.0, 0.0]], complex)
    pair = av.ContractionPair.create(J, J)
    p = BivariatePolynomial(np.array([[0, -1], [1, 0]], complex))
    rep = vn_report(pair, p)
    assert rep.sup_variety <= 0.5 * rep.sup_bidisc
    assert rep.lhs == pytest.approx(frozen["lhs"], abs=1e-12)
    assert rep.sup_variety == pytest.approx(frozen["sup_variety"], abs=1e-12)
    assert rep.sup_bidisc == pytest.approx(frozen["sup_bidisc"], abs=1e-9)
    assert rep.pair_digest == frozen["pair_digest"]


@criterion(12, "deterministic outputs and reductions")
def test_criterion_12_determinism(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    assert cli_main(["gen", "triangular-commuting", "--dim", "4", "--seed", "42",
                     "-o", str(pair_file)]) == 0
    csvs, jsons = [], []
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(serialize.poly_to_json(
        np.array([[0.5, -1], [1, 0.25j]], complex)))
    for rep in range(2):
        out_csv = tmp_path / f"variety_{rep}.csv"
        assert cli_main(["variety", str(pair_file), "--theta-samples", "180",
                         "-o", str(out_csv)]) == 0
        csvs.append(out_csv.read_bytes())
        out_json = tmp_path / f"vn_{rep}.json"
        assert cli_main(["vn", str(pair_file), str(poly_file),
                         "-o", str(out_json)]) == 0
        jsons.append(out_json.read_bytes())
    capsys.readouterr()
    assert csvs[0] == csvs[1]
    assert jsons[0] == jsons[1]
    # order-fixed max reductions: chunking must not change the result
    p = random_poly(4, seed=123)
    theta = 2 * np.pi * np.arange(512) / 512
    z = np.exp(1j * theta)
    vals = np.abs(p(z[:, None], z[None, :]))
    full = float(np.max(vals))
    for chunks in (2, 4, 7):
        parts = [float(np.max(c)) for c in np.array_split(vals, chunks)]
        assert float(np.max(parts)) == full
    # the streamed torus sup is the exact max of the unchunked inverse DFT,
    # and agrees with the Horner grid up to rounding
    value = sup_on_bidisc(p, 512).value
    grid = np.fft.ifft2(p.coeffs, s=(512, 512), norm="forward")
    assert value == float(np.max(np.abs(grid)))
    assert abs(value - full) <= 1e-12 * max(1.0, value)
