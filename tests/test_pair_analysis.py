"""Pair validation, defect data, truncation degree, generators."""

from __future__ import annotations

import importlib
import json
import pkgutil

import numpy as np
import pytest

import andovar as av
import andovar.matrix_core as mc
from andovar import serialize
from andovar.cli import main
from andovar.errors import (
    CommutationError,
    ContractionError,
    DimensionMismatchError,
    PurityError,
)
from andovar.pair_analysis import GENERATOR_KINDS, TRUNCATION_CAP

from conftest import make_suite, random_unit_vectors


class TestValidatePair:
    def test_zero_pair(self):
        rep = av.validate_pair(np.zeros((2, 2)), np.zeros((2, 2)))
        assert rep.commute_residual == 0.0
        assert rep.pure == (True, True)
        assert rep.defect_ranks == (2, 2)

    def test_diagonal_strict_contractions(self):
        rep = av.validate_pair(np.diag([0.3, 0.4]), np.diag([0.2, -0.5]))
        assert rep.pure == (True, True)

    def test_jordan_with_identity(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        rep = av.validate_pair(J, np.eye(2))
        assert rep.pure == (True, False)
        assert rep.defect_ranks[1] == 0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            av.validate_pair(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_rejects_noncommuting(self):
        A = np.array([[0, 1], [0, 0]], complex)
        B = np.array([[0, 0], [1, 0]], complex)
        with pytest.raises(CommutationError) as exc:
            av.validate_pair(A, B)
        assert exc.value.details["commute_residual"] > 0.1

    def test_rejects_expansion(self):
        with pytest.raises(ContractionError):
            av.validate_pair(1.5 * np.eye(2), np.eye(2))


class TestDefect:
    def test_zero(self):
        d = av.defect(np.zeros((2, 2)))
        np.testing.assert_allclose(d.D, np.eye(2), atol=1e-14)
        assert d.rank == 2

    def test_jordan(self):
        d = av.defect(np.array([[0, 1], [0, 0]], complex))
        np.testing.assert_allclose(d.D, np.diag([0.0, 1.0]), atol=1e-14)
        assert d.rank == 1

    def test_scalar_half(self):
        d = av.defect(np.array([[0.5]], complex))
        assert d.D[0, 0] == pytest.approx(np.sqrt(3) / 2, abs=1e-14)
        assert d.rank == 1

    def test_rejects_expansion(self):
        with pytest.raises(ContractionError):
            av.defect(np.array([[2.0]], complex))

    @pytest.mark.parametrize("seed", range(8))
    def test_basis_spans_range(self, seed):
        kind = GENERATOR_KINDS[seed % 3]
        T1, _ = av.generate_pair(kind, 5, seed)
        d = av.defect(T1)
        n = T1.shape[0]
        # basis isometric and spanning ran(D)
        assert mc.operator_norm(
            d.basis.conj().T @ d.basis - np.eye(d.rank)) <= 1e-10
        P = d.basis @ d.basis.conj().T
        assert mc.operator_norm((np.eye(n) - P) @ d.D) <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_matches_singular_values(self, seed):
        T1, _ = av.generate_pair("triangular-commuting", 6, seed)
        d = av.defect(T1)
        s = np.linalg.svd(d.D, compute_uv=False)
        assert int(np.sum(s > 1e-7)) == d.rank


class TestTruncationDegree:
    def test_nilpotent(self):
        J = np.array([[0, 0.5], [0, 0]], complex)
        assert av.truncation_degree(J, 1e-12) == 2

    def test_scalar_half_oracle(self):
        # oracle: direct powers of 0.5
        powers = [0.5 ** n for n in range(1, 40)]
        expected = next(n for n, v in enumerate(powers, start=1) if v < 1e-9)
        assert expected == 30
        assert av.truncation_degree(np.array([[0.5]], complex), 1e-9) == 30

    def test_zero(self):
        assert av.truncation_degree(np.zeros((2, 2)), 1e-9) == 1

    def test_rejects_nonpure(self):
        with pytest.raises(PurityError):
            av.truncation_degree(np.eye(2), 1e-9)

    def test_cap_warns(self):
        T = np.array([[1 - 2e-8]], complex)
        with pytest.warns(UserWarning, match="capped"):
            assert av.truncation_degree(T, 1e-9) == TRUNCATION_CAP


class TestDefectIdentity:
    """The displayed two-sided defect identity that powers the isometry."""

    @pytest.mark.parametrize("idx", range(12))
    def test_identity_on_random_vectors(self, idx):
        kind, dim, T1, T2 = make_suite(12)[idx]
        d1, d2 = av.defect(T1), av.defect(T2)
        H = random_unit_vectors(dim, 100, seed=idx)
        lhs = (np.linalg.norm(d1.D @ H, axis=0) ** 2
               + np.linalg.norm(d2.D @ T1.conj().T @ H, axis=0) ** 2)
        rhs = (np.linalg.norm(d1.D @ T2.conj().T @ H, axis=0) ** 2
               + np.linalg.norm(d2.D @ H, axis=0) ** 2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestPurityFlag:
    @pytest.mark.parametrize("seed", range(6))
    def test_pure_iff_decaying_powers(self, seed):
        T1, _ = av.generate_pair("diag", 4, seed)
        rep = av.validate_pair(T1, T1)
        assert rep.pure[0] == (mc.spectral_radius(T1) < 1 - 1e-8)
        # powers along 2^k decay below any tolerance before the cap
        norms = [mc.matrix_power_norm(T1, 2 ** k) for k in range(9)]
        assert norms[-1] < 1e-8


def _count_defect_calls(monkeypatch):
    """Replace ``defect`` in every andovar module that holds it by a
    counting wrapper; returns the call list."""
    calls = []
    original = av.pair_analysis.defect

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(av.__path__, "andovar."):
        module = importlib.import_module(info.name)
        if getattr(module, "defect", None) is original:
            monkeypatch.setattr(module, "defect", counted)
    return calls


class TestValidatedOnce:
    """Validation decides purity and builds both defects; later stages
    read ``pair.report`` instead of recomputing either."""

    def test_create_builds_two_defects_and_analyze_none(self, monkeypatch):
        T1, T2 = av.generate_pair("triangular-commuting", 4, seed=3)
        calls = _count_defect_calls(monkeypatch)
        pair = av.ContractionPair.create(T1, T2)
        assert len(calls) == 2
        a = av.analyze(pair)
        assert len(calls) == 2
        assert a.d1 is pair.report.defects[0] and a.d2 is pair.report.defects[1]

    def test_report_defects_match_defect(self):
        T1, T2 = av.generate_pair("jordan-poly", 3, seed=5)
        pair = av.ContractionPair.create(T1, T2)
        for d, T in zip(pair.report.defects, (pair.T1, pair.T2)):
            ref = av.defect(T, pair.tol.rank, pair.tol.defect_slack())
            np.testing.assert_array_equal(d.D, ref.D)
            np.testing.assert_array_equal(d.basis, ref.basis)
        assert tuple(d.rank for d in pair.report.defects) == pair.report.defect_ranks
        assert "defects" not in pair.report.to_dict()

    @staticmethod
    def _entry_radius_calls(monkeypatch, *entries):
        """Calls of mc.spectral_radius on one of ``entries`` (canonical_split's
        own check on its c.n.u. block is not one of them)."""
        calls = []
        original = mc.spectral_radius

        def counted(M):
            if any(np.array_equal(np.asarray(M), T) for T in entries):
                calls.append(M)
            return original(M)

        monkeypatch.setattr(mc, "spectral_radius", counted)
        return calls

    def test_vn_report_reads_the_verdict(self, monkeypatch):
        T1, T2 = av.generate_pair("diag", 3, seed=1)
        pair = av.ContractionPair.create(T1, T2)
        calls = self._entry_radius_calls(monkeypatch, pair.T1, pair.T2)
        p = av.BivariatePolynomial(np.array([[0, -1], [1, 0]], complex))
        av.vn_report(pair, p, n_theta=64, torus_grid=64)
        assert calls == []

    def test_variety_command_reads_the_verdict(self, monkeypatch, tmp_path, capsys):
        T1, T2 = av.generate_pair("triangular-commuting", 3, seed=2)
        path = tmp_path / "p.json"
        path.write_text(serialize.pair_to_json(T1, T2))
        calls = self._entry_radius_calls(monkeypatch, T1, T2)
        assert main(["variety", str(path), "--theta-samples", "16"]) == 0
        capsys.readouterr()
        # the two calls of validation inside the command, and no gate's
        assert len(calls) == 2


class TestPurityGates:
    """Every purity gate raises with the radius validation recorded."""

    J = np.array([[0, 0.5], [0, 0]], complex)

    def _check(self, exc_info, pair, j):
        rho = exc_info.value.details["spectral_radius"]
        assert rho == pair.report.spectral_radii[j - 1]
        assert f"T{j}" in str(exc_info.value)

    def test_require_pure(self):
        pair = av.ContractionPair.create(self.J, np.eye(2))
        pair.require_pure(1)
        with pytest.raises(PurityError) as exc_info:
            pair.require_pure(1, 2)
        self._check(exc_info, pair, 2)

    def test_vn_report(self):
        pair = av.ContractionPair.create(np.diag([1.0, 0.3]), np.zeros((2, 2)))
        p = av.BivariatePolynomial(np.array([[0, -1], [1, 0]], complex))
        with pytest.raises(PurityError) as exc_info:
            av.vn_report(pair, p)
        self._check(exc_info, pair, 1)

    @pytest.mark.parametrize("j", [1, 2])
    def test_symmetry_residual(self, j):
        T1, T2 = (np.eye(2), self.J) if j == 1 else (self.J, np.eye(2))
        pair = av.ContractionPair.create(T1, T2)
        with pytest.raises(PurityError) as exc_info:
            av.symmetry_residual(pair, 4)
        self._check(exc_info, pair, j)

    def test_defect_series_residuals(self):
        pair = av.ContractionPair.create(np.diag([1.0, 0.3]), np.diag([0.2, 0.1]))
        a = av.analyze(pair)
        with pytest.raises(PurityError) as exc_info:
            av.defect_series_residuals(pair, a.coll, a.d1, np.ones(2), 3)
        self._check(exc_info, pair, 1)

    def test_variety_command(self, tmp_path, capsys):
        T1, T2 = np.diag([1.0, 0.3]), np.diag([0.2, 0.1])
        path = tmp_path / "p.json"
        path.write_text(serialize.pair_to_json(T1.astype(complex), T2.astype(complex)))
        assert main(["variety", str(path), "--theta-samples", "8"]) == 2
        details = json.loads(capsys.readouterr().out)["details"]
        pair = av.ContractionPair.create(T1, T2)
        assert details["spectral_radius"] == pair.report.spectral_radii[0]


class TestGenerators:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_exact_properties(self, kind, dim):
        T1, T2 = av.generate_pair(kind, dim, seed=3)
        rep = av.validate_pair(T1, T2)
        assert rep.norms[0] <= 0.9 + 1e-12
        assert rep.norms[1] <= 0.9 + 1e-12
        assert rep.pure == (True, True)

    def test_deterministic(self):
        a = av.generate_pair("jordan-poly", 4, seed=11)
        b = av.generate_pair("jordan-poly", 4, seed=11)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
