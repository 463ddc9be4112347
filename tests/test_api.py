"""Public API: every exported name resolves, removed names stay gone,
every tolerance default comes from ``Tolerances``, and no module uses
``assert`` or ``warnings``."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import andovar as av

MODULES = sorted(m.name for m in pkgutil.iter_modules(av.__path__, "andovar."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.{attr}"


@pytest.mark.parametrize("name", ["variety_fiber", "membership_residual",
                                  "check_no_unimodular_eigs", "forward_transfer",
                                  "eval_tau", "schur_identity_residual", "split_residual",
                                  "disc_points", "_DISC_TOL", "matrix_power_norm"])
def test_removed_wrappers_are_gone(name):
    assert not hasattr(av, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(module), name), module


@pytest.mark.parametrize("path", sorted(Path(av.__file__).parent.rglob("*.py")),
                         ids=lambda path: path.name)
def test_no_assert_and_no_warnings(path):
    # an assert vanishes under python -O, and a condition worth reporting is
    # a report field or an error, not a warning
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        assert "warnings" not in {m.split(".")[0] for m in modules}, f"{path.name}:{node.lineno}"


def test_transfer_function_has_no_eval_method():
    assert not hasattr(av.TransferFunction, "eval")
    assert callable(av.eval_tau_many) and callable(av.fibers)


def test_polynomial_has_no_to_dict():
    assert not hasattr(av.BivariatePolynomial, "to_dict")


def test_require_pure_is_a_pair_method():
    # purity is decided once, by validation, and read off the pair
    assert not hasattr(av, "require_pure")
    for module in MODULES:
        assert not hasattr(importlib.import_module(module), "require_pure"), module
    assert callable(av.ContractionPair.require_pure)


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_tolerance_defaults_come_from_tolerances():
    tol = av.Tolerances()
    assert _default(av.defect, "rank_tol") == tol.rank
    assert _default(av.defect, "contract_tol") == tol.defect_slack()
    # truncation_degree takes the pair, and with it the pair's tolerances
    assert _default(av.truncation_degree, "tol_trunc") is None
    assert "tol_pure" not in inspect.signature(av.truncation_degree).parameters
    assert _default(av.canonical_split, "tol_pure") == tol.pure
    # build_dilation reads the pair's own tolerances
    assert _default(av.build_dilation, "tol_trunc") is None
    assert _default(av.build_dilation, "tol_pure") is None


def test_halved_halves_every_field():
    tol = av.Tolerances(commute=3e-9, contract=4e-10, pure=5e-8, rank=6e-10, trunc=7e-9)
    half = tol.halved(4)
    for f in dataclasses.fields(tol):
        assert getattr(half, f.name) == 0.5 * getattr(tol, f.name), f.name
    # the commutation default is resolved at the dimension, then halved
    assert av.Tolerances().halved(4).commute == 0.5 * av.Tolerances().commute_for(4)


def test_defect_accepts_what_validation_accepts():
    # ||T|| = 1 + 0.9e-10 lies inside the contraction tolerance
    T = np.diag([1 + 0.9e-10, 0.3])
    av.validate_pair(T, T)
    assert av.defect(T).rank == 1


def test_build_dilation_truncates_at_the_pair_tolerance():
    pair = av.ContractionPair.create(np.diag([0.5, 0.3]), np.diag([0.2, 0.1]),
                                     av.Tolerances(trunc=1e-3))
    a = av.analyze(pair)
    # 0.5**10 < 1e-3 <= 0.5**9
    assert av.build_dilation(pair, a.coll, pair.report.defects[0]).N == 10


def test_build_dilation_judges_purity_by_the_pair_tolerance():
    # spectral radius 1 - 5e-4: pure under the default 1e-8, not under 1e-3
    pair = av.ContractionPair.create(np.diag([0.9995, 0.3]), np.diag([0.2, 0.1]),
                                     av.Tolerances(pure=1e-3))
    a = av.analyze(pair)
    p = av.BivariatePolynomial(np.array([[0, -1], [1, 0]], complex))
    with pytest.raises(av.PurityError):
        av.vn_report(pair, p)
    with pytest.raises(av.PurityError):
        av.build_dilation(pair, a.coll, pair.report.defects[0])
