"""Public API: every exported name resolves, removed names stay gone, and
every tolerance default comes from ``Tolerances``."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

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
                                  "check_no_unimodular_eigs", "forward_transfer"])
def test_removed_wrappers_are_gone(name):
    assert not hasattr(av, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(module), name), module


def test_transfer_function_has_no_eval_method():
    assert not hasattr(av.TransferFunction, "eval")
    assert callable(av.eval_tau) and callable(av.fibers)


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
    assert _default(av.truncation_degree, "tol_trunc") == tol.trunc
    assert _default(av.truncation_degree, "tol_pure") == tol.pure
    assert _default(av.canonical_split, "tol_pure") == tol.pure
    # build_dilation reads the pair's own tolerances
    assert _default(av.build_dilation, "tol_trunc") is None
    assert _default(av.build_dilation, "tol_pure") is None


def test_halved_halves_every_field():
    tol = av.Tolerances(commute=3e-9, contract=4e-10, pure=5e-8, rank=6e-10, trunc=7e-9)
    half = tol.halved()
    for f in dataclasses.fields(tol):
        assert getattr(half, f.name) == 0.5 * getattr(tol, f.name), f.name
    assert av.Tolerances().halved().commute is None


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
    assert av.build_dilation(pair, a.coll, a.d1).N == 10


def test_build_dilation_judges_purity_by_the_pair_tolerance():
    # spectral radius 1 - 5e-4: pure under the default 1e-8, not under 1e-3
    pair = av.ContractionPair.create(np.diag([0.9995, 0.3]), np.diag([0.2, 0.1]),
                                     av.Tolerances(pure=1e-3))
    a = av.analyze(pair)
    p = av.BivariatePolynomial(np.array([[0, -1], [1, 0]], complex))
    with pytest.raises(av.PurityError):
        av.vn_report(pair, p)
    with pytest.raises(av.PurityError):
        av.build_dilation(pair, a.coll, a.d1)
