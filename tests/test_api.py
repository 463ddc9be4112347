"""Public API: every exported name resolves, and removed names stay gone."""

from __future__ import annotations

import importlib
import pkgutil

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
