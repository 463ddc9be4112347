"""No output depends on the phases LAPACK picks for singular vectors and
eigenvectors, which is why ``matrix_core.svd`` and ``matrix_core.eig`` fix
none.

Each test wraps the numpy routine so that every singular pair, or every
eigenvector, gets a random phase, and compares with an unwrapped run.  The
pairs are those of ``scripts/output_digest.py`` whose split has no unitary
part (k = 0), and ``diag-k1`` and ``diag-k2``, whose A* has one and two
unimodular eigenvalues.
"""

from __future__ import annotations

import numpy as np
import pytest

import andovar as av
from andovar import serialize

from conftest import build_pipeline
from test_boundary_evaluator import assert_fibers_match
from test_scripts import _load

DIGEST = _load("output_digest")
SEED = 20261021
PAIRS = {label: (T1, T2) for label, T1, T2 in DIGEST.population()
         if label in ("diag-k1", "diag-k2") or build_pipeline(T1, T2)[4].k == 0}


def _random_phases(rng, shape):
    return np.exp(2j * np.pi * rng.uniform(size=shape))


def test_the_population_has_both_kinds_of_split():
    assert {"diag-k1", "diag-k2", "zero-1", "near-pole", "edge-4"} <= set(PAIRS)
    assert len(PAIRS) == 83  # every digest pair but t2-unitary (k = 2)


@pytest.mark.parametrize("label", PAIRS)
def test_colligation_ignores_singular_vector_phases(label, monkeypatch):
    T1, T2 = PAIRS[label]
    want = build_pipeline(T1, T2)[3]
    svd, rng, calls = np.linalg.svd, np.random.default_rng(SEED), []

    def phased_svd(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        if not kwargs.get("compute_uv", True):
            return out
        u, s, vh = out
        ph = _random_phases(rng, s.shape)  # one phase per singular pair
        u, vh = u.copy(), vh.copy()
        u[..., :s.shape[-1]] *= ph[..., None, :]
        vh[..., :s.shape[-1], :] *= ph.conj()[..., :, None]
        calls.append(s.shape)
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", phased_svd)
    got = build_pipeline(T1, T2)[3]
    assert len(calls) >= 2  # the forced action's two SVDs at least
    assert np.max(np.abs(got.matrix - want.matrix), initial=0.0) <= 1e-13
    for name in ("basis1", "basis2"):
        assert serialize.dumps(got.to_dict()[name]) == serialize.dumps(want.to_dict()[name])


def _split_outputs(T1, T2):
    *_, coll, split = build_pipeline(T1, T2)
    if not coll.r1:  # T1 unitary: no fiber and no defining polynomial
        return split.lambdas, None, None
    return (split.lambdas, av.fibers(coll, split, DIGEST.N_THETA),
            av.defining_polynomial(coll, split))


@pytest.mark.parametrize("label", PAIRS)
def test_split_outputs_ignore_eigenvector_phases(label, monkeypatch):
    T1, T2 = PAIRS[label]
    want = _split_outputs(T1, T2)
    eig, rng, calls = np.linalg.eig, np.random.default_rng(SEED), []

    def phased_eig(a):
        w, V = eig(a)
        calls.append(w.shape)
        return w, V * _random_phases(rng, w.shape)[..., None, :]

    monkeypatch.setattr(np.linalg, "eig", phased_eig)
    lambdas, fibers, q = _split_outputs(T1, T2)
    assert len(calls) == 1  # canonical_split's one eigendecomposition
    np.testing.assert_allclose(lambdas, want[0], rtol=0, atol=1e-13)
    if fibers is not None:
        assert_fibers_match(fibers, want[1], 1e-13, label)
        np.testing.assert_allclose(q, want[2], rtol=0, atol=1e-13)
