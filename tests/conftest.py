"""Shared builders for the test suite.

The pair suite cycles the three exact-commutation generators over a range
of dimensions with deterministic seeds, so every test run sees the same
population.  ``ref_eval_tau`` is the one per-point oracle of a transfer
function: the library evaluates only on boundary grids, and every check
at interior points goes through the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

import andovar as av
from andovar.errors import NumericError
from andovar.pair_analysis import GENERATOR_KINDS

COND_LIMIT = 1e14


def make_suite(count: int, dims=(2, 3, 4, 5, 6, 7, 8), seed0: int = 0,
               radius: float = 0.9):
    """Deterministic list of (kind, dim, T1, T2) across all generator kinds."""
    out = []
    for i in range(count):
        kind = GENERATOR_KINDS[i % len(GENERATOR_KINDS)]
        dim = dims[i % len(dims)]
        T1, T2 = av.generate_pair(kind, dim, seed0 + i, radius=radius)
        out.append((kind, dim, T1, T2))
    return out


def ref_eval_tau(tf, z):
    """tau(z) at one point, with one condition-number SVD and one solve; a
    point where cond(I - zD) is not finite or exceeds 1e14 raises
    NumericError with ``details`` z and cond.  The library decides poles
    once per function instead (``TransferFunction.cond_bound``)."""
    z = complex(z)
    k = tf.D.shape[0]
    if k == 0:
        return tf.A.copy()
    R = np.eye(k) - z * tf.D
    cond = np.linalg.cond(R)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericError("pole", z=z, cond=cond)
    return tf.A + z * tf.B @ np.linalg.solve(R, tf.C)


def build_pipeline(T1, T2):
    """pair -> defects -> colligation -> split, with default tolerances."""
    a = av.analyze(av.ContractionPair.create(T1, T2))
    return (a.pair, *a.pair.report.defects, a.coll, a.split)


def random_unit_vectors(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(n, count)) + 1j * rng.normal(size=(n, count))
    return H / np.linalg.norm(H, axis=0)


def interior_points(count: int, seed: int, radius: float = 0.95) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (radius * np.sqrt(rng.uniform(size=count))
            * np.exp(2j * np.pi * rng.uniform(size=count)))


@pytest.fixture(scope="session")
def zero_pair_m2():
    Z = np.zeros((2, 2), complex)
    return build_pipeline(Z, Z)


@pytest.fixture(scope="session")
def scalar_half_pair():
    return build_pipeline(np.array([[0.5]], complex), np.array([[0.5]], complex))
