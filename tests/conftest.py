"""Shared builders for the test suite.

The pair suite cycles the three exact-commutation generators over a range
of dimensions with deterministic seeds, so every test run sees the same
population.  ``ref_eval_tau`` is the one per-point oracle of a transfer
function: the library evaluates only on boundary grids, and every check
at interior points goes through the oracle.  ``assert_grid_values`` holds
the grid evaluator to the oracle: bit for bit where it solves point by
point, within ``coset_value_bound`` of ``grid_reference`` where it
folds cosets; the reference takes 40-digit mpmath values at the points
near a pole, where the double-precision oracle is not accurate enough.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

import andovar as av
from andovar.errors import NumericError
from andovar.pair_analysis import GENERATOR_KINDS
from andovar.transfer import _coset_size, circle_grid

COND_LIMIT = 1e14


# (1 - 2e-8) (+) J3: norm 1, and inside the default purity tolerance by 1e-8
EDGE_T1 = np.diag([1 - 2e-8, 0.0, 0.0, 0.0]) + np.diag([0.0, 1.0, 1.0], k=1)


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


def exact_eval_tau(tf, n_theta, j):
    """tau at the exact grid point e^{2 pi i j / n_theta}, computed with
    40-digit mpmath arithmetic and rounded to complex."""
    with mpmath.workdps(40):
        A, B, C, D = (mpmath.matrix(M.tolist()) for M in (tf.A, tf.B, tf.C, tf.D))
        z = mpmath.expjpi(mpmath.mpf(2 * int(j)) / n_theta)
        V = A + z * B * mpmath.inverse(mpmath.eye(len(tf.D)) - z * D) * C
        return np.array(V.tolist(), complex)


def inaccurate_oracle_points(tf, n_theta):
    """The grid points where ``ref_eval_tau`` may be off by more than about
    13 eps (1 + ||A|| + ||B|| ||C|| cond_bound).  Its own error is about
    eps ||B|| ||C|| ||(I - zD)^{-1}||^2, since I - zD is formed with an
    error of eps, so these are the points where that norm squared exceeds
    10 cond_bound: the points near a pole that faces the grid."""
    z = circle_grid(n_theta)[1]
    smin = np.linalg.svd(np.eye(len(tf.D)) - z[:, None, None] * tf.D, compute_uv=False)[:, -1]
    return np.flatnonzero(smin ** -2 > 10 * tf.cond_bound)


def oracle_is_accurate(tf, n_theta):
    """Whether ``ref_eval_tau`` is accurate at every grid point
    (``inaccurate_oracle_points``)."""
    return not inaccurate_oracle_points(tf, n_theta).size


def coset_value_bound(tf, n_theta):
    """How far each value of ``eval_tau_many(tf, n_theta, ...)`` may sit
    from the function's value, one bound a grid point:

        64 eps (1 + ||A|| + ||B|| ||C|| (cond_bound + m g_t^2)),

    m the coset size and g_t = ||(I - c_t D^m)^{-1}|| on the point's coset.
    The linear part is the rounding of the product and the transform.  The
    square is the folded power: D^m is off by about eps, which the solve
    of I - c_t D^m carries into all m values of the coset with a factor
    g_t^2.  g_t is small unless a pole of D faces a point of the coset,
    and then about cond_bound / (2 m).  Against 40-digit mpmath values
    (``grid_reference``), over 24 000 random functions with cond_bound
    <= 1e4 (dims 1-6, grids 2-800, half with poles facing grid points) the
    largest difference was 24 eps (1 + ||A|| + ||B|| ||C|| (cond_bound +
    m g_t^2)), and up to 2 800 eps (1 + ||A|| + ||B|| ||C|| cond_bound),
    at m = 2.
    """
    eps = np.finfo(float).eps
    m = _coset_size(tf, n_theta)
    z = circle_grid(n_theta)[1]
    c = z[np.arange(n_theta // m) * m % n_theta]
    g = 1 / np.linalg.svd(np.eye(len(tf.D)) - c[:, None, None] * np.linalg.matrix_power(tf.D, m),
                          compute_uv=False)[:, -1]
    nbc = np.linalg.norm(tf.B, 2) * np.linalg.norm(tf.C, 2)
    # grid point j lies in coset j mod (n / m)
    return 64 * eps * (1 + np.linalg.norm(tf.A, 2) + nbc * (tf.cond_bound + m * np.tile(g, m) ** 2))


def grid_reference(tf, n_theta):
    """The function's values on ``circle_grid(n_theta)``: the oracle's
    where it is accurate, 40-digit values (``exact_eval_tau``) at the few
    ``inaccurate_oracle_points``."""
    want = np.array([ref_eval_tau(tf, z) for z in circle_grid(n_theta)[1]])
    for j in inaccurate_oracle_points(tf, n_theta):
        want[j] = exact_eval_tau(tf, n_theta, j)
    return want


def assert_grid_values(tf, n_theta, values):
    """``values`` are ``eval_tau_many(tf, n_theta, lambda v: v)``: equal to
    the oracle's bit for bit when every coset is one point (a prime grid
    above 64 points, or cond_bound past ``_COSET_COND_MAX``), and within
    ``coset_value_bound`` of ``grid_reference`` at every point otherwise."""
    if not tf.D.size or _coset_size(tf, n_theta) == 1:
        want = np.array([ref_eval_tau(tf, z) for z in circle_grid(n_theta)[1]])
        np.testing.assert_array_equal(values, want)
    else:
        want = grid_reference(tf, n_theta)
        assert values.shape == want.shape
        err = np.abs(values - want).reshape(n_theta, -1).max(axis=1, initial=0.0)
        assert np.all(err <= coset_value_bound(tf, n_theta))


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
