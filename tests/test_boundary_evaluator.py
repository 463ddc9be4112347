"""The batched boundary evaluator against the per-point loops it replaced.

The reference functions below evaluate the transfer function one point at a
time, with one condition-number SVD and one solve per point, exactly as the
library did before its loops were stacked; a pole raises, as it does in the
library.  At circle points they take the
fiber eigenvalues from ``unitary_eigvals`` of the single value, as the
library does for a whole chunk, and at interior points from ``eigvals``.
The arithmetic is unchanged, so the outputs must agree bit for bit; only
the variety sup, whose polynomial is evaluated on the whole grid at once, is
compared within 1e-12.
"""

from __future__ import annotations

import numpy as np
import pytest

import andovar as av
import andovar.matrix_core as mc
from andovar.colligation import Colligation
from andovar.errors import InputError, NumericError
from andovar.transfer import TransferFunction
from andovar.variety import VarietySample, sample_to_csv
from andovar.vn import BivariatePolynomial, sup_on_variety

from conftest import build_pipeline, make_suite

COND_LIMIT = 1e14
SYMMETRY_SEED = 20260808


def ref_eval_tau(tf, z):
    z = complex(z)
    k = tf.D.shape[0]
    if k == 0:
        return tf.A.copy()
    R = np.eye(k) - z * tf.D
    cond = np.linalg.cond(R)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericError("pole", z=z, cond=cond)
    return tf.A + z * tf.B @ np.linalg.solve(R, tf.C)


def ref_boundary_scan(tf, n_theta):
    thetas, smin, smax = [], [], []
    for j in range(n_theta):
        theta = 2.0 * np.pi * j / n_theta
        val = ref_eval_tau(tf, np.exp(1j * theta))
        s = np.linalg.svd(val, compute_uv=False) if val.size else [1.0]
        thetas.append(theta)
        smin.append(float(s[-1]))
        smax.append(float(s[0]))
    return np.asarray(thetas), np.asarray(smin), np.asarray(smax)


def ref_fiber(coll, split, z1):
    sub = av.cnu_part(av.adjoint_transfer(coll), split)
    v0 = [(complex(lam), "V0") for lam in split.lambdas]
    val = ref_eval_tau(sub, z1)
    v1 = [(complex(lam), "V1") for lam in mc.unitary_eigvals(val[None])[0]] if val.size else []
    return v0 + v1


def ref_boundary_samples(coll, split, n_theta):
    rows, thetas = [], []
    for j in range(n_theta):
        theta = 2.0 * np.pi * j / n_theta
        thetas.append(theta)
        row = []
        for z2, kind in ref_fiber(coll, split, np.exp(1j * theta)):
            assert (kind == "V0") == (len(row) < split.k)
            row.append(z2)
        rows.append(row)
    return VarietySample(values=np.array(rows, complex).reshape(n_theta, coll.r1),
                         k=split.k, theta_grid=np.asarray(thetas))


def ref_sup_on_variety(p, coll, split, n_theta):
    psi_cnu = av.cnu_part(av.adjoint_transfer(coll), split)
    best = -np.inf
    for j in range(n_theta):
        z1 = np.exp(2j * np.pi * j / n_theta)
        vals = [np.asarray(split.lambdas)] if split.k else []
        if psi_cnu.dim:
            vals.append(mc.unitary_eigvals(ref_eval_tau(psi_cnu, z1)[None])[0])
        best = max(best, float(np.max(np.abs(p(z1, np.concatenate(vals))))))
    return best


def ref_symmetry_residual(pair, n_samples):
    psi = av.adjoint_transfer(build_pipeline(pair.T1, pair.T2)[3])
    psi_s = av.adjoint_transfer(build_pipeline(pair.T2, pair.T1)[3])
    rng = np.random.default_rng(SYMMETRY_SEED)
    worst = 0.0
    for forward, backward in ((psi, psi_s), (psi_s, psi)):
        for _ in range(n_samples):
            z1 = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            for z2 in mc.eigvals(ref_eval_tau(forward, z1)):
                back = mc.eigvals(ref_eval_tau(backward, z2))
                worst = max(worst, float(np.min(np.abs(back - z1))))
    return worst


NEAR_POLE = (np.array([[0.001907 - 0.579179j]]), np.array([[0.274619 + 0.961444j]]))
ALL_V0 = (np.array([[0, 0.5], [0, 0]], complex), np.eye(2, dtype=complex))
PAIRS = [(f"{kind}-{dim}", T1, T2) for kind, dim, T1, T2 in make_suite(9, seed0=600)]
PAIRS += [("near-pole", *NEAR_POLE), ("all-V0", *ALL_V0)]


def pole_at_one():
    """Colligation whose multiplier has D* = [[1]], a pole at theta = 0.

    U = diag(0.5, 1) is not unitary, so no pair has it as its colligation:
    a colligation of a pair with T1 pure has rho(D) < 1."""
    coll = Colligation(A=np.array([[0.5]], complex), B=np.zeros((1, 1), complex),
                       C=np.zeros((1, 1), complex), D=np.array([[1.0]], complex),
                       basis1=np.eye(1, dtype=complex), basis2=np.eye(1, dtype=complex))
    return coll, av.canonical_split(mc.adjoint(coll.A))


def cases():
    for label, T1, T2 in PAIRS:
        _, _, _, coll, split = build_pipeline(T1, T2)
        yield label, coll, split


@pytest.mark.parametrize("n_theta", [97, 128])
def test_boundary_samples_and_scan_match_the_loops(n_theta):
    for label, coll, split in cases():
        got = av.boundary_samples(coll, split, n_theta)
        want = ref_boundary_samples(coll, split, n_theta)
        assert sample_to_csv(got) == sample_to_csv(want), label
        scan = av.boundary_scan(av.adjoint_transfer(coll), n_theta)
        thetas, smin, smax = ref_boundary_scan(av.adjoint_transfer(coll), n_theta)
        np.testing.assert_array_equal(scan.thetas, thetas, err_msg=label)
        np.testing.assert_array_equal(scan.sigma_min, smin, err_msg=label)
        np.testing.assert_array_equal(scan.sigma_max, smax, err_msg=label)


def test_pole_at_one_raises():
    # the converse of the no-pole theorem: a D with a unimodular eigenvalue
    # makes every boundary evaluator raise at that point
    coll, split = pole_at_one()
    p = BivariatePolynomial(np.ones((2, 2)))
    for evaluate in (lambda: av.eval_tau(av.adjoint_transfer(coll), 1.0),
                     lambda: av.boundary_scan(av.adjoint_transfer(coll), 97),
                     lambda: av.boundary_samples(coll, split, 97),
                     lambda: sup_on_variety(p, coll, split, 97)):
        with pytest.raises(NumericError, match="resolvent numerically singular") as info:
            evaluate()
        assert info.value.details == {"z": 1.0, "cond": np.inf}


@pytest.mark.parametrize("n_theta", [97, 720])
def test_sup_on_variety_matches_the_loop(n_theta):
    rng = np.random.default_rng(n_theta)
    for label, coll, split in cases():
        p = BivariatePolynomial(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        got = sup_on_variety(p, coll, split, n_theta)
        value = ref_sup_on_variety(p, coll, split, n_theta)
        assert abs(got.value - value) <= 1e-12 * max(1.0, value), label


def test_symmetry_residual_matches_the_loop():
    for label, T1, T2 in PAIRS[:-1]:  # the all-V0 pair is not pure
        pair = av.ContractionPair.create(T1, T2)
        assert av.symmetry_residual(pair, 8) == ref_symmetry_residual(pair, 8), label


def test_eval_tau_many_rejects_points_outside_the_disc():
    tf = TransferFunction(A=np.eye(1, dtype=complex), B=np.zeros((1, 1), complex),
                          C=np.zeros((1, 1), complex), D=np.zeros((1, 1), complex))
    with pytest.raises(InputError):
        av.eval_tau_many(tf, [0.5, 1.1], mc.eigvals)


def test_sup_on_variety_without_sheets_is_a_numeric_error():
    empty = np.zeros((0, 0), complex)
    coll = Colligation(A=empty, B=empty, C=empty, D=empty,
                       basis1=np.zeros((1, 0), complex), basis2=np.zeros((1, 0), complex))
    split = av.canonical_split(empty)
    with pytest.raises(NumericError):
        sup_on_variety(BivariatePolynomial(np.ones((1, 1))), coll, split, 8)
