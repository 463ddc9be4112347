"""The batched boundary evaluator against the per-point loops it replaced.

The reference functions below evaluate the transfer function one point at a
time with ``conftest.ref_eval_tau``: one condition-number SVD and one solve
per point, exactly as the library did before its loops were stacked; a
pole raises, as it does in the library.  At circle points they take the
fiber eigenvalues from ``unitary_eigvals`` of the single value, as the
library does for a whole chunk, and at interior points from ``eigvals``.
Where the library solves point by point (a prime grid such as 97, or a
certificate past ``_COSET_COND_MAX``) the arithmetic is the loop's, so the
outputs agree bit for bit.  Where it folds cosets (grids such as 128 and
720) they agree within ``conftest.coset_value_bound`` of the values, once
``conftest.oracle_is_accurate`` has shown that the loops' values are
accurate to well inside that bound; fibers are compared matched point to
point per theta, since a move of 1e-16 can swap two fibers with equal
real parts in their (real, imag) order.  The variety sup, whose polynomial is evaluated on the whole grid
at once, is compared within 1e-12.  The swap-symmetry loop samples interior
fibers, where the library compares the defining polynomials of the two
varieties, so the two are held to one bound instead.
"""

from __future__ import annotations

import numpy as np
import pytest

import andovar as av
import andovar.matrix_core as mc
from andovar.colligation import Colligation
from andovar.errors import NumericError
from andovar.transfer import _coset_size
from andovar.variety import VarietySample, sample_to_csv
from andovar.vn import BivariatePolynomial, sup_on_variety

from conftest import (build_pipeline, coset_value_bound, make_suite, oracle_is_accurate,
                      ref_eval_tau)

SYMMETRY_SEED = 20260808
# two unitary_eigvals results of nearby unitaries, each within 1e-13 of
# eigvals; it also covers the SVD's rounding of singular values near 1
EIG_SLACK = 2e-13


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


def assert_fibers_match(got, want, bound, label):
    """Fiber arrays of one grid: the same shape and V0 columns, and per row
    every value of either within ``bound`` of a value of the other."""
    assert got.shape == want.shape, label
    if got.size:
        gap = np.abs(got[:, :, None] - want[:, None, :])
        assert max(np.max(gap.min(axis=2)), np.max(gap.min(axis=1))) <= bound, label


def folds(tf, n_theta):
    return bool(tf.dim and tf.D.size) and _coset_size(tf, n_theta) > 1


@pytest.mark.parametrize("n_theta", [97, 128])
def test_boundary_samples_and_scan_match_the_loops(n_theta):
    for label, coll, split in cases():
        psi = av.adjoint_transfer(coll)
        sub = av.cnu_part(psi, split)
        got = av.boundary_samples(coll, split, n_theta)
        want = ref_boundary_samples(coll, split, n_theta)
        scan = av.boundary_scan(psi, n_theta)
        thetas, smin, smax = ref_boundary_scan(psi, n_theta)
        np.testing.assert_array_equal(scan.thetas, thetas, err_msg=label)
        if folds(sub, n_theta):
            assert oracle_is_accurate(sub, n_theta), label
            np.testing.assert_array_equal(got.theta_grid, want.theta_grid, err_msg=label)
            np.testing.assert_array_equal(got.values[:, :split.k], want.values[:, :split.k])
            bound = coset_value_bound(sub, n_theta).max() + EIG_SLACK
            assert_fibers_match(got.values, want.values, bound, label)
        else:
            assert sample_to_csv(got) == sample_to_csv(want), label
        if folds(psi, n_theta):  # singular values move by at most the values (Weyl)
            assert oracle_is_accurate(psi, n_theta), label
            bound = coset_value_bound(psi, n_theta).max() + EIG_SLACK
            assert np.max(np.abs(scan.sigma_min - smin)) <= bound, label
            assert np.max(np.abs(scan.sigma_max - smax)) <= bound, label
        else:
            np.testing.assert_array_equal(scan.sigma_min, smin, err_msg=label)
            np.testing.assert_array_equal(scan.sigma_max, smax, err_msg=label)


def test_pole_at_one_raises():
    # the converse of the no-pole theorem: a D with a unimodular eigenvalue
    # leaves Psi without a pole certificate, and every boundary evaluator
    # refuses it
    coll, split = pole_at_one()
    p = BivariatePolynomial(np.ones((2, 2)))
    for evaluate in (lambda: av.eval_tau_many(av.adjoint_transfer(coll), 97, lambda v: v),
                     lambda: av.boundary_scan(av.adjoint_transfer(coll), 97),
                     lambda: av.boundary_samples(coll, split, 97),
                     lambda: sup_on_variety(p, coll, split, 97)):
        with pytest.raises(NumericError, match="resolvent not certified invertible") as info:
            evaluate()
        assert info.value.details == {"cond_bound": np.inf}


def count_norms(monkeypatch):
    """Record every ``matrix_core.operator_norm`` call."""
    calls = []
    norm = mc.operator_norm

    def counting_norm(M):
        calls.append(np.shape(M))
        return norm(M)

    monkeypatch.setattr(mc, "operator_norm", counting_norm)
    return calls


def test_the_weyl_bound_costs_one_norm(monkeypatch):
    # every function of the population is cleared by (1 + d)/(1 - d) alone,
    # so its certificate costs the one norm that the Weyl screen cost
    functions = []
    for label, coll, split in cases():
        psi = av.adjoint_transfer(coll)
        functions += [(label, tf) for tf in (psi, av.cnu_part(psi, split)) if tf.dim and tf.D.size]
    assert any(label == "near-pole" for label, _ in functions)
    calls = count_norms(monkeypatch)
    for label, tf in functions:
        d = np.linalg.norm(tf.D, 2)
        assert d < 1.0 and (1.0 + d) / (1.0 - d) <= 1e12, label
        calls.clear()
        assert tf.cond_bound <= 1e12, label
        assert len(calls) == 1, label


def test_dimension_zero_needs_no_certificate(monkeypatch):
    # Psi of a pair with T1 unitary (r1 = 0, with a unitary D-block) and
    # Psi_cnu of a pair whose variety is all V0 solve nothing
    t1_unitary = av.analyze(av.ContractionPair.create(np.diag([1j, -1.0]),
                                                       np.diag([0.5, 0.2]))).psi
    _, _, _, coll, split = build_pipeline(*ALL_V0)
    all_v0 = av.cnu_part(av.adjoint_transfer(coll), split)
    assert t1_unitary.D.shape == (2, 2) and all_v0.dim == 0
    calls = count_norms(monkeypatch)
    for tf in (t1_unitary, all_v0):
        values = av.eval_tau_many(tf, 97, lambda v: v)
        assert (values.shape, values.dtype) == ((97, 0, 0), np.complex128)
    assert calls == []


@pytest.mark.parametrize("n_theta", [97, 720])
def test_sup_on_variety_matches_the_loop(n_theta):
    rng = np.random.default_rng(n_theta)
    for label, coll, split in cases():
        p = BivariatePolynomial(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        got = sup_on_variety(p, coll, split, n_theta)
        value = ref_sup_on_variety(p, coll, split, n_theta)
        assert abs(got.value - value) <= 1e-12 * max(1.0, value), label


def test_symmetry_residual_matches_the_loop():
    # the loop is an independent oracle: both call every pure pair symmetric.
    # On the near-pole pair the loop reads 1.7e-10: each fiber point z2 it
    # maps back lies within 5e-4 of the circle, where the other side's
    # resolvent has cond up to 1.4e4, so the loop gets 1e-9 there
    for label, T1, T2 in PAIRS[:-1]:  # the all-V0 pair is not pure
        pair = av.ContractionPair.create(T1, T2)
        assert ref_symmetry_residual(pair, 8) <= (1e-9 if label == "near-pole" else 1e-10), label
        assert av.symmetry_residual(pair, 8) <= 1e-10, label


def test_sup_on_variety_without_sheets_is_a_numeric_error():
    empty = np.zeros((0, 0), complex)
    coll = Colligation(A=empty, B=empty, C=empty, D=empty,
                       basis1=np.zeros((1, 0), complex), basis2=np.zeros((1, 0), complex))
    split = av.canonical_split(empty)
    with pytest.raises(NumericError):
        sup_on_variety(BivariatePolynomial(np.ones((1, 1))), coll, split, 8)
