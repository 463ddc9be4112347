#!/usr/bin/env python3
"""Print one sha256 digest per (pair, output) of the library's outputs.

A change that claims "outputs are bit-identical" is checked by running this
one script against the ``src`` of each tree, so that both listings cover the
same population, and comparing them:

    PYTHONPATH=<other tree>/src python scripts/output_digest.py > digests-before.txt
    PYTHONPATH=src python scripts/output_digest.py > digests.txt
    diff digests-before.txt digests.txt

The population is 84 pairs: the three generator kinds at dims 1, 2, 3, 4,
6, 8, 12 and 16 with seeds 0-2; the zero pairs at m = 1-3; a unitary T2
(r2 = 0), a unitary T1 (r1 = 0) and both unitary (r1 = r2 = 0); two
diagonal pairs whose A* has one and two unimodular eigenvalues (k = 1, 2);
the near-pole pair of ROADMAP open item 1; and three pure pairs with
||T1|| = 1, whose Psi has a D-block of norm 1: the shifts T1 = J_n,
T2 = J_n / 2 at n = 4 and 16, and T1 = (1 - 2e-8) (+) J_3, T2 = T1 / 2.  For each pair the outputs
are the validation report, the colligation, the canonical split, the
variety CSV and SVG and the boundary scan at 97 thetas, the Taylor
symbols, the vn report, the defining polynomial of the variety, the series
residuals and tail bounds, the symmetry residual, and the dilation with
all its residuals.  Every transfer-function value behind them is taken on
a boundary grid, the only place the library evaluates one.  Arrays are
hashed with their dtype, shape and bytes and floats by ``float.hex``, so
-0.0 and +0.0 differ.  An output that raises is hashed as its exception type and message.

Each line reads ``<pair> <output> <first 16 hex digits>``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import numpy as np

import andovar as av
from andovar import serialize
from andovar.pair_analysis import GENERATOR_KINDS
from andovar.variety import sample_to_csv, sample_to_svg

N_THETA = 97
POLY = av.BivariatePolynomial(np.array([[1.0, -0.7j, 0.0], [0.5, 0.3, 0.0], [0.0, 0.0, 0.2]]))


def population() -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The (label, T1, T2) triples, in print order."""
    pairs = [(f"{kind}-{dim}-{seed}", *av.generate_pair(kind, dim, seed))
             for kind in GENERATOR_KINDS
             for dim in (1, 2, 3, 4, 6, 8, 12, 16)
             for seed in range(3)]
    pairs += [(f"zero-{m}", np.zeros((m, m)), np.zeros((m, m))) for m in (1, 2, 3)]
    pairs += [
        ("t2-unitary", np.diag([0.5, 0.3]), np.diag([1.0, 1j])),
        ("t1-unitary", np.diag([1j, -1.0]), np.diag([0.5, 0.2])),
        ("both-unitary", np.diag([1.0, 1j]), np.diag([-1.0, 1.0])),
        ("diag-k1", np.diag([0.5, 0.3]), np.diag([np.exp(0.7j), 0.4])),
        ("diag-k2", np.diag([0.5, 0.3, 0.2, 0.6]),
         np.diag([np.exp(0.7j), np.exp(2.1j), 0.4, 0.1j])),
        ("near-pole", np.array([[0.001907 - 0.579179j]]), np.array([[0.274619 + 0.961444j]])),
    ]
    pairs += [(f"shift-{n}", np.eye(n, k=1), 0.5 * np.eye(n, k=1)) for n in (4, 16)]
    edge = np.diag([1 - 2e-8, 0.0, 0.0, 0.0]) + np.diag([0.0, 1.0, 1.0], k=1)
    pairs.append(("edge-4", edge, 0.5 * edge))
    return pairs


def _feed(h, value) -> None:
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        h.update(f"array {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(f"key {key}\n".encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)}\n".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, float):
        h.update(f"float {value.hex()}\n".encode())
    elif isinstance(value, complex):
        h.update(f"complex {value.real.hex()} {value.imag.hex()}\n".encode())
    else:
        h.update(f"{type(value).__name__} {value!r}\n".encode())


def _digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def _outputs(pair: av.ContractionPair, a: av.Analysis):
    """(name, thunk) per output of an analysed pair."""
    d1 = pair.report.defects[0]
    h = np.linspace(1.0, -1.0, pair.dim) + 0.5j

    @functools.cache
    def samples():
        return av.boundary_samples(a.coll, a.split, N_THETA)

    @functools.cache
    def series():
        return av.defect_series_residuals(pair, a.coll, h, 8)

    @functools.cache
    def dilation():
        return av.build_dilation(pair, a.coll, d1)

    def dilation_fields():
        # the dilation's own fields; its pair is the input, digested as "report"
        dil = dilation()
        return ({f.name: getattr(dil, f.name) for f in dataclasses.fields(dil)
                 if f.name != "pair"}, dil.mpsi_adjoint_pi)

    def residuals():
        dil = dilation()
        return (av.intertwining_residuals(dil, pair), av.compression_residuals(dil, pair),
                av.minimality_defect(dil), av.mpsi_isometry_residual(dil, a.coll))

    def scan():
        s = av.boundary_scan(a.psi, N_THETA)
        return s, s.max_deviation()

    return [
        ("colligation", lambda: (serialize.dumps(a.coll.to_dict()), a.coll.matrix,
                                 a.coll.unitarity_residual())),
        ("split", lambda: a.split),
        ("variety.csv", lambda: sample_to_csv(samples())),
        ("variety.svg", lambda: sample_to_svg(samples())),
        ("boundary_scan", scan),
        ("taylor", lambda: av.taylor_symbols(a.psi, 5)),
        ("vn", lambda: serialize.dumps(
            av.vn_report(pair, POLY, n_theta=N_THETA, torus_grid=64).to_dict())),
        ("defining_polynomial", lambda: av.defining_polynomial(a.coll, a.split)),
        ("series.residuals", lambda: series().residuals),
        ("series.tail_bounds", lambda: series().tail_bounds),
        ("symmetry", lambda: av.symmetry_residual(pair, n_samples=4)),
        ("dilation", dilation_fields),
        ("dilation.residuals", residuals),
    ]


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _attempt(compute):
    try:
        return compute()
    except Exception as exc:  # an error is an output too
        return _failure(exc)


def pair_digests(T1, T2) -> list[tuple[str, str]]:
    """(output name, digest) for every output of the pair (T1, T2)."""
    try:
        pair = av.ContractionPair.create(T1, T2)
    except av.AndovarError as exc:
        return [("report", _digest(_failure(exc)))]
    out = [("report", _digest((serialize.dumps(pair.report.to_dict()), pair.report.defects)))]
    try:
        a = av.analyze(pair)
    except av.AndovarError as exc:
        return out + [("analyze", _digest(_failure(exc)))]
    return out + [(name, _digest(_attempt(compute))) for name, compute in _outputs(pair, a)]


def main() -> None:
    for label, T1, T2 in population():
        for name, digest in pair_digests(T1, T2):
            print(f"{label} {name} {digest}")


if __name__ == "__main__":
    main()
