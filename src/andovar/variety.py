"""Sampling of the determinantal variety det(Psi(z1) - z2 I) = 0.

The fiber over z1 splits into V0 points (the unimodular spectrum of the
constant unitary part, independent of z1) and V1 points (eigenvalues of the
c.n.u. transfer function).  Fibers are computed only over the boundary
grid ``circle_grid(n)``: a distinguished variety meets the boundary of the
bidisc only in the torus, so these fibers sit on the unit circle by
innerness, and every grid point has one: Psi of a pair with T1 pure has no
resolvent pole on the closed disc (see ``TransferFunction.cond_bound``).
Clearing the denominator of det(z2 I - Psi(z1)) gives one polynomial q of
bidegree (r2, r1) with the same zero set in the bidisc when T1 is pure
(:func:`defining_polynomial`); the swap check compares the q of the pair
and of the swapped pair, coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matrix_core as mc
from .colligation import Colligation
from .errors import InputError, NumericError
from .pair_analysis import ContractionPair
from .transfer import (
    _GRID_MAX,
    CanonicalSplit,
    adjoint_transfer,
    analyze,
    circle_grid,
    cnu_part,
    eval_tau_many,
)

__all__ = [
    "VarietySample",
    "fibers",
    "boundary_samples",
    "defining_polynomial",
    "symmetry_residual",
    "sample_to_csv",
    "sample_to_svg",
]


@dataclass(frozen=True)
class VarietySample:
    """Fibers over the boundary points z1 = e^{i theta_grid}."""

    values: np.ndarray    # one fiber per theta: the k V0 columns, then V1
    k: int
    theta_grid: np.ndarray

    @property
    def skipped_thetas(self) -> list:
        # always empty: perfbench/ reads it; it goes with ROADMAP item 5
        return []

    def __len__(self) -> int:
        return self.values.size


def fibers(coll: Colligation, split: CanonicalSplit, n_theta: int) -> np.ndarray:
    """Fiber values over each point z1 of ``circle_grid(n_theta)``.

    Row j lists the V0 values ``split.lambdas``, then the ordered
    eigenvalues of Psi_cnu at z1_j (the V1 values).  The values of Psi_cnu
    come from :func:`eval_tau_many`, which folds the grid into cosets of
    roots of unity (one small solve, one product and one FFT per coset)
    when the certificate allows it and solves point by point otherwise.
    Psi_cnu is unitary on the circle, so its eigenvalues move by at most
    the change in its values, and they come from the Hermitian Cayley solve
    :func:`matrix_core.unitary_eigvals`, which agrees with
    :func:`matrix_core.eigvals` within 1e-13 and puts every V1 value on
    the circle to rounding.  A Psi_cnu without a pole certificate raises
    :class:`NumericError` (see ``TransferFunction.cond_bound``: a
    colligation of a pair with T1 pure always has one); when Psi_cnu has
    dimension 0 nothing is evaluated.  A sample of more than
    ``transfer._GRID_MAX`` points (grid points times r1) raises
    :class:`InputError` before anything is allocated.
    """
    if coll.r1 == 0:
        raise NumericError("empty fiber: the first defect space is trivial (T1 unitary)")
    if n_theta * coll.r1 > _GRID_MAX:
        raise InputError(f"{n_theta} thetas x {coll.r1} fiber points exceed the variety "
                         f"sample cap {_GRID_MAX}")
    v1 = eval_tau_many(cnu_part(adjoint_transfer(coll), split), n_theta, mc.unitary_eigvals)
    return np.hstack([np.broadcast_to(split.lambdas, (len(v1), split.k)), v1])


def boundary_samples(coll: Colligation, split: CanonicalSplit,
                     n_theta: int) -> VarietySample:
    """Fibers over the unit circle, one per theta of ``circle_grid(n_theta)``.

    ``values`` is the :func:`fibers` array: each row lists its V0 points,
    then its V1 points, each group ordered by (real, imag).
    """
    values = fibers(coll, split, n_theta)
    return VarietySample(values=values, k=split.k, theta_grid=circle_grid(n_theta)[0])


def defining_polynomial(coll: Colligation, split: CanonicalSplit) -> np.ndarray:
    """Coefficients of q(z1, z2) = det(I - z1 D*) prod_mu (z2 - mu).

    mu runs over the fiber over z1 (:func:`fibers`), so q(z1, .) is
    det(I - z1 D*) det(z2 I - Psi(z1)) = det([[z2 I - A*, -z1 C*],
    [-B*, I - z1 D*]]) by the Schur complement of the second block.  Entry
    [j, k] of the returned (r2 + 1) x (r1 + 1) grid multiplies z1^j z2^k,
    the convention of ``BivariatePolynomial``.  z1 appears in only the r2
    columns of the second block and z2 in only the r1 rows of the first,
    so q has degree at most r2 in z1 and r1 in z2, and its values on the
    grid of (r2 + 1)-th by (r1 + 1)-th roots of unity determine it: one
    ``fft2`` recovers the coefficients exactly, up to rounding.  At z1 = 0
    the block determinant is det(z2 I - A*), so c[0, r1] = 1, and the sum
    sum |c| is the scale against which a value of q is small.  On the
    closed bidisc q vanishes exactly on the variety when T1 is pure:
    rho(D) < 1 keeps det(I - z1 D*) away from 0 (see
    ``TransferFunction.cond_bound``).  An empty first defect space raises
    :class:`NumericError`, as in :func:`fibers`.

    Every joint eigenvalue (l1, l2) of (T1, T2) with |l1| < 1 lies on the
    variety, because q(T1, T2) = 0.  By Cayley-Hamilton,
    q(z, Psi(z)) = det(I - z D*) chi_{Psi(z)}(Psi(z)) = 0 for every z in
    the disc, so the commuting multiplications M_z and M_Psi on the Hardy
    space H^2 (x) C^r1 satisfy q(M_z, M_Psi) = 0.  The dilation embedding
    Pi intertwines, Pi T1* = M_z* Pi and Pi T2* = M_Psi* Pi, hence
    Pi q(T1, T2)* = q(M_z, M_Psi)* Pi = 0, and Pi is an isometry when T1 is
    pure, so q(T1, T2) = 0.  A common eigenvector v of T1* and T2*, with
    eigenvalues conj(l1) and conj(l2), then gives
    0 = q(T1, T2)* v = conj(q(l1, l2)) v.
    """
    _, z1 = circle_grid(coll.r2 + 1)
    _, z2 = circle_grid(coll.r1 + 1)
    mu = fibers(coll, split, coll.r2 + 1)
    det = np.linalg.det(np.eye(coll.r2) - z1[:, None, None] * mc.adjoint(coll.D))
    values = det[:, None] * np.prod(z2[:, None] - mu[:, None, :], axis=2)
    return np.fft.fft2(values, norm="forward")


def symmetry_residual(pair: ContractionPair, n_samples: int = 16) -> float:
    """Agreement of the variety with its swapped-pair counterpart.

    With q12 the :func:`defining_polynomial` of the pair and q21 that of
    (T2, T1), the swapped variety is the reflection of the first when
    q12(z, w) = lambda q21(w, z) for a unimodular lambda; the two
    normalisations fix lambda = c12[r2, 0] = (-1)^(r1 + r2) det U*.
    lambda is fitted by least squares, and the residual
    sum |c12 - lambda c21^T| / sum |c12| is returned.  Requires both
    contractions pure, the only case where the two constructions describe
    one variety.  The swapped pair is built from ``pair.report`` with its
    per-entry fields reversed, so the pair is not validated again.
    """
    # n_samples is unused: perfbench/ passes it; it goes with ROADMAP item 5
    pair.require_pure(1, 2)
    r = pair.report
    report = replace(r, norms=r.norms[::-1], spectral_radii=r.spectral_radii[::-1],
                     pure=r.pure[::-1], defect_ranks=r.defect_ranks[::-1],
                     defects=r.defects[::-1])
    swapped = replace(pair, T1=pair.T2, T2=pair.T1, report=report)
    c12, c21 = (defining_polynomial(a.coll, a.split) for a in (analyze(pair), analyze(swapped)))
    c21 = c21.T
    inner = np.vdot(c21, c12)
    return float(np.sum(np.abs(c12 - inner / abs(inner) * c21)) / np.sum(np.abs(c12)))


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def _fiber_rows(sample: VarietySample):
    """(theta, z1, (z2, kind) pairs of its fiber) per theta."""
    kinds = ["V0"] * sample.k + ["V1"] * (sample.values.shape[1] - sample.k)
    z1s = np.exp(1j * sample.theta_grid).tolist()
    for theta, z1, fiber in zip(sample.theta_grid.tolist(), z1s, sample.values.tolist()):
        yield theta, z1, zip(fiber, kinds)


def sample_to_csv(sample: VarietySample) -> str:
    """One row per point.  The ``residual`` column, the distance of a point
    to its own fiber, is 0 by construction; it stays for the file format.
    Each fiber's rows come from one %-template: its (theta, z1) fields,
    formatted once, joined between the per-point (z2, kind) templates."""
    header = "theta,re_z1,im_z1,re_z2,im_z2,kind,residual\n"
    kinds = ["V0"] * sample.k + ["V1"] * (sample.values.shape[1] - sample.k)
    if not kinds:
        return header
    points = [f"%.12e,%.12e,{kind},0.000000000000e+00" for kind in kinds]
    parts = np.ascontiguousarray(sample.values, complex).view(float).tolist()  # re, im, ...
    lines = []
    for theta, z1, fiber in zip(sample.theta_grid.tolist(),
                                np.exp(1j * sample.theta_grid).tolist(), parts):
        head = "%.12e,%.12e,%.12e," % (theta, z1.real, z1.imag)
        lines.append((head + ("\n" + head).join(points)) % tuple(fiber))
    return header + "\n".join(lines) + "\n"


def _svg_color(theta: float) -> str:
    hue = int(round(np.degrees(theta))) % 360
    return f"hsl({hue},70%,45%)"


def sample_to_svg(sample: VarietySample) -> str:
    """Static two-panel scatter: each z1 sample once, then its fiber values."""
    size, margin = 400, 20
    half = size // 2
    scale = half - margin

    def pt(z: complex, x0: int) -> tuple[float, float]:
        return (x0 + half + scale * z.real, half - scale * z.imag)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * size + 40}" '
        f'height="{size}" viewBox="0 0 {2 * size + 40} {size}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for panel, label in ((0, "z1"), (size + 40, "z2")):
        parts.append(
            f'<circle cx="{panel + half}" cy="{half}" r="{scale}" '
            'fill="none" stroke="#888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{panel + 10}" y="20" font-family="monospace" '
            f'font-size="14">{label}</text>'
        )
    for theta, z1, points in _fiber_rows(sample):
        color = _svg_color(theta)
        x1, y1 = pt(z1, 0)
        parts.append(f'<circle cx="{x1:.2f}" cy="{y1:.2f}" r="2" fill="{color}"/>')
        for z2, kind in points:
            x2, y2 = pt(z2, size + 40)
            stroke = ' stroke="black" stroke-width="0.6"' if kind == "V0" else ""
            parts.append(
                f'<circle cx="{x2:.2f}" cy="{y2:.2f}" r="2" fill="{color}"{stroke}/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
