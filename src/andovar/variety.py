"""Sampling of the determinantal variety det(Psi(z1) - z2 I) = 0.

The fiber over z1 splits into V0 points (the unimodular spectrum of the
constant unitary part, independent of z1) and V1 points (eigenvalues of the
c.n.u. transfer function).  Boundary fibers sit on the unit circle by
innerness; interior fibers of pure-pure pairs stay strictly inside the
bidisc.  Membership is measured by eigenvalue distance rather than raw
determinant magnitude, which keeps tolerances dimension-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_core as mc
from .colligation import Colligation
from .errors import NumericError
from .pair_analysis import ContractionPair
from .transfer import (
    _DISC_TOL,
    CanonicalSplit,
    adjoint_transfer,
    analyze,
    circle_grid,
    cnu_part,
    disc_points,
    eval_tau,
    eval_tau_many,
)

__all__ = [
    "VarietySample",
    "fibers",
    "boundary_samples",
    "joint_eig_membership",
    "symmetry_residual",
    "sample_to_csv",
    "sample_to_svg",
]

_JOINT_EIG_SEED = 0x5EED
# largest ||T* v - lambda v|| accepted for a joint eigenvector v
_JOINT_EIG_VEC_TOL = 1e-8
_SYMMETRY_SEED = 20260808


@dataclass(frozen=True)
class VarietySample:
    """Fibers over the kept boundary points z1 = e^{i theta_grid}."""

    values: np.ndarray    # one fiber per kept theta: the k V0 columns, then V1
    k: int
    theta_grid: np.ndarray
    skipped_thetas: list

    def __len__(self) -> int:
        return self.values.size


def fibers(coll: Colligation, split: CanonicalSplit, z1):
    """Fiber values over each point of z1 and the boolean mask of the poles.

    Row i lists the V0 values ``split.lambdas``, then the ordered
    eigenvalues of Psi_cnu at the i-th non-pole point (the V1 values).  A
    point is a pole of Psi_cnu by the rule of :func:`eval_tau_many`; when
    Psi_cnu has dimension 0 nothing is evaluated, so no point is a pole.
    Every |z1_i| must be at most 1.

    Psi_cnu is unitary on the circle, so when every |z1_i| is 1 within
    ``_DISC_TOL`` its eigenvalues come from the Hermitian Cayley solve
    :func:`matrix_core.unitary_eigvals`, which agrees with
    :func:`matrix_core.eigvals` within 1e-13 and puts every V1 value on
    the circle to rounding.  Any other z1, interior points included, is
    solved by :func:`matrix_core.eigvals`.
    """
    if coll.r1 == 0:
        raise NumericError("empty fiber: the first defect space is trivial (T1 unitary)")
    z1 = disc_points(z1)
    psi_cnu = cnu_part(adjoint_transfer(coll), split)
    # kept: with no V1 values, evaluating would still mark the poles of D and skip thetas
    if psi_cnu.dim:
        on_circle = np.all(np.abs(np.abs(z1) - 1.0) <= _DISC_TOL)
        v1, poles = eval_tau_many(psi_cnu, z1,
                                  mc.unitary_eigvals if on_circle else mc.eigvals)
    else:
        v1, poles = np.zeros((z1.size, 0), complex), np.zeros(z1.size, bool)
    return np.hstack([np.broadcast_to(split.lambdas, (len(v1), split.k)), v1]), poles


def boundary_samples(coll: Colligation, split: CanonicalSplit,
                     n_theta: int) -> VarietySample:
    """Fibers over the unit circle; pole thetas are skipped and reported.

    ``values`` is the :func:`fibers` array of the kept thetas: each row
    lists its V0 points, then its V1 points, each group ordered by
    (real, imag).  Every z1 is on the circle, so the V1 points come from
    the Hermitian Cayley solve (see :func:`fibers`).
    """
    thetas, z1 = circle_grid(n_theta)
    values, poles = fibers(coll, split, z1)
    return VarietySample(values=values, k=split.k, theta_grid=thetas[~poles],
                         skipped_thetas=thetas[poles].tolist())


@dataclass(frozen=True)
class JointEigReport:
    """Joint eigenvalue pairs of (T1*, T2*) with their variety residuals."""

    entries: list        # (lambda1, lambda2, residual)
    failures: int        # eigenvectors that failed joint verification


def joint_eig_membership(pair: ContractionPair, coll: Colligation,
                         split: CanonicalSplit) -> JointEigReport:
    """Check that joint eigenvalues of (T1*, T2*) land on the variety.

    Joint eigenvectors are found from a generic linear combination
    T1* + mu T2* and verified against both factors; mu is redrawn at most
    three times (deterministic seed) if verification fails.  The kept
    pairs are measured against one :func:`fibers` call over their lambda1;
    a pole there raises :class:`BoundaryPoleError`, and an empty variety
    (T1 unitary) a :class:`NumericError`.
    """
    T1s, T2s = mc.adjoint(pair.T1), mc.adjoint(pair.T2)
    rng = np.random.default_rng(_JOINT_EIG_SEED)
    best_failures, (lam1, lam2) = pair.dim, np.zeros((2, 0), complex)
    for _ in range(3):
        mu = complex(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        _, V = mc.eig(T1s + mu * T2s)
        TV = np.stack([T1s @ V, T2s @ V])
        quotients = np.sum(V.conj() * TV, axis=1)
        residuals = np.linalg.norm(TV - quotients[:, None, :] * V, axis=1)
        ok = np.all(residuals <= _JOINT_EIG_VEC_TOL, axis=0)
        failures = int(np.sum(~ok))
        if failures < best_failures:
            best_failures, (lam1, lam2) = failures, quotients[:, ok].conj()
        if failures == 0:
            break
    kept = (np.abs(lam1) < 1.0) & (np.abs(lam2) <= 1.0 + 1e-10)
    lam1, lam2 = lam1[kept], lam2[kept]
    res = np.min(np.abs(_interior_fibers(coll, split, lam1) - lam2[:, None]), axis=1)
    return JointEigReport(entries=list(zip(lam1.tolist(), lam2.tolist(), res.tolist())),
                          failures=best_failures)


def symmetry_residual(pair: ContractionPair, n_samples: int = 16) -> float:
    """Agreement of the variety with its swapped-pair counterpart.

    Samples the fibers over random interior z1 and measures how far z1
    sits from the fiber of the swapped pair over z2, in both swap
    directions; returns the worst residual.  Requires both contractions
    pure, the only case where the two constructions describe one variety.
    """
    pair.require_pure(1, 2)
    sides = (analyze(pair), analyze(ContractionPair.create(pair.T2, pair.T1, pair.tol)))
    rng = np.random.default_rng(_SYMMETRY_SEED)
    worst = 0.0
    for forward, backward in (sides, sides[::-1]):
        u = rng.uniform(size=(n_samples, 2))
        z1 = 0.95 * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
        z2 = _interior_fibers(forward.coll, forward.split, z1)
        back = _interior_fibers(backward.coll, backward.split, z2.ravel())
        dist = np.min(np.abs(back - np.repeat(z1, z2.shape[1])[:, None]), axis=1)
        worst = max(worst, float(np.max(dist, initial=0.0)))
    return worst


def _interior_fibers(coll: Colligation, split: CanonicalSplit, z: np.ndarray) -> np.ndarray:
    """:func:`fibers` over z where a pole is an error: raises
    :class:`BoundaryPoleError` at the first pole."""
    values, poles = fibers(coll, split, z)
    if poles.any():
        # the same pole rule as fibers, so this raises with the pole's cond
        eval_tau(cnu_part(adjoint_transfer(coll), split), z[poles][0])
    return values


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def _fiber_rows(sample: VarietySample):
    """(theta, z1, (z2, kind) pairs of its fiber) per kept theta."""
    kinds = ["V0"] * sample.k + ["V1"] * (sample.values.shape[1] - sample.k)
    z1s = np.exp(1j * sample.theta_grid).tolist()
    for theta, z1, fiber in zip(sample.theta_grid.tolist(), z1s, sample.values.tolist()):
        yield theta, z1, zip(fiber, kinds)


def sample_to_csv(sample: VarietySample) -> str:
    """One row per point.  The ``residual`` column, the distance of a point
    to its own fiber, is 0 by construction; it stays for the file format.
    The (theta, z1) fields are formatted once per fiber."""
    lines = ["theta,re_z1,im_z1,re_z2,im_z2,kind,residual"]
    for theta, z1, points in _fiber_rows(sample):
        head = f"{theta:.12e},{z1.real:.12e},{z1.imag:.12e},"
        lines.extend(f"{head}{z2.real:.12e},{z2.imag:.12e},{kind},0.000000000000e+00"
                     for z2, kind in points)
    return "\n".join(lines) + "\n"


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
