"""Certified norm chain ||p(T1,T2)|| <= ||p||_variety <= ||p||_torus.

The left side uses exact polynomial functional calculus on the matrices,
independent of the dilation machinery it validates.  The two sups are grid
maxima paired with an explicit slack: a Lipschitz slack computed from the
polynomial coefficients for the variety, a grid-max factor from the degrees
for the torus.  Only the torus slack is a proven bound.  The variety slack
bounds how fast p moves along a fixed fiber, not how fast the fiber moves
with theta, so a fiber that races between grid points escapes it: on the
near-pole pair of ROADMAP open item 1 the variety sup plus slack is 0.047
where the true sup is about 2.  Until that item lands, ``sup_variety`` is
a sampled value, not a certificate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import matrix_core as mc
from .colligation import Colligation
from .errors import ChainViolationError, InputError
from .pair_analysis import ContractionPair
from .transfer import CanonicalSplit, analyze, circle_grid
from .variety import fibers

__all__ = [
    "BivariatePolynomial",
    "VNReport",
    "eval_poly_pair",
    "sup_on_variety",
    "sup_on_bidisc",
    "vn_report",
]

DEFAULT_N_THETA = 720
DEFAULT_TORUS_GRID = 512
# torus grid columns transformed at once: a chunk holds n_grid x 64 values,
# so the torus sup never allocates an n_grid x n_grid array
_TORUS_COLUMNS = 64


@dataclass(frozen=True)
class BivariatePolynomial:
    """p(z1, z2) = sum c[j][k] z1^j z2^k with trailing zero rows/cols trimmed."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2:
            raise InputError("coefficient grid must be 2-dimensional")
        if c.size and not np.all(np.isfinite(c)):
            raise InputError("polynomial coefficients must be finite")
        c = _trim(c)
        object.__setattr__(self, "coeffs", c)

    @property
    def deg1(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg2(self) -> int:
        return self.coeffs.shape[1] - 1

    def __call__(self, z1, z2):
        """Vectorized scalar evaluation (Horner in z2 inside, z1 outside)."""
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        acc = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for row in self.coeffs[::-1]:
            inner = np.zeros_like(acc)
            for c in row[::-1]:
                inner = inner * z2 + c
            acc = acc * z1 + inner
        return acc if acc.shape else complex(acc)

    def lipschitz_bound(self) -> float:
        """Coefficient bound on |grad p| over the closed bidisc."""
        j = np.arange(self.coeffs.shape[0])[:, None]
        k = np.arange(self.coeffs.shape[1])[None, :]
        a = np.abs(self.coeffs)
        return float(np.sum(a * j) + np.sum(a * k))


def _trim(c: np.ndarray) -> np.ndarray:
    rows = np.where(np.any(c != 0, axis=1))[0]
    cols = np.where(np.any(c != 0, axis=0))[0]
    if rows.size == 0:
        return np.zeros((1, 1), complex)
    return np.ascontiguousarray(c[: rows[-1] + 1, : cols[-1] + 1])


def eval_poly_pair(p: BivariatePolynomial, T1, T2) -> np.ndarray:
    """p(T1, T2) by two-stage Horner, powers of T2 innermost."""
    A = mc.as_matrix(T1, "T1")
    B = mc.as_matrix(T2, "T2")
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise InputError("T1, T2 must be square of equal dimension")
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    acc = np.zeros((n, n), complex)
    for row in p.coeffs[::-1]:
        inner = np.zeros((n, n), complex)
        for c in row[::-1]:
            inner = inner @ B + c * eye
        acc = A @ acc + inner
    return acc


@dataclass(frozen=True)
class SupEstimate:
    value: float
    slack: float
    grid: int
    skipped: int = 0  # always 0: perfbench/ reads it; it goes with ROADMAP item 5


def sup_on_variety(p: BivariatePolynomial, coll: Colligation,
                   split: CanonicalSplit, n_theta: int = DEFAULT_N_THETA) -> SupEstimate:
    """Max of |p| over the sampled variety boundary.

    V1 contributes (e^{i theta}, eig(Psi_cnu(e^{i theta}))); V0 contributes
    (e^{i theta}, lambda) for lambda in sigma(W), the maximum principle
    having pushed the first coordinate of V0 to the circle.  The V1 values
    come from one :func:`fibers` call on the grid, which solves the unitary
    Psi_cnu(e^{i theta}) by the Hermitian Cayley route of
    :func:`matrix_core.unitary_eigvals` (within 1e-13 of ``eigvals``).  A
    resolvent pole of Psi_cnu raises :class:`NumericError`.
    """
    _, z1 = circle_grid(n_theta)
    best = float(np.max(np.abs(p(z1[:, None], fibers(coll, split, z1)))))
    slack = p.lipschitz_bound() * (2.0 * np.pi / n_theta) + 1e-9
    return SupEstimate(value=best, slack=slack, grid=n_theta)


def sup_on_bidisc(p: BivariatePolynomial, n_grid: int = DEFAULT_TORUS_GRID) -> SupEstimate:
    """Max of |p| over an n_grid x n_grid torus grid (maximum principle).

    On the grid ``theta_j = 2 pi m_j / n`` the values of p are the
    unnormalized inverse 2-D DFT of the zero-padded coefficient grid.  It is
    taken one axis at a time: along z2 for the d1 + 1 coefficient rows, then
    along z1 for ``_TORUS_COLUMNS`` grid columns at a time, keeping the
    running max of |p|.  The max is exact, so the chunking does not change
    the value.  An accepted grid has ``n > d_j``, so the transforms do not alias.

    Slack.  In theta_j, |p|^2 is a nonnegative real trigonometric polynomial
    of degree d_j.  Riesz's lemma: a real trigonometric polynomial T of
    degree d whose maximum is T(a) satisfies ``T(a + t) >= T(a) cos(d t)``
    for ``|t| <= pi/d``.  Let ``M = |p(a1, a2)|^2`` be the maximum over the
    torus, and g1 the grid angle nearest a1, so ``|g1 - a1| <= pi/n``.  Then
    ``|p(g1, a2)|^2 >= M cos(pi d1/n)``.  The slice ``t -> |p(g1, t)|^2`` has
    a maximum M' at least that large, and the grid angle g2 nearest its
    argmax gives ``|p(g1, g2)|^2 >= M' cos(pi d2/n)``.  Hence

        sup |p| <= sqrt(sec(pi d1/n) sec(pi d2/n)) * max_grid |p|,

    with both angles ``pi d_j/n <= pi/4`` on any accepted grid (Ehlich and
    Zeller, Math. Z. 86, 1964, for grid maxima of polynomials).  The slack is
    ``(factor - 1) * value``, plus 1e-9 for roundoff.
    """
    min_grid = 4 * (p.deg1 + p.deg2)
    if n_grid < max(min_grid, 1):
        raise InputError(f"torus grid {n_grid} too coarse; need >= {max(min_grid, 1)}")
    rows = np.fft.ifft(p.coeffs, n_grid, axis=1, norm="forward")
    best = 0.0
    for k in range(0, n_grid, _TORUS_COLUMNS):
        chunk = np.fft.ifft(rows[:, k:k + _TORUS_COLUMNS], n_grid, axis=0, norm="forward")
        best = max(best, float(np.max(np.abs(chunk))))
    factor = np.sqrt(1.0 / (np.cos(np.pi * p.deg1 / n_grid) * np.cos(np.pi * p.deg2 / n_grid)))
    slack = float((factor - 1.0) * best) + 1e-9
    return SupEstimate(value=best, slack=slack, grid=n_grid)


@dataclass(frozen=True)
class VNReport:
    lhs: float
    sup_variety: float
    sup_bidisc: float
    slack: float
    margins: tuple[float, float]
    sampling: dict = field(default_factory=dict)
    pair_digest: str = ""
    skipped_thetas: int = 0  # always 0: perfbench/ reads it; it goes with ROADMAP item 5

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "sup_variety": self.sup_variety,
            "sup_bidisc": self.sup_bidisc,
            "slack": self.slack,
            "margins": list(self.margins),
            "grids": dict(self.sampling),
            "pair_digest": self.pair_digest,
            "skipped_thetas": self.skipped_thetas,
        }


def _pair_digest(pair: ContractionPair) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pair.T1).tobytes())
    h.update(np.ascontiguousarray(pair.T2).tobytes())
    return h.hexdigest()[:16]


def vn_report(pair: ContractionPair, p: BivariatePolynomial,
              n_theta: int = DEFAULT_N_THETA,
              torus_grid: int = DEFAULT_TORUS_GRID) -> VNReport:
    """Full certification run for one pair and one polynomial.

    The chain lhs <= sup_variety <= sup_bidisc is asserted with each
    inequality's own sampling slack: the variety slack for the first, the
    torus slack for the second.  A violation beyond slack raises
    :class:`ChainViolationError` since the underlying inequality is exact.
    The report's ``slack`` is the variety slack.
    """
    pair.require_pure(1)
    analysis = analyze(pair)
    lhs = mc.operator_norm(eval_poly_pair(p, pair.T1, pair.T2))
    sv = sup_on_variety(p, analysis.coll, analysis.split, n_theta=n_theta)
    sb = sup_on_bidisc(p, n_grid=torus_grid)
    if lhs > sv.value + sv.slack or sv.value > sb.value + sb.slack:
        raise ChainViolationError(
            f"certified chain violated beyond slack: lhs={lhs:.12e}, "
            f"sup_variety={sv.value:.12e}, sup_bidisc={sb.value:.12e}, "
            f"slacks={sv.slack:.3e}, {sb.slack:.3e}"
        )
    return VNReport(
        lhs=lhs,
        sup_variety=sv.value,
        sup_bidisc=sb.value,
        slack=sv.slack,
        margins=(sv.value - lhs, sb.value - sv.value),
        sampling={"n_theta": n_theta, "torus_grid": torus_grid},
        pair_digest=_pair_digest(pair),
    )
