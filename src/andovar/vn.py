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
# torus grid columns evaluated at once: a chunk holds n_grid x 64 values,
# so the torus sup never allocates an n_grid x n_grid array
_TORUS_COLUMNS = 64
# most complex entries the torus sup holds at once, (2 d1 + 34) n_grid +
# 256 (d1 + 1): 2^24 entries are 256 MiB
_TORUS_ENTRIES_MAX = 1 << 24


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
    come from one :func:`fibers` call on the grid, which evaluates Psi_cnu
    on cosets of roots of unity (:func:`transfer.eval_tau_many`) and
    solves the unitary Psi_cnu(e^{i theta}) by the Hermitian Cayley route of
    :func:`matrix_core.unitary_eigvals` (within 1e-13 of ``eigvals``).  A
    Psi_cnu without a pole certificate raises :class:`NumericError`.
    """
    _, z1 = circle_grid(n_theta)
    best = float(np.max(np.abs(p(z1[:, None], fibers(coll, split, n_theta)))))
    slack = p.lipschitz_bound() * (2.0 * np.pi / n_theta) + 1e-9
    return SupEstimate(value=best, slack=slack, grid=n_theta)


def sup_on_bidisc(p: BivariatePolynomial, n_grid: int = DEFAULT_TORUS_GRID) -> SupEstimate:
    """Max of |p| over an n_grid x n_grid torus grid (maximum principle).

    The grid is ``theta_j = 2 pi m_j / n``.  Along z2 the values are the
    unnormalized inverse DFT of each of the d1 + 1 coefficient rows,
    ``rows[j](beta) = sum_k c[j][k] e^{i k beta}``, so
    ``p(e^{i alpha}, e^{i beta}) = sum_j rows[j](beta) e^{i j alpha}``.  In
    alpha, |p|^2 is then the nonnegative real trigonometric polynomial of
    degree d1 of the slack argument below,

        |p|^2 = r_0 + 2 sum_{m=1}^{d1} (Re r_m cos(m alpha) - Im r_m sin(m alpha)),

    with the autocorrelation ``r_m(beta) = sum_j rows[j+m] conj(rows[j])``.
    For each chunk of ``_TORUS_COLUMNS`` grid columns beta the r_m form a
    real (2 d1 + 1) x 64 matrix, and one real product with the n x (2 d1 + 1)
    cos/sin basis, built once per call, gives |p|^2 at every grid angle
    alpha of the chunk.  The value is the square root of the running max.
    An accepted grid has ``n > d_j``, so the transforms do not alias.

    Rounding.  By Parseval, r_0(beta) is the mean of |p|^2 over alpha, so
    ``r_0 <= max |p|^2``; by Cauchy-Schwarz ``|r_m| <= r_0``.  Every r_m and
    every term of the sum is therefore at most 2 max |p|^2 in size, and the
    rounding of |p|^2 at any grid point is O(d1^2 eps) relative to
    max |p|^2, whatever the cancellation at that point.  On 390 random
    polynomials of degree 0-12 the value was within 4.3e-16 relative of the
    max of the unchunked ``ifft2`` grid.

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

    Memory, in complex entries.  Each grid angle holds d1 + 1 row
    transforms, 2 d1 + 1 reals of the basis and 64 reals of a chunk's
    product, at most 2 d1 + 34; each of the 64 columns of a chunk holds its
    conjugate rows, autocorrelation and coefficients, 3 (d1 + 1), and a
    fourth d1 + 1 covers numpy's bookkeeping.  A grid too coarse for the
    degrees, or one whose count ``(2 d1 + 34) n_grid + 256 (d1 + 1)``
    exceeds ``_TORUS_ENTRIES_MAX``, raises :class:`InputError` before
    anything is allocated.
    """
    _check_torus_grid(p, n_grid)
    d1 = p.deg1
    rows = np.fft.ifft(p.coeffs, n_grid, axis=1, norm="forward")
    # basis[:, 0] = 1, basis[:, m] = cos(m alpha), basis[:, d1 + m] = sin(m alpha);
    # m alpha is reduced mod 2 pi exactly, in integers, before it is scaled
    basis = np.empty((n_grid, 2 * d1 + 1))
    basis[:, 0] = 1.0
    cos, sin = basis[:, 1:d1 + 1], basis[:, d1 + 1:]
    np.multiply.outer(np.arange(n_grid, dtype=float), np.arange(1, d1 + 1), out=cos)
    np.remainder(cos, n_grid, out=cos)
    cos *= 2.0 * np.pi / n_grid
    np.sin(cos, out=sin)
    np.cos(cos, out=cos)
    r = np.empty((d1 + 1, _TORUS_COLUMNS), complex)
    coef = np.empty((2 * d1 + 1, _TORUS_COLUMNS))
    best = 0.0
    for k in range(0, n_grid, _TORUS_COLUMNS):
        block = rows[:, k:k + _TORUS_COLUMNS]
        conj = block.conj()
        w = block.shape[1]
        for m in range(d1 + 1):
            np.einsum("jc,jc->c", block[m:], conj[:d1 + 1 - m], out=r[m, :w])
        coef[0, :w] = r[0, :w].real
        np.multiply(r[1:, :w].real, 2.0, out=coef[1:d1 + 1, :w])
        np.multiply(r[1:, :w].imag, -2.0, out=coef[d1 + 1:, :w])
        best = max(best, float(np.max(basis @ coef[:, :w])))
    best = float(np.sqrt(max(best, 0.0)))
    factor = np.sqrt(1.0 / (np.cos(np.pi * p.deg1 / n_grid) * np.cos(np.pi * p.deg2 / n_grid)))
    slack = float((factor - 1.0) * best) + 1e-9
    return SupEstimate(value=best, slack=slack, grid=n_grid)


def _check_torus_grid(p: BivariatePolynomial, n_grid: int) -> None:
    min_grid = 4 * (p.deg1 + p.deg2)
    if n_grid < max(min_grid, 1):
        raise InputError(f"torus grid {n_grid} too coarse; need >= {max(min_grid, 1)}")
    entries = (2 * p.deg1 + 34) * n_grid + 256 * (p.deg1 + 1)
    if entries > _TORUS_ENTRIES_MAX:
        raise InputError(f"torus grid {n_grid} too fine for a polynomial of degree "
                         f"{p.deg1} in z1: it needs {entries} "
                         f"complex entries, more than {_TORUS_ENTRIES_MAX}")


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
    The report's ``slack`` is the variety slack.  A torus grid that
    :func:`sup_on_bidisc` refuses is refused before any other work.
    """
    _check_torus_grid(p, torus_grid)
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
