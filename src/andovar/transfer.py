"""Transfer functions of a unitary colligation and canonical splitting.

For U = [[A, B], [C, D]] unitary, tau_U(z) = A + z B (I - z D)^{-1} C is a
rational matrix inner function: contractive on the disc and unitary on the
circle.  When the colligation comes from a pair whose first entry is pure,
I - z D is invertible on the whole closed disc (see :func:`_eval_chunk`).
The multiplier driving the dilation is the adjoint-direction transfer
function

    Psi(z) = tau_{U*}(z) = A* + z C* (I - z D*)^{-1} B*.

The canonical split separates the top-left block into its unitary part W
and completely non-unitary part; the transfer function then decomposes as
a constant unitary summand W plus the transfer function of the reduced
colligation on the c.n.u. subspace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matrix_core as mc
from .colligation import Colligation, build_colligation
from .errors import InputError, NumericError, ValidationError
from .pair_analysis import DEFAULT_TOL, ContractionPair

__all__ = [
    "TransferFunction",
    "adjoint_transfer",
    "eval_tau",
    "eval_tau_many",
    "schur_identity_residual",
    "CanonicalSplit",
    "canonical_split",
    "cnu_part",
    "split_residual",
    "circle_grid",
    "disc_points",
    "boundary_scan",
    "taylor_symbols",
    "Analysis",
    "analyze",
]

# cond(I - zD) past which an evaluation raises NumericError (a pole)
_COND_LIMIT = 1e14
# how far past the unit circle a point may lie and still count as in the
# closed disc (or on the circle): a few ulps of e^{i theta} are 1e-16
_DISC_TOL = 1e-12
# largest ||H0* M H1|| or ||H1* M H0|| accepted by canonical_split
_OFFDIAG_TOL = 1e-8
# points per stacked evaluation; stacking whole 720-point grids at dims
# 16-32 raised peak RSS from 65 to 98 MB
_EVAL_CHUNK = 64


@dataclass(frozen=True)
class TransferFunction:
    """Realization blocks (A, B, C, D) of z -> A + z B (I - z D)^{-1} C."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @functools.cached_property
    def d_norm(self) -> float:
        """||D||_2, for the pole screen of :func:`_eval_chunk`."""
        return mc.operator_norm(self.D)


def adjoint_transfer(coll: Colligation) -> TransferFunction:
    """Psi = tau_{U*}; the inner multiplier acting on the first defect space."""
    return TransferFunction(
        mc.adjoint(coll.A), mc.adjoint(coll.C), mc.adjoint(coll.B), mc.adjoint(coll.D)
    )


def _eval_chunk(tf: TransferFunction, z: np.ndarray) -> np.ndarray:
    """tau at every point of z; NumericError at a resolvent pole.

    A point is a pole when the 2-norm condition number of I - z D is not
    finite or exceeds ``_COND_LIMIT``; the values are formed as
    A + (z B) S with S = (I - z D)^{-1} C, one stacked solve for the chunk.

    Screen.  With a = |z| ||D||_2 < 1, Weyl's inequality for singular values
    gives ``s_max(I - zD) <= 1 + a`` and ``s_min(I - zD) >= 1 - a``, so
    ``cond(I - zD) <= (1 + a)/(1 - a)``.  A point whose bound is at most
    ``_COND_LIMIT / 100`` is a certified non-pole; only the other points get
    the stacked SVD of R = I - zD and the rule ``cond = s_max/s_min``.  The
    computed singular values of R lie within O(k eps ||R||) of the exact
    ones, with ||R|| <= 2, and the computed ||D||_2 has relative error
    O(k eps) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., SIAM 2002, for both).  A screened point has
    ``1 - a >= 2/(1 + 1e12)``, so the SVD rule would have read
    ``cond <~ 1.01e12 < _COND_LIMIT`` there: the screen raises at exactly
    the points the rule calls poles, with the rule's cond.

    Why no caller meets a pole.  Let U = [[a, b], [c, d]] be the colligation
    that ``build_colligation`` returns for a pair whose T1 is pure; the
    D-block here is d (for tau_U) or d* (for Psi and its c.n.u. part).
    Suppose d x = lambda x with |lambda| = 1 = ||x||.  U is unitary, so
    ||U (0 (+) x)|| = 1 forces b x = 0; a unimodular eigenvector of a
    contraction is one of its adjoint too, so d* x = conj(lambda) x, and
    ||U* (0 (+) x)|| = 1 forces c* x = 0.  Hence
    U* (0 (+) x) = conj(lambda) (0 (+) x), and pairing the forced action
    U M_dom = M_ran with 0 (+) x gives <h, y> = lambda <h, T1 y> for every
    h, where y = D2 E2 x is not 0 (E2 x is a unit vector of ran D2).  So
    T1 y = lambda y: a unimodular eigenvalue, which a pure T1 does not
    have.  Therefore rho(D) < 1 and I - zD is invertible on the closed disc
    for every colligation of a pair with T1 pure, the condition that every
    evaluation on the circle must meet (``vn_report``, the variety
    commands and ``symmetry_residual`` require it; Agler and McCarthy,
    Distinguished varieties, Acta Math. 194 (2005): such a variety meets
    the boundary of the bidisc only in the torus).  A pole here is a
    numerical failure, or a colligation not built from such a pair.
    """
    k = tf.D.shape[0]
    # kept: the general A + (zB) S would add +0.0 and turn -0.0 entries of A into +0.0
    if k == 0:
        return np.repeat(tf.A[None], z.size, axis=0)
    R = np.eye(k) - z[:, None, None] * tf.D
    a = np.abs(z) * tf.d_norm
    cond = np.divide(1.0 + a, 1.0 - a, out=np.full(z.size, np.inf), where=a < 1.0)
    rest = np.flatnonzero(cond > _COND_LIMIT / 100)
    try:
        if rest.size:
            s = np.linalg.svd(R[rest], compute_uv=False)
            cond[rest] = np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf),
                                   where=s[:, -1] > 0)
            poles = rest[~(cond[rest] <= _COND_LIMIT)]
            if poles.size:
                z0, c0 = complex(z[poles[0]]), float(cond[poles[0]])
                raise NumericError(f"resolvent numerically singular at z={z0} "
                                   f"(cond={c0:.3e})", z=z0, cond=c0)
        # C[None] is a stack of one matrix; numpy < 2 reads a 2-d right-hand
        # side against a 3-d stack as a stack of vectors
        S = np.linalg.solve(R, tf.C[None])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"resolvent evaluation failed: {exc}") from exc
    return tf.A + (z[:, None, None] * tf.B) @ S


def disc_points(z) -> np.ndarray:
    """z as a flat complex array; InputError unless every |z_i| <= 1
    (within ``_DISC_TOL``).

    A NaN point fails the test and is refused too.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    r = np.abs(z)
    if not np.all(r <= 1.0 + _DISC_TOL):
        raise InputError("transfer function evaluated outside the closed disc: "
                         f"|z|={np.max(r)}")
    return z


def eval_tau_many(tf: TransferFunction, z, reduce):
    """Evaluate the transfer function at every point of z, |z_i| <= 1.

    The points are taken in chunks of ``_EVAL_CHUNK``; ``reduce`` maps each
    chunk's stack of values, shape (m, dim, dim), to the rows the caller
    keeps (eigenvalues, singular values, or the values themselves).  Points
    where ``|z| ||D||_2`` keeps I - zD far from singular skip the pole SVD
    (see :func:`_eval_chunk`); a pole raises :class:`NumericError`.
    Returns the reduced rows of every point, in order.
    """
    z = disc_points(z)
    return np.concatenate([reduce(_eval_chunk(tf, z[start:start + _EVAL_CHUNK]))
                           for start in range(0, max(z.size, 1), _EVAL_CHUNK)])


def eval_tau(tf: TransferFunction, z: complex) -> np.ndarray:
    """Evaluate the transfer function at |z| <= 1; a resolvent pole raises
    :class:`NumericError` with ``details`` z and cond (see :func:`_eval_chunk`)."""
    return _eval_chunk(tf, disc_points(z))[0]


def schur_identity_residual(tf: TransferFunction, z: complex) -> float:
    """Residual of I - tau(z)* tau(z) = (1-|z|^2) C*(I-zbar D*)^{-1}(I-z D)^{-1} C."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise InputError("the isometry identity is an interior-point statement")
    val = eval_tau(tf, z)
    lhs = np.eye(tf.dim) - mc.adjoint(val) @ val
    k = tf.D.shape[0]
    inner = np.linalg.solve(np.eye(k) - z * tf.D, tf.C)
    outer = np.linalg.solve(np.eye(k) - np.conj(z) * mc.adjoint(tf.D), inner)
    rhs = (1.0 - abs(z) ** 2) * mc.adjoint(tf.C) @ outer
    return mc.operator_norm(lhs - rhs)


@dataclass(frozen=True)
class CanonicalSplit:
    """Unitary/c.n.u. splitting of a contraction.

    ``H0`` and ``H1`` are isometric column bases of the unitary and c.n.u.
    subspaces, W = H0* M H0 is unitary, E_cnu = H1* M H1 has spectrum
    strictly inside the disc, and ``lambdas`` lists the unimodular
    eigenvalues sigma(W) in deterministic order.
    """

    H0: np.ndarray
    H1: np.ndarray
    W: np.ndarray
    E_cnu: np.ndarray
    lambdas: np.ndarray

    @property
    def k(self) -> int:
        return self.H0.shape[1]


def canonical_split(M, tol_pure: float = DEFAULT_TOL.pure) -> CanonicalSplit:
    """Split a contraction into unitary (+) completely-non-unitary parts.

    The unitary subspace is spanned by eigenvectors whose eigenvalue modulus
    is at least 1 - tol_pure; for a contraction these eigenspaces reduce the
    operator, which is verified and enforced via the off-diagonal residual.
    """
    A = mc.as_square(M, "contraction")
    if mc.operator_norm(A) > 1.0 + 1e-8:
        raise ValidationError("canonical_split input is not a contraction",
                              norm=mc.operator_norm(A))
    w, V = mc.eig(A)
    selected = np.abs(w) >= 1.0 - tol_pure
    k = int(np.sum(selected))
    # the last r - k columns of the complete Q span the complement; at k = 0, Q = I
    q, rr = np.linalg.qr(V[:, selected], mode="complete")
    if np.min(np.abs(np.diag(rr)), initial=np.inf) < 1e-8:
        raise NumericError(
            "unimodular eigenvectors are numerically dependent; "
            "cannot orthonormalize the unitary subspace"
        )
    H0 = mc.phase_fix_columns(q[:, :k])
    H1 = q[:, k:]
    W = mc.adjoint(H0) @ A @ H0
    E_cnu = mc.adjoint(H1) @ A @ H1
    off = max(
        mc.operator_norm(mc.adjoint(H0) @ A @ H1),
        mc.operator_norm(mc.adjoint(H1) @ A @ H0),
    )
    if off > _OFFDIAG_TOL:
        raise ValidationError(
            "unitary-part subspace does not reduce the matrix; input is not "
            "a contraction within tolerance",
            offdiagonal_residual=float(off),
        )
    lambdas = mc.eigvals(W)
    if E_cnu.size and mc.spectral_radius(E_cnu) >= 1.0 - tol_pure:
        raise NumericError("c.n.u. part retained a near-unimodular eigenvalue")
    return CanonicalSplit(H0=H0, H1=H1, W=W, E_cnu=E_cnu, lambdas=lambdas)


def cnu_part(tf: TransferFunction, split: CanonicalSplit) -> TransferFunction:
    """Reduced transfer function on the c.n.u. subspace of the A-block."""
    H1 = split.H1
    return TransferFunction(
        A=mc.adjoint(H1) @ tf.A @ H1,
        B=mc.adjoint(H1) @ tf.B,
        C=tf.C @ H1,
        D=tf.D,
    )


def split_residual(tf: TransferFunction, split: CanonicalSplit, z: complex) -> float:
    """||tau(z) - (H0 W H0* + H1 tau_cnu(z) H1*)||; the block-diagonal law."""
    full = eval_tau(tf, z)
    sub = eval_tau(cnu_part(tf, split), z)
    recomposed = (split.H0 @ split.W @ mc.adjoint(split.H0)
                  + split.H1 @ sub @ mc.adjoint(split.H1))
    return mc.operator_norm(full - recomposed)


@dataclass(frozen=True)
class BoundaryScan:
    thetas: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray

    @property
    def skipped(self) -> list:
        # always empty: perfbench/ reads it; it goes with ROADMAP item 5
        return []

    def max_deviation(self) -> float:
        return float(max(np.max(np.abs(self.sigma_min - 1.0), initial=0.0),
                         np.max(np.abs(self.sigma_max - 1.0), initial=0.0)))


def circle_grid(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """The angles 2 pi j / n_theta, j < n_theta, and the points e^{i theta}."""
    if n_theta < 1:
        raise InputError("n_theta must be >= 1")
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return thetas, np.exp(1j * thetas)


def boundary_scan(tf: TransferFunction, n_theta: int = 720) -> BoundaryScan:
    """Singular-value sweep of tau(e^{i theta}) over a uniform grid; a
    resolvent pole raises :class:`NumericError` (see :func:`_eval_chunk`)."""
    thetas, z = circle_grid(n_theta)
    s = eval_tau_many(tf, z, lambda values: (
        np.linalg.svd(values, compute_uv=False) if tf.dim else np.ones((len(values), 1))))
    return BoundaryScan(thetas=thetas, sigma_min=s[:, -1], sigma_max=s[:, 0])


def taylor_symbols(tf: TransferFunction, count: int) -> list[np.ndarray]:
    """First ``count`` Taylor coefficients: [A, B C, B D C, B D^2 C, ...],
    with the B D^j from one ``power_stack``."""
    if count < 1:
        raise InputError("count must be >= 1")
    return [tf.A.copy(), *(mc.power_stack(tf.B, tf.D, count - 1) @ tf.C)]


@dataclass(frozen=True)
class Analysis:
    """A validated pair with its colligation; the defect data stay in
    ``pair.report.defects``.

    The canonical split of A* and the multiplier Psi are computed on first
    access, so commands that need only the colligation never fail inside
    :func:`canonical_split`.
    """

    pair: ContractionPair
    coll: Colligation

    @functools.cached_property
    def split(self) -> CanonicalSplit:
        return canonical_split(mc.adjoint(self.coll.A), tol_pure=self.pair.tol.pure)

    @functools.cached_property
    def psi(self) -> TransferFunction:
        return adjoint_transfer(self.coll)


def analyze(pair: ContractionPair) -> Analysis:
    """pair -> defects -> colligation; the defects are the ones validation
    built and kept in ``pair.report``."""
    return Analysis(pair, build_colligation(pair, *pair.report.defects))
