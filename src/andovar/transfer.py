"""Transfer functions of a unitary colligation and canonical splitting.

For U = [[A, B], [C, D]] unitary, tau_U(z) = A + z B (I - z D)^{-1} C is a
rational matrix inner function: contractive on the disc and unitary on the
circle away from resolvent poles.  The multiplier driving the dilation is
the adjoint-direction transfer function

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
from .errors import BoundaryPoleError, InputError, NumericError, ValidationError
from .pair_analysis import DEFAULT_TOL, ContractionPair, DefectData

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


def _eval_chunk(tf: TransferFunction, z: np.ndarray):
    """tau at the non-pole points of z, and cond(I - z_i D) or a bound on it.

    A point is a pole when the 2-norm condition number of I - z D is not
    finite or exceeds ``_COND_LIMIT``; the values are formed as
    A + (z B) S with S = (I - z D)^{-1} C, one stacked solve for the chunk.

    Screen.  With a = |z| ||D||_2 < 1, Weyl's inequality for singular values
    gives ``s_max(I - zD) <= 1 + a`` and ``s_min(I - zD) >= 1 - a``, so
    ``cond(I - zD) <= (1 + a)/(1 - a)``.  A point whose bound is at most
    ``_COND_LIMIT / 100`` is a certified non-pole and the bound is its
    returned cond; only the other points get the stacked SVD of R = I - zD
    and the rule ``cond = s_max/s_min``.  The screen changes no output.  The
    computed singular values of R lie within O(k eps ||R||) of the exact ones,
    with ||R|| <= 2, and the computed ||D||_2 has relative error O(k eps)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
    2002, for both).  A screened point has ``1 - a >= 2/(1 + 1e12)``, so
    the SVD rule would have read ``cond <~ 1.01e12 < _COND_LIMIT`` there.
    The pole mask is therefore the rule's mask at every point, the values
    come from the same solve on the same R[ok], and a pole's cond is still
    its SVD value: every output is bit-identical to applying the rule at
    every point.
    """
    k = tf.D.shape[0]
    if k == 0:
        return np.repeat(tf.A[None], z.size, axis=0), np.ones(z.size)
    R = np.eye(k) - z[:, None, None] * tf.D
    a = np.abs(z) * tf.d_norm
    cond = np.divide(1.0 + a, 1.0 - a, out=np.full(z.size, np.inf), where=a < 1.0)
    rest = cond > _COND_LIMIT / 100
    try:
        if rest.any():
            s = np.linalg.svd(R[rest], compute_uv=False)
            cond[rest] = np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf),
                                   where=s[:, -1] > 0)
        ok = cond <= _COND_LIMIT
        # C[None] is a stack of one matrix; numpy < 2 reads a 2-d right-hand
        # side against a 3-d stack as a stack of vectors
        S = np.linalg.solve(R[ok], tf.C[None])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"resolvent evaluation failed: {exc}") from exc
    return tf.A + (z[ok, None, None] * tf.B) @ S, cond


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
    (see :func:`_eval_chunk`); the rest are tested by it.
    Returns the reduced rows of the non-pole points, in order, and the
    boolean mask of the poles (see :func:`eval_tau`).
    """
    z = disc_points(z)
    rows, poles = [], []
    for start in range(0, max(z.size, 1), _EVAL_CHUNK):
        values, cond = _eval_chunk(tf, z[start:start + _EVAL_CHUNK])
        rows.append(reduce(values))
        poles.append(~(cond <= _COND_LIMIT))
    return np.concatenate(rows), np.concatenate(poles)


def eval_tau(tf: TransferFunction, z: complex) -> np.ndarray:
    """Evaluate the transfer function at |z| <= 1.

    At boundary points where I - z D is numerically singular the value is a
    genuine pole of the resolvent formula; this raises
    :class:`BoundaryPoleError` and the caller is expected to skip or perturb.
    """
    z = complex(z)
    values, cond = _eval_chunk(tf, disc_points(z))
    if not len(values):
        raise BoundaryPoleError(
            f"resolvent numerically singular at z={z} (cond={cond[0]:.3e})",
            z=z, cond=float(cond[0]))
    return values[0]


def schur_identity_residual(tf: TransferFunction, z: complex) -> float:
    """Residual of I - tau(z)* tau(z) = (1-|z|^2) C*(I-zbar D*)^{-1}(I-z D)^{-1} C."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise InputError("the isometry identity is an interior-point statement")
    val = eval_tau(tf, z)
    m = tf.dim
    lhs = np.eye(m) - mc.adjoint(val) @ val
    k = tf.D.shape[0]
    if k == 0:
        rhs = np.zeros((m, m), complex)
    else:
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
    A = mc.as_matrix(M, "contraction")
    if A.shape[0] != A.shape[1]:
        raise InputError("canonical_split needs a square matrix")
    r = A.shape[0]
    if mc.operator_norm(A) > 1.0 + 1e-8:
        raise ValidationError("canonical_split input is not a contraction",
                              norm=mc.operator_norm(A))
    w, V = mc.eig(A)
    selected = np.abs(w) >= 1.0 - tol_pure
    k = int(np.sum(selected))
    if k == 0:
        H0 = np.zeros((r, 0), complex)
        H1 = np.eye(r, dtype=complex)
    else:
        vecs = V[:, selected]
        q, rr = np.linalg.qr(vecs)
        if np.min(np.abs(np.diag(rr))) < 1e-8:
            raise NumericError(
                "unimodular eigenvectors are numerically dependent; "
                "cannot orthonormalize the unitary subspace"
            )
        H0 = mc.phase_fix_columns(q)
        # complement basis: eigenvectors of I - H0 H0* at eigenvalue 1
        wp, vp = mc.herm_eig(np.eye(r) - H0 @ mc.adjoint(H0))
        H1 = vp[:, k:]
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
    skipped: list

    @property
    def skip_rate(self) -> float:
        total = len(self.thetas) + len(self.skipped)
        return len(self.skipped) / total if total else 0.0

    def max_deviation(self) -> float:
        if self.sigma_min.size == 0:
            return 0.0
        return float(max(np.max(np.abs(self.sigma_min - 1.0)),
                         np.max(np.abs(self.sigma_max - 1.0))))


def circle_grid(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """The angles 2 pi j / n_theta, j < n_theta, and the points e^{i theta}."""
    if n_theta < 1:
        raise InputError("n_theta must be >= 1")
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return thetas, np.exp(1j * thetas)


def boundary_scan(tf: TransferFunction, n_theta: int = 720) -> BoundaryScan:
    """Singular-value sweep of tau(e^{i theta}) over a uniform grid.

    Boundary poles of the resolvent are skipped and reported rather than
    extrapolated.
    """
    thetas, z = circle_grid(n_theta)
    s, poles = eval_tau_many(tf, z, lambda values: (
        np.linalg.svd(values, compute_uv=False) if tf.dim else np.ones((len(values), 1))))
    return BoundaryScan(
        thetas=thetas[~poles],
        sigma_min=s[:, -1],
        sigma_max=s[:, 0],
        skipped=thetas[poles].tolist(),
    )


def taylor_symbols(tf: TransferFunction, count: int) -> list[np.ndarray]:
    """First ``count`` Taylor coefficients: [A, B C, B D C, B D^2 C, ...]."""
    if count < 1:
        raise InputError("count must be >= 1")
    out = [tf.A.copy()]
    if count == 1:
        return out
    m = tf.dim
    k = tf.D.shape[0]
    if k == 0:
        out.extend(np.zeros((m, m), complex) for _ in range(count - 1))
        return out
    acc = tf.C.copy()
    for _ in range(count - 1):
        out.append(tf.B @ acc)
        acc = tf.D @ acc
    return out


@dataclass(frozen=True)
class Analysis:
    """A validated pair with its defect data and colligation.

    The canonical split of A* and the multiplier Psi are computed on first
    access, so commands that need only the colligation never fail inside
    :func:`canonical_split`.
    """

    pair: ContractionPair
    d1: DefectData
    d2: DefectData
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
    d1, d2 = pair.report.defects
    return Analysis(pair, d1, d2, build_colligation(pair, d1, d2))
