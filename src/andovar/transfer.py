"""Transfer functions of a unitary colligation and canonical splitting.

For U = [[A, B], [C, D]] unitary, tau_U(z) = A + z B (I - z D)^{-1} C is a
rational matrix inner function: contractive on the disc and unitary on the
circle.  When the colligation comes from a pair whose first entry is pure,
I - z D is invertible on the whole closed disc, and
``TransferFunction.cond_bound`` certifies it once per function.
The multiplier driving the dilation is the adjoint-direction transfer
function

    Psi(z) = tau_{U*}(z) = A* + z C* (I - z D*)^{-1} B*.

Transfer functions are evaluated only on the boundary grid
``circle_grid(n)``, the n-th roots of unity (:func:`eval_tau_many`): Psi is
unitary there, and a distinguished variety meets the boundary of the
bidisc only in the torus.

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
    "eval_tau_many",
    "CanonicalSplit",
    "canonical_split",
    "cnu_part",
    "circle_grid",
    "boundary_scan",
    "taylor_symbols",
    "Analysis",
    "analyze",
]

# bound on cond(I - zD) over the closed disc that certifies a transfer function
_COND_LIMIT = 1e12
# squarings of D that TransferFunction.cond_bound tries
_SQUARINGS = 10
# largest ||H0* M H1|| or ||H1* M H0|| accepted by canonical_split
_OFFDIAG_TOL = 1e-8
# points per stacked evaluation; stacking whole 720-point grids at dims
# 16-32 raised peak RSS from 65 to 98 MB
_EVAL_CHUNK = 64
# most points of a boundary grid, and of a variety sample (grid points x r1):
# sample_to_csv peaks near 430 bytes a sample point, 450 MB at 2^20 points
_GRID_MAX = 1 << 20
# largest cond_bound evaluated on cosets of more than one point; past it the
# folded power D^m loses digits near the circle (see eval_tau_many)
_COSET_COND_MAX = 1e4


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
    def cond_bound(self) -> float:
        """A bound on cond(I - zD) valid at every |z| <= 1; the function is
        certified pole-free on the closed disc when it is at most
        ``_COND_LIMIT`` (:func:`eval_tau_many` raises otherwise).

        (I - zD) sum_{j<m} (zD)^j = I - (zD)^m, so for |z| <= 1
        ``cond(I - zD) <= (1 + ||D||) S_m / (1 - ||D^m||)`` once
        ||D^m|| < 1, where S_m bounds sum_{j<m} ||D^j||: S_1 = 1 and
        S_2m <= (1 + ||D^m||) S_m.  At m = 1 this is Weyl's bound
        (1 + d)/(1 - d), one norm, which clears every function whose
        ||D||_2 < 1 is not within 2e-12 of 1; squaring D covers ||D||_2 = 1
        with rho(D) < 1, such as a shift (one of dimension n needs about
        log2(n) + 1 squarings).  The search takes m = 1, 2, 4, ... and stops
        at the first bound at most the limit, once (1 + ||D||) S_m alone
        passes it, or after ``_SQUARINGS`` squarings: each squaring doubles
        the rounding error of the power, so the computed D^(2^i) drifts from
        the exact one by about 2^i k eps, and past 2^10 that drift is no
        longer small against the gap 1 - ||D^m|| the bound divides by.

        Why no pair fails.  Let U = [[a, b], [c, d]] be the colligation that
        ``build_colligation`` returns for a pair whose T1 is pure; the
        D-block here is d (for tau_U) or d* (for Psi and its c.n.u. part).
        Suppose d x = lambda x with |lambda| = 1 = ||x||.  U is unitary, so
        ||U (0 (+) x)|| = 1 forces b x = 0; a unimodular eigenvector of a
        contraction is one of its adjoint too, so d* x = conj(lambda) x, and
        ||U* (0 (+) x)|| = 1 forces c* x = 0.  Hence
        U* (0 (+) x) = conj(lambda) (0 (+) x), and pairing the forced action
        U M_dom = M_ran with 0 (+) x gives <h, y> = lambda <h, T1 y> for
        every h, where y = D2 E2 x is not 0 (E2 x is a unit vector of
        ran D2).  So T1 y = lambda y: a unimodular eigenvalue, which a pure
        T1 does not have.  Therefore rho(D) < 1, ||D^m|| -> 0 and the bound
        is finite for every colligation of a pair with T1 pure, the
        condition that every evaluation on the circle must meet
        (``vn_report``, the variety commands and ``defining_polynomial``,
        which ``symmetry_residual`` calls, require it; Agler and McCarthy,
        Distinguished varieties, Acta Math. 194 (2005): such a variety
        meets the boundary of the bidisc only in the torus).  A missing
        certificate is a pair at the purity edge beyond the limit, or a
        colligation not built from such a pair.
        """
        d = mc.operator_norm(self.D)
        power, norm, partial = self.D, d, 1.0  # D^m, ||D^m|| and S_m at m = 1
        for _ in range(_SQUARINGS):
            if ((norm < 1.0 and (1.0 + d) * partial / (1.0 - norm) <= _COND_LIMIT)
                    or (1.0 + d) * partial > _COND_LIMIT):
                break
            partial *= 1.0 + norm
            power = power @ power
            norm = mc.operator_norm(power)
        return (1.0 + d) * partial / (1.0 - norm) if norm < 1.0 else np.inf


def adjoint_transfer(coll: Colligation) -> TransferFunction:
    """Psi = tau_{U*}; the inner multiplier acting on the first defect space."""
    return TransferFunction(
        mc.adjoint(coll.A), mc.adjoint(coll.C), mc.adjoint(coll.B), mc.adjoint(coll.D)
    )


def circle_grid(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """The angles 2 pi j / n_theta, j < n_theta, and the points e^{i theta};
    a grid of more than ``_GRID_MAX`` points raises :class:`InputError`
    before anything is allocated."""
    if n_theta < 1:
        raise InputError("n_theta must be >= 1")
    if n_theta > _GRID_MAX:
        raise InputError(f"n_theta {n_theta} exceeds the grid cap {_GRID_MAX}")
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return thetas, np.exp(1j * thetas)


def _coset_size(tf: TransferFunction, n_theta: int) -> int:
    """Points per coset of :func:`eval_tau_many`: the largest divisor of
    ``n_theta`` not above ``_EVAL_CHUNK``, or 1 when the certificate is
    past ``_COSET_COND_MAX``."""
    if not tf.cond_bound <= _COSET_COND_MAX:
        return 1
    return max(m for m in range(1, min(n_theta, _EVAL_CHUNK) + 1) if n_theta % m == 0)


def eval_tau_many(tf: TransferFunction, n_theta: int, reduce):
    """Evaluate the transfer function at every point of ``circle_grid(n_theta)``.

    ``reduce`` maps a stack of values, shape (points, dim, dim), to the
    rows the caller keeps (eigenvalues, singular values, or the values
    themselves); it sees at most ``_EVAL_CHUNK`` points at a time.  Returns
    the reduced rows of every point, in grid order.  A function whose
    ``TransferFunction.cond_bound`` exceeds ``_COND_LIMIT`` raises
    :class:`NumericError` with ``details`` cond_bound, before any solve; a
    function of dimension 0 or without a D-block solves nothing and needs
    no certificate.

    Cosets.  With w = e^{2 pi i / n} and m a divisor of n, the grid is the
    union of the n / m cosets {w^t zeta : zeta^m = 1}, t < n / m.  On a
    coset z^m = c_t = w^(t m) is constant, and the geometric series of the
    resolvent folds exactly, with no truncation:

        tau(z) = A + sum_{s<m} z^(s+1) B D^s S_t,   S_t = (I - c_t D^m)^{-1} C.

    z^(s+1) = w^(t (s+1)) zeta^(s+1), so with the terms scaled by their
    phases P_s = w^(t (s+1)) B D^s S_t, the m values of the coset are a
    length-m inverse DFT of the P_s.  One coset therefore costs one k x k
    solve, one (m p x k)(k x q) product with the ``power_stack`` of the
    B D^s, built once per call, and one ``ifft``.  Every phase is read
    from the grid by index, w^j = z[j mod n], not computed by powering.
    The solves of up to ``_EVAL_CHUNK`` cosets are stacked, and the
    products and transforms take whole cosets, at most ``_EVAL_CHUNK``
    points at a time.  m is the largest divisor of n not above
    ``_EVAL_CHUNK`` (:func:`_coset_size`); with m = 1 every point is its
    own coset and the values are A + (z B) (I - z D)^{-1} C, bit for bit
    the per-point solve.

    Invertibility.  Since 1 / (1 - x^m) = (1/m) sum_{zeta^m = 1}
    1 / (1 - zeta x), (I - c_t D^m)^{-1} is the mean of the resolvents
    (I - z D)^{-1} over the m points z of the coset, each of norm at most
    ``cond_bound``.  So the one certificate makes every coset solve
    invertible too, with cond(I - c_t D^m) <= 2 cond_bound.

    Error.  The product and the transform round at about eps times the
    terms' size, ||B|| ||C|| cond_bound.  The computed D^m is off by about
    eps, which the solve carries into S_t, and so into all m values of the
    coset, with a factor g_t^2, g_t = ||(I - c_t D^m)^{-1}||.  g_t is small
    unless a pole of D faces a point of the coset, and then about
    cond_bound / (2 m).  Against 40-digit mpmath values, on 24 000 random
    functions with cond_bound up to 1e4, the coset values stayed within
    24 eps (1 + ||A|| + ||B|| ||C|| (cond_bound + m g_t^2)); the tests
    allow 64 times that unit.  But D^m rounds away the gap 1 - |lambda|^m of an
    eigenvalue lambda near the circle, so at the purity edge the coset
    values lose digits the per-point solve keeps: on T1 = (1 - 2e-8) (+) J_3
    (cond_bound 2e8) they were 2.0e-10 off the reference, the per-point
    solve 3.2e-15.  Hence m = 1 whenever cond_bound exceeds
    ``_COSET_COND_MAX``.
    """
    _, z = circle_grid(n_theta)
    k = tf.D.shape[0]
    if not (tf.dim and k):
        # the general A + (zB) S would add +0.0 and turn -0.0 entries of A into +0.0
        return np.concatenate([reduce(np.repeat(tf.A[None], len(z[lo:lo + _EVAL_CHUNK]), 0))
                               for lo in range(0, n_theta, _EVAL_CHUNK)])
    if not tf.cond_bound <= _COND_LIMIT:
        raise NumericError(f"resolvent not certified invertible on the closed disc "
                           f"(cond bound {tf.cond_bound:.3e})", cond_bound=tf.cond_bound)
    m = _coset_size(tf, n_theta)
    cosets, batch = n_theta // m, max(1, _EVAL_CHUNK // m)  # batch: cosets per product
    p, q = tf.A.shape
    # term u of a coset carries z^u for u >= 1 and z^m (the s = m - 1 term) for
    # u = 0, where zeta^m = 1: the stack is rolled so that ifft needs no shift
    terms = np.roll(mc.power_stack(tf.B, tf.D, m), 1, axis=0)
    exponents = np.r_[m, 1:m]
    phase = z[np.arange(cosets)[:, None] * exponents % n_theta]  # row t: w^(t u); [t, 0] = c_t
    Dm = np.linalg.matrix_power(tf.D, m)
    out = None
    for lo in range(0, cosets, _EVAL_CHUNK):
        # C[None] is a stack of one matrix; numpy < 2 reads a 2-d right-hand
        # side against a 3-d stack as a stack of vectors.  Dm[None] and
        # terms[None]: numpy rounds (1, 1, 1) * (1, 1), a one-point chunk of a
        # 1 x 1 block, by another loop than every other chunk shape
        S = np.linalg.solve(np.eye(k) - phase[lo:lo + _EVAL_CHUNK, :1, None] * Dm[None],
                            tf.C[None])
        for i in range(0, len(S), batch):
            t = slice(lo + i, lo + min(i + batch, len(S)))
            ph = phase[t, :, None, None]
            P = ((ph * terms[None]).reshape(len(ph), m * p, k) @ S[i:i + batch]).reshape(
                len(ph), m, p, q)
            P[:, 0] += tf.A  # term 0 meets zeta^0 = 1 at every point of the coset
            rows = reduce(np.fft.ifft(P, axis=1, norm="forward").reshape(len(ph) * m, p, q))
            if out is None:
                out = np.empty((n_theta, *rows.shape[1:]), rows.dtype)
            # row r of coset t is grid point t + r n / m
            out.reshape(m, cosets, *rows.shape[1:])[:, t] = (
                rows.reshape(len(ph), m, *rows.shape[1:]).swapaxes(0, 1))
    return out


@dataclass(frozen=True)
class CanonicalSplit:
    """Unitary/c.n.u. splitting of a contraction.

    ``H0`` and ``H1`` are isometric column bases of the unitary and c.n.u.
    subspaces, W = H0* M H0 is unitary, E_cnu = H1* M H1 has spectrum
    strictly inside the disc, and ``lambdas`` lists the unimodular
    eigenvalues sigma(W) by (real, imag).  No phase or basis is fixed in
    either subspace: nothing computed from the split depends on it.
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
    H0, H1 = q[:, :k], q[:, k:]
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
    if E_cnu.size and mc.spectral_radius(E_cnu) >= 1.0 - tol_pure:
        raise NumericError("c.n.u. part retained a near-unimodular eigenvalue")
    return CanonicalSplit(H0=H0, H1=H1, W=W, E_cnu=E_cnu, lambdas=w[selected])


def cnu_part(tf: TransferFunction, split: CanonicalSplit) -> TransferFunction:
    """Reduced transfer function on the c.n.u. subspace of the A-block."""
    H1 = split.H1
    return TransferFunction(
        A=mc.adjoint(H1) @ tf.A @ H1,
        B=mc.adjoint(H1) @ tf.B,
        C=tf.C @ H1,
        D=tf.D,
    )


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


def boundary_scan(tf: TransferFunction, n_theta: int = 720) -> BoundaryScan:
    """Singular-value sweep of tau(e^{i theta}) over a uniform grid; a
    function without a pole certificate raises :class:`NumericError` (see
    ``TransferFunction.cond_bound``)."""
    s = eval_tau_many(tf, n_theta, lambda values: (
        np.linalg.svd(values, compute_uv=False)[:, [-1, 0]] if tf.dim
        else np.ones((len(values), 2))))
    thetas, _ = circle_grid(n_theta)
    return BoundaryScan(thetas=thetas, sigma_min=s[:, 0], sigma_max=s[:, 1])


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
