"""Dense complex-matrix primitives used by every other module.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``;
:func:`as_matrix` is the single validation/coercion entry point.  All
decompositions are delegated to LAPACK via numpy but re-exported here with
deterministic ordering, so that runs are bit-identical on a given platform.

Phase convention: only :func:`herm_eig` fixes one, because the defect bases
built from it are printed.  The vectors of :func:`svd` and :func:`eig` are
LAPACK's: every consumer is invariant under their phases.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "as_matrix",
    "as_square",
    "adjoint",
    "operator_norm",
    "spectral_radius",
    "herm_eig",
    "eig",
    "eigvals",
    "unitary_eigvals",
    "svd",
    "power_stack",
    "first_power_below",
    "polar_unitary",
    "phase_fix_columns",
]

# relative size of M - M* that herm_eig still treats as Hermitian
_HERMITIAN_TOL = 1e-10
# largest |mu| of a Cayley eigenvalue that unitary_eigvals keeps; its error
# against eigvals grows like eps * max|mu| (measured 6e-14 at 100)
_CAYLEY_MU_MAX = 100.0
# the first Cayley pole e^{i}: an irrational angle, so no grid point sits on it
_CAYLEY_POLE = np.exp(1j)


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim == 1:
        A = A.reshape(1, -1) if A.size else A.reshape(0, 0)
    if A.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains non-finite entries")
    return A


def as_square(M, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix`, and reject a matrix that is not square."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise InputError(f"{name} must be square, got shape {A.shape}")
    return A


def adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def _lapack(what: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a LAPACK failure raised as
    ``NumericError("<what>: <reason>")``."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{what}: {exc}") from exc


def operator_norm(M) -> float:
    """Largest singular value; 0 for empty or zero matrices."""
    A = as_matrix(M)
    s = _lapack("SVD failed while computing operator norm", np.linalg.svd, A, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def spectral_radius(M) -> float:
    A = as_square(M, "spectral radius input")
    w = _lapack("eigenvalue solve failed", np.linalg.eigvals, A)
    return float(np.max(np.abs(w), initial=0.0))


def phase_fix_columns(U: np.ndarray) -> np.ndarray:
    """Rotate every column of U so its first largest-modulus entry is real
    positive (zero columns stay): the convention of :func:`herm_eig`, kept
    because the defect bases it gives are printed."""
    U = U.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        if not col.size:
            continue
        i = int(np.argmax(np.abs(col)))
        a = col[i]
        if abs(a) == 0.0:
            continue
        U[:, j] = col / (a / abs(a))
    return U


def herm_eig(M):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with real eigenvalues ascending and orthonormal,
    phase-fixed eigenvector columns.  Raises if M is not Hermitian within
    ``_HERMITIAN_TOL * max(1, ||M||)``.
    """
    A = as_square(M, "herm_eig input")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)) * A.shape[0])
    if operator_norm(A - adjoint(A)) > _HERMITIAN_TOL * scale:
        raise InputError("herm_eig input is not Hermitian within tolerance")
    w, V = _lapack("Hermitian eigensolver failed", np.linalg.eigh, 0.5 * (A + adjoint(A)))
    return w, phase_fix_columns(V)


def eig(M):
    """General eigendecomposition with deterministic ordering.

    Eigenvalues are sorted ascending by (real, imag); the eigenvector
    columns are LAPACK's, of unit norm, with no phase fixed.  Returns
    ``(w, V)``.
    """
    A = as_square(M, "eig input")
    w, V = _lapack("eigensolver failed to converge", np.linalg.eig, A)
    order = np.lexsort((w.imag, w.real))
    return w[order], V[:, order]


def eigvals(M) -> np.ndarray:
    """Deterministically ordered eigenvalues (ascending by real, then imag).

    A stack of matrices, shape (m, r, r), gives one ordered row per matrix.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim != 3:
        A = as_square(M, "eigvals input")
    elif A.shape[1] != A.shape[2]:
        raise InputError(f"eigvals input must be square, got shape {A.shape}")
    w = _lapack("eigensolver failed to converge", np.linalg.eigvals, A)
    return np.take_along_axis(w, np.lexsort((w.imag, w.real)), axis=-1)


def unitary_eigvals(U) -> np.ndarray:
    """:func:`eigvals` of a stack of unitary matrices, shape (m, r, r), by a
    Hermitian solve.

    Rows are ordered by (real, imag), as in :func:`eigvals`.  For r = 1
    and r = 2 this is :func:`eigvals`, which is as fast there; so is a
    single matrix, and a non-square stack, which it refuses.  From r = 3 on
    the route below is faster: on 720 unitary 3 x 3 matrices in 60-row
    chunks it took about half the time of ``eigvals``.  With the pole
    ``omega = e^{i}`` and W = omega U, the Cayley transform
    ``H = i(I - W)(I + W)^{-1} = i(2K - I)``, K = inv(I + W), is Hermitian
    with eigenvalues ``mu_j = tan(phi_j / 2)`` for the eigenvalues
    ``e^{i phi_j}`` of W, and ``lambda_j = (1 + i mu_j) / ((1 - i mu_j) omega)``.
    One stacked ``inv`` and one stacked ``eigvalsh`` of (H + H*)/2 serve a
    whole stack.  The angle of omega is irrational, so an exact -1
    eigenvalue of a structured input (z1 = -1 on an even grid) is not on
    the pole.

    Error.  ||K||_2 = sqrt(1 + max mu^2)/2 and ||I + W|| <= 2.  Each column of
    the computed inverse is the exact one of a matrix within O(r eps) of
    I + W (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    SIAM 2002, ch. 14), so the error of K is K E with ||E|| = O(r eps ||K||).
    In the eigenbasis of W it moves mu_j by O(r eps sqrt(1 + mu_j^2) ||K||),
    and ``eigvalsh`` adds O(r eps ||H||) (Weyl; Higham ch. 7).  Since
    ``|d lambda / d mu| = 2 / (1 + mu^2)``, lambda_j is off by
    O(r eps (1 + max|mu|)).  So a row is kept only when
    ``max|mu| <= _CAYLEY_MU_MAX``; measured against ``eigvals`` on random
    unitaries and Psi values (r = 2-32), the largest difference was 6e-14 at
    max|mu| = 100, 3.2e-13 at 1e3 and 4.8e-11 at 1e6, and 4.1e-14 on 12 000
    random unitaries at r = 3.  Dropping the anti-Hermitian part of H,
    which is O(delta ||K||^2) for an input within delta of unitary, moves
    each mu_j only in its imaginary part to first order: lambda_j is the
    eigenvalue of U brought to the circle.

    A rejected row is solved once more with the pole at the middle of the
    widest angular gap of its first estimates; the gap is at least 2 pi / r,
    so then max|mu| <= cot(pi / (2r)).  A row rejected again, non-finite, or
    with a singular I + W goes to ``np.linalg.eigvals``.  Each row's result
    depends only on its own matrix, so a row of a stack equals the
    single-matrix call bit for bit.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 3 or U.shape[-1] < 3 or U.shape[-1] != U.shape[-2]:
        return eigvals(U)
    lam, ok = _cayley_eigvals(U, np.full(len(U), _CAYLEY_POLE))
    redo = np.flatnonzero(~ok & np.isfinite(lam).all(axis=-1))
    if redo.size:
        est = np.sort(np.angle(lam[redo]), axis=-1)
        gaps = np.diff(est, axis=-1, append=est[:, :1] + 2.0 * np.pi)
        j = np.argmax(gaps, axis=-1)[:, None]
        mid = np.take_along_axis(est + 0.5 * gaps, j, axis=-1)[:, 0]
        lam[redo], ok[redo] = _cayley_eigvals(U[redo], -np.exp(-1j * mid))
    for i in np.flatnonzero(~ok):
        lam[i] = _lapack("eigensolver failed to converge", np.linalg.eigvals, U[i])
    return np.take_along_axis(lam, np.lexsort((lam.imag, lam.real)), axis=-1)


def _cayley_eigvals(U: np.ndarray, omega: np.ndarray):
    """Eigenvalues of each U[i] through the Cayley transform of omega[i] U[i],
    and the mask of the rows with every |mu| <= _CAYLEY_MU_MAX.  A row whose
    I + W is singular is NaN and not in the mask."""
    I = np.eye(U.shape[-1])
    try:
        K = np.linalg.inv(I + omega[:, None, None] * U)
        # (H + H*)/2 with H = i(2K - I)
        mu = np.linalg.eigvalsh(1j * (K - K.conj().swapaxes(-1, -2)))
    except np.linalg.LinAlgError:
        if len(U) == 1:
            return np.full(U.shape[:-1], np.nan, complex), np.zeros(1, bool)
        rows = [_cayley_eigvals(U[i:i + 1], omega[i:i + 1]) for i in range(len(U))]
        return tuple(np.concatenate(part) for part in zip(*rows))
    lam = (1.0 + 1j * mu) / ((1.0 - 1j * mu) * omega[:, None])
    return lam, np.max(np.abs(mu), axis=-1) <= _CAYLEY_MU_MAX


def svd(M):
    """Reduced SVD with descending singular values; the singular vectors are
    LAPACK's, with no phase fixed."""
    A = as_matrix(M)
    return _lapack("SVD failed to converge", np.linalg.svd, A, full_matrices=False)


def power_stack(X0, T, count: int) -> np.ndarray:
    """X0 T^k for k = 0..count-1, stacked in an array of shape (count, r, c).

    Built by doubling (Smith, SIAM J. Appl. Math. 16, 1968): once the first
    m terms are in place, the next m are those m terms times T^m.  The m
    terms lie contiguously as one (m r) x c block, so each doubling step is
    one matrix product plus one squaring of T: ceil(log2 count) steps, where
    the term-by-term recurrence makes count - 1 products.
    """
    r, c = X0.shape
    out = np.empty((count, r, c), complex)
    out[:1] = X0
    flat = out.reshape(count * r, c)  # rows k r .. (k+1) r hold X0 T^k
    filled, power = 1, T
    while filled < count:
        step = min(filled, count - filled)
        flat[filled * r:(filled + step) * r] = flat[:step * r] @ power
        filled += step
        power = power @ power
    return out


def first_power_below(T, tol: float, cap: int) -> int:
    """Smallest k in 1..cap with ||T^k|| < tol, or cap + 1 if there is none.

    For a contraction ||T^(k+1)|| <= ||T|| ||T^k|| <= ||T^k||, so the
    powers at or above tol are exactly 1..k-1.  The doubling phase squares
    T until a square T^(2^i) falls below tol or 2^i exceeds cap, and keeps
    the squares.  Then binary lifting finds k - 1: starting from
    lo = 2^(i-1), each probe j = i-2, ..., 0 forms T^lo T^(2^j) from kept
    matrices and keeps it while its norm stays at or above tol.  One product
    and one norm per probe; at most ceil(log2(cap+1)) squarings and
    2 ceil(log2(cap+1)) + 1 norms per search, and no other matrix power."""
    power = as_square(T, "power search input")
    squares = []  # squares[j] = T^(2^j), every one at or above tol
    while 2 ** len(squares) <= cap and operator_norm(power) >= tol:
        squares.append(power)
        power = power @ power
    if not squares:
        return 1
    lo, lo_power = 2 ** (len(squares) - 1), squares.pop()
    for j in reversed(range(len(squares))):
        if lo + 2 ** j > cap:
            continue
        probe = lo_power @ squares[j]
        if operator_norm(probe) >= tol:
            lo, lo_power = lo + 2 ** j, probe
    return lo + 1


def polar_unitary(X) -> np.ndarray:
    """Unitary polar factor (nearest unitary for a near-unitary input)."""
    A = as_matrix(X)
    U, _, Vh = _lapack("polar factorization failed", np.linalg.svd, A)
    return U @ Vh
