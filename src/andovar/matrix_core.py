"""Dense complex-matrix primitives used by every other module.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``;
:func:`as_matrix` is the single validation/coercion entry point.  All
decompositions are delegated to LAPACK via numpy but re-exported here with
deterministic ordering and phase conventions so that every downstream
construction is reproducible bit-for-bit on a given platform.

Phase convention: in each eigen/singular vector the first entry of largest
modulus is made real and positive.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "as_matrix",
    "adjoint",
    "operator_norm",
    "spectral_radius",
    "herm_eig",
    "eig",
    "eigvals",
    "unitary_eigvals",
    "svd",
    "matrix_power_norm",
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


def adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def operator_norm(M) -> float:
    """Largest singular value; 0 for empty or zero matrices."""
    A = as_matrix(M)
    if A.size == 0:
        return 0.0
    try:
        s = np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed while computing operator norm: {exc}") from exc
    return float(s[0]) if s.size else 0.0


def spectral_radius(M) -> float:
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise InputError("spectral radius needs a square matrix")
    if A.size == 0:
        return 0.0
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solve failed: {exc}") from exc
    return float(np.max(np.abs(w)))


def phase_fix_columns(U: np.ndarray, Vh: np.ndarray | None = None):
    """Rotate every column of U so its first largest-modulus entry is real positive.

    If ``Vh`` is given (SVD partner, one row per column of U), the inverse
    rotation is applied to the matching row so that products are preserved.
    Zero columns are left untouched.
    """
    U = U.copy()
    Vh = None if Vh is None else Vh.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        if not col.size:
            continue
        i = int(np.argmax(np.abs(col)))
        a = col[i]
        if abs(a) == 0.0:
            continue
        ph = a / abs(a)
        U[:, j] = col / ph
        if Vh is not None:
            Vh[j, :] = Vh[j, :] * ph
    return U if Vh is None else (U, Vh)


def herm_eig(M):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with real eigenvalues ascending and orthonormal,
    phase-fixed eigenvector columns.  Raises if M is not Hermitian within
    ``_HERMITIAN_TOL * max(1, ||M||)``.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise InputError("herm_eig needs a square matrix")
    if A.size == 0:
        return np.zeros(0), np.zeros((0, 0), complex)
    scale = max(1.0, float(np.abs(A).max()) * A.shape[0])
    if operator_norm(A - adjoint(A)) > _HERMITIAN_TOL * scale:
        raise InputError("herm_eig input is not Hermitian within tolerance")
    try:
        w, V = np.linalg.eigh(0.5 * (A + adjoint(A)))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc
    return w, phase_fix_columns(V)


def eig(M):
    """General eigendecomposition with deterministic ordering.

    Eigenvalues are sorted ascending by (real, imag); eigenvectors are
    unit-norm and phase-fixed.  Returns ``(w, V)``.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise InputError("eig needs a square matrix")
    if A.size == 0:
        return np.zeros(0, complex), np.zeros((0, 0), complex)
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    V = V[:, order]
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0] = 1.0
    return w, phase_fix_columns(V / norms)


def eigvals(M) -> np.ndarray:
    """Deterministically ordered eigenvalues (ascending by real, then imag).

    A stack of matrices, shape (m, r, r), gives one ordered row per matrix.
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim != 3:
        A = as_matrix(M)
    if A.size == 0:
        return np.zeros(A.shape[:-1], complex)
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    return np.take_along_axis(w, np.lexsort((w.imag, w.real)), axis=-1)


def unitary_eigvals(U) -> np.ndarray:
    """:func:`eigvals` of a stack of unitary matrices, shape (m, r, r), by a
    Hermitian solve.

    Rows are ordered by (real, imag), as in :func:`eigvals`.  Below r = 4
    this is :func:`eigvals`, which is faster there.  Otherwise, with the
    pole ``omega = e^{i}`` and W = omega U, the Cayley transform
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
    max|mu| = 100, 3.2e-13 at 1e3 and 4.8e-11 at 1e6.  Dropping the
    anti-Hermitian part of H, which is O(delta ||K||^2) for an input within
    delta of unitary, moves each mu_j only in its imaginary part to first
    order: lambda_j is the eigenvalue of U brought to the circle.

    A rejected row is solved once more with the pole at the middle of the
    widest angular gap of its first estimates; the gap is at least 2 pi / r,
    so then max|mu| <= cot(pi / (2r)).  A row rejected again, non-finite, or
    with a singular I + W goes to ``np.linalg.eigvals``.  Each row's result
    depends only on its own matrix, so a row of a stack equals the
    single-matrix call bit for bit.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape[-1] < 4 or not U.size:
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
        try:
            lam[i] = np.linalg.eigvals(U[i])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigensolver failed to converge: {exc}") from exc
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
    """Reduced SVD with descending singular values and phase-fixed singular
    vectors."""
    A = as_matrix(M)
    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    U, Vh = phase_fix_columns(U, Vh)
    return U, s, Vh


def matrix_power_norm(T, k: int) -> float:
    """||T^k|| computed through binary powering (exact matrix products)."""
    A = as_matrix(T)
    if A.shape[0] != A.shape[1]:
        raise InputError("matrix power needs a square matrix")
    if k < 0:
        raise InputError("power must be nonnegative")
    return operator_norm(np.linalg.matrix_power(A, k))


def first_power_below(T, tol: float, cap: int) -> int:
    """Smallest k in 1..cap with ||T^k|| < tol, or cap + 1 if there is none.

    For a contraction ||T^(k+1)|| <= ||T|| ||T^k|| <= ||T^k||, so once
    ||T^k|| < tol holds it holds for every larger k.  Hence k can be
    bracketed by doubling, with ``lo`` the last power at or above tol, and
    then bisected: O(log k) norms in all."""
    A = as_matrix(T)
    lo, hi = 0, 1
    while hi <= cap and matrix_power_norm(A, hi) >= tol:
        lo, hi = hi, 2 * hi
    if hi > cap:
        if lo == cap or matrix_power_norm(A, cap) >= tol:
            return cap + 1
        hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if matrix_power_norm(A, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def polar_unitary(X) -> np.ndarray:
    """Unitary polar factor (nearest unitary for a near-unitary input)."""
    A = as_matrix(X)
    if A.size == 0:
        return A
    try:
        U, _, Vh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"polar factorization failed: {exc}") from exc
    return U @ Vh
