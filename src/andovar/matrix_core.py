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
    "svd",
    "matrix_power_norm",
    "polar_unitary",
    "phase_fix_columns",
]

# relative size of M - M* that herm_eig still treats as Hermitian
_HERMITIAN_TOL = 1e-10


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
