"""Validation and defect analysis for a commuting pair of contractions.

The objects built here fix all coordinates used downstream: each contraction
T gets a defect operator D = (I - T T*)^(1/2) and an isometric column basis
of ran(D), and the pair gets purity flags plus the truncation degree that
controls how much of the vector-valued Hardy space a dilation needs.

Purity is decided by the spectral radius: for a matrix contraction,
T*^m -> 0 strongly iff every eigenvalue lies strictly inside the unit disc.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import matrix_core as mc
from .errors import (
    CommutationError,
    ContractionError,
    DimensionMismatchError,
    InputError,
    PurityError,
)

__all__ = [
    "Tolerances",
    "PairReport",
    "ContractionPair",
    "DefectData",
    "validate_pair",
    "defect",
    "truncation_degree",
    "generate_pair",
    "GENERATOR_KINDS",
    "TRUNCATION_CAP",
    "DEFAULT_TOL",
]

TRUNCATION_CAP = 2000


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances, overridable per run.

    The only place a tolerance value is written: every tolerance argument
    in the library defaults to a field of ``DEFAULT_TOL``, and functions
    that take a pair read ``pair.tol``.  ``commute`` defaults to
    1e-10 * dim and is resolved lazily so a single Tolerances object works
    for any dimension.
    """

    commute: float | None = None
    contract: float = 1e-10
    pure: float = 1e-8
    rank: float = 1e-10
    trunc: float = 1e-9

    def commute_for(self, dim: int) -> float:
        return self.commute if self.commute is not None else 1e-10 * dim

    def defect_slack(self) -> float:
        """How far below zero the eigenvalues of I - T T* may lie for a T
        accepted as a contraction.

        ||T|| <= 1 + eps keeps them above -(2 eps + eps^2), with
        eps = ``contract``.
        """
        return max(self.contract, 2.0 * self.contract + self.contract ** 2)

    def halved(self) -> "Tolerances":
        """Strict mode: every tolerance halved."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return Tolerances(**{name: None if v is None else 0.5 * v
                             for name, v in values.items()})


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class PairReport:
    commute_residual: float
    norms: tuple[float, float]
    spectral_radii: tuple[float, float]
    pure: tuple[bool, bool]
    defect_ranks: tuple[int, int]
    # the DefectData behind defect_ranks, for analyze; not in to_dict
    defects: tuple[DefectData, DefectData] = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "commute_residual": self.commute_residual,
            "norms": list(self.norms),
            "spectral_radii": list(self.spectral_radii),
            "pure": list(self.pure),
            "defect_ranks": list(self.defect_ranks),
        }


@dataclass(frozen=True)
class DefectData:
    """Defect operator D, an isometric basis of ran(D), and its rank."""

    D: np.ndarray
    basis: np.ndarray
    rank: int


@dataclass(frozen=True)
class ContractionPair:
    """A validated pair; ``report`` holds its purity verdict and defects."""

    T1: np.ndarray
    T2: np.ndarray
    dim: int
    tol: Tolerances
    report: PairReport

    @classmethod
    def create(cls, T1, T2, tol: Tolerances | None = None) -> "ContractionPair":
        """Validate and wrap; raises one of the ValidationError subclasses."""
        tol = tol or DEFAULT_TOL
        A, B = mc.as_matrix(T1, "T1"), mc.as_matrix(T2, "T2")
        return cls(T1=A, T2=B, dim=A.shape[0], tol=tol, report=validate_pair(A, B, tol))

    def require_pure(self, *entries: int) -> None:
        """Raise :class:`PurityError` unless validation found each Tj pure."""
        for j in entries:
            if not self.report.pure[j - 1]:
                rho = self.report.spectral_radii[j - 1]
                raise PurityError(f"T{j} is not pure (spectral radius {rho:.6g})",
                                  spectral_radius=rho)


def validate_pair(T1, T2, tol: Tolerances | None = None) -> PairReport:
    """Check commutation and contractivity; report purity and defect ranks.

    Rejects only on dimension, commutation or contraction failure; purity is
    reported, not enforced.
    """
    tol = tol or DEFAULT_TOL
    A = mc.as_matrix(T1, "T1")
    B = mc.as_matrix(T2, "T2")
    if A.shape[0] != A.shape[1] or B.shape[0] != B.shape[1]:
        raise DimensionMismatchError(
            "both matrices must be square", shape1=A.shape, shape2=B.shape
        )
    if A.shape != B.shape:
        raise DimensionMismatchError(
            "T1 and T2 must have equal dimension", shape1=A.shape, shape2=B.shape
        )
    n = A.shape[0]
    commute_res = mc.operator_norm(A @ B - B @ A)
    if commute_res > tol.commute_for(n):
        raise CommutationError(
            "pair does not commute within tolerance",
            commute_residual=commute_res,
            tol=tol.commute_for(n),
        )
    norms = (mc.operator_norm(A), mc.operator_norm(B))
    for j, nrm in enumerate(norms, start=1):
        if nrm > 1.0 + tol.contract:
            raise ContractionError(
                f"T{j} is not a contraction",
                norm=nrm,
                tol=tol.contract,
            )
    radii = (mc.spectral_radius(A), mc.spectral_radius(B))
    pure = tuple(r < 1.0 - tol.pure for r in radii)
    defects = (defect(A, tol.rank, tol.defect_slack()),
               defect(B, tol.rank, tol.defect_slack()))
    return PairReport(
        commute_residual=commute_res,
        norms=norms,
        spectral_radii=radii,
        pure=pure,  # type: ignore[arg-type]
        defect_ranks=(defects[0].rank, defects[1].rank),
        defects=defects,
    )


def defect(T, rank_tol: float = DEFAULT_TOL.rank,
           contract_tol: float = DEFAULT_TOL.defect_slack()) -> DefectData:
    """Defect operator D = (I - T T*)^(1/2) with a basis of its range.

    I - T T* may have eigenvalues down to ``-contract_tol``; the default is
    the slack that validation accepts.

    The rank counts eigenvalues of I - T T* above
    ``rank_tol * max(1, ||I - T T*||)``; the basis columns are the matching
    eigenvectors of the Hermitian eigendecomposition (deterministic order
    and phases).
    """
    A = mc.as_matrix(T, "T")
    if A.shape[0] != A.shape[1]:
        raise InputError("defect needs a square matrix")
    n = A.shape[0]
    G = np.eye(n) - A @ mc.adjoint(A)
    w, V = mc.herm_eig(G)
    if w.size and w[0] < -contract_tol:
        raise ContractionError(
            "not a contraction: I - T T* has a negative eigenvalue",
            min_eigenvalue=float(w[0]),
        )
    w = np.clip(w, 0.0, None)
    D = (V * np.sqrt(w)) @ mc.adjoint(V)
    D = 0.5 * (D + mc.adjoint(D))
    thr = rank_tol * max(1.0, float(w[-1]) if n else 1.0)
    rank = int(np.sum(w > thr))
    basis = V[:, n - rank:] if rank else np.zeros((n, 0), complex)
    return DefectData(D=D, basis=basis, rank=rank)


def truncation_degree(T1, tol_trunc: float = DEFAULT_TOL.trunc,
                      tol_pure: float = DEFAULT_TOL.pure) -> int:
    """Smallest N with ||T1*^N|| < tol_trunc (``mc.first_power_below``),
    capped at ``TRUNCATION_CAP``.  T1 is a bare matrix, not a validated
    pair, so its purity is checked here."""
    A = mc.as_matrix(T1, "T1")
    rho = mc.spectral_radius(A)
    if rho >= 1.0 - tol_pure:
        raise PurityError(f"T1 is not pure (spectral radius {rho:.6g})",
                          spectral_radius=rho)
    N = mc.first_power_below(A, tol_trunc, TRUNCATION_CAP)
    if N > TRUNCATION_CAP:
        tail = mc.matrix_power_norm(A, TRUNCATION_CAP)
        warnings.warn(f"truncation degree capped at {TRUNCATION_CAP}; tail norm "
                      f"still {tail:.3e} >= {tol_trunc:.3e}", stacklevel=2)
    return min(N, TRUNCATION_CAP)


# ---------------------------------------------------------------------------
# Test-pair generators.  Every kind commutes by construction: diagonal pairs,
# polynomials of a single Jordan cell, and unitarily conjugated polynomials
# of a common upper-triangular seed.
# ---------------------------------------------------------------------------

GENERATOR_KINDS = ("diag", "jordan-poly", "triangular-commuting")


def _random_unit_disc(rng: np.random.Generator, size, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=size))
    phase = np.exp(2j * np.pi * rng.uniform(size=size))
    return r * phase


def _random_diag_pair(dim: int, rng: np.random.Generator, radius: float):
    return (
        np.diag(_random_unit_disc(rng, dim, radius)),
        np.diag(_random_unit_disc(rng, dim, radius)),
    )


def _rescale(T: np.ndarray, target: float) -> np.ndarray:
    nrm = mc.operator_norm(T)
    if nrm < 1e-12:
        return np.zeros_like(T)
    return T * (target / nrm)


def _random_jordan_poly_pair(dim: int, rng: np.random.Generator, radius: float):
    alpha = rng.uniform(0.3, radius)
    J = np.diag(np.ones(dim - 1), 1).astype(complex) if dim > 1 else np.zeros((1, 1), complex)
    T1 = alpha * J
    coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    T2 = sum(coeffs[k] * np.linalg.matrix_power(T1, k) for k in range(dim))
    return T1, _rescale(T2, radius)


def _random_triangular_pair(dim: int, rng: np.random.Generator, radius: float):
    diag = _random_unit_disc(rng, dim, 1.0)
    S = np.diag(diag) + 0.5 * np.triu(
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 1
    )
    out = []
    for _ in range(2):
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        out.append(_rescale(
            sum(coeffs[k] * np.linalg.matrix_power(S, k) for k in range(dim)),
            radius,
        ))
    Q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return tuple(Q.conj().T @ T @ Q for T in out)


def generate_pair(kind: str, dim: int, seed: int, radius: float = 0.9):
    """Deterministically generate an exactly-commuting contractive pair.

    ``radius`` bounds both operator norms away from 1, so the generated
    pairs are always pure.
    """
    if dim < 1:
        raise InputError("dimension must be >= 1")
    if not 0 < radius < 1:
        raise InputError("radius must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    if kind == "diag":
        return _random_diag_pair(dim, rng, radius)
    if kind == "jordan-poly":
        return _random_jordan_poly_pair(dim, rng, radius)
    if kind == "triangular-commuting":
        return _random_triangular_pair(dim, rng, radius)
    raise InputError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
