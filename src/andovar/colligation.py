"""Unitary colligation on the direct sum of the two defect spaces.

For a commuting contractive pair the map

    (D_T1 h, D_T2 T1* h)  |->  (D_T1 T2* h, D_T2 h)

is an isometry between subspaces of the finite-dimensional space
ran(D_T1) (+) ran(D_T2); it extends (non-uniquely) to a unitary
U = [[A, B], [C, D]].  This module fixes one extension canonically.

Everything is expressed in defect coordinates: with E_j the isometric
defect bases, the forced action is U @ M_dom = M_ran for

    M_dom = [E1* D1; E2* D2 T1*],     M_ran = [E1* D1 T2*; E2* D2].

The completion convention pairs the orthogonal complements of
col-span(M_dom) and col-span(M_ran) through the unitary polar factor of
P_ran_perp @ Z @ P_dom_perp, where Z is the block-swap permutation of the
two defect summands.  This choice is basis-free and deterministic, it
reproduces U = [[0, I], [I, 0]] for the pair of zero matrices, and it is
equivariant under swapping (T1, T2) -> (T2, T1), which is what makes the
variety produced downstream symmetric in the two factors.  On the forced
subspace all extensions agree; off it, downstream objects depend on this
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_core as mc
from .errors import NumericError, ValidationError
from .pair_analysis import ContractionPair, DefectData

__all__ = ["Colligation", "build_colligation", "defect_series_residuals"]

_FORCED_RANK_RTOL = 1e-11
_COMPLETION_COS_TOL = 1e-4
_ACTION_TOL = 1e-8


@dataclass(frozen=True)
class Colligation:
    """Block unitary [[A, B], [C, D]] on C^r1 (+) C^r2 in defect coordinates."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    basis1: np.ndarray
    basis2: np.ndarray

    @property
    def r1(self) -> int:
        return self.A.shape[0]

    @property
    def r2(self) -> int:
        return self.D.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.block([
            [self.A, self.B],
            [self.C, self.D],
        ]) if self.r1 + self.r2 else np.zeros((0, 0), complex)

    def unitarity_residual(self) -> float:
        U = self.matrix
        I = np.eye(self.r1 + self.r2)
        return max(
            mc.operator_norm(mc.adjoint(U) @ U - I),
            mc.operator_norm(U @ mc.adjoint(U) - I),
        )

    def to_dict(self) -> dict:
        from .serialize import matrix_to_nested

        return {
            "r1": self.r1,
            "r2": self.r2,
            "A": matrix_to_nested(self.A),
            "B": matrix_to_nested(self.B),
            "C": matrix_to_nested(self.C),
            "D": matrix_to_nested(self.D),
            "basis1": matrix_to_nested(self.basis1),
            "basis2": matrix_to_nested(self.basis2),
        }


def _block_swap(r1: int, r2: int) -> np.ndarray:
    """Permutation sending x (+) y in C^r1 (+) C^r2 to y (+) x."""
    n = r1 + r2
    Z = np.zeros((n, n))
    Z[:r2, r1:] = np.eye(r2)
    Z[r2:, :r1] = np.eye(r1)
    return Z


def _pair_complements(P_dom: np.ndarray, P_ran: np.ndarray, Z: np.ndarray,
                      deficiency: int) -> np.ndarray:
    """Isometry from ran(P_dom) onto ran(P_ran) via canonical polar pairing.

    Tries the block-swap direction first, then the identity direction, and
    finally an explicit basis pairing for whatever (measure-zero) remainder
    survives both.
    """
    n = P_dom.shape[0]
    W = np.zeros((n, n), complex)
    rem_d, rem_r = P_dom.astype(complex), P_ran.astype(complex)
    matched = 0
    for Zk in (Z, np.eye(n)):
        if matched == deficiency:
            return W
        K = rem_r @ Zk @ rem_d
        u, s, vh = mc.svd(K)
        t = min(int(np.sum(s > _COMPLETION_COS_TOL)), deficiency - matched)
        if t == 0:
            continue
        W += u[:, :t] @ vh[:t, :]
        rem_d = rem_d - vh[:t, :].conj().T @ vh[:t, :]
        rem_r = rem_r - u[:, :t] @ u[:, :t].conj().T
        matched += t
    if matched < deficiency:
        # leftover subspaces are orthogonal to both pairing directions;
        # fall back to eigenbasis order
        _, vd = mc.herm_eig(rem_d)
        _, vr = mc.herm_eig(rem_r)
        left = deficiency - matched
        W += vr[:, -left:] @ mc.adjoint(vd[:, -left:])
    return W


def build_colligation(pair: ContractionPair, d1: DefectData, d2: DefectData) -> Colligation:
    """Construct the canonical unitary extension of the defect isometry.

    Raises :class:`ValidationError` if the forced action cannot be realized,
    which signals a pair violating commutation or contractivity beyond what
    validation tolerances caught, and :class:`NumericError` if the forced
    domain and range have different numeric ranks, which signals defect data
    inconsistent with the pair.
    """
    T1, T2 = pair.T1, pair.T2
    E1, E2 = d1.basis, d2.basis
    r1, r2 = d1.rank, d2.rank
    nu = r1 + r2
    if nu == 0:
        return Colligation(
            A=np.zeros((0, 0), complex), B=np.zeros((0, 0), complex),
            C=np.zeros((0, 0), complex), D=np.zeros((0, 0), complex),
            basis1=E1, basis2=E2,
        )
    M_dom = np.vstack([mc.adjoint(E1) @ d1.D, mc.adjoint(E2) @ d2.D @ mc.adjoint(T1)])
    M_ran = np.vstack([mc.adjoint(E1) @ d1.D @ mc.adjoint(T2), mc.adjoint(E2) @ d2.D])

    Ud, sd, Vdh = mc.svd(M_dom)
    Ur, sr, _ = mc.svd(M_ran)
    smax = max(1.0, float(sd[0]) if sd.size else 0.0)
    thr = _FORCED_RANK_RTOL * smax
    rho = int(np.sum(sd > thr))
    rho_ran = int(np.sum(sr > thr))
    if rho != rho_ran:
        raise NumericError(
            f"forced ranks disagree ({rho} vs {rho_ran}); defect ranks inconsistent",
            forced_rank=rho, range_rank=rho_ran,
        )

    if rho:
        V0 = (M_ran @ Vdh[:rho, :].conj().T / sd[:rho]) @ mc.adjoint(Ud[:, :rho])
    else:
        V0 = np.zeros((nu, nu), complex)
    U = V0
    deficiency = nu - rho
    if deficiency:
        P_dom = np.eye(nu) - Ud[:, :rho] @ mc.adjoint(Ud[:, :rho])
        P_ran = np.eye(nu) - Ur[:, :rho] @ mc.adjoint(Ur[:, :rho])
        U = U + _pair_complements(P_dom, P_ran, _block_swap(r1, r2), deficiency)
    U = mc.polar_unitary(U)

    action = mc.operator_norm(U @ M_dom - M_ran)
    if action > _ACTION_TOL * max(1.0, mc.operator_norm(M_dom)):
        raise ValidationError(
            "colligation action residual too large; the input pair breaks "
            "commutation or contractivity beyond tolerance",
            action_residual=float(action),
        )
    coll = Colligation(
        A=U[:r1, :r1], B=U[:r1, r1:], C=U[r1:, :r1], D=U[r1:, r1:],
        basis1=E1, basis2=E2,
    )
    uni = coll.unitarity_residual()
    if uni > 1e-9:
        raise NumericError(f"completed colligation failed unitarity check ({uni:.3e})")
    return coll


@dataclass(frozen=True)
class SeriesReport:
    """Partial-sum residuals of the defect intertwining series and the
    matching tail envelope ||T1*^(m+2) h||."""

    residuals: np.ndarray
    tail_bounds: np.ndarray


def defect_series_residuals(pair: ContractionPair, coll: Colligation,
                            d1: DefectData, h: np.ndarray, m_max: int) -> SeriesReport:
    """Residuals of D1 T2* h against the strongly convergent series
    A D1 h + sum_n B D^n C D1 T1*^(n+1) h, truncated at m = 0..m_max.

    All quantities are taken in defect coordinates.  Requires T1 pure,
    since the series only converges when T1*^m h dies out; purity is
    judged by the pair's own tolerance.
    """
    pair.require_pure(1)
    T1 = pair.T1
    h = np.asarray(h, dtype=complex).reshape(-1)
    E1 = d1.basis
    target = mc.adjoint(E1) @ d1.D @ mc.adjoint(pair.T2) @ h
    acc = coll.A @ (mc.adjoint(E1) @ d1.D @ h)
    T1s_h = h.copy()
    Dpow_cache = np.eye(coll.r2, dtype=complex)
    residuals = np.empty(m_max + 1)
    tail_bounds = np.empty(m_max + 1)
    for m in range(m_max + 1):
        T1s_h = mc.adjoint(T1) @ T1s_h  # now T1*^(m+1) h
        term = coll.B @ Dpow_cache @ coll.C @ (mc.adjoint(E1) @ d1.D @ T1s_h)
        acc = acc + term
        residuals[m] = float(np.linalg.norm(target - acc))
        tail_bounds[m] = float(np.linalg.norm(
            np.linalg.matrix_power(mc.adjoint(T1), m + 2) @ h))
        Dpow_cache = coll.D @ Dpow_cache
    return SeriesReport(residuals=residuals, tail_bounds=tail_bounds)
