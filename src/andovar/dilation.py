"""Isometric dilation on a truncated vector-valued Hardy space.

The embedding Pi sends h to the Taylor coefficient stack of
D_T1 (I - z T1*)^{-1} h, expressed in defect coordinates; M_z is the block
down-shift and M_Psi the block lower-triangular Toeplitz operator whose
symbols are the Taylor coefficients of the inner multiplier Psi.

Neither M_z nor M_Psi is stored.  The dilation keeps Pi, (N+1) r1 x n, and
the colligation U = [[A, B], [C, D]] that realizes Psi = tau_(U*), and every
residual is computed from that structure in time and memory linear in the
truncation degree:

* Block k of Pi is G T1*^k with G = E1* D1, and the stack is built by
  doubling (``matrix_core.power_stack``).
* Psi(z) = A* + z C* (I - z D*)^{-1} B*, so Psi_0* = A and
  Psi_q* = B D^(q-1) C for q >= 1.  Hence M_z* Pi is Pi moved up one block,
  and M_Psi* Pi follows by one backward recursion over the blocks of Pi
  (``TruncatedDilation.mpsi_adjoint_pi``); Pi* M_z Pi = sum_k Pi_(k+1)* Pi_k.
* [Pi, M_z Pi, ..., M_z^N Pi] is block lower-triangular Toeplitz with
  diagonal block E1* D1, so its rank is read off that r1 x n block.
* The infinite M_Psi is an isometry because Psi is inner, so
  M_Psi* M_Psi - I = -H* H, where H carries the symbols the window sends
  past degree N.  With the colligation blocks B, D this gives
  ||M_Psi* M_Psi - I|| = lambda_max(sum_(j=0..N) D*^j B* B D^j), an
  r2 x r2 sum over the stacked B D^j.

The symbols Psi_0..Psi_N and the dense matrices remain readable as
``TruncatedDilation.symbols``, ``.Mz`` and ``.MPsi``, computed on access,
for debugging dumps and test oracles.

All infinite-dimensional identities acquire explicit truncation tails here;
every residual is paired with a computed bound derived from the measured
power norms ||T1*^k|| and the symbol decay, never an assumed one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matrix_core as mc
from .colligation import Colligation
from .errors import InputError
from .pair_analysis import (
    TRUNCATION_CAP,
    ContractionPair,
    DefectData,
    truncation_degree,
)
from .transfer import adjoint_transfer, taylor_symbols

__all__ = [
    "TruncatedDilation",
    "build_dilation",
    "intertwining_residuals",
    "compression_residuals",
    "minimality_defect",
    "mpsi_isometry_residual",
]

# most rows of a dense Mz or MPsi: a dump peaks near 2 GB there (README)
DENSE_ROWS_MAX = 1_500
# symbol envelope below which mpsi_isometry_residual counts the symbols as
# decayed
_SYMBOL_TOL = 1e-5


def _block_toeplitz(symbols: np.ndarray) -> np.ndarray:
    """Dense block lower-triangular Toeplitz matrix with blocks symbols[i - k]."""
    count, r, _ = symbols.shape
    rows = count * r
    if rows > DENSE_ROWS_MAX:
        raise InputError(
            f"dense dilation operator with {rows} rows exceeds the limit of "
            f"{DENSE_ROWS_MAX} rows")
    out = np.zeros((count, r, count, r), complex)
    for q in range(count):
        out[np.arange(q, count), :, np.arange(count - q), :] = symbols[q]
    return out.reshape(rows, rows)


@dataclass(frozen=True)
class TruncatedDilation:
    """Degree-N truncation of the Hardy-space dilation of a pure pair."""

    N: int
    n: int
    Pi: np.ndarray
    coll: Colligation            # realizes Psi = tau_(U*)
    pair: ContractionPair        # the pair dilated
    tail_bound: float            # ||T1*^(N+1)||
    tail_bound_prev: float       # ||T1*^N||
    d1_norm: float               # ||D_T1||

    @property
    def r1(self) -> int:
        return self.coll.r1

    @property
    def rows(self) -> int:
        return (self.N + 1) * self.r1

    @functools.cached_property
    def symbols(self) -> np.ndarray:
        """Psi_q for q = 0..N, shape (N+1, r1, r1)."""
        return np.array(taylor_symbols(adjoint_transfer(self.coll), self.N + 1))

    @property
    def Mz(self) -> np.ndarray:
        """Dense block down-shift, assembled on each access."""
        shift = np.zeros((self.N + 1, self.r1, self.r1), complex)
        if self.N:
            shift[1] = np.eye(self.r1)
        return _block_toeplitz(shift)

    @property
    def MPsi(self) -> np.ndarray:
        """Dense block Toeplitz multiplier, assembled on each access."""
        return _block_toeplitz(self.symbols)

    @functools.cached_property
    def mpsi_adjoint_pi(self) -> np.ndarray:
        """MPsi* Pi by a backward recursion over the colligation blocks.

        Block k of MPsi* Pi is the correlation sum_(q=0..N-k) Psi_q* Pi_(k+q).
        With Psi_0* = A and Psi_q* = B D^(q-1) C (module docstring) it is
        A Pi_k + B Z_k, where Z_k = sum_(q=1..N-k) D^(q-1) C Pi_(k+q) obeys

            Z_N = 0,   Z_k = C Pi_(k+1) + D Z_(k+1).

        That is one r2 x n product with D per block, O(N (r1 + r2) r2 n) in
        all, in place of the O(N^2 r1^2 n) correlation over the symbols.
        """
        c, D = self.coll, self.coll.D
        P = self.Pi.reshape(self.N + 1, self.r1, self.n)
        CP = c.C @ P[1:]
        Z = np.zeros((self.N + 1, c.r2, self.n), complex)
        for k in range(self.N - 1, -1, -1):
            Z[k] = CP[k] + D @ Z[k + 1]
        return (c.A @ P + c.B @ Z).reshape(self.rows, self.n)

    @functools.cached_property
    def res_psi(self) -> float:
        """||Pi T2* - MPsi* Pi||, read by both the intertwining and the
        compression report."""
        return mc.operator_norm(self.Pi @ mc.adjoint(self.pair.T2) - self.mpsi_adjoint_pi)


def build_dilation(pair: ContractionPair, coll: Colligation, d1: DefectData,
                   N: int | None = None, tol_trunc: float | None = None,
                   tol_pure: float | None = None) -> TruncatedDilation:
    """Materialize Pi at truncation degree N; the dilation keeps ``coll``
    for the multiplier.

    ``N=None`` selects the smallest degree whose tail norm falls below
    ``tol_trunc``.  An explicit N must dominate that degree and stay under
    the global cap.  Both tolerances default to the pair's own.
    """
    T1 = pair.T1
    tol_trunc = pair.tol.trunc if tol_trunc is None else tol_trunc
    tol_pure = pair.tol.pure if tol_pure is None else tol_pure
    n_min = truncation_degree(T1, tol_trunc=tol_trunc, tol_pure=tol_pure)
    if N is None:
        N = n_min
    elif N > TRUNCATION_CAP:
        raise InputError(f"truncation degree {N} exceeds the cap {TRUNCATION_CAP}")
    elif N < n_min:
        raise InputError(
            f"truncation degree {N} is below the required minimum {n_min} "
            f"for tol_trunc={tol_trunc:g}"
        )
    n = pair.dim
    T1s = mc.adjoint(T1)
    Pi = mc.power_stack(mc.adjoint(d1.basis) @ d1.D, T1s, N + 1).reshape((N + 1) * d1.rank, n)
    tail = np.linalg.matrix_power(T1s, N)
    return TruncatedDilation(
        N=N, n=n, Pi=Pi, coll=coll, pair=pair,
        tail_bound=mc.operator_norm(tail @ T1s),
        tail_bound_prev=mc.operator_norm(tail),
        d1_norm=mc.operator_norm(d1.D),
    )


@dataclass(frozen=True)
class IntertwiningReport:
    res_z: float
    res_psi: float
    bound_z: float
    bound_psi: float


def intertwining_residuals(dil: TruncatedDilation, pair: ContractionPair) -> IntertwiningReport:
    """Residuals of Pi T1* = Mz* Pi and Pi T2* = MPsi* Pi with tail bounds.

    Only the dropped top row feeds res_z, so it is bounded by
    ||D_T1|| * ||T1*^(N+1)||; the Toeplitz truncation gives res_psi at most
    sqrt(N+1) times the tail norm.  ``pair`` is the pair ``dil`` dilates.
    """
    mz_adj_pi = np.zeros_like(dil.Pi)
    mz_adj_pi[:dil.rows - dil.r1] = dil.Pi[dil.r1:]
    res_z = mc.operator_norm(dil.Pi @ mc.adjoint(pair.T1) - mz_adj_pi)
    return IntertwiningReport(
        res_z=res_z,
        res_psi=dil.res_psi,
        bound_z=dil.d1_norm * dil.tail_bound,
        bound_psi=float(np.sqrt(dil.N + 1)) * dil.tail_bound,
    )


@dataclass(frozen=True)
class CompressionReport:
    res_t1: float
    res_t2: float
    bound_t1: float
    bound_t2: float


def compression_residuals(dil: TruncatedDilation, pair: ContractionPair) -> CompressionReport:
    """How well Pi* Mz Pi and Pi* MPsi Pi recover T1 and T2; ``pair`` is
    the pair ``dil`` dilates."""
    Pi, r1 = dil.Pi, dil.r1
    pi_mz_pi = mc.adjoint(Pi[r1:]) @ Pi[:dil.rows - r1]
    pi_mpsi_pi = mc.adjoint(dil.mpsi_adjoint_pi) @ Pi
    res_t1 = mc.operator_norm(pi_mz_pi - pair.T1)
    res_t2 = mc.operator_norm(pi_mpsi_pi - pair.T2)
    return CompressionReport(
        res_t1=res_t1,
        res_t2=res_t2,
        bound_t1=dil.tail_bound * dil.tail_bound_prev,
        bound_t2=dil.tail_bound ** 2 + dil.res_psi,
    )


def minimality_defect(dil: TruncatedDilation) -> int:
    """(N+1) r1 minus the numeric rank of K = [Pi, Mz Pi, ..., Mz^N Pi].

    Zero means the shifted copies of ran(Pi) fill the truncated space, the
    finite-degree shadow of dilation minimality.

    Block (k, j) of K is Pi_(k-j) for k >= j and zero above, so K is block
    lower-triangular Toeplitz with diagonal block G = Pi_0 = E1* D1.  If G
    has full row rank r1, then K* y = 0 forces, block column by block
    column from the last, y_N = 0, y_(N-1) = 0, ..., y_0 = 0, so K has full
    row rank (N+1) r1.  G has full row rank by construction (E1 is a basis
    of ran D1), so the defect is structurally zero; numerically it is
    (N+1) (r1 - rank G), with numpy's default rank threshold.
    """
    G = dil.Pi[:dil.r1]
    return dil.rows - (dil.N + 1) * int(np.linalg.matrix_rank(G))


@dataclass(frozen=True)
class MPsiIsometryReport:
    raw: float
    restricted: float
    q_eff: int


def mpsi_isometry_residual(dil: TruncatedDilation, coll: Colligation) -> MPsiIsometryReport:
    """Deviation of MPsi from an isometry, raw and tail-restricted.

    The raw residual ||MPsi* MPsi - I|| always carries the chopped Toeplitz
    corner.  The restricted residual confines both indices to the first
    (N + 1 - q_eff) coefficient blocks, where q_eff is the symbol-decay
    horizon: the first q in 1..N+1 at which the envelope
    ||B|| ||C|| ||D*^(q-1)|| falls to ``_SYMBOL_TOL`` (by the search of
    ``matrix_core.first_power_below``), else N + 1.  There the isometry
    identity holds up to the decayed tail, which is quadratic in the symbol
    envelope (hence the loose ``_SYMBOL_TOL``).  If the symbols do not
    decay inside the truncation window the restricted residual is NaN.

    Neither norm needs MPsi.  With Psi_q = C* D*^(q-1) B* for q >= 1, the
    part H of the infinite Toeplitz operator that maps block k <= N past
    degree N factors as H = O R, where O = [C*; C* D*; C* D*^2; ...] and
    block k of R is D*^(N-k) B*.  As U is unitary, C C* = I - D D*, so
    O* O = sum_m D^m (I - D D*) D*^m = I - lim_M D^M D*^M: the identity on
    the completely non-unitary part of D, which reduces D and contains
    ran B*, hence ran R.  The infinite Toeplitz operator is an isometry, so
    MPsi* MPsi - I = -H* H = -R* R, and its norm over the blocks
    k <= N - q_eff is the largest eigenvalue of
    sum_(j=q_eff..N) D*^j B* B D^j; the raw residual sums from j = 0.
    """
    # rows j r1 .. (j+1) r1 of BD hold B D^j, so BD[j0 r1:]* BD[j0 r1:] is
    # the sum from j = j0
    r1 = dil.r1
    BD = mc.power_stack(coll.B, coll.D, dil.N + 1).reshape((dil.N + 1) * r1, coll.r2)
    raw = mc.operator_norm(BD) ** 2
    # symbol envelope ||Psi_q|| <= ||B|| ||C|| ||D*^(q-1)||, monotone in q
    bc = mc.operator_norm(coll.B) * mc.operator_norm(coll.C)
    q_eff = 1 if bc <= _SYMBOL_TOL else min(
        1 + mc.first_power_below(mc.adjoint(coll.D), _SYMBOL_TOL / bc, dil.N), dil.N + 1)
    keep = (dil.N + 1 - q_eff) * r1
    restricted = mc.operator_norm(BD[q_eff * r1:]) ** 2 if keep > 0 else float("nan")
    return MPsiIsometryReport(raw=raw, restricted=restricted, q_eff=q_eff)
