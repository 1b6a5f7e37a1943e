"""Sparse direct solves, the interface condensation of a factored SPD
block and the generalized eigenproblem of the numerical inf-sup test.

``interface_term`` is the one condensation: of the transient's a-block
(``InterfaceSchur``) and of both sides of the inf-sup pencil, which is
then solved and checked on the rows that B couples; only its two
reported pairs are extended to the whole potential space.  The
pencil's field-norm factor and potential-norm condensation
(``factor_field_norm``, ``condense_interior``) can be built once and
shared by the pairings of one mesh; a lower-order potential space of a
hierarchical basis takes a leading block of the richer condensation.
Each caller keeps its own SuperLU column order: minimum degree, which
suits the a-block, made the finest h-a verdict level's potential-norm
condensation 25 times slower than the default COLAMD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class SingularSystemError(RuntimeError):
    def __init__(self, message, dof=None):
        super().__init__(message)
        self.dof = dof


class DegenerateCouplingError(RuntimeError):
    """All eigenvalues of the inf-sup pencil vanish."""


def solve_sparse(K, s) -> np.ndarray:
    """Direct solve of a (possibly indefinite) sparse system with a
    pivoting LU factorization; the scaled residual is verified.

    The system is symmetrically equilibrated first: the coupled blocks
    carry physical units many orders of magnitude apart (surface
    current potential against flux potential) and unscaled elimination
    loses all relative accuracy in the small block.  The column order is
    a minimum-degree order of K^T + K: every system solved here is
    structurally symmetric.  On the condensed field systems, which carry
    a dense interface block, COLAMD gave 1.4 times the fill and twice
    the factorization time.
    """
    K = sp.csc_matrix(K, copy=True)     # the one conversion; canonical below
    K.sum_duplicates()
    K.eliminate_zeros()
    s = np.asarray(s, dtype=float)
    if K.shape[0] != K.shape[1] or K.shape[0] != len(s):
        raise ValueError("dimension mismatch")
    rows = K.indices
    cols = np.repeat(np.arange(K.shape[1]), np.diff(K.indptr))
    row_max = np.zeros(K.shape[0])
    np.maximum.at(row_max, rows, np.abs(K.data))
    if np.any(row_max <= 0.0):
        bad = int(np.flatnonzero(row_max <= 0.0)[0])
        raise SingularSystemError(f"structurally singular row at DOF {bad}", dof=bad)
    d = 1.0 / np.sqrt(row_max)
    # the entries of D K D for D = diag(d), in the product's rounding order
    DKD = sp.csc_matrix((K.data * d[rows] * d[cols], rows, K.indptr), shape=K.shape)
    lu = _factor(DKD, "system", permc_spec="MMD_AT_PLUS_A")
    x = d * lu.solve(d * s)
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise SingularSystemError(f"singular pivot near DOF {bad}", dof=bad)
    # iterative refinement recovers componentwise accuracy lost to the
    # disparate solution scales of the coupled blocks
    for _ in range(2):
        x = x + d * lu.solve(d * (s - K @ x))
    Knorm = np.abs(K).sum(axis=1).max() if K.nnz else 0.0
    denom = Knorm * np.abs(x).max() + np.abs(s).max()
    if denom > 0.0:
        res = np.abs(K @ x - s).max() / denom
        if res > 1e-10:
            raise SingularSystemError(f"solve residual {res:.3e} exceeds 1e-10")
    return x


def backward_error(K, x, s, rows=None) -> float:
    """Componentwise backward error max_i |K x - s|_i / (|K| |x| + |s|)_i
    over ``rows`` (all by default); see ``componentwise_error``."""
    F = K @ x - s
    scale = abs(K) @ np.abs(x) + np.abs(s)
    if rows is not None:
        F, scale = F[rows], scale[rows]
    return componentwise_error(F, scale)


def componentwise_error(F, scale) -> float:
    """max_i |F_i| / scale_i for a residual F and its row scales
    (|K| |x| + |s|).  It does not depend on the units of the blocks; a
    row whose scale is below 1e-14 of the largest is measured against
    that floor."""
    floor = scale.max() * 1e-14 + 1e-300
    return float((np.abs(F) / np.maximum(scale, floor)).max())


def _factor(K, what, **options):
    """SuperLU factor of K; a failure raises SingularSystemError."""
    try:
        return splu(sp.csc_matrix(K), **options)
    except RuntimeError as err:
        raise SingularSystemError(f"{what} factorization failed: {err}") from err


INTERFACE_BLOCK = 32    # coupled columns solved at a time


def interface_term(lu, B):
    """The interface term of a factored SPD block K and a coupling B.

    Returns (cols, T): the columns Bs of B with structural nonzeros and
    the symmetrized dense T = Bs^T K^{-1} Bs, for the factor ``lu`` of
    K.  Bs is solved INTERFACE_BLOCK columns at a time, so that only one
    block of right-hand sides and its solution are held.
    """
    B = sp.csc_matrix(B)
    cols = np.flatnonzero(np.diff(B.indptr))
    Bs = B[:, cols]
    T = np.empty((len(cols), len(cols)))
    for start in range(0, len(cols), INTERFACE_BLOCK):
        b = slice(start, start + INTERFACE_BLOCK)
        X = lu.solve(Bs[:, b].toarray())
        if not np.all(np.isfinite(X)):
            raise SingularSystemError("singular pivot in the block factorization")
        T[:, b] = Bs.T @ X
    return cols, 0.5 * (T + T.T)


class InterfaceSchur:
    """One factorization of a fixed SPD block K and the dense interface
    term Bs^T K^{-1} Bs, for block systems

        [[A,  B^T],  [v]   [s_v]
         [B,  -K  ]] [a] = [s_q]

    whose K and B stay fixed while A changes.  Bs holds the columns of B
    with structural nonzeros (``cols``; see ``interface_term``).  With
    the lift z = K^{-1} s_q, eliminating a = K^{-1} B v - z leaves the
    condensed system (A + B^T K^{-1} B) v = s_v + B^T z.  ``fill`` is
    the nonzero count L.nnz + U.nnz of the factor.
    """

    def __init__(self, K, B):
        B = sp.csc_matrix(B)
        n_q, n_v = B.shape
        if K.shape != (n_q, n_q):
            raise ValueError("dimension mismatch")
        self._lu = _factor(K, "block", permc_spec="MMD_AT_PLUS_A")
        self.fill = int(self._lu.L.nnz + self._lu.U.nnz)
        self.cols, S = interface_term(self._lu, B)
        r, c = np.meshgrid(self.cols, self.cols, indexing="ij")
        self._S = sp.csr_matrix((S.ravel(), (r.ravel(), c.ravel())), shape=(n_v, n_v))
        self._B = B.tocsr()

    def lift(self, s_q):
        """z = K^{-1} s_q, by one back-substitution."""
        return self._lu.solve(s_q)

    def condense(self, A, s_v, lift):
        """The condensed matrix A + B^T K^{-1} B and right-hand side
        s_v + B^T z for the lift z."""
        return sp.csr_matrix(A) + self._S, s_v + self._B.T @ lift

    def recover(self, v, lift):
        """a = K^{-1} B v - z for the lift z, by one back-substitution."""
        return self._lu.solve(self._B @ v) - lift


def factor_field_norm(N_V):
    """SuperLU factor of the field norm N_V of the inf-sup pencil."""
    return _factor(N_V, "field norm")


@dataclass
class InteriorCondensation:
    """The potential norm N_Q condensed onto the coupled rows P.

    I holds the other potential DOFs, ``lu_i`` the factor of N_Q[I,I],
    N_IP the sparse block N_Q[I,P] and S the Schur complement
    N_Q[P,P] - N_Q[P,I] N_Q[I,I]^{-1} N_Q[I,P].
    """

    P: np.ndarray
    I: np.ndarray
    lu_i: object
    N_IP: sp.csc_matrix
    S: np.ndarray

    def extend(self, Y):
        """The N_Q-harmonic extension of values Y on P (a vector or
        columns): Y on P and -N_Q[I,I]^{-1} N_Q[I,P] Y on I."""
        Q = np.empty((len(self.P) + len(self.I),) + Y.shape[1:])
        Q[self.P] = Y
        Q[self.I] = -self.lu_i.solve(self.N_IP @ Y)
        return Q

    def leading(self, n):
        """The condensation onto the first n rows of P with the same I:
        that of a potential space of those rows and I, if its norm matrix
        is the matching block of N_Q (a hierarchical basis; see caller)."""
        return replace(self, P=self.P[:n], N_IP=self.N_IP[:, :n], S=self.S[:n, :n])


def condense_interior(N_Q, P) -> InteriorCondensation:
    """Factor N_Q[I,I] for the DOFs I outside the ascending rows P and
    condense N_Q onto P (see ``InteriorCondensation``).  An empty I
    goes through the same path: SuperLU factors a 0x0 block."""
    N_Q = sp.csr_matrix(N_Q)
    I = np.setdiff1d(np.arange(N_Q.shape[0]), P, assume_unique=True)
    lu_i = _factor(N_Q[I][:, I], "potential norm")
    N_IP = sp.csc_matrix(N_Q[I][:, P])
    cols, T = interface_term(lu_i, N_IP)
    S = N_Q[P][:, P].toarray()
    S[np.ix_(cols, cols)] -= T
    return InteriorCondensation(P, I, lu_i, N_IP, S)


@dataclass
class EigenResult:
    """Nonzero spectrum of the inf-sup pencil: ascending eigenvalues,
    their S-orthonormal eigenvectors Y on the rows P of ``interior`` and
    the indices of the pairs ``checked`` on the whole potential space.
    ``n_zero`` counts the disregarded (near-)zero eigenvalues, including
    potential DOFs with no interface support."""

    eigenvalues: np.ndarray
    Y: np.ndarray
    zero_cutoff: float
    n_zero: int
    interior: InteriorCondensation
    checked: np.ndarray

    @property
    def beta(self) -> float:
        return float(np.sqrt(self.eigenvalues[0]))

    @property
    def b_norm(self) -> float:
        return float(np.sqrt(self.eigenvalues[-1]))

    @property
    def eigenvectors(self) -> np.ndarray:
        """Every kept eigenvector on the whole potential space (columns)."""
        return self.interior.extend(self.Y)


def infsup_eigenpairs(B, N_V, N_Q, zero_tol_rel: float = 1e-10, *,
                      lu_v=None, interior=None) -> EigenResult:
    """Solve B N_V^{-1} B^T q = lambda N_Q q and drop zero eigenvalues.

    With P the rows that B couples and I the other potential DOFs, the
    pencil is G y = lambda S y for G = B_P N_V^{-1} B_P^T and the Schur
    complement S = N_Q[P,P] - N_Q[P,I] N_Q[I,I]^{-1} N_Q[I,P]; a full
    eigenvector is y on P and its N_Q-harmonic extension on I, so that
    q^T N_Q q = y^T S y = 1.  Every kept pair is checked on P (see
    ``_check_pairs``); those of the smallest and largest eigenvalue are
    extended and checked again against B, N_V and N_Q themselves.

    ``lu_v`` (``factor_field_norm(N_V)``) and ``interior``
    (``condense_interior(N_Q, P)``) may be passed in to share them
    between pencils; by default both are built here.  The P of a
    shared ``interior`` may be a superset of the rows B couples: its
    other rows only add zero eigenvalues, which the cutoff drops.
    """
    B = sp.csr_matrix(B)
    N_Q = sp.csr_matrix(N_Q)
    n_q, n_v = B.shape
    if N_V.shape != (n_v, n_v) or N_Q.shape != (n_q, n_q):
        raise ValueError("dimension mismatch")

    if lu_v is None:
        lu_v = factor_field_norm(N_V)
    rows, T = interface_term(lu_v, B.T)               # T = B_rows N_V^{-1} B_rows^T
    if len(rows) == 0:
        raise DegenerateCouplingError("coupling matrix has no nonzero rows")
    if interior is None:
        interior = condense_interior(N_Q, rows)
    P = interior.P
    at = np.searchsorted(P, rows)
    if (len(P) + len(interior.I) != n_q or at[-1] >= len(P)
            or not np.array_equal(P[at], rows)):
        raise ValueError("B couples rows outside the condensation's P")
    G = np.zeros((len(P), len(P)))
    G[np.ix_(at, at)] = T

    try:
        lam, Y = scipy.linalg.eigh(G, interior.S)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("potential norm is not positive definite") from err
    lam_max = lam[-1]
    if lam_max <= 0.0:
        raise DegenerateCouplingError("all eigenvalues vanish")
    if lam[0] < -1e-12 * lam_max:
        raise SingularSystemError(f"negative eigenvalue {lam[0]:.3e} in SPSD pencil")

    cutoff = zero_tol_rel * lam_max
    keep = lam > cutoff
    lam, Y = lam[keep], Y[:, keep]
    _check_pairs("condensed pencil", G @ Y, interior.S @ Y, Y, lam,
                 np.abs(G).max(), np.abs(interior.S).max(), np.arange(len(lam)))
    ends = np.unique([0, len(lam) - 1])
    Q = interior.extend(Y[:, ends])
    GQ = B @ lu_v.solve(np.asarray(B.T @ Q))
    _check_pairs("full-space check", GQ, N_Q @ Q, Q, lam[ends],
                 np.abs(GQ).max() / max(np.abs(Q).max(), 1e-300), np.abs(N_Q).max(), ends)
    return EigenResult(lam, Y, float(cutoff), n_q - len(lam), interior, ends)


def _check_pairs(check, GY, MY, Y, lam, g_norm, m_norm, index):
    """Raise SingularSystemError unless the eigenpairs (Y, lam) of
    G y = lambda M y, given G Y, M Y and norm estimates of G and M, have
    scaled residuals |G y - lambda M y| / ((g_norm + lambda m_norm) |y|)
    and Y^T M Y - I within 1e-8.  The message names the ``check`` and
    the ``index`` of the failing pair."""
    res = np.linalg.norm(GY - MY * lam, axis=0)
    rel = res / np.maximum((g_norm + lam * m_norm) * np.linalg.norm(Y, axis=0), 1e-300)
    k = int(np.argmax(rel))
    if rel[k] > 1e-8:
        raise SingularSystemError(
            f"{check}: eigenpair {index[k]} residual {rel[k]:.3e} exceeds 1e-8")
    err = np.abs(Y.T @ MY - np.eye(len(lam))).max(axis=0)
    k = int(np.argmax(err))
    if err[k] > 1e-8:
        raise SingularSystemError(
            f"{check}: eigenvector {index[k]} is not norm-orthonormal ({err[k]:.3e})")


def export_eigenvalues_csv(result: EigenResult, path):
    lines = ["index,lambda,sqrt_lambda"]
    for k, lam in enumerate(result.eigenvalues):
        lines.append(f"{k},{lam:.17g},{np.sqrt(lam):.17g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
