"""Sparse direct solves, the interface condensation of a fixed SPD
block and the generalized eigenproblem of the numerical inf-sup test.

The inf-sup pencil is B N_V^{-1} B^T q = lambda N_Q q with symmetric
positive-definite norm matrices.  Only rows of B with structural
nonzeros (interface-supported potential DOFs) can produce nonzero
eigenvalues, so the pencil is reduced exactly to that subset before a
dense symmetric solve; eigenvectors are reconstructed on the full
space and N_Q-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    K = sp.csc_matrix(K)
    s = np.asarray(s, dtype=float)
    if K.shape[0] != K.shape[1] or K.shape[0] != len(s):
        raise ValueError("dimension mismatch")
    row_max = np.abs(K).max(axis=1).toarray().ravel() if K.nnz else np.zeros(K.shape[0])
    if np.any(row_max <= 0.0):
        bad = int(np.flatnonzero(row_max <= 0.0)[0])
        raise SingularSystemError(f"structurally singular row at DOF {bad}", dof=bad)
    d = 1.0 / np.sqrt(row_max)
    D = sp.diags(d)
    try:
        lu = splu(sp.csc_matrix(D @ K @ D), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:
        raise SingularSystemError(f"factorization failed: {err}") from err
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
    over ``rows`` (all by default).  It does not depend on the units of
    the blocks; a row whose scale is below 1e-14 of the largest is
    measured against that floor."""
    F = np.abs(K @ x - s)
    scale = abs(K) @ np.abs(x) + np.abs(s)
    if rows is not None:
        F, scale = F[rows], scale[rows]
    floor = scale.max() * 1e-14 + 1e-300
    return float((F / np.maximum(scale, floor)).max())


class InterfaceSchur:
    """One factorization of a fixed SPD block K and the dense interface
    term Bs^T K^{-1} Bs, for block systems

        [[A,  B^T],  [v]   [s_v]
         [B,  -K  ]] [a] = [s_q]

    whose K and B stay fixed while A changes.  Bs holds the columns of B
    with structural nonzeros (``cols``), so the dense intermediates are
    as wide as the interface.  Eliminating a = K^{-1} (B v - s_q) leaves
    the condensed system (A + B^T K^{-1} B) v = s_v + B^T K^{-1} s_q.
    ``fill`` is the nonzero count L.nnz + U.nnz of the factor.
    """

    def __init__(self, K, B):
        K = sp.csc_matrix(K)
        B = sp.csc_matrix(B)
        n_q, n_v = B.shape
        if K.shape != (n_q, n_q):
            raise ValueError("dimension mismatch")
        try:
            self._lu = splu(K, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as err:
            raise SingularSystemError(f"block factorization failed: {err}") from err
        self.fill = int(self._lu.L.nnz + self._lu.U.nnz)
        self.cols = np.flatnonzero(np.diff(B.indptr))
        Bs = B[:, self.cols]
        X = self._lu.solve(Bs.toarray())                    # K^{-1} Bs
        if not np.all(np.isfinite(X)):
            raise SingularSystemError("singular pivot in the block factorization")
        S = np.asarray(Bs.T @ X)
        S = 0.5 * (S + S.T)
        r, c = np.meshgrid(self.cols, self.cols, indexing="ij")
        self._S = sp.csr_matrix((S.ravel(), (r.ravel(), c.ravel())), shape=(n_v, n_v))
        self._B = B.tocsr()

    def condense(self, A, s_v, s_q):
        """The condensed matrix A + B^T K^{-1} B and right-hand side
        s_v + B^T K^{-1} s_q."""
        return sp.csr_matrix(A) + self._S, s_v + self._B.T @ self._lu.solve(s_q)

    def recover(self, v, s_q):
        """a = K^{-1} (B v - s_q), by one back-substitution."""
        return self._lu.solve(self._B @ v - s_q)


@dataclass
class EigenResult:
    """Nonzero spectrum of the inf-sup pencil.

    eigenvalues are ascending; eigenvectors (columns) are
    N_Q-orthonormal elements of the potential space.  ``n_zero`` counts
    the disregarded (near-)zero eigenvalues, including potential DOFs
    with no interface support.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_cutoff: float
    n_zero: int

    @property
    def beta(self) -> float:
        return float(np.sqrt(self.eigenvalues[0]))

    @property
    def b_norm(self) -> float:
        return float(np.sqrt(self.eigenvalues[-1]))


def infsup_eigenpairs(B, N_V, N_Q, zero_tol_rel: float = 1e-10) -> EigenResult:
    """Solve B N_V^{-1} B^T q = lambda N_Q q and drop zero eigenvalues.

    Exploits the interface-local support of B: with P selecting the
    structurally nonzero rows, the nonzero spectrum equals that of
    (P N_Q^{-1} P^T)(P B N_V^{-1} B^T P^T), a small dense pencil.
    """
    B = sp.csr_matrix(B)
    N_V = sp.csc_matrix(N_V)
    N_Q = sp.csc_matrix(N_Q)
    n_q, n_v = B.shape
    if N_V.shape != (n_v, n_v) or N_Q.shape != (n_q, n_q):
        raise ValueError("dimension mismatch")

    rows = np.flatnonzero(np.diff(B.indptr))
    if len(rows) == 0:
        raise DegenerateCouplingError("coupling matrix has no nonzero rows")
    Bs = B[rows]

    try:
        lu_v = splu(N_V)
    except RuntimeError as err:
        raise SingularSystemError(f"field norm factorization failed: {err}") from err
    X = lu_v.solve(np.asarray(Bs.todense()).T)           # N_V^{-1} B_s^T
    G_s = np.asarray(Bs @ X)                             # (s, s), SPSD
    G_s = 0.5 * (G_s + G_s.T)

    try:
        lu_q = splu(N_Q)
    except RuntimeError as err:
        raise SingularSystemError(f"potential norm factorization failed: {err}") from err
    E = np.zeros((n_q, len(rows)))
    E[rows, np.arange(len(rows))] = 1.0
    Y = lu_q.solve(E)                                    # N_Q^{-1} P^T
    W = Y[rows]                                          # P N_Q^{-1} P^T, SPD
    W = 0.5 * (W + W.T)

    wl, wv = scipy.linalg.eigh(W)
    if wl[0] <= 0.0:
        raise SingularSystemError("potential norm is not positive definite")
    W_half = (wv * np.sqrt(wl)) @ wv.T

    lam, Z = scipy.linalg.eigh(W_half @ G_s @ W_half)
    lam_max = lam[-1]
    if lam_max <= 0.0:
        raise DegenerateCouplingError("all eigenvalues vanish")
    if lam[0] < -1e-12 * lam_max:
        raise SingularSystemError(f"negative eigenvalue {lam[0]:.3e} in SPSD pencil")

    cutoff = zero_tol_rel * lam_max
    keep = lam > cutoff
    n_zero = n_q - int(keep.sum())
    lam_k = lam[keep]
    Y_k = W_half @ Z[:, keep]                            # reduced eigvecs of W G_s

    # reconstruct full-space eigenvectors q = N_Q^{-1} P^T G_s y / lambda
    Q = Y @ (G_s @ Y_k) / lam_k[None, :]
    nrm = np.sqrt(np.einsum("ij,ij->j", Q, np.asarray(N_Q @ Q)))
    Q = Q / nrm[None, :]

    _verify_pairs(B, lu_v, N_Q, Q, lam_k)
    return EigenResult(lam_k, Q, float(cutoff), n_zero)


def _verify_pairs(B, lu_v, N_Q, Q, lam):
    if Q.shape[1] == 0:
        return
    GQ = B @ lu_v.solve(np.asarray(B.T @ Q))
    NQQ = np.asarray(N_Q @ Q)
    R = GQ - NQQ * lam[None, :]
    g_norm = np.abs(GQ).max() / max(np.abs(Q).max(), 1e-300)
    n_norm = np.abs(N_Q).max()
    q_norm = np.linalg.norm(Q, axis=0)
    denom = (g_norm + lam * n_norm) * q_norm
    worst = (np.linalg.norm(R, axis=0) / np.maximum(denom, 1e-300)).max()
    if worst > 1e-8:
        raise SingularSystemError(f"eigenpair residual {worst:.3e} exceeds 1e-8")
    M = Q.T @ NQQ
    if np.abs(M - np.eye(M.shape[0])).max() > 1e-8:
        raise SingularSystemError("eigenvectors are not norm-orthonormal")


def export_eigenvalues_csv(result: EigenResult, path):
    lines = ["index,lambda,sqrt_lambda"]
    for k, lam in enumerate(result.eigenvalues):
        lines.append(f"{k},{lam:.17g},{np.sqrt(lam):.17g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
