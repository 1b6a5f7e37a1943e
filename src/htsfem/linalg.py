"""Sparse direct solves, the interface Schur complement of an SPD
block and the generalized eigenproblem of the numerical inf-sup test.

``interface_schur`` is the one condensation.  It factors an SPD block
with its interface rows eliminated last and pivots on the diagonal, so
that the trailing block of the factor is the Schur complement onto
those rows (the discrete Steklov-Poincare operator of the block); no
column of the block's inverse is ever solved.  Its factor then solves
in the original numbering.  It serves the transient's a-block
(``InterfaceSchur``, which borders the field block with that Schur
complement and has ``solve_sparse`` factor the bordered system in a
fixed order) and both sides of the inf-sup pencil, which is
solved and checked on the rows that B couples; only its two reported
pairs are extended to the whole potential space, through the same
factor.  The pencil's two ``interface_schur`` factors, of the field
norm and of the potential norm, can be built once and shared by the
pairings of one mesh; a lower-order potential space of a hierarchical
basis reads the leading rows of the richer space's factor.

Every LU factorization follows one convention (``_factor_in_order``):
it keeps the numbering its caller gives the matrix and pivots on the
diagonal, and a matrix that needs a pivot off the diagonal is refused
with SingularSystemError.  The caller chooses the order: the interior
of ``interface_schur``, and the transient's field block, take a
minimum-degree order with SuperLU's SymmetricMode, read from a
throwaway incomplete factorization (``_min_degree_order``).  Without
SymmetricMode, threshold pivoting may leave the diagonal and the order
degrades: on the interior block of the finest h-a verdict level's
potential norm, that factorization and 320 column solves took 36.7 s,
against 1.8 s with SymmetricMode and 1.5 s with COLAMD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu


class SingularSystemError(RuntimeError):
    def __init__(self, message, dof=None):
        super().__init__(message)
        self.dof = dof


class DegenerateCouplingError(RuntimeError):
    """All eigenvalues of the inf-sup pencil vanish."""


def solve_sparse(K, s) -> np.ndarray:
    """Direct solve of a sparse system by one LU factorization in K's own
    numbering on diagonal pivots (``_factor_in_order``); the
    componentwise backward error of the solution is verified.

    The caller chooses the elimination order by numbering K, and a
    matrix that needs a pivot off the diagonal is refused with
    SingularSystemError.  The package's caller is the transient's
    bordered field system (``InterfaceSchur.bordered``): it is symmetric
    quasi-definite, and its elimination order is chosen stable by
    construction (see ``InterfaceSchur``).

    Symmetric equilibration and two refinement steps stay: the coupled
    blocks carry units many orders of magnitude apart, where unscaled
    elimination loses all relative accuracy in the small block, and the
    data files record the refined solution (unrefined, the snapshots
    change in the last bits).  The check is componentwise,
    max_i |K x - s|_i / (|K| |x| + |s|)_i <= 1e-10: a normwise residual
    is dominated by the rows of the largest block and passes a solution
    that is wrong in the small one.
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
    lu = _factor_in_order(DKD, "system")
    x = d * lu.solve(d * s)
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise SingularSystemError(f"singular pivot near DOF {bad}", dof=bad)
    # iterative refinement recovers componentwise accuracy lost to the
    # disparate solution scales of the coupled blocks
    for _ in range(2):
        x = x + d * lu.solve(d * (s - K @ x))
    res = backward_error(K, x, s)
    if not res <= 1e-10:
        raise SingularSystemError(f"solve backward error {res:.3e} exceeds 1e-10")
    return x


def backward_error(K, x, s) -> float:
    """Componentwise backward error max_i |K x - s|_i / (|K| |x| + |s|)_i;
    see ``componentwise_error``."""
    return componentwise_error(K @ x - s, abs(K) @ np.abs(x) + np.abs(s))


def componentwise_error(F, scale) -> float:
    """max_i |F_i| / scale_i for a residual F and its row scales
    (|K| |x| + |s|).  It does not depend on the units of the blocks; a
    row whose scale is below 1e-14 of the largest is measured against
    that floor."""
    floor = scale.max() * 1e-14 + 1e-300
    return float((np.abs(F) / np.maximum(scale, floor)).max())


def _factor_in_order(K, what):
    """SuperLU factor of K in its own numbering on diagonal pivots.  A
    failed factorization raises SingularSystemError, and so does one in
    which SuperLU reordered a column or pivoted off the diagonal."""
    try:
        lu = splu(sp.csc_matrix(K), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as err:
        raise SingularSystemError(f"{what} factorization failed: {err}") from err
    ident = np.arange(lu.shape[0])
    if not (np.array_equal(lu.perm_r, ident) and np.array_equal(lu.perm_c, ident)):
        raise SingularSystemError(f"{what} factorization pivoted off the diagonal")
    return lu


def _min_degree_order(K) -> np.ndarray:
    """A minimum-degree elimination order of the square K (SuperLU's
    MMD_AT_PLUS_A with SymmetricMode), read from a throwaway incomplete
    factorization that drops every entry it may: only its column order
    is read, and perm_c[k] is the new position of column k."""
    try:
        lu = spilu(sp.csc_matrix(K), drop_tol=1.0, fill_factor=1.0,
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    except RuntimeError as err:
        raise SingularSystemError(f"ordering factorization failed: {err}") from err
    return np.argsort(lu.perm_c)


@dataclass
class SchurFactor:
    """A SuperLU factor ``lu`` of an SPD block K whose ``rows`` are
    eliminated last: ``lu`` factors K[order][:, order], and ``order``
    ends with ``rows``.  S is the dense Schur complement of K onto
    ``rows``, in their order; ``fill`` is the nonzero count
    L.nnz + U.nnz of the factor."""

    lu: object
    order: np.ndarray
    rows: np.ndarray
    S: np.ndarray
    fill: int

    def solve(self, b):
        """K^{-1} b in the original numbering (a vector or columns)."""
        x = np.empty(np.shape(b))
        x[self.order] = self.lu.solve(np.asarray(b, dtype=float)[self.order])
        return x

    @cached_property
    def _cho(self):
        try:
            return scipy.linalg.cho_factor(self.S)
        except np.linalg.LinAlgError as err:
            raise SingularSystemError("Schur complement is not positive definite") from err

    def schur_solve(self, X):
        """S^{-1} X, by a Cholesky factor of S formed on first use."""
        return scipy.linalg.cho_solve(self._cho, X)

    def extend(self, Y):
        """The K-harmonic extension of values Y (a vector or columns) on
        the leading n = len(Y) rows: Y on rows[:n] and
        -K[I,I]^{-1} K[I,P] Y on the other DOFs I.  It is the solution of
        K q = (0 on I, S[:, :n] Y on ``rows``), whose other rows come out
        zero; with those rows numbered last (a hierarchical basis, see
        ``infsup_eigenpairs``), the first |I| + n entries are the
        extension."""
        n = len(Y)
        rhs = np.zeros((len(self.order),) + Y.shape[1:])
        rhs[self.rows] = self.S[:, :n] @ Y
        Q = self.solve(rhs)[:len(self.order) - len(self.rows) + n]
        Q[self.rows[:n]] = Y
        return Q


def interface_schur(K, rows) -> SchurFactor:
    """Factor the SPD block K with ``rows`` eliminated last, and read
    its Schur complement onto ``rows`` from the factor.

    The other DOFs I take a minimum-degree order of K[I,I]
    (``_min_degree_order``), formed before the bordered factorization.
    The bordered factorization keeps that order with ``rows`` appended
    and pivots on the diagonal, so K[order][:, order] = L U and the
    trailing blocks give S = L_PP U_PP: no K^{-1} column is ever
    solved.  The trailing block is the Schur complement only if SuperLU
    neither reorders nor pivots; otherwise SingularSystemError is raised.
    """
    K = sp.csr_matrix(K)
    n = K.shape[0]
    rows = np.asarray(rows, dtype=np.int64)
    inner = np.ones(n, dtype=bool)
    inner[rows] = False
    I = np.flatnonzero(inner)
    order = np.concatenate([I[_min_degree_order(K[I][:, I])], rows])
    lu = _factor_in_order(K[order][:, order], "bordered")
    m = len(I)
    L = lu.L                        # each factor copied and freed in turn
    fill = L.nnz
    L_PP = L[m:, m:].toarray()
    del L
    U = lu.U
    fill += U.nnz
    S = L_PP @ U[m:, m:].toarray()
    del U
    if not np.all(np.isfinite(S)):
        raise SingularSystemError("singular pivot in the bordered factorization")
    return SchurFactor(lu, order, rows, 0.5 * (S + S.T), int(fill))


def _coupled_columns(B):
    """The columns of B with structural nonzeros."""
    return np.flatnonzero(np.diff(sp.csc_matrix(B).indptr))


class InterfaceSchur:
    """One bordered factorization of a fixed SPD block K, for the block
    systems

        [[A,  B^T],  [v]   [s_v]
         [B,  -K  ]] [a] = [s_q]

    whose K and B stay fixed while A changes on a fixed sparsity
    pattern.  K is factored with the rows Γ that B couples last
    (``factor``, see ``interface_schur``).  With its Schur complement
    S_K onto Γ and the lift z_Γ = (K^{-1} s_q)_Γ, the field DOFs v and
    the interface values a_Γ solve the bordered system

        [[A,    B_Γ^T],  [v  ]   [s_v    ]
         [B_Γ,  -S_K ]] [a_Γ] = [S_K z_Γ]

    (``bordered``), and a = K^{-1} (B v - s_q) on all rows (``recover``).

    For an SPD A the bordered matrix is symmetric quasi-definite: every
    symmetric order of it factors on diagonal pivots (Vanderbei, SIAM J.
    Optim. 5, 1995), stably if the block eliminated first is well
    conditioned (Gill, Saunders and Shinnerl, SIAM J. Matrix Anal. Appl.
    17, 1996).  The field block is eliminated in a minimum-degree order
    of the pattern of the ``A`` given here, and Γ after it or, with
    ``interface_first``, before it.  Field first suits a well-conditioned
    A, such as the h-a field block with its H mass.  Γ first eliminates
    -S_K and leaves A + B_Γ^T S_K^{-1} B_Γ last, which suits an A that is
    singular to working precision, such as the t-a field block below
    j_c.  The pattern in elimination numbering and the positions of A's
    entries in it are built here; ``size`` and ``nnz`` are its rows and
    structural nonzeros.  ``cols`` holds the columns of B with
    structural nonzeros; ``solves`` counts the back-substitutions
    through the whole factor of K.
    """

    def __init__(self, K, B, A, interface_first=False):
        B = sp.csr_matrix(B)
        A = sp.csr_matrix(A)
        n_q, n_v = B.shape
        if K.shape != (n_q, n_q) or A.shape != (n_v, n_v):
            raise ValueError("dimension mismatch")
        gamma = np.flatnonzero(np.diff(B.indptr))
        self.factor = interface_schur(K, gamma)
        self.cols = _coupled_columns(B)
        self._B = B
        self._B_gamma = B[gamma]
        self._off_gamma = np.ones(n_q, dtype=bool)
        self._off_gamma[gamma] = False
        self.solves = 0
        # pos[k] is the elimination position of unknown k of [v; a_Γ]
        m = len(gamma)
        self.size = n_v + m
        self._pos = np.empty(self.size, dtype=np.int64)
        self._pos[_min_degree_order(A)] = np.arange(n_v) + (m if interface_first else 0)
        self._pos[n_v:] = np.arange(m) + (0 if interface_first else n_v)
        Bg = self._B_gamma.tocoo()
        g = np.repeat(np.arange(m), m)
        h = np.tile(np.arange(m), m)
        rows = np.concatenate([np.repeat(np.arange(n_v), np.diff(A.indptr)), Bg.col,
                               n_v + Bg.row, n_v + g])
        cols = np.concatenate([A.indices, n_v + Bg.row, Bg.col, n_v + h])
        r, c = self._pos[rows], self._pos[cols]
        at = np.lexsort((r, c))             # column-major: the CSC order
        where = np.empty_like(at)
        where[at] = np.arange(len(at))
        self.nnz = len(at)
        self._indices = r[at].astype(np.int32)
        self._indptr = np.searchsorted(c[at], np.arange(self.size + 1)).astype(np.int32)
        self._data = np.zeros(self.nnz)
        self._data[where[A.nnz:]] = np.concatenate([Bg.data, Bg.data, -self.factor.S.ravel()])
        self._A_at = where[:A.nnz]
        self._A_pattern = (A.indptr.copy(), A.indices.copy())

    def _solve(self, b):
        self.solves += 1
        return self.factor.solve(b)

    def lift(self, s_q):
        """z_Γ = (K^{-1} s_q)_Γ: S_K^{-1} s_q[Γ] if s_q vanishes off Γ,
        else by one back-substitution."""
        if np.any(s_q[self._off_gamma]):
            return self._solve(s_q)[self.factor.rows]
        return self.factor.schur_solve(s_q[self.factor.rows])

    def interface_values(self, v, lift):
        """a_Γ = S_K^{-1} B_Γ v - z_Γ for the lift z_Γ: the interface
        values of the a that eliminates the potential rows at v."""
        return self.factor.schur_solve(self._B_gamma @ v) - lift

    def bordered(self, A, s_v, lift):
        """The bordered matrix (CSC) and right-hand side [s_v; S_K z_Γ]
        for the field block A and the lift z_Γ, in elimination numbering:
        to be factored in that order (``solve_sparse``) and read back by
        ``split``.  A must lie on the pattern this object was built with;
        otherwise ValueError is raised."""
        A = sp.csr_matrix(A)
        if not (np.array_equal(A.indptr, self._A_pattern[0])
                and np.array_equal(A.indices, self._A_pattern[1])):
            raise ValueError("field block is not on the run's sparsity pattern")
        data = self._data.copy()
        data[self._A_at] = A.data
        s = np.empty(self.size)
        s[self._pos] = np.concatenate([s_v, self.factor.S @ lift])
        return sp.csc_matrix((data, self._indices, self._indptr),
                             shape=(self.size, self.size)), s

    def split(self, x):
        """(v, a_Γ) of a solution x of the ``bordered`` system."""
        y = x[self._pos]
        n_v = self.size - len(self.factor.rows)
        return y[:n_v], y[n_v:]

    def recover(self, v, s_q):
        """a = K^{-1} (B v - s_q) on all rows, by one back-substitution."""
        return self._solve(self._B @ v - s_q)


@dataclass
class EigenResult:
    """Nonzero spectrum of the inf-sup pencil: ascending eigenvalues,
    their S-orthonormal eigenvectors Y on the coupled rows P and the
    indices of the pairs ``checked`` on the whole potential space.
    ``interior`` is the ``interface_schur`` factor of N_Q (or of a richer
    norm whose leading block is N_Q) whose leading rows are P, and
    ``field`` the ``interface_schur`` factor of N_V that the pencil was
    solved with.  ``n_zero`` counts the disregarded (near-)zero
    eigenvalues, including potential DOFs with no interface support."""

    eigenvalues: np.ndarray
    Y: np.ndarray
    zero_cutoff: float
    n_zero: int
    interior: SchurFactor
    field: SchurFactor
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


ZERO_TOL_REL = 1e-10


def infsup_eigenpairs(B, N_V, N_Q, *, lu_v=None, interior=None) -> EigenResult:
    """Solve B N_V^{-1} B^T q = lambda N_Q q and drop zero eigenvalues
    (below ZERO_TOL_REL of the largest).

    With P the rows that B couples and I the other potential DOFs, the
    pencil is G y = lambda S y for the Schur complement
    S = N_Q[P,P] - N_Q[P,I] N_Q[I,I]^{-1} N_Q[I,P] and
    G = B_Pc S_V^{-1} B_Pc^T, where c holds the field columns that B
    couples and S_V is the Schur complement of N_V onto c; a full
    eigenvector is y on P and its N_Q-harmonic extension on I, so that
    q^T N_Q q = y^T S y = 1.  Every kept pair is checked on P (see
    ``_check_pairs``); those of the smallest and largest eigenvalue are
    extended and checked again against B, N_V and N_Q themselves.

    ``lu_v`` (``interface_schur(N_V, c)``) and ``interior``
    (``interface_schur(N_Q, P)``) may be passed in to share them
    between pencils; by default both are built here.  Their c and P
    may be supersets of the columns and rows that B couples: the other
    rows of P only add zero eigenvalues, which the cutoff drops.
    ``interior`` may also factor a richer norm whose leading block is
    N_Q (a hierarchical basis): P is then its ascending rows below n_q,
    and a factor that splits the n_q DOFs otherwise raises ValueError.
    """
    B = sp.csr_matrix(B)
    N_Q = sp.csr_matrix(N_Q)
    n_q, n_v = B.shape
    if N_V.shape != (n_v, n_v) or N_Q.shape != (n_q, n_q):
        raise ValueError("dimension mismatch")

    rows = np.flatnonzero(np.diff(B.indptr))
    if len(rows) == 0:
        raise DegenerateCouplingError("coupling matrix has no nonzero rows")
    if lu_v is None:
        lu_v = interface_schur(N_V, _coupled_columns(B))
    if interior is None:
        interior = interface_schur(N_Q, rows)
    n_p = int(np.searchsorted(interior.rows, n_q))
    if n_p + len(interior.order) - len(interior.rows) != n_q:
        raise ValueError("the potential factor splits other DOFs than N_Q's")
    P = interior.rows[:n_p]
    S = interior.S[:n_p, :n_p]
    at = np.searchsorted(P, rows)
    if at[-1] >= n_p or not np.array_equal(P[at], rows):
        raise ValueError("B couples rows outside the potential factor's rows")
    B_c = B[:, lu_v.rows]
    if B_c.nnz != B.nnz:
        raise ValueError("B couples columns outside the field factor's rows")
    W = B_c[P].toarray()
    G = W @ lu_v.schur_solve(W.T)
    G = 0.5 * (G + G.T)

    try:
        lam, Y = scipy.linalg.eigh(G, S)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("potential norm is not positive definite") from err
    lam_max = lam[-1]
    if lam_max <= 0.0:
        raise DegenerateCouplingError("all eigenvalues vanish")
    if lam[0] < -1e-12 * lam_max:
        raise SingularSystemError(f"negative eigenvalue {lam[0]:.3e} in SPSD pencil")

    cutoff = ZERO_TOL_REL * lam_max
    keep = lam > cutoff
    lam, Y = lam[keep], Y[:, keep]
    _check_pairs("condensed pencil", G @ Y, S @ Y, Y, lam,
                 np.abs(G).max(), np.abs(S).max(), np.arange(len(lam)))
    ends = np.unique([0, len(lam) - 1])
    Q = interior.extend(Y[:, ends])
    GQ = B @ lu_v.solve(np.asarray(B.T @ Q))
    _check_pairs("full-space check", GQ, N_Q @ Q, Q, lam[ends],
                 np.abs(GQ).max() / max(np.abs(Q).max(), 1e-300), np.abs(N_Q).max(), ends)
    return EigenResult(lam, Y, float(cutoff), n_q - len(lam), interior, lu_v, ends)


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
