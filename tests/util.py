"""Shared test helpers: the straightforward per-triangle field
evaluators that the assembly's field kernels are checked against, the
pivoting sparse solve that serves as the reference solver, and the
dense and monolithic oracles of the block solvers."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from htsfem._geom import tri_geometry
from htsfem.linalg import SingularSystemError, backward_error
from htsfem.mesh import Region, _structured_mesh
from htsfem.spaces import whitney_transform


def h_dofs_for_potential(h_space, potential):
    """Coefficients representing the gradient of a scalar potential
    inside the conducting region, honouring the grounded boundary node.

    The boundary node DOFs carry the ground-shifted potential; interior
    edge DOFs carry the circulation left over after removing the
    boundary-hat contributions on their endpoints.
    """
    mesh = h_space.mesh
    x = np.zeros(h_space.n_dofs)
    ground = {c.id: c.ground_node for c in h_space.circuits}
    p = {int(n): potential(*mesh.nodes[n])
         for n in np.unique(mesh.triangles[h_space.meta["sc_tris"]])}
    ring = set()
    pg = {}
    for c in h_space.circuits:
        g = p[c.ground_node]
        for n in c.ring_nodes:
            key = ("node", int(n))
            x[h_space.index[key]] = p[int(n)] - g
            ring.add(int(n))
            pg[int(n)] = g
    for k, (kind, ent) in enumerate(h_space.entries):
        if kind != "edge":
            continue
        a, b = (int(v) for v in mesh.edges[ent])
        circ = p[b] - p[a]
        if a in ring:
            circ += p[a] - pg[a]
        if b in ring:
            circ -= p[b] - pg[b]
        x[k] = circ
    return x


def l_bar_mesh():
    """L-shaped conductor in air: its reentrant corner puts two GAMMA_M
    edges on one air triangle, its outer corners on conductor ones."""
    def region(x, y):
        if -0.004 < x < 0.004 and -0.004 < y < -0.002:
            return Region.OMEGA_H_SC
        if 0.002 < x < 0.004 and -0.004 < y < 0.004:
            return Region.OMEGA_H_SC
        return Region.OMEGA_A_AIR

    breaks = [-0.01, -0.004, -0.002, 0.002, 0.004, 0.01]
    return _structured_mesh(breaks, breaks, 0.001, region)


def curl_h(space, coeffs):
    """Out-of-plane curl of an H-space field per conducting triangle,
    edge by edge from the Whitney circulations.  Returns (tri_ids,
    curl values)."""
    mesh = space.mesh
    tris = space.meta["sc_tris"]
    sc_edges, C = whitney_transform(space)
    vals = C @ np.asarray(coeffs, dtype=float)
    pos = np.full(len(mesh.edges), -1, dtype=np.int64)
    pos[sc_edges] = np.arange(len(sc_edges))
    areas, grads = tri_geometry(mesh, tris)
    curl = np.zeros(len(tris))
    locals_ = ((0, 1), (1, 2), (2, 0))
    for le, (i, j) in enumerate(locals_):
        eids = mesh.tri_edges[tris, le]
        na, nb = mesh.triangles[tris, i], mesh.triangles[tris, j]
        sgn = np.where(na < nb, 1.0, -1.0)
        cross = 2.0 * (grads[:, i, 0] * grads[:, j, 1]
                       - grads[:, i, 1] * grads[:, j, 0])
        curl += vals[pos[eids]] * sgn * cross
    return tris, curl


def eval_h_field(space, coeffs, tri_id: int, bary) -> np.ndarray:
    """Vector value of an H-space field at barycentric point(s) of one
    conducting triangle; bary has shape (..., 3)."""
    mesh = space.mesh
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    areas, grads = tri_geometry(mesh, np.array([tri_id]))
    g = grads[0]
    tri = mesh.triangles[tri_id]
    sc_edges, C = whitney_transform(space)
    vals = C @ np.asarray(coeffs, dtype=float)
    pos = {int(e): k for k, e in enumerate(sc_edges)}
    out = np.zeros(bary.shape[:-1] + (2,))
    for le, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        eid = int(mesh.tri_edges[tri_id, le])
        na, nb = int(tri[i]), int(tri[j])
        sgn = 1.0 if na < nb else -1.0
        c = vals[pos[eid]] * sgn
        out += c * (bary[..., i, None] * g[j] - bary[..., j, None] * g[i])
    if space.enrichment == 2:
        for le, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = ("bubble", int(mesh.tri_edges[tri_id, le]))
            if key in space.index:
                c = coeffs[space.index[key]]
                out += c * (bary[..., i, None] * g[j] + bary[..., j, None] * g[i])
    return out


def eval_a_curl(space, coeffs, tri_id: int, bary) -> np.ndarray:
    """Flux density b = curl(a z-hat) at barycentric point(s) of one
    a-side triangle: (da/dy, -da/dx)."""
    mesh = space.mesh
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    areas, grads = tri_geometry(mesh, np.array([tri_id]))
    g = grads[0]
    tri = mesh.triangles[tri_id]
    grad_a = np.zeros(bary.shape[:-1] + (2,))
    for i in range(3):
        key = ("node", int(tri[i]))
        if key in space.index:
            grad_a += coeffs[space.index[key]] * np.broadcast_to(g[i], grad_a.shape)
    if space.enrichment == 2:
        for le, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = ("bubble", int(mesh.tri_edges[tri_id, le]))
            if key in space.index:
                c = coeffs[space.index[key]]
                grad_a += c * (bary[..., i, None] * g[j] + bary[..., j, None] * g[i])
    out = np.empty_like(grad_a)
    out[..., 0] = grad_a[..., 1]
    out[..., 1] = -grad_a[..., 0]
    return out


def solve_reference(K, s) -> np.ndarray:
    """The reference sparse solve: SuperLU with threshold pivoting in a
    minimum-degree column order of K^T + K, with the symmetric
    equilibration, the two refinement steps and the componentwise check
    at 1e-10 of ``htsfem.linalg.solve_sparse``.  It needs no order from
    its caller, so it solves the monolithic and condensed systems, and
    any matrix that the package factors only in an order of its own."""
    K = sp.csc_matrix(K, copy=True)
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
    DKD = sp.csc_matrix((K.data * d[rows] * d[cols], rows, K.indptr), shape=K.shape)
    try:
        lu = splu(DKD, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:
        raise SingularSystemError(f"system factorization failed: {err}") from err
    x = d * lu.solve(d * s)
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise SingularSystemError(f"singular pivot near DOF {bad}", dof=bad)
    for _ in range(2):
        x = x + d * lu.solve(d * (s - K @ x))
    res = backward_error(K, x, s)
    if not res <= 1e-10:
        raise SingularSystemError(f"solve backward error {res:.3e} exceeds 1e-10")
    return x


def dense_schur(K, rows):
    """Dense Schur complement K[P,P] - K[P,I] K[I,I]^{-1} K[I,P] of K
    onto ``rows`` P (in their order), I the other rows."""
    K = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    rows = np.asarray(rows, dtype=np.int64)
    I = np.setdiff1d(np.arange(K.shape[0]), rows)
    if len(I) == 0:
        return K[np.ix_(rows, rows)]
    return K[np.ix_(rows, rows)] - K[np.ix_(rows, I)] @ np.linalg.solve(
        K[np.ix_(I, I)], K[np.ix_(I, rows)])


def monolithic(sys):
    """The monolithic operator [[A_v, B^T], [B, -K_nu]] of an assembled
    coupled system on all DOFs of both spaces."""
    K_nu, B = sys.blocks.K_nu, sys.blocks.B
    return sp.bmat([[sys.A_v, B.T], [B, -K_nu]], format="csr")


def free_indices(sys):
    """The free DOFs of an assembled system in the concatenated vector
    [v; a] of the monolithic operator."""
    v_space, q_space = sys.blocks.v_space, sys.blocks.q_space
    return np.concatenate([v_space.free, v_space.n_dofs + q_space.free])


def s_full(sys):
    """The monolithic right-hand side [s_v; 0] on all DOFs; the
    potential rows carry none."""
    return np.concatenate([sys.s_v, np.zeros(sys.blocks.q_space.n_dofs)])


def expand(sys, x_free):
    """The full-length (v, a) of a free-DOF solution [v; a] of the
    eliminated system, with the system's essential values."""
    v_space, q_space = sys.blocks.v_space, sys.blocks.q_space
    return (v_space.expand(x_free[:v_space.n_free], sys.v_essential),
            q_space.expand(x_free[v_space.n_free:], sys.a_essential))


def eliminated(sys):
    """The monolithic system (K, s) on the free DOFs, V block first,
    after symmetric elimination of the essential values."""
    free, K_full = free_indices(sys), monolithic(sys)
    ess = np.setdiff1d(np.arange(K_full.shape[0]), free, assume_unique=True)
    s = s_full(sys)[free]
    if len(ess):
        s = s - K_full[free][:, ess] @ np.concatenate([sys.v_essential, sys.a_essential])[ess]
    return K_full[free][:, free].tocsr(), s


def interface_term(sys, schur):
    """The interface term B_Γ^T S_K^{-1} B_Γ on the free field DOFs of
    ``sys``, with S_K the Schur complement of ``schur``'s factor and B_Γ
    the free coupling rows Γ that its factor eliminates last."""
    lb = sys.blocks
    B = lb.B[lb.q_space.free][:, lb.v_space.free].tocsr()
    cols = np.flatnonzero(np.diff(B.tocsc().indptr))
    W = B[schur.factor.rows][:, cols].toarray()
    T = W.T @ schur.factor.schur_solve(W)
    r, c = np.meshgrid(cols, cols, indexing="ij")
    n_v = lb.v_space.n_free
    return sp.csr_matrix((0.5 * (T + T.T).ravel(), (r.ravel(), c.ravel())), shape=(n_v, n_v))


def condensed(sys, schur, lift):
    """The condensed field system of ``sys``: a_Γ eliminated from the
    bordered (v, a_Γ) system by its Schur complement, which is
    (A + B_Γ^T S_K^{-1} B_Γ) v = s_field + B_Γ^T z_Γ for the lift z_Γ;
    then a_Γ = S_K^{-1} B_Γ v - z_Γ (``schur.interface_values``)."""
    lb = sys.blocks
    B_gamma = lb.B[lb.q_space.free][:, lb.v_space.free].tocsr()[schur.factor.rows]
    return sys.A_free + interface_term(sys, schur), sys.s_field + B_gamma.T @ lift
