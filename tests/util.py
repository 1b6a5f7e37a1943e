"""Shared test helpers: the time configuration with the schema's
Newton controls, the straightforward per-triangle field
evaluators that the assembly's field kernels are checked against, the
pointwise interface trace, the electric field of the power law, the
conductor's penetrated area and magnetization, the triangles of each
mesh edge, a plain ``mesh.txt`` reader, the pivoting sparse solve that
serves as the reference solver, the componentwise backward error of a
whole matrix, and the dense and monolithic oracles of the block
solvers, with the a-block and the coupling assembled apart from the
run's blocks."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from htsfem._geom import tri_geometry
from htsfem.assembly import NormSpec, _a_stiffness, _coupling_full, h_curl_matrix
from htsfem.config import load_config, make_time
from htsfem.linalg import SingularSystemError, componentwise_error
from htsfem.materials import MU0, rho_power
from htsfem.mesh import Boundary, Mesh2D, Region, _structured_mesh
from htsfem.spaces import SpaceError, trace_table, whitney_transform

# the stability norms at the reference resistivity and the step 0.0125 s
# of the default configuration
NORMS = NormSpec(rho0=1.6e-8, dt0=0.0125, nu0=1.0 / MU0)


def time_config(*, dt, t_end, b_ext, drive, **newton):
    """The TimeConfig on the step ``dt`` to ``t_end`` with the ramps
    ``b_ext`` and ``drive``, and the configuration schema's Newton
    controls where ``newton`` sets none."""
    return replace(make_time(load_config({})), dt=dt, t_end=t_end, b_ext=b_ext, drive=drive,
                   **newton)


def dof_entries(space):
    """(dof, kind, entity) of every DOF of ``space``, in DOF order."""
    k = 0
    for kind, ents in space.kinds.items():
        for ent in ents:
            yield k, kind, int(ent)
            k += 1


def held_dof(space, kind, entity):
    """The DOF of an entity, or None when the space does not hold it."""
    try:
        return space.dof(kind, entity)
    except KeyError:
        return None


def h_dofs_for_potential(h_space, potential):
    """Coefficients representing the gradient of a scalar potential
    inside the conducting region, honouring the grounded boundary node.

    The boundary node DOFs carry the ground-shifted potential; interior
    edge DOFs carry the circulation left over after removing the
    boundary-hat contributions on their endpoints.
    """
    mesh = h_space.mesh
    x = np.zeros(h_space.n_dofs)
    c = h_space.circuit
    p = {int(n): potential(*mesh.nodes[n])
         for n in np.unique(mesh.triangles[h_space.meta["sc_tris"]])}
    g = p[c.ground_node]
    ring = {int(n) for n in c.ring_nodes}
    for n in ring:
        x[h_space.dof("node", n)] = p[n] - g
    for k, kind, ent in dof_entries(h_space):
        if kind != "edge":
            continue
        a, b = (int(v) for v in mesh.edges[ent])
        circ = p[b] - p[a]
        if a in ring:
            circ += p[a] - g
        if b in ring:
            circ -= p[b] - g
        x[k] = circ
    return x


def edge_tris(mesh):
    """(E, 2) ids of the triangles on each mesh edge, ascending, -1
    where an edge has fewer than two: one pass over the triangles."""
    out = np.full((len(mesh.edges), 2), -1, dtype=np.int64)
    for t, eids in enumerate(mesh.tri_edges.tolist()):
        for e in eids:
            out[e, int(out[e, 0] >= 0)] = t
    return out


def l_bar_mesh():
    """L-shaped conductor in air: its reentrant corner puts two GAMMA_M
    edges on one air triangle, its outer corners on conductor ones."""
    def region(x, y):
        sc = (((-0.004 < x) & (x < 0.004) & (-0.004 < y) & (y < -0.002))
              | ((0.002 < x) & (x < 0.004) & (-0.004 < y) & (y < 0.004)))
        return np.where(sc, int(Region.OMEGA_H_SC), int(Region.OMEGA_A_AIR))

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
            k = held_dof(space, "bubble", mesh.tri_edges[tri_id, le])
            if k is not None:
                c = coeffs[k]
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
        k = held_dof(space, "node", tri[i])
        if k is not None:
            grad_a += coeffs[k] * np.broadcast_to(g[i], grad_a.shape)
    if space.enrichment == 2:
        for le, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            k = held_dof(space, "bubble", mesh.tri_edges[tri_id, le])
            if k is not None:
                c = coeffs[k]
                grad_a += c * (bary[..., i, None] * g[j] + bary[..., j, None] * g[i])
    out = np.empty_like(grad_a)
    out[..., 0] = grad_a[..., 1]
    out[..., 1] = -grad_a[..., 0]
    return out


def interface_chain(space):
    """Ordered interface segments, their lengths and the cumulative
    arclength at the segment starts and the end."""
    segs = space.mesh.interface_segments
    lens = space.mesh.segment_lengths(segs)
    return segs, lens, np.concatenate([[0.0], np.cumsum(lens)])


def eval_trace(space, coeffs, s):
    """Interface trace of a full-length coefficient vector at arclength
    s (scalar or array) along the oriented interface polyline, from the
    space's trace table."""
    _, lens, cum = interface_chain(space)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < -1e-12) or np.any(s_arr > cum[-1] + 1e-12):
        raise SpaceError("arclength outside the interface")
    s_arr = np.clip(s_arr, 0.0, cum[-1])
    ks = np.minimum(np.searchsorted(cum, s_arr, side="right") - 1, len(lens) - 1)
    u = (s_arr - cum[ks]) / lens[ks]
    tab = trace_table(space)
    basis = np.einsum("npc,cn->np", tab.coeffs[ks], np.stack([np.ones_like(u), u, u * u]))
    out = np.sum(tab.gather(coeffs)[ks] * basis, axis=1)
    return out if np.ndim(s) else float(out[0])


def e_field(j_vector, law):
    """Electric field e(j) = rho(|j|) * j (V/m), sign-preserving."""
    j = np.asarray(j_vector, dtype=float)
    out = rho_power(j, law) * j
    return out if out.ndim else float(out)


def penetrated_area(mesh, h_space, h_full, j_c):
    """Conductor area where |j| exceeds 0.8 j_c."""
    curl = h_curl_matrix(h_space) @ h_full
    areas, _ = tri_geometry(mesh, h_space.meta["sc_tris"])
    return float(areas[np.abs(curl) > 0.8 * j_c].sum())


def magnetization(mesh, h_space, h_full):
    """Magnetic moment per unit length of the conductor currents:
    m = 1/2 int r x (j z-hat) dA."""
    tris = h_space.meta["sc_tris"]
    curl = h_curl_matrix(h_space) @ h_full
    areas, _ = tri_geometry(mesh, tris)
    cents = mesh.nodes[mesh.triangles[tris]].mean(axis=1)
    return 0.5 * np.array([np.sum(cents[:, 1] * curl * areas),
                           -np.sum(cents[:, 0] * curl * areas)])


def locate_points_reference(mesh, points, region):
    """Containing triangle and barycentric coordinates per point, by
    testing every triangle of ``region`` for every point: the first
    whose coordinates are all at least -1e-10, in region order."""
    cand = mesh.region_tris(region)
    _, grads = tri_geometry(mesh, cand)
    p0 = mesh.nodes[mesh.triangles[cand][:, 0]]
    tri_ids, barys = [], []
    for pt in np.atleast_2d(points):
        d = pt[None, :] - p0
        l1 = np.einsum("td,td->t", grads[:, 1, :], d)
        l2 = np.einsum("td,td->t", grads[:, 2, :], d)
        l0 = 1.0 - l1 - l2
        t = np.flatnonzero((l0 >= -1e-10) & (l1 >= -1e-10) & (l2 >= -1e-10))[0]
        tri_ids.append(cand[t])
        barys.append((l0[t], l1[t], l2[t]))
    return np.array(tri_ids), np.array(barys)


def read_mesh(path):
    """The mesh of a file that ``htsfem.mesh.write_native`` writes: each
    section's row count, then its rows, id first; a segment whose tag is
    not GAMMA_E is interface."""
    lines = iter(Path(path).read_text().split("\n"))
    rows, meta = {}, {}
    for line in lines:
        if line in ("$Nodes", "$Triangles", "$Segments"):
            rows[line] = [next(lines).split()[1:] for _ in range(int(next(lines)))]
        elif line == "$Meta":
            while (entry := next(lines)) != "$EndMeta":
                key, value = entry.split()
                meta[key] = float(value)
    nodes = np.array(rows["$Nodes"], dtype=float).reshape(-1, 2)
    tris = np.array(rows["$Triangles"], dtype=np.int64).reshape(-1, 4)
    segs = np.array(rows["$Segments"], dtype=np.int64).reshape(-1, 3)
    iface = segs[:, 2] != int(Boundary.GAMMA_E)
    tags = np.unique(segs[iface, 2])
    return Mesh2D(nodes, tris[:, :3], tris[:, 3], segs[~iface, :2], segs[iface, :2],
                  tags[0] if len(tags) else None, delta=meta["delta"], w=meta.get("w"))


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


def backward_error(K, x, s) -> float:
    """Componentwise backward error max_i |K x - s|_i / (|K| |x| + |s|)_i
    of the matrix K, formed with a fresh |K|."""
    return componentwise_error(K @ x - s, abs(K) @ np.abs(x) + np.abs(s))


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


def field_block(sys):
    """The field block A_v of an assembled system on all field DOFs, as
    a CSR matrix built from its data on the curl form's pattern."""
    form = sys.blocks.form
    return sp.csr_matrix((sys.A_data, form._indices, form._indptr), shape=form._shape)


def free_field_block(sys):
    """The block of A_v on the free field DOFs, sliced by scipy."""
    free = sys.blocks.v_space.free
    return field_block(sys)[free][:, free].tocsr()


def a_stiffness(q_space, materials):
    """The reluctivity stiffness K_nu on all DOFs of ``q_space``, from a
    per-region table: 1/(mu0 mu_r) on the ferromagnet, 1/mu0 in air."""
    nu_of = {int(Region.OMEGA_A_AIR): 1.0 / MU0,
             int(Region.OMEGA_A_FERRO): 1.0 / (MU0 * materials.mu_r)}
    regions = q_space.mesh.tri_region[q_space.meta["a_tris"]]
    return _a_stiffness(q_space, np.array([nu_of[int(r)] for r in regions]))


def coupling(sys):
    """The coupling B on all DOFs of the two spaces of ``sys``."""
    return _coupling_full(sys.blocks.v_space, sys.blocks.q_space)


def monolithic(sys, materials):
    """The monolithic operator [[A_v, B^T], [B, -K_nu]] of an assembled
    coupled system on all DOFs of both spaces, with the a-side of
    ``materials``."""
    K_nu, B = a_stiffness(sys.blocks.q_space, materials), coupling(sys)
    return sp.bmat([[field_block(sys), B.T], [B, -K_nu]], format="csr")


def build_time_values(blocks):
    """The essential values and circuit voltages that the spaces of
    ``blocks`` were built with, as keyword arguments of the iteration
    assemblers."""
    v_space = blocks.v_space
    return {"a_essential": blocks.q_space.essential_full(),
            "v_essential": v_space.essential_full(),
            "voltage": v_space.circuit.value if v_space.circuit.mode == "voltage" else None}


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


def eliminated(sys, materials):
    """The monolithic system (K, s) on the free DOFs, V block first,
    after symmetric elimination of the essential values."""
    free, K_full = free_indices(sys), monolithic(sys, materials)
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
    B = coupling(sys)[lb.q_space.free][:, lb.v_space.free].tocsr()
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
    B_gamma = coupling(sys)[lb.q_space.free][:, lb.v_space.free].tocsr()[schur.factor.rows]
    return free_field_block(sys) + interface_term(sys, schur), sys.s_field + B_gamma.T @ lift
