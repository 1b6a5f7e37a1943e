"""Finite-element assembly of the coupled systems, coupling matrices
and norm matrices.

Conventions.  The unknowns of a coupled system are two blocks: the
field-side block V (h or t coefficients) and the potential block Q (a
coefficients).  With B the interface coupling matrix (rows Q, columns
V), one implicit-Euler iteration of either formulation is the one
symmetric block form

    [[ A_v,  B^T  ]  [v]   [s_v]
     [ B,   -K_nu ]] [a] = [ 0 ]

where K_nu is the reluctivity stiffness of the linear a-side and A_v
the field block: M + dt*K_rho for h-a (conductor mass plus
differential-resistivity stiffness) and dt*D for t-a (the tape's
differential-resistivity stiffness).  The t-a system is thus stored as
the paper's form times -1, which has the same solution.  The potential
rows carry no source: the a-side is linear.

Only A_v and s_v depend on the Newton iterate, so an iteration
assembles only those, from the field iterate alone.  What is fixed for
a transient run is built once, by ``linear_blocks``, into one
``LinearBlocks``: the free potential rows [B, -K_nu], the field curl
form and the H mass.  What is fixed for a step attempt is formed once,
by ``begin_step``, into one ``Step`` that the iteration assemblers
take: the essential values, the old-state source, the circuit term and
the eliminated potential right-hand side.  Nothing is cached on the
spaces.  The field blocks are weighted
curl-curl forms G^T diag(w) G, linear in the weights, and are filled
on a fixed sparsity pattern by one sparse mat-vec (``_CurlForm``).  Both
formulations assemble through one power-law iteration core.
``AssembledSystem`` holds the field and potential vectors apart.  It
evaluates residuals, backward errors and the right-hand side after the
symmetric elimination of essential values on the blocks, through one
backward-error routine; no monolithic matrix is ever assembled.

Field evaluation lives beside the kernels.  The Whitney and edge-bubble
kernels take barycentric points (the quadrature points by default);
``field_operator`` tabulates them at arbitrary points into one sparse
map from coefficients to h or b, and ``h_curl_matrix`` is the
per-triangle curl G of the H curl form, shared with post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._geom import LINE_QP, LINE_QW, TRI_QP, TRI_QW, tri_geometry
from .linalg import componentwise_error
from .materials import MU0, Materials, PowerLaw, de_dj, rho_power
from .mesh import Mesh2D, Region
from .spaces import DofSpace, trace_table, whitney_transform


class AssemblyError(ValueError):
    pass


class SingularNormError(AssemblyError):
    """Norm matrix would be singular (no essential constraint)."""


@dataclass(frozen=True)
class NormSpec:
    """Characteristic constants of the stability norms.

    The field norm weights the mass term with mu0 and the curl term
    with dt0*rho0; the potential norm weights curls with nu0; the tape
    norm is additionally scaled by the (uniform) tape element size,
    which emulates the fractional trace norm discretely.
    """

    rho0: float
    dt0: float
    nu0: float

    def __post_init__(self):
        for name in ("rho0", "dt0", "nu0"):
            if getattr(self, name) <= 0.0:
                raise AssemblyError(f"{name} must be positive")


@dataclass(frozen=True)
class LinearBlocks:
    """What every Newton iteration of a transient run shares: the field
    and potential spaces, the conductor's power law, the field curl
    form (for H with the mu0 H mass as its base) and the H mass (None
    for T).  The a-side is held once, as the free potential rows
    [B, -K_nu] of the block form (``q_rows``), whose columns are all
    field DOFs followed by all potential DOFs; the free a-block and the
    free coupling are its slices.  For mat-vecs it also stores B^T on
    the potential DOFs ``gamma`` that B couples (``B_T``; ``gamma_free``
    marks the free ones).  Each comes with its entrywise absolute
    values on its own index arrays, which scale backward errors.  What
    a step fixes besides is held by ``Step``."""

    v_space: DofSpace
    q_space: DofSpace
    power: PowerLaw
    form: _CurlForm
    mass: sp.csr_matrix | None
    gamma: np.ndarray
    gamma_free: np.ndarray
    B_T: sp.csr_matrix
    abs_B_T: sp.csr_matrix
    q_rows: sp.csr_matrix
    abs_q_rows: sp.csr_matrix


@dataclass(frozen=True)
class Step:
    """What every Newton iteration of one step attempt shares (from
    ``begin_step``): the run's ``blocks``, ``dt``, the essential values
    on all DOFs of each space at the new time (zero on the free DOFs),
    the old-state source s_prev = B^T a_prev [+ M v_prev], the circuit
    term, the field rows' part B^T a_ess, and the eliminated potential
    right-hand side s_potential = -q_rows [v_ess; a_ess] with its scale
    q_scale = |q_rows| |[v_ess; a_ess]|."""

    blocks: LinearBlocks
    dt: float
    v_essential: np.ndarray
    a_essential: np.ndarray
    s_prev: np.ndarray
    s_circuit: np.ndarray
    bt_a_essential: np.ndarray
    s_potential: np.ndarray
    q_scale: np.ndarray


@dataclass
class AssembledSystem:
    """One linearized coupled system in block form (see the module
    docstring): the field block's CSR data ``A_data`` on the fixed
    pattern of ``step.blocks.form`` (all field DOFs) and the field
    right-hand side ``s_v`` of one Newton iterate of the step attempt
    ``step``, which holds the run's blocks and the essential values.

    The system is solved on the free DOFs after symmetric elimination;
    its right-hand side is computed on the blocks, with the field part
    ``s_field`` and the potential part ``step.s_potential``.  The field
    rows read the potential only on ``blocks.gamma``, so
    ``field_residual`` and ``field_error`` take its values there.
    """

    A_data: np.ndarray
    s_v: np.ndarray
    step: Step

    def _field_product(self, v, a_gamma, absolute=False) -> np.ndarray:
        """The field rows A_v v + B^T a, or |A_v| v + |B^T| a, from v and
        the potential on ``blocks.gamma``."""
        lb = self.step.blocks
        if absolute:
            return lb.form.product(self._abs_data, v) + lb.abs_B_T @ a_gamma
        return lb.form.product(self.A_data, v) + lb.B_T @ a_gamma

    @cached_property
    def _abs_data(self) -> np.ndarray:
        return np.abs(self.A_data)

    def field_residual(self, v, a_gamma) -> np.ndarray:
        """The field rows A_v v + B^T a - s_v on all field DOFs, at the
        field v and the potential ``a_gamma`` on ``blocks.gamma``."""
        return self._field_product(v, a_gamma) - self.s_v

    def field_error(self, v, a_gamma) -> float:
        """Componentwise backward error of the free field rows at v and
        ``a_gamma``: the field rows of ``backward_error``, which reads
        no other potential value."""
        free = self.step.blocks.v_space.free
        return componentwise_error(
            self.field_residual(v, a_gamma)[free],
            (self._field_product(np.abs(v), np.abs(a_gamma), absolute=True)
             + np.abs(self.s_v))[free])

    def _error(self, v, a, s_field, x, q_scale) -> float:
        """Componentwise backward error of the free rows of the block form:
        the free field rows at the full-length (v, a) against
        ``s_field``, and the free potential rows at x, which is [v; a]
        less its essential values, against ``s_potential``, with
        ``q_scale`` added to their scale."""
        lb = self.step.blocks
        free, a_gamma = lb.v_space.free, a[lb.gamma]
        return componentwise_error(
            np.concatenate([self._field_product(v, a_gamma)[free] - s_field,
                            lb.q_rows @ x - self.step.s_potential]),
            np.concatenate([self._field_product(np.abs(v), np.abs(a_gamma), absolute=True)[free]
                            + np.abs(s_field), lb.abs_q_rows @ np.abs(x) + q_scale]))

    def backward_error(self, v, a) -> float:
        """Componentwise backward error of the whole system at (v, a),
        which hold the system's essential values, over the free rows;
        the potential rows carry no source.  Their residual and its
        scale are each summed in two parts: at [v; a] less the essential
        values, and at the essential values, whose residual part is
        -``s_potential`` and whose scale is ``q_scale``."""
        step = self.step
        x_essential = np.concatenate([step.v_essential, step.a_essential])
        return self._error(v, a, self.s_v[step.blocks.v_space.free],
                           np.concatenate([v, a]) - x_essential, step.q_scale)

    def free_backward_error(self, v_free, a_free) -> float:
        """Componentwise backward error of the eliminated system at its
        free DOFs: the block form's with zero essential values."""
        lb = self.step.blocks
        v = lb.v_space.expand(v_free, np.zeros(lb.v_space.n_dofs))
        a = lb.q_space.expand(a_free, np.zeros(lb.q_space.n_dofs))
        return self._error(v, a, self.s_field, np.concatenate([v, a]),
                           np.abs(self.step.s_potential))

    @cached_property
    def s_field(self) -> np.ndarray:
        """The eliminated right-hand side of the free field rows: s_v
        minus the field rows' product with the essential values."""
        step = self.step
        return (self.s_v - (step.blocks.form.product(self.A_data, step.v_essential)
                            + step.bt_a_essential))[step.blocks.v_space.free]


# -- low-level kernels ---------------------------------------------------------


def _scatter(rows, cols, vals, shape):
    """The canonical CSR of the summed entries; it stores no exact zero."""
    M = sp.coo_matrix((np.asarray(vals, dtype=float).ravel(),
                       (np.asarray(rows).ravel(), np.asarray(cols).ravel())),
                      shape=shape).tocsr()
    M.eliminate_zeros()
    return M


def _masked_scatter(rdofs, cdofs, loc, shape):
    """Scatter local blocks ``loc`` (N, R, C) onto the DOFs ``rdofs``
    (N, R) x ``cdofs`` (N, C); slots holding -1 carry no DOF and are
    skipped, so padding stores no entries."""
    m = (rdofs[:, :, None] >= 0) & (cdofs[:, None, :] >= 0)
    rows = np.broadcast_to(rdofs[:, :, None], m.shape)[m]
    cols = np.broadcast_to(cdofs[:, None, :], m.shape)[m]
    return _scatter(rows, cols, loc[m], shape)


def _whitney_local(mesh, tri_ids, pts=TRI_QP):
    """Whitney edge-function data on triangles: values (T, Q, 3, 2) in
    canonical edge orientation at the barycentric points ``pts``
    ((Q, 3) on every triangle, or (T, Q, 3) per triangle), constant
    curls (T, 3), areas (T,)."""
    areas, grads = tri_geometry(mesh, tri_ids)
    tris = mesh.triangles[tri_ids]
    T = len(tri_ids)
    vals = np.empty((T, pts.shape[-2], 3, 2))
    curls = np.empty((T, 3))
    for le, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        sgn = np.where(tris[:, i] < tris[:, j], 1.0, -1.0)
        lam_i = pts[..., i, None]
        lam_j = pts[..., j, None]
        v = lam_i * grads[:, None, j, :] - lam_j * grads[:, None, i, :]
        vals[:, :, le, :] = sgn[:, None, None] * v
        cr = 2.0 * (grads[:, i, 0] * grads[:, j, 1] - grads[:, i, 1] * grads[:, j, 0])
        curls[:, le] = sgn * cr
    return vals, curls, areas


def _whitney_map(space):
    """The H space's Whitney map C (see ``whitney_transform``) and the
    row of C of each mesh edge, -1 off the conducting region."""
    sc_edges, C = whitney_transform(space)
    pos = np.full(len(space.mesh.edges), -1, dtype=np.int64)
    pos[sc_edges] = np.arange(len(sc_edges))
    return pos, C


def _whitney_mass(mesh, tri_ids, sc_edge_pos, n_rows):
    """Mass matrix of Whitney edge functions on the given triangles,
    indexed by position in the conducting edge list."""
    vals, _, areas = _whitney_local(mesh, tri_ids)
    # local mass: sum_q w_q A * psi_e . psi_f
    loc = np.einsum("q,tqei,tqfi->tef", TRI_QW, vals, vals) * areas[:, None, None]
    eids = sc_edge_pos[mesh.tri_edges[tri_ids]]          # (T, 3)
    rows = np.repeat(eids, 3, axis=1)
    cols = np.tile(eids, (1, 3))
    return _scatter(rows, cols, loc.reshape(len(tri_ids), 9), (n_rows, n_rows))


def _p1_stiffness(mesh, tri_ids, weights, node_dof, n_dofs):
    """Weighted scalar P1 stiffness scattered onto space DOF indices.
    For the out-of-plane potential, curl a . curl a' = grad a . grad a'.
    """
    areas, grads = tri_geometry(mesh, tri_ids)
    loc = np.einsum("t,tid,tjd->tij", weights * areas, grads, grads)
    dofs = node_dof[mesh.triangles[tri_ids]]             # (T, 3)
    rows = np.repeat(dofs, 3, axis=1)
    cols = np.tile(dofs, (1, 3))
    return _scatter(rows, cols, loc.reshape(len(tri_ids), 9), (n_dofs, n_dofs))


def _edge_bubbles(space, tri_ids, pts=TRI_QP):
    """Interface edge bubbles on the triangles of ``tri_ids`` that carry
    at least one.  Returns (hit, dofs, grad_b, areas, grads): ``hit``
    selects those triangles from ``tri_ids``; ``dofs`` (T, 3) holds the
    bubble DOF of local edges (01, 12, 20), -1 where an edge has none;
    ``grad_b`` (T, Q, 3, 2) is grad(lambda_i lambda_j) at the
    barycentric points ``pts`` (as for ``_whitney_local``); ``areas``
    and hat ``grads`` are as from tri_geometry."""
    mesh = space.mesh
    dofs = space.entity_dofs("bubble", len(mesh.edges))[mesh.tri_edges[tri_ids]]
    hit = np.any(dofs >= 0, axis=1)
    areas, grads = tri_geometry(mesh, tri_ids[hit])
    if pts.ndim == 3:
        pts = pts[hit]
    i, j = [0, 1, 2], [1, 2, 0]
    grad_b = (pts[..., i, None] * grads[:, None, j, :]
              + pts[..., j, None] * grads[:, None, i, :])
    return hit, dofs[hit], grad_b, areas, grads


def _bubble_gram(grad_b, weights):
    """Local bubble x bubble blocks (T, 3, 3), weighted per triangle."""
    return np.einsum("q,tqed,tqfd->tef", TRI_QW, grad_b, grad_b) * weights[:, None, None]


def _h_mass(space, coeff):
    """Conductor mass matrix of the H space on all DOFs (coeff * I)."""
    mesh = space.mesh
    tri_ids = space.meta["sc_tris"]
    pos, C = _whitney_map(space)
    Mw = _whitney_mass(mesh, tri_ids, pos, C.shape[0])
    K = C.T @ (coeff * Mw) @ C

    if space.enrichment == 2:
        hit, dofs, grad_b, areas, _ = _edge_bubbles(space, tri_ids)
        wvals, _, _ = _whitney_local(mesh, tri_ids[hit])
        # Whitney edge f x bubble e
        loc = np.einsum("q,tqfd,tqed->tfe", TRI_QW, wvals, grad_b) * areas[:, None, None]
        Mwb = _masked_scatter(pos[mesh.tri_edges[tri_ids[hit]]], dofs, coeff * loc,
                              (C.shape[0], space.n_dofs))
        K = K + C.T @ Mwb + Mwb.T @ C
        K = K + _masked_scatter(dofs, dofs, _bubble_gram(grad_b, coeff * areas),
                                (space.n_dofs,) * 2)
    return K.tocsr()


class _CurlForm:
    """The weighted curl-curl form K(w) = G^T diag(omega w) G of a field
    space, plus an optional fixed ``base`` matrix.

    G (n_qp x n_dofs) maps coefficients to the curl at the quadrature
    points: the constant curl on each conducting triangle for H, the
    surface current dt/ds at the Gauss points of each tape segment for
    T.  ``omega`` holds the quadrature weights.  K(w) is linear in w, so
    on the fixed pattern of base + G^T G its CSR data is P w plus the
    base's data, for a sparse P (pattern entries x n_qp) built once
    (``data``).  A Newton iteration works on that data alone: products
    on the pattern (``product``) and the block on the ``free`` DOFs, a
    fixed selection of it (``free_data``, ``free_dense``), construct no
    matrix.
    """

    def __init__(self, G, omega, free, base=None):
        G = sp.csr_matrix(G)
        G.sum_duplicates()
        n = G.shape[1]
        self.G, self._Gt, self._omega = G, G.T.tocsr(), omega
        # every pair (p, q) of entries in one row of G adds
        # omega * G_p * G_q at (col p, col q)
        row_len = np.diff(G.indptr)
        row = np.repeat(np.arange(G.shape[0]), row_len)
        width = row_len[row]
        p = np.repeat(np.arange(G.nnz), width)
        first = np.repeat(np.cumsum(width) - width, width)
        q = G.indptr[row[p]] + np.arange(len(p)) - first
        keys = G.indices[p].astype(np.int64) * n + G.indices[q]
        base = sp.coo_matrix((n, n) if base is None else base)
        base.sum_duplicates()
        base_keys = base.row.astype(np.int64) * n + base.col
        # a sort and an adjacent compare: np.unique hashes integer keys,
        # which is many times slower on these arrays of repeated keys
        pattern = np.sort(np.concatenate([keys, base_keys]))
        pattern = pattern[np.diff(pattern, prepend=-1) != 0]
        self._P = sp.csr_matrix(
            (omega[row[p]] * G.data[p] * G.data[q], (np.searchsorted(pattern, keys), row[p])),
            shape=(len(pattern), G.shape[0]))
        self._base = np.zeros(len(pattern))
        self._base[np.searchsorted(pattern, base_keys)] = base.data
        self._indices = (pattern % n).astype(np.int32)
        self._indptr = np.searchsorted(pattern // n, np.arange(n + 1)).astype(np.int32)
        self._shape = (n, n)
        # the pattern entries in free rows and columns, renumbered
        renum = np.full(n, -1, dtype=np.int64)
        renum[free] = np.arange(len(free))
        rows, cols = renum[pattern // n], renum[pattern % n]
        self._free_pos = np.flatnonzero((rows >= 0) & (cols >= 0))
        self._free_indices = cols[self._free_pos].astype(np.int32)
        self._free_indptr = np.searchsorted(rows[self._free_pos],
                                            np.arange(len(free) + 1)).astype(np.int32)

    @cached_property
    def _pattern(self) -> sp.csr_matrix:
        return sp.csr_matrix((self._base, self._indices, self._indptr), shape=self._shape)

    @cached_property
    def _free_flat(self) -> np.ndarray:
        """The position of each free-block entry in the dense block, row-major."""
        n = len(self._free_indptr) - 1
        return np.repeat(np.arange(n), np.diff(self._free_indptr)) * n + self._free_indices

    def data(self, w) -> np.ndarray:
        """The CSR data of base + K(w) on the fixed pattern."""
        return self._P @ w + self._base

    def matrix(self, w) -> sp.csr_matrix:
        """base + K(w) on the fixed pattern."""
        return sp.csr_matrix((self.data(w), self._indices, self._indptr), shape=self._shape)

    def product(self, data, u) -> np.ndarray:
        """M u for the matrix M with CSR data ``data`` on the pattern.  It
        points this form's one CSR of the pattern at ``data``, so one
        thread at a time may use it."""
        M = self._pattern
        M.data = data
        return M @ u

    def free_data(self, data) -> np.ndarray:
        """The CSR data of the free rows and columns of the matrix with
        data ``data``, on the pattern of ``free_block``."""
        return data[self._free_pos]

    def free_block(self, data) -> sp.csr_matrix:
        """The block of free rows and columns of the matrix with data
        ``data``."""
        n = len(self._free_indptr) - 1
        return sp.csr_matrix((self.free_data(data), self._free_indices, self._free_indptr),
                             shape=(n, n))

    def free_dense(self, data) -> np.ndarray:
        """``free_block(data)`` as a dense array, without the sparse one:
        the pattern holds no duplicate, and ``data`` no negative zero."""
        n = len(self._free_indptr) - 1
        M = np.zeros(n * n)
        M[self._free_flat] = self.free_data(data)
        return M.reshape(n, n)

    def apply(self, w, curl) -> np.ndarray:
        """K(w) u without forming K(w), from the curl G u of u."""
        return self._Gt @ (self._omega * w * curl)


def h_curl_matrix(space: DofSpace) -> sp.csr_matrix:
    """The H space's curl matrix G: the constant out-of-plane curl of
    the field on each conducting triangle, rows in ``sc_tris`` order,
    from a full coefficient vector.  Node potentials and bubbles are
    gradients; their curl vanishes to rounding."""
    mesh = space.mesh
    tri_ids = space.meta["sc_tris"]
    pos, C = _whitney_map(space)
    _, curls, _ = _whitney_local(mesh, tri_ids)
    rows = np.repeat(np.arange(len(tri_ids)), 3)
    return _scatter(rows, pos[mesh.tri_edges[tri_ids]], curls,
                    (len(tri_ids), C.shape[0])) @ C


def _curl_form(space, base=None) -> _CurlForm:
    """The space's curl-curl form (see ``_CurlForm``) with the fixed
    ``base`` matrix."""
    if space.family == "H":
        G = h_curl_matrix(space)
        omega, _ = tri_geometry(space.mesh, space.meta["sc_tris"])
    else:
        tab = trace_table(space)
        n_seg = len(tab.lens)
        rows = np.arange(n_seg * len(LINE_QP)).reshape(n_seg, 1, len(LINE_QP))
        dofs = np.broadcast_to(tab.dofs[:, :, None], tab.dofs.shape + (len(LINE_QP),))
        has = dofs >= 0
        G = _scatter(np.broadcast_to(rows, has.shape)[has], dofs[has],
                     tab.values(LINE_QP)[has], (rows.size, space.n_dofs))
        omega = (LINE_QW[None, :] * tab.lens[:, None]).ravel()
    return _CurlForm(G, omega, space.free, base)


def _a_stiffness(space, nu_per_tri):
    """Weighted curl-curl of the A space (hats plus interface bubbles)."""
    mesh = space.mesh
    tri_ids = space.meta["a_tris"]
    node_dof = space.entity_dofs("node", mesh.n_nodes)
    nu = np.asarray(nu_per_tri, dtype=float)
    K = _p1_stiffness(mesh, tri_ids, nu, node_dof, space.n_dofs)

    if space.enrichment == 2:
        hit, dofs, grad_b, areas, grads = _edge_bubbles(space, tri_ids)
        w = areas * nu[hit]
        hats = node_dof[mesh.triangles[tri_ids[hit]]]
        # bubble e x hat f
        loc = np.einsum("q,tqed,tfd->tef", TRI_QW, grad_b, grads) * w[:, None, None]
        shape = (space.n_dofs,) * 2
        K = (K + _masked_scatter(dofs, hats, loc, shape)
             + _masked_scatter(hats, dofs, loc.transpose(0, 2, 1), shape)
             + _masked_scatter(dofs, dofs, _bubble_gram(grad_b, w), shape))
    return K.tocsr()


def field_operator(space: DofSpace, tri_ids, barys) -> sp.csr_matrix:
    """Sparse map F from a full coefficient vector to the field at the
    points given by triangles ``tri_ids`` (N,) and barycentric
    coordinates ``barys`` (N, 3): h for an H space, b = curl(a z-hat)
    = (da/dy, -da/dx) for an A space.  Rows 2k and 2k + 1 hold the x
    and y components at point k, so ``(F @ x).reshape(-1, 2)`` is the
    field per point.  Every triangle must lie in the space's domain."""
    mesh = space.mesh
    tri_ids = np.asarray(tri_ids, dtype=np.int64)
    pts = np.asarray(barys, dtype=float).reshape(len(tri_ids), 1, 3)
    rows = 2 * np.arange(len(tri_ids))[:, None] + np.arange(2)
    shape = (2 * len(tri_ids), space.n_dofs)
    if space.family == "H":
        pos, C = _whitney_map(space)
        vals, _, _ = _whitney_local(mesh, tri_ids, pts)
        F = _masked_scatter(rows, pos[mesh.tri_edges[tri_ids]], vals[:, 0].transpose(0, 2, 1),
                            (shape[0], C.shape[0])) @ C
        turn = np.eye(2)
    elif space.family == "A":
        _, grads = tri_geometry(mesh, tri_ids)
        turn = np.array([[0.0, -1.0], [1.0, 0.0]])      # grad a @ turn = curl(a z-hat)
        F = _masked_scatter(rows, space.entity_dofs("node", mesh.n_nodes)[mesh.triangles[tri_ids]],
                            (grads @ turn).transpose(0, 2, 1), shape)
    else:
        raise AssemblyError("field evaluation applies to H and A spaces")
    if space.enrichment == 2:
        hit, dofs, grad_b, _, _ = _edge_bubbles(space, tri_ids, pts)
        F = F + _masked_scatter(rows[hit], dofs, (grad_b[:, 0] @ turn).transpose(0, 2, 1), shape)
    return F.tocsr()


def tape_element_size(mesh: Mesh2D) -> float:
    lens = mesh.segment_lengths(mesh.interface_segments)
    if lens.max() / lens.min() > 1.01:
        raise AssemblyError("tape mesh is not uniform")
    return float(lens.max())


def tape_current_density(space: DofSpace, coeffs):
    """Surface current density dt/ds per tape segment, at its midpoint."""
    tab = trace_table(space)
    j = np.einsum("sp,spq->sq", tab.gather(coeffs), tab.values(LINE_QP))
    return j[:, 1]                          # LINE_QP[1] is the midpoint


# -- coupling and norms ----------------------------------------------------------


def _coupling_full(v_space: DofSpace, q_space: DofSpace):
    """Interface coupling on all DOFs: B[q, v] = int (trace_q)(trace_v),
    times the field space's current scale (the tape thickness for the
    surface-current pairing)."""
    if q_space.mesh is not v_space.mesh:
        raise AssemblyError("the field and potential spaces are built on different meshes")
    qt, vt = trace_table(q_space), trace_table(v_space)
    loc = np.einsum("q,saq,sbq->sab", LINE_QW, qt.values(LINE_QP), vt.values(LINE_QP)) \
        * (v_space.current_scale * qt.lens)[:, None, None]
    return _masked_scatter(qt.dofs, vt.dofs, loc, (q_space.n_dofs, v_space.n_dofs))


def assemble_coupling_matrix(v_space: DofSpace, q_space: DofSpace) -> sp.csr_matrix:
    """Coupling matrix on free DOFs (rows: potential side, columns:
    field side), as used by the inf-sup pencil."""
    return _coupling_full(v_space, q_space)[q_space.free][:, v_space.free].tocsr()


def assemble_norm_matrix(space: DofSpace, norms: NormSpec) -> sp.csr_matrix:
    """Stability-norm Gram matrix on the free DOFs (SPD)."""
    if space.family == "H":
        form = _curl_form(space, _h_mass(space, MU0))
        N = form.matrix(np.full(form.G.shape[0], norms.dt0 * norms.rho0))
    elif space.family == "A":
        if space.n_free == space.n_dofs:
            raise SingularNormError("potential norm needs an essential trace")
        nu = np.full(len(space.meta["a_tris"]), norms.nu0)
        N = _a_stiffness(space, nu)
    elif space.family == "T":
        delta = tape_element_size(space.mesh)
        form = _curl_form(space)
        N = form.matrix(np.full(form.G.shape[0],
                                delta * space.mesh.w * norms.dt0 * norms.rho0))
    else:
        raise AssemblyError(f"unknown family {space.family}")
    return N[space.free][:, space.free].tocsr()


# -- coupled iteration systems ----------------------------------------------------


def _circuit_rhs(space, dt, voltage):
    """Voltage source term on the global DOF.  ``voltage`` is the
    per-unit-length voltage of a voltage-driven circuit in the reported
    V = R I convention, None for a current-driven one.  The weak form
    carries -dt V times the current scale on the left-hand side; moved
    to the right it enters with a plus sign."""
    v = np.zeros(space.n_dofs)
    if voltage is not None:
        v[space.dof("global", 0)] = dt * voltage * space.current_scale
    return v


def linear_blocks(v_space: DofSpace, q_space: DofSpace, materials: Materials) -> LinearBlocks:
    """The fixed blocks of a transient run on the field space
    ``v_space`` and the potential space ``q_space`` of one mesh (see
    ``LinearBlocks``), built afresh on every call.  The reluctivity is
    1/(mu0 mu_r) on the ferromagnet's triangles and 1/mu0 on the air's."""
    B = _coupling_full(v_space, q_space)
    region = q_space.mesh.tri_region[q_space.meta["a_tris"]]
    K_nu = _a_stiffness(q_space, np.where(region == Region.OMEGA_A_FERRO,
                                          1.0 / (MU0 * materials.mu_r), 1.0 / MU0))
    mass = _h_mass(v_space, MU0) if v_space.family == "H" else None
    gamma = np.flatnonzero(np.diff(B.indptr))
    B_T = B[gamma].T.tocsr()
    q_rows = sp.hstack([B, -K_nu], format="csr")[q_space.free]
    abs_B_T, abs_q_rows = (sp.csr_matrix((np.abs(M.data), M.indices, M.indptr), shape=M.shape)
                           for M in (B_T, q_rows))
    return LinearBlocks(v_space, q_space, materials.power, _curl_form(v_space, mass), mass,
                        gamma, np.isin(gamma, q_space.free), B_T, abs_B_T, q_rows, abs_q_rows)


def begin_step(blocks: LinearBlocks, state_prev, dt, v_essential, a_essential,
               voltage) -> Step:
    """The ``Step`` of one step attempt on the run's ``blocks``, from the
    (v_full, a_full) pair ``state_prev`` at the previous time step, the
    essential values at the new time on all DOFs of the field and the
    potential space, and the ``voltage`` of a voltage-driven circuit,
    else None (see ``_circuit_rhs``)."""
    v_prev, a_prev = state_prev
    if len(v_prev) != blocks.v_space.n_dofs or len(a_prev) != blocks.q_space.n_dofs:
        raise AssemblyError("state vectors do not match the spaces")
    s_prev = blocks.B_T @ a_prev[blocks.gamma]
    if blocks.mass is not None:
        s_prev = s_prev + blocks.mass @ v_prev
    x_essential = np.concatenate([v_essential, a_essential])
    return Step(blocks, dt, v_essential, a_essential, s_prev,
                _circuit_rhs(blocks.v_space, dt, voltage), blocks.B_T @ a_essential[blocks.gamma],
                -(blocks.q_rows @ x_essential), blocks.abs_q_rows @ np.abs(x_essential))


def _power_law_iteration(step: Step, v_it, scale) -> AssembledSystem:
    """One Newton iteration of ``step`` around the field iterate
    ``v_it``: the field block base + scale K(de/dj) and the field
    right-hand side s_prev - scale K(rho - de/dj) v_it + s_circuit
    (summed in that order), with K(w) the curl form of the step's
    blocks and base its fixed part, for H only."""
    if np.any(~np.isfinite(v_it)):
        raise AssemblyError("non-finite Newton iterate")

    form, power = step.blocks.form, step.blocks.power
    j = form.G @ v_it
    rho = rho_power(j, power)
    dedj = de_dj(j, rho, power)
    if np.any(~np.isfinite(dedj)):
        raise AssemblyError("non-finite material evaluation")

    s_v = step.s_prev - form.apply(scale * (rho - dedj), j) + step.s_circuit
    return AssembledSystem(form.data(scale * dedj), s_v, step)


def assemble_ha_iteration(step: Step, iterate) -> AssembledSystem:
    """One Newton iteration of the implicit-Euler h-a system in the step
    attempt ``step`` (from ``begin_step`` on the blocks of an H and an
    A space) around ``iterate``, the h_full of the previous Newton
    iterate.  The field block is M + dt K(de/dj) and the field
    right-hand side B^T a_prev + M h_prev - dt K(rho - de/dj) h_it +
    circuit terms, with K(w) the curl-curl form weighted by w per
    conducting triangle."""
    return _power_law_iteration(step, iterate, step.dt)


def assemble_ta_iteration(step: Step, iterate) -> AssembledSystem:
    """As ``assemble_ha_iteration``, with t for h, for the t-a system
    (on the blocks of a T and an A space), stored as the paper's form
    times -1 (see the module docstring).  The field block is
    dt w D(de/dj) and the field right-hand side B^T a_prev
    - dt w D(rho - de/dj) t_it + circuit terms, with D(w) the tape
    curl-curl form weighted at the Gauss points and w the tape width."""
    return _power_law_iteration(step, iterate, step.dt * step.blocks.v_space.mesh.w)
