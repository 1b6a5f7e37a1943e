import numpy as np
import pytest
import scipy.sparse as sp

from htsfem._geom import LINE_QP, LINE_QW, TRI_QP, TRI_QW
from htsfem.assembly import (AssemblyError, SingularNormError,
                             assemble_coupling_matrix, assemble_ha_iteration,
                             assemble_norm_matrix, assemble_ta_iteration,
                             field_operator, h_curl_matrix, linear_blocks,
                             tape_element_size, _coupling_full)
from htsfem.infsup import build_pairing
from htsfem.mesh import refine
from htsfem.spaces import build_a_space, build_h_space, build_t_space

from util import (NORMS, build_time_values, curl_h, dof_entries, edge_tris, eliminated,
                  eval_a_curl, eval_h_field, eval_trace, free_indices,
                  interface_chain, l_bar_mesh, monolithic, s_full, solve_reference)


def sym_defect(K):
    d = K - K.T
    return abs(d).max() / abs(K).max() if d.nnz else 0.0


def test_ha_zero_state_zero_solution(bar_spaces_11, bar_materials_linear):
    h, a = bar_spaces_11
    z = (np.zeros(h.n_dofs), np.zeros(a.n_dofs))
    blocks = linear_blocks(h, a, bar_materials_linear)
    sys = assemble_ha_iteration(blocks, z, z[0], 0.0125, **build_time_values(blocks))
    K, s = eliminated(sys, bar_materials_linear)
    assert np.abs(s).max() == 0.0
    x = solve_reference(K, s)
    assert np.abs(x).max() == 0.0


def test_ha_symmetry(bar_spaces_11, bar_materials_power):
    h, a = bar_spaces_11
    rng = np.random.default_rng(0)
    state = (rng.normal(size=h.n_dofs), rng.normal(size=a.n_dofs))
    blocks = linear_blocks(h, a, bar_materials_power)
    sys = assemble_ha_iteration(blocks, state, state[0], 0.0125, **build_time_values(blocks))
    assert sym_defect(eliminated(sys, bar_materials_power)[0]) < 1e-12
    assert sym_defect(monolithic(sys, bar_materials_power)) < 1e-12


def test_ta_symmetry(tape_spaces_11, tape_materials_power):
    t, a = tape_spaces_11
    rng = np.random.default_rng(1)
    state = (rng.normal(size=t.n_dofs) * 1e6, rng.normal(size=a.n_dofs) * 1e-6)
    blocks = linear_blocks(t, a, tape_materials_power)
    sys = assemble_ta_iteration(blocks, state, state[0], 0.0125, **build_time_values(blocks))
    assert sym_defect(eliminated(sys, tape_materials_power)[0]) < 1e-12


def test_saddle_block_structure(bar_spaces_11, bar_materials_linear):
    # K = [[A, B^T], [B, -C]] with A, C positive semi-definite
    h, a = bar_spaces_11
    z = (np.zeros(h.n_dofs), np.zeros(a.n_dofs))
    blocks = linear_blocks(h, a, bar_materials_linear)
    sys = assemble_ha_iteration(blocks, z, z[0], 0.0125, **build_time_values(blocks))
    nv = h.n_free
    K = eliminated(sys, bar_materials_linear)[0].toarray()
    A = K[:nv, :nv]
    C = -K[nv:, nv:]
    Bt = K[:nv, nv:]
    B = K[nv:, :nv]
    assert np.abs(Bt - B.T).max() < 1e-12 * np.abs(B).max()
    assert np.linalg.eigvalsh(A).min() > -1e-10 * np.abs(A).max()
    assert np.linalg.eigvalsh(C).min() > -1e-10 * np.abs(C).max()


def test_coercivity_rayleigh_bounds(bar_spaces_11, bar_materials_linear):
    # generalized Rayleigh quotient of the field block against its norm
    # matrix falls inside the material-ratio bounds
    import scipy.linalg
    h, a = bar_spaces_11
    z = (np.zeros(h.n_dofs), np.zeros(a.n_dofs))
    for dt_fac in (1.0, 2.0):
        dt = NORMS.dt0 * dt_fac
        blocks = linear_blocks(h, a, bar_materials_linear)
        sys = assemble_ha_iteration(blocks, z, z[0], dt, **build_time_values(blocks))
        nv = h.n_free
        A = eliminated(sys, bar_materials_linear)[0].toarray()[:nv, :nv]
        NV = assemble_norm_matrix(h, NORMS).toarray()
        lam = scipy.linalg.eigh(A, NV, eigvals_only=True)
        lo = min(1.0, dt_fac)
        hi = max(1.0, dt_fac)
        assert lam.min() > lo - 1e-8
        assert lam.max() < hi + 1e-8


def test_ha_coupling_hand_values(bar_mesh):
    # one boundary-potential DOF against the neighbouring potential hats:
    # the tangential trace +-1/L against a rising/falling hat gives +-1/2
    h = build_h_space(bar_mesh, 1, ("current", 0.0))
    a = build_a_space(bar_mesh, 1)
    B = _coupling_full(h, a)
    segs, lens, _ = interface_chain(h)
    k = 4
    n_prev, n_mid = int(segs[k][0]), int(segs[k][1])
    n_next = int(segs[k + 1][1])
    col = h.dof("node", n_mid)
    assert B[a.dof("node", n_prev), col] == pytest.approx(0.5, rel=1e-12)
    assert B[a.dof("node", n_next), col] == pytest.approx(-0.5, rel=1e-12)
    assert abs(B[a.dof("node", n_mid), col]) < 1e-14


def test_ha_coupling_constant_a_loop(bar_spaces_11):
    # a constant along the closed interface pairs to zero with every
    # single-valued test field; the quadrature oracle gives the same
    h, a = bar_spaces_11
    B = _coupling_full(h, a)
    c = 2.5
    avec = np.zeros(a.n_dofs)
    segs, lens, cum = interface_chain(a)
    for n in np.unique(segs):
        avec[a.dof("node", int(n))] = c
    row = avec @ B          # functional over h-dofs
    scale = np.abs(B).max() * c
    for node in segs[:4, 0]:
        dof = h.dof("node", int(node))
        x = np.zeros(h.n_dofs)
        x[dof] = 1.0
        quad = 0.0
        for k in range(len(segs)):
            for u, w in zip(LINE_QP, LINE_QW):
                quad += w * lens[k] * c * eval_trace(h, x, cum[k] + u * lens[k])
        assert row[dof] == pytest.approx(quad, abs=1e-12 * scale)
        assert abs(row[dof]) < 1e-12 * scale
    # the cut picks up the full circulation
    assert row[h.dof("global", 0)] == pytest.approx(c, rel=1e-12)


def test_ta_coupling_far_node_zero(tape_mesh, tape_spaces_11):
    t, a = tape_spaces_11
    B = _coupling_full(t, a)
    # a node far from the tape has no coupling support
    far = int(np.argmax(np.abs(tape_mesh.nodes[:, 1])))
    assert B[a.dof("node", far)].nnz == 0


def test_ta_single_segment_hand_value(tape_mesh):
    # piecewise-constant j on one segment against the a-hat rising on it:
    # entry = w * (1/L) * L/2 = w/2 per adjacent segment
    t = build_t_space(tape_mesh, 1, ("current", 0.0))
    a = build_a_space(tape_mesh, 1)
    B = _coupling_full(t, a)
    segs, lens, _ = interface_chain(t)
    k = 3
    n_mid = int(segs[k][1])       # interior tape node
    col = t.dof("node", n_mid)
    w = tape_mesh.w
    assert B[a.dof("node", int(segs[k][0])), col] == pytest.approx(
        w * 0.5, rel=1e-12)
    assert B[a.dof("node", int(segs[k + 1][1])), col] == pytest.approx(
        -w * 0.5, rel=1e-12)


def test_coupling_nonzero_columns(bar_mesh, bar_spaces_11):
    h, a = bar_spaces_11
    B = assemble_coupling_matrix(h, a)
    csc = sp.csc_matrix(B)
    nonzero_cols = int(np.sum(np.diff(csc.indptr) > 0))
    segs = bar_mesh.interface_segments
    # free V-DOFs with interface support: ring potentials minus the
    # grounded one (the cut is constrained at zero imposed current)
    assert nonzero_cols == len(segs) - 1


def test_coupling_hierarchical_nesting(bar_mesh):
    h1 = build_h_space(bar_mesh, 1, ("current", 0.0))
    a1 = build_a_space(bar_mesh, 1)
    a2 = build_a_space(bar_mesh, 2)
    B11 = assemble_coupling_matrix(h1, a1).toarray()
    B12 = assemble_coupling_matrix(h1, a2).toarray()
    # node DOFs come first in the A numbering, so the order-1 matrix is
    # the leading row block of the order-2 one
    assert np.allclose(B12[:B11.shape[0], :], B11, atol=1e-15)


def test_coupling_rejects_spaces_of_two_meshes(bar_mesh, bar_spaces_11,
                                              bar_materials_linear):
    # the two spaces couple on one interface only if they share a mesh
    h, _ = bar_spaces_11
    fine_a = build_a_space(refine(bar_mesh), 1)
    with pytest.raises(AssemblyError, match="different meshes"):
        assemble_coupling_matrix(h, fine_a)
    with pytest.raises(AssemblyError, match="different meshes"):
        linear_blocks(h, fine_a, bar_materials_linear)


def _stores_no_zero(M, canonical=True):
    """M is a CSR without exact zeros, and canonical; without
    ``canonical``, without duplicates but perhaps with unsorted rows."""
    once = M.copy()
    once.sum_duplicates()
    return (M.format == "csr" and np.all(M.data != 0.0) and once.nnz == M.nnz
            and (M.has_canonical_format or not canonical))


@pytest.mark.parametrize("scenario", ["bar", "tape"])
def test_assembled_matrices_store_no_exact_zero(request, scenario):
    # one pattern rule, decided where matrices are built: every coupling,
    # potential norm, free potential rows and field map stores no exact
    # zero, such as the P1 coupling across a right triangle's diagonal
    # edge.  An H field map is the product of a scattered map with the
    # Whitney map, whose rows scipy leaves unsorted; their order is the
    # summation order of every sampled h, and is kept
    mesh = request.getfixturevalue(f"{scenario}_mesh")
    mats = request.getfixturevalue(f"{scenario}_materials_power")
    for pair in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        v, q = build_pairing(mesh, pair)
        assert _stores_no_zero(assemble_coupling_matrix(v, q)), pair
        assert _stores_no_zero(linear_blocks(v, q, mats).q_rows), pair
    rng = np.random.default_rng(3)
    for j in (1, 2):
        a = build_a_space(mesh, j)
        assert _stores_no_zero(assemble_norm_matrix(a, NORMS)), j
        spaces = [a] + ([build_h_space(mesh, j, ("current", 0.0))] if scenario == "bar" else [])
        for space in spaces:
            tris = space.meta["a_tris" if space.family == "A" else "sc_tris"]
            barys = np.concatenate([np.eye(3), rng.dirichlet(np.ones(3), size=2)])
            F = field_operator(space, np.repeat(tris, len(barys)), np.tile(barys, (len(tris), 1)))
            assert _stores_no_zero(F, space.family == "A"), (space.family, j)


@pytest.mark.parametrize("scenario", ["bar", "tape"])
def test_order1_potential_norm_is_the_leading_block_of_order2(request, scenario):
    # an inf-sup level hands every pairing the richest potential norm's
    # factor, which holds the order-1 norm as its leading block: the
    # same CSR arrays, bit for bit
    mesh = request.getfixturevalue(f"{scenario}_mesh")
    N1 = assemble_norm_matrix(build_a_space(mesh, 1), NORMS)
    N2 = assemble_norm_matrix(build_a_space(mesh, 2), NORMS)
    lead = N2[:N1.shape[0], :N1.shape[0]]
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(N1, name), getattr(lead, name)), name


def test_absolute_rows_share_the_signed_patterns(bar_spaces_11, bar_materials_power):
    # |B^T| and |[B, -K_nu]| hold their own data on the index arrays of
    # the signed matrices
    blocks = linear_blocks(*bar_spaces_11, bar_materials_power)
    for M, abs_M in ((blocks.B_T, blocks.abs_B_T), (blocks.q_rows, blocks.abs_q_rows)):
        assert np.shares_memory(abs_M.indices, M.indices)
        assert np.shares_memory(abs_M.indptr, M.indptr)
        assert np.array_equal(abs_M.data, np.abs(M.data))
        assert not np.shares_memory(abs_M.data, M.data)


def test_norm_matrices_spd(bar_spaces_11):
    h, a = bar_spaces_11
    for space in (h, a):
        N = assemble_norm_matrix(space, NORMS)
        assert sym_defect(N) < 1e-12
        x = np.zeros(N.shape[0])
        assert x @ (N @ x) == 0.0
        rng = np.random.default_rng(5)
        for _ in range(3):
            y = rng.normal(size=N.shape[0])
            assert y @ (N @ y) > 0.0


def test_a_norm_uniform_gradient(tape_mesh):
    # analytic value: nu0 * b0^2 * domain area for a = -b0 y
    b0 = 0.7
    a = build_a_space(tape_mesh, 1)
    N = assemble_norm_matrix(a, NORMS)
    x_full = np.array([-b0 * tape_mesh.nodes[ent, 1] if kind == "node" else 0.0
                       for _, kind, ent in dof_entries(a)])
    # include the essential boundary in the quadratic form via the full matrix
    from htsfem.assembly import _a_stiffness
    K = _a_stiffness(a, np.full(len(a.meta["a_tris"]), NORMS.nu0))
    val = x_full @ (K @ x_full)
    area = (2 * 0.02) ** 2
    assert val == pytest.approx(NORMS.nu0 * b0 ** 2 * area, rel=1e-12)


def test_t_norm_delta_scaling(tape_mesh):
    t1 = build_t_space(tape_mesh, 1, ("current", 0.0))
    N1 = assemble_norm_matrix(t1, NORMS)
    fine = refine(tape_mesh)
    t2 = build_t_space(fine, 1, ("current", 0.0))
    N2 = assemble_norm_matrix(t2, NORMS)
    # same continuous linear ramp on both meshes
    def ramp_vec(space, mesh):
        x = space.essential_full()
        xm = mesh.nodes[mesh.interface_segments[0, 0], 0]
        for k, kind, ent in dof_entries(space):
            if kind == "node":
                x[k] = (mesh.nodes[ent, 0] - xm) / 0.01
        x[space.dof("global", 0)] = 1.0
        return x[space.free]

    v1 = ramp_vec(t1, tape_mesh)
    v2 = ramp_vec(t2, fine)
    q1 = v1 @ (N1 @ v1)
    q2 = v2 @ (N2 @ v2)
    assert q2 == pytest.approx(0.5 * q1, rel=1e-12)
    assert tape_element_size(fine) == pytest.approx(
        0.5 * tape_element_size(tape_mesh), rel=1e-12)


def test_a_norm_needs_essential(bar_mesh):
    a = build_a_space(bar_mesh, 1)
    free_space = type(a)("A", 1, bar_mesh, a.kinds, {}, a.meta)
    with pytest.raises(SingularNormError):
        assemble_norm_matrix(free_space, NORMS)


def test_elimination_against_dense_oracle(tape_mesh, tape_materials_power):
    # reduced system equals the manual dense reduction of the full one
    t = build_t_space(tape_mesh, 1, ("current", 2.0))
    a = build_a_space(tape_mesh, 1)
    rng = np.random.default_rng(7)
    state = (rng.normal(size=t.n_dofs), rng.normal(size=a.n_dofs) * 1e-6)
    blocks = linear_blocks(t, a, tape_materials_power)
    sys = assemble_ta_iteration(blocks, state, state[0], 0.0125, **build_time_values(blocks))
    K_full = monolithic(sys, tape_materials_power).toarray()
    K, s = eliminated(sys, tape_materials_power)
    free = free_indices(sys)
    ess = np.setdiff1d(np.arange(K_full.shape[0]), free)
    x_ess = np.concatenate([sys.v_essential, sys.a_essential])
    s_red = s_full(sys)[free] - K_full[np.ix_(free, ess)] @ x_ess[ess]
    K_red = K_full[np.ix_(free, free)]
    assert np.allclose(K_red, K.toarray(), atol=1e-15)
    assert np.allclose(s_red, s, atol=1e-15 * max(1.0, np.abs(s).max()))
    # the solver's right-hand side, formed on the blocks
    assert np.allclose(s_red, np.concatenate([sys.s_field, sys.s_potential]),
                       atol=1e-15 * max(1.0, np.abs(s).max()))


def test_gradv_coupling_vanishes_on_closed_loop(bar_spaces_11):
    # the electric-scalar-potential part of the interface coupling
    # contributes only through the net-current functional: the loop
    # circulation of every single-valued basis trace vanishes
    h, _ = bar_spaces_11
    segs, lens, cum = interface_chain(h)
    scale = 1.0 / lens.min()
    for k, kind, _ in dof_entries(h):
        x = np.zeros(h.n_dofs)
        x[k] = 1.0
        circ = 0.0
        for ks in range(len(segs)):
            for u, w in zip(LINE_QP, LINE_QW):
                circ += w * lens[ks] * eval_trace(h, x, cum[ks] + u * lens[ks])
        if kind == "global":
            assert circ == pytest.approx(1.0, abs=1e-12)
        else:
            assert abs(circ) < 1e-12 * scale


@pytest.mark.parametrize("form", ["ha", "ta"])
def test_state_size_mismatch(request, form):
    # both formulations check their inputs alike: a short state vector
    # and a non-finite iterate raise
    if form == "ha":
        (v, a), mats = (request.getfixturevalue(name) for name in
                        ("bar_spaces_11", "bar_materials_linear"))
        assemble = assemble_ha_iteration
    else:
        (v, a), mats = (request.getfixturevalue(name) for name in
                        ("tape_spaces_11", "tape_materials_power"))
        assemble = assemble_ta_iteration
    blocks = linear_blocks(v, a, mats)
    bad = (np.zeros(3), np.zeros(a.n_dofs))
    with pytest.raises(AssemblyError):
        assemble(blocks, bad, bad[0], 0.0125, **build_time_values(blocks))
    state = (np.zeros(v.n_dofs), np.zeros(a.n_dofs))
    nan = np.zeros(v.n_dofs)
    nan[0] = np.nan
    with pytest.raises(AssemblyError, match="non-finite Newton iterate"):
        assemble(blocks, state, nan, 0.0125, **build_time_values(blocks))


def test_bubble_rows_match_field_quadrature():
    """Every bubble row of the A stiffness and the H mass against the
    quadrature of weight * field(e_b) . field(e_j) on the triangles next
    to the bubble edge, for the unit coefficient vectors e_j of every
    DOF that lives there; all other entries of the row must vanish."""
    from htsfem.assembly import _a_stiffness, _h_mass
    mesh = l_bar_mesh()
    nu = np.random.default_rng(3).uniform(1.0, 2.0, mesh.n_triangles)
    a = build_a_space(mesh, 2)
    h = build_h_space(mesh, 2, ("current", 0.0))
    cases = [(a, _a_stiffness(a, nu[a.meta["a_tris"]]), a.meta["a_tris"], eval_a_curl, nu),
             (h, _h_mass(h, 1.0), h.meta["sc_tris"], eval_h_field, np.ones(mesh.n_triangles))]
    tris_of = edge_tris(mesh)
    for space, K, domain, field, weight in cases:
        unit = np.eye(space.n_dofs)
        domain = set(int(t) for t in domain)
        index = {(kind, ent): k for k, kind, ent in dof_entries(space)}
        two_bubbles = 0
        for _, kind, edge in dof_entries(space):
            if kind != "bubble":
                continue
            b = space.dof("bubble", edge)
            oracle = np.zeros(space.n_dofs)
            for t in (int(t) for t in tris_of[edge] if t in domain):
                local = [index.get(("node", int(n))) for n in mesh.triangles[t]]
                for e in mesh.tri_edges[t]:
                    local += [index.get(("edge", int(e))), index.get(("bubble", int(e)))]
                two_bubbles += sum(("bubble", int(e)) in index
                                   for e in mesh.tri_edges[t]) == 2
                local += [k for (knd, _), k in index.items() if knd == "global"]
                fb = field(space, unit[b], t, TRI_QP)
                for j in set(local) - {None}:
                    fj = field(space, unit[j], t, TRI_QP)
                    oracle[j] += weight[t] * mesh.signed_areas[t] \
                        * np.sum(TRI_QW * np.sum(fb * fj, axis=1))
            row = K[b].toarray().ravel()
            assert np.abs(row - oracle).max() <= 1e-12 * np.abs(oracle).max(), \
                (space.family, edge)
        assert two_bubbles > 0, space.family
        assert sym_defect(K) < 1e-12     # the bubble columns mirror the rows


@pytest.mark.parametrize("enrichment", [1, 2])
@pytest.mark.parametrize("family", ["H", "A"])
def test_field_operator_matches_reference_evaluators(bar_mesh, family, enrichment):
    # every triangle of the space's domain, at its vertices, its edge
    # midpoints and two random interior points
    rng = np.random.default_rng(5)
    corners = np.eye(3)
    fixed = np.concatenate([corners, 0.5 * (corners + np.roll(corners, -1, axis=0))])
    for mesh in (bar_mesh, l_bar_mesh()):
        if family == "H":
            space = build_h_space(mesh, enrichment, ("current", 0.0))
            tris, reference = space.meta["sc_tris"], eval_h_field
        else:
            space = build_a_space(mesh, enrichment)
            tris, reference = space.meta["a_tris"], eval_a_curl
        barys = np.concatenate([np.broadcast_to(fixed, (len(tris),) + fixed.shape),
                                rng.dirichlet(np.ones(3), size=(len(tris), 2))], axis=1)
        x = rng.standard_normal(space.n_dofs)
        F = field_operator(space, np.repeat(tris, barys.shape[1]), barys.reshape(-1, 3))
        got = (F @ x).reshape(barys.shape[:2] + (2,))
        ref = np.stack([reference(space, x, int(t), b) for t, b in zip(tris, barys)])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (mesh.n_triangles, family)
    # at order 2 the L-bar puts two interface bubbles on one triangle
    # of each domain
    bubbles = space.entity_dofs("bubble", len(mesh.edges))[mesh.tri_edges[tris]]
    assert (bubbles >= 0).sum(axis=1).max() == (2 if enrichment == 2 else 0)


@pytest.mark.parametrize("enrichment", [1, 2])
def test_h_curl_matrix_matches_reference_curl(bar_mesh, enrichment):
    rng = np.random.default_rng(6)
    for mesh in (bar_mesh, l_bar_mesh()):
        h = build_h_space(mesh, enrichment, ("current", 0.0))
        x = rng.standard_normal(h.n_dofs)
        tris, ref = curl_h(h, x)
        assert np.array_equal(tris, h.meta["sc_tris"])
        assert np.abs(h_curl_matrix(h) @ x - ref).max() <= 1e-12 * np.abs(ref).max()
