import numpy as np
import pytest

from htsfem._geom import LINE_QP, LINE_QW
from scipy.sparse import coo_matrix

from htsfem.assembly import field_operator, h_curl_matrix
from htsfem.mesh import Mesh2D, Region, _structured_mesh, refine
from htsfem.spaces import (SpaceError, TopologyError, build_a_space, build_h_space,
                           build_t_space, essential_vector, trace_table,
                           whitney_transform)

from util import (dof_entries, edge_tris, eval_h_field, eval_trace, interface_chain,
                  l_bar_mesh, solve_reference)


def loop_circulation(space, coeffs):
    """Independent oracle: quadrature of the tangential trace around
    the interface loop."""
    segs, lens, cum = interface_chain(space)
    total = 0.0
    for k in range(len(segs)):
        for u, w in zip(LINE_QP, LINE_QW):
            total += w * lens[k] * eval_trace(space, coeffs, cum[k] + u * lens[k])
    return total


def two_bar_mesh():
    """Two disjoint conducting bars in air."""
    def region(x, y):
        sc = (0.002 < abs(x)) & (abs(x) < 0.006) & (-0.002 < y) & (y < 0.002)
        return np.where(sc, int(Region.OMEGA_H_SC), int(Region.OMEGA_A_AIR))

    return _structured_mesh([-0.01, -0.006, -0.002, 0.002, 0.006, 0.01],
                            [-0.01, -0.002, 0.002, 0.01], 0.001, region)


# -- H space --------------------------------------------------------------------


def test_h_dof_count(bar_mesh):
    h1 = build_h_space(bar_mesh, 1, ("current", 0.0))
    segs = bar_mesh.interface_segments
    sc_edges = np.unique(bar_mesh.tri_edges[bar_mesh.region_tris(Region.OMEGA_H_SC)])
    n_ring = len(segs)
    n_interior = len(sc_edges) - n_ring
    assert h1.n_dofs == n_interior + n_ring + 1
    # grounding removes one potential DOF; zero-current constraint the cut
    assert h1.n_free == h1.n_dofs - 2


def test_h_bubble_count(bar_mesh):
    h1 = build_h_space(bar_mesh, 1, ("current", 0.0))
    h2 = build_h_space(bar_mesh, 2, ("current", 0.0))
    segs = bar_mesh.interface_segments
    assert h2.n_dofs == h1.n_dofs + len(segs)


def test_cut_circulation_unit(bar_mesh):
    h = build_h_space(bar_mesh, 1, ("current", 1.0))
    x = np.zeros(h.n_dofs)
    x[h.dof("global", 0)] = 1.0
    circ = loop_circulation(h, x)
    assert circ == pytest.approx(1.0, abs=1e-12)


def test_cut_curl_confined_to_layer(bar_mesh):
    h = build_h_space(bar_mesh, 1, ("current", 0.0))
    x = np.zeros(h.n_dofs)
    x[h.dof("global", 0)] = 1.0
    tris, curl = h.meta["sc_tris"], h_curl_matrix(h) @ x
    # the layer: the conductor triangles on the cut's edges
    layer = set(edge_tris(bar_mesh)[h.circuit.cut_edges].ravel().tolist()) & set(tris.tolist())
    scale = np.abs(curl).max()
    for t, c in zip(tris, curl):
        if int(t) not in layer:
            assert abs(c) < 1e-12 * scale


def test_second_conductor_is_refused():
    # an H space takes the one conductor of its mesh
    with pytest.raises(SpaceError, match="mesh has 2 conductor components"):
        build_h_space(two_bar_mesh(), 1, ("current", 0.0))


def test_open_conductor_loop_is_refused(bar_mesh):
    segs = bar_mesh.interface_segments
    open_loop = Mesh2D(bar_mesh.nodes, bar_mesh.triangles, bar_mesh.tri_region,
                       bar_mesh.boundary_segments, segs[1:], bar_mesh.interface_tag,
                       bar_mesh.delta)
    with pytest.raises(TopologyError, match="not a closed loop"):
        build_h_space(open_loop, 1, ("current", 0.0))


def test_multiply_connected_conductor_rejected():
    def region(x, y):
        # square annulus: conductor with an air hole
        r = np.maximum(abs(x), abs(y))
        return np.where((r < 0.004) & (r > 0.002), int(Region.OMEGA_H_SC),
                        int(Region.OMEGA_A_AIR))

    mesh = _structured_mesh([-0.01, -0.004, -0.002, 0.002, 0.004, 0.01],
                            [-0.01, -0.004, -0.002, 0.002, 0.004, 0.01],
                            0.001, region)
    with pytest.raises(TopologyError, match="not simply connected"):
        build_h_space(mesh, 1, ("current", 0.0))


def test_gradient_part_is_curl_free(bar_mesh):
    h = build_h_space(bar_mesh, 2, ("current", 0.0))
    rng = np.random.default_rng(3)
    x = np.zeros(h.n_dofs)
    for k, kind, _ in dof_entries(h):
        if kind in ("node", "bubble"):
            x[k] = rng.normal()
    G = h_curl_matrix(h)
    curl = G @ x
    # relative to the curl scale of a same-magnitude generic field
    y = rng.normal(size=h.n_dofs)
    curl_ref = G @ y
    assert np.abs(curl).max() < 1e-12 * np.abs(curl_ref).max()


def test_bubbles_never_change_curl(bar_mesh):
    h2 = build_h_space(bar_mesh, 2, ("current", 0.0))
    rng = np.random.default_rng(4)
    x = rng.normal(size=h2.n_dofs)
    G = h_curl_matrix(h2)
    curl_a = G @ x
    y = x.copy()
    for k, kind, _ in dof_entries(h2):
        if kind == "bubble":
            y[k] = 0.0
    curl_b = G @ y
    assert np.abs(curl_a - curl_b).max() < 1e-12 * np.abs(curl_a).max()


# -- A space --------------------------------------------------------------------


def test_a_zero_coefficients_zero_field(bar_mesh):
    a = build_a_space(bar_mesh, 1)
    x = np.zeros(a.n_dofs)
    t0 = int(a.meta["a_tris"][0])
    b = field_operator(a, [t0], np.array([[1 / 3, 1 / 3, 1 / 3]])) @ x
    assert np.abs(b).max() == 0.0


def test_a_bubble_count(bar_mesh):
    a1 = build_a_space(bar_mesh, 1)
    a2 = build_a_space(bar_mesh, 2)
    segs = bar_mesh.interface_segments
    assert a2.n_dofs - a1.n_dofs == len(segs)


def test_a_patch_interior(tape_mesh):
    # Dirichlet data of a uniform field reproduces the linear potential
    from htsfem.assembly import _a_stiffness
    from htsfem.materials import MU0
    bext = 0.4
    trace = lambda x, y: -bext * y
    for enr in (1, 2):
        a = build_a_space(tape_mesh, enr)
        K = _a_stiffness(a, np.full(len(a.meta["a_tris"]), 1.0 / MU0))
        ess = np.sort(a.essential_dofs)
        x_e = essential_vector(a, a_trace=trace)
        s = -K[a.free][:, ess] @ x_e[ess]
        x = a.expand(solve_reference(K[a.free][:, a.free], s), x_e)
        exact = np.array([trace(*tape_mesh.nodes[ent]) if kind == "node" else 0.0
                          for _, kind, ent in dof_entries(a)])
        assert np.abs(x - exact).max() < 1e-10 * np.abs(exact).max()


# -- T space --------------------------------------------------------------------


def test_t_endpoint_value(tape_mesh):
    t = build_t_space(tape_mesh, 1, ("current", 100.0))
    assert np.array_equal(t.essential_dofs, [t.dof("global", 0)])
    assert t.essential_values[0] == pytest.approx(1e8, rel=1e-15)


def test_t_zero_current(tape_mesh):
    t = build_t_space(tape_mesh, 1, ("current", 0.0))
    x = t.essential_full()
    from htsfem.assembly import tape_current_density
    j = tape_current_density(t, x)
    assert np.abs(j).max() == 0.0


def test_t_linear_ramp_constant_j(tape_mesh):
    # oracle: segment-wise differentiation of the nodal interpolant
    t = build_t_space(tape_mesh, 1, ("current", 2.0))
    T = 2.0 / tape_mesh.w
    width = 0.01
    x = t.essential_full()
    xm = tape_mesh.nodes[tape_mesh.interface_segments[0, 0], 0]
    for k, kind, ent in dof_entries(t):
        if kind == "node":
            x[k] = T * (tape_mesh.nodes[ent, 0] - xm) / width
    from htsfem.assembly import tape_current_density
    j = tape_current_density(t, x)
    assert np.abs(j - T / width).max() < 1e-9 * T / width


def test_t_bubble_count(tape_mesh):
    t1 = build_t_space(tape_mesh, 1, ("current", 0.0))
    t2 = build_t_space(tape_mesh, 2, ("current", 0.0))
    segs = tape_mesh.interface_segments
    assert t2.n_dofs - t1.n_dofs == len(segs)


def test_t_invalid_constraint(tape_mesh):
    with pytest.raises(SpaceError):
        build_t_space(tape_mesh, 1, ("current_and_voltage", 1.0))


def test_second_tape_is_refused(tape_mesh):
    # a valid mesh whose tape line has a gap: two GAMMA_W chains
    segs = tape_mesh.interface_segments
    two_tapes = Mesh2D(tape_mesh.nodes, tape_mesh.triangles, tape_mesh.tri_region,
                       tape_mesh.boundary_segments, np.delete(segs, len(segs) // 2, axis=0),
                       tape_mesh.interface_tag, tape_mesh.delta, w=tape_mesh.w).validate()
    assert len(two_tapes.interface_chains()) == 2
    with pytest.raises(SpaceError, match="mesh has 2 tapes"):
        build_t_space(two_tapes, 1, ("current", 0.0))


# -- traces --------------------------------------------------------------------


def test_h_trace_orders(bar_mesh):
    segs, lens, cum = interface_chain(build_h_space(bar_mesh, 1, ("current", 0.0)))
    h1 = build_h_space(bar_mesh, 1, ("current", 0.0))
    h2 = build_h_space(bar_mesh, 2, ("current", 0.0))
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=h1.n_dofs)
    x2 = rng.normal(size=h2.n_dofs)
    k = 3
    s = cum[k] + lens[k] * np.array([0.2, 0.5, 0.8])
    v1 = [eval_trace(h1, x1, si) for si in s]
    # order 1: edge-wise constant
    assert np.ptp(v1) < 1e-12 * (abs(v1[1]) + 1e-30)
    v2 = [eval_trace(h2, x2, si) for si in s]
    # order 2: edge-wise linear (midpoint equals the chord average)
    assert v2[1] == pytest.approx(0.5 * (v2[0] + v2[2]), rel=1e-9)


def test_a_trace_orders_and_midpoint(bar_mesh):
    a2 = build_a_space(bar_mesh, 2)
    segs, lens, cum = interface_chain(a2)
    k = 2
    na, nb = (int(v) for v in segs[k])
    x = np.zeros(a2.n_dofs)
    x[a2.dof("node", na)] = 0.3
    x[a2.dof("node", nb)] = 0.7
    eid = int(bar_mesh.edge_ids(segs[k:k + 1])[0])
    x[a2.dof("bubble", eid)] = 2.0
    mid = eval_trace(a2, x, cum[k] + 0.5 * lens[k])
    # nodal average plus a quarter of the bubble coefficient
    assert mid == pytest.approx(0.5 * (0.3 + 0.7) + 2.0 / 4.0, rel=1e-12)
    # bubble vanishes at the nodes
    left = eval_trace(a2, x, cum[k])
    assert left == pytest.approx(0.3, rel=1e-12)


def test_a_trace_continuity(bar_mesh):
    a2 = build_a_space(bar_mesh, 2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=a2.n_dofs)
    _, lens, cum = interface_chain(a2)
    scale = np.abs(x).max()
    for k in range(1, 4):
        eps = 1e-9 * lens[k]
        left = eval_trace(a2, x, cum[k] - eps)
        right = eval_trace(a2, x, cum[k] + eps)
        assert abs(left - right) < 1e-6 * scale  # linear change over eps


def test_t_trace_orders(tape_mesh):
    t1 = build_t_space(tape_mesh, 1, ("current", 0.0))
    t2 = build_t_space(tape_mesh, 2, ("current", 0.0))
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=t1.n_dofs)
    x2 = rng.normal(size=t2.n_dofs)
    _, lens, cum = interface_chain(t1)
    k = 4
    s = cum[k] + lens[k] * np.array([0.25, 0.5, 0.75])
    v1 = [eval_trace(t1, x1, si) for si in s]
    assert np.ptp(v1) < 1e-12 * (abs(v1[1]) + 1e-30)
    v2 = [eval_trace(t2, x2, si) for si in s]
    assert v2[1] == pytest.approx(0.5 * (v2[0] + v2[2]), rel=1e-9)


def test_trace_out_of_range(bar_spaces_11):
    h, _ = bar_spaces_11
    x = np.zeros(h.n_dofs)
    with pytest.raises(SpaceError):
        eval_trace(h, x, 1.0)


def test_whitney_scaling_single_potential(bar_mesh):
    # a single boundary-potential DOF gives +-1/length edge traces
    h = build_h_space(bar_mesh, 1, ("current", 0.0))
    segs, lens, cum = interface_chain(h)
    k = 5
    node = int(segs[k, 0])  # start node of segment k, end node of k-1
    x = np.zeros(h.n_dofs)
    x[h.dof("node", node)] = 1.0
    on_prev = eval_trace(h, x, cum[k] - 0.5 * lens[k - 1])
    on_next = eval_trace(h, x, cum[k] + 0.5 * lens[k])
    assert on_prev == pytest.approx(1.0 / lens[k - 1], rel=1e-12)
    assert on_next == pytest.approx(-1.0 / lens[k], rel=1e-12)


def test_essential_vector_updates(tape_mesh, bar_mesh):
    t = build_t_space(tape_mesh, 1, ("current", 1.0))
    x = essential_vector(t, current=3.0)
    assert x[t.dof("global", 0)] == pytest.approx(3.0 / tape_mesh.w)
    a = build_a_space(bar_mesh, 1)
    x = essential_vector(a, a_trace=lambda px, py: 2.0 * py)
    n = int(a.meta["gamma_e_nodes"][0])
    assert x[a.dof("node", n)] == pytest.approx(2.0 * bar_mesh.nodes[n, 1])


@pytest.mark.parametrize("which", ["bar", "tape"])
def test_a_trace_on_arrays_matches_per_node_loop(request, which):
    # one call on the coordinate arrays gives, bit for bit, the values of
    # one call per boundary node in essential_vector; the space itself
    # carries a zero trace
    mesh = request.getfixturevalue(f"{which}_mesh")
    calls = []

    def trace(x, y, b=0.37, dx=0.6, dy=0.8):
        calls.append(np.shape(x))
        return -b * (dx * y - dy * x)

    for order in (1, 2):
        a = build_a_space(mesh, order)
        x = essential_vector(a, a_trace=trace)
        assert len(calls) == 1
        calls.clear()
        nodes = a.meta["gamma_e_nodes"]
        essential = dict(zip(a.essential_dofs.tolist(), a.essential_values))
        assert len(nodes) == len(essential) > 0
        for n in nodes:
            px, py = mesh.nodes[n]
            ref = np.float64(trace(px, py))
            k = a.dof("node", n)
            assert essential[k] == 0.0
            assert x[k].view(np.uint64) == ref.view(np.uint64)
        calls.clear()


def test_h_trace_table_matches_tangential_field(bar_mesh):
    # oracle: t-hat . h on the conductor triangle next to each GAMMA_M
    # segment, for the unit coefficient vector of every DOF
    h = build_h_space(bar_mesh, 2, ("current", 0.0))
    tab = trace_table(h)
    segs = bar_mesh.interface_segments
    eids = bar_mesh.edge_ids(segs)
    sc = set(int(t) for t in h.meta["sc_tris"])
    sides = []
    seg_tris = edge_tris(bar_mesh)[eids]
    for k, (a, b) in enumerate(segs):
        t = next(int(t) for t in seg_tris[k] if t in sc)
        tri = list(bar_mesh.triangles[t])
        bary = np.zeros((len(LINE_QP), 3))
        bary[:, tri.index(a)] = 1.0 - LINE_QP
        bary[:, tri.index(b)] = LINE_QP
        d = bar_mesh.nodes[b] - bar_mesh.nodes[a]
        sides.append((t, bary, d / np.hypot(*d)))
    vals = tab.values(LINE_QP)
    for dof in range(h.n_dofs):
        x = np.zeros(h.n_dofs)
        x[dof] = 1.0
        table = np.einsum("sp,spq->sq", tab.gather(x), vals)
        oracle = np.array([eval_h_field(h, x, t, bary) @ tan
                           for t, bary, tan in sides])
        assert np.allclose(table, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max()), dof


def reference_whitney_transform(space):
    """Whitney map by the straightforward construction: a loop over the
    conducting edges with a DOF lookup of both end nodes and the edge,
    then the cut coefficients of every conductor."""
    mesh = space.mesh
    sc_edges = np.unique(mesh.tri_edges[space.meta["sc_tris"]])
    index = {(kind, ent): k for k, kind, ent in dof_entries(space)}
    rows, cols, data = [], [], []
    for pos, eid in enumerate(sc_edges):
        a, b = (int(v) for v in mesh.edges[eid])
        for key, sgn in ((("node", a), -1.0), (("node", b), 1.0), (("edge", int(eid)), 1.0)):
            if key in index:
                rows.append(pos)
                cols.append(index[key])
                data.append(sgn)
    epos = {int(e): k for k, e in enumerate(sc_edges)}
    c = space.circuit
    for eid, cc in sorted(zip(c.cut_edges.tolist(), c.cut_coeffs)):
        rows.append(epos[eid])
        cols.append(space.dof("global", 0))
        data.append(cc)
    C = coo_matrix((data, (rows, cols)), shape=(len(sc_edges), space.n_dofs)).tocsr()
    return sc_edges, C


@pytest.mark.parametrize("enrichment", [1, 2])
def test_whitney_transform_matches_reference(bar_mesh, enrichment):
    for mesh in (bar_mesh, refine(bar_mesh), l_bar_mesh()):
        h = build_h_space(mesh, enrichment, ("current", 0.0))
        edges, C = whitney_transform(h)
        ref_edges, ref = reference_whitney_transform(h)
        assert np.array_equal(edges, ref_edges)
        assert np.array_equal(C.indptr, ref.indptr)
        assert np.array_equal(C.indices, ref.indices)
        assert np.array_equal(C.data, ref.data)


def test_entity_dofs_inverts_the_entry_table(bar_mesh):
    h = build_h_space(bar_mesh, 2, ("current", 0.0))
    sizes = {"node": bar_mesh.n_nodes, "edge": len(bar_mesh.edges),
             "bubble": len(bar_mesh.edges), "global": 1}
    for kind, n in sizes.items():
        dofs = h.entity_dofs(kind, n)
        expected = np.full(n, -1)
        for k, knd, ent in dof_entries(h):
            if knd == kind:
                expected[ent] = k
        assert np.array_equal(dofs, expected), kind
    assert np.array_equal(h.entity_dofs("tape", 3), [-1, -1, -1])


def test_basis_tables_are_built_afresh(bar_spaces_11):
    # the H and A spaces of one mesh share the interface, not the table;
    # each call builds its tables anew and leaves the space as it was
    h, a = bar_spaces_11
    before = {id(s): dict(vars(s)) for s in (h, a)}
    for s in (h, a):
        first, again = trace_table(s), trace_table(s)
        assert first is not again
        for x, y in zip((first.dofs, first.coeffs, first.lens),
                        (again.dofs, again.coeffs, again.lens)):
            assert np.array_equal(x, y)
    assert not np.array_equal(trace_table(h).coeffs, trace_table(a).coeffs)
    (edges, C), (edges2, C2) = whitney_transform(h), whitney_transform(h)
    assert C is not C2 and np.array_equal(edges, edges2) and (C != C2).nnz == 0
    for s in (h, a):
        assert vars(s).keys() == before[id(s)].keys()


def reference_dof_table(space):
    """The per-DOF (kind, entity) list and the essential values
    {dof: value} of ``space``, built entity by entity from the mesh
    tables: nodes, then edges, then bubbles, then globals, each in
    ascending entity order.  The circuit gives the conductor's ground
    node and the drive."""
    mesh, segs = space.mesh, space.mesh.interface_segments
    seg_edges = sorted(int(e) for e in mesh.edge_ids(segs))
    if space.family == "H":
        sc_edges = np.unique(mesh.tri_edges[mesh.region_tris(Region.OMEGA_H_SC)])
        entries = [("node", n) for n in sorted({int(n) for n in segs[:, 0]})]
        entries += [("edge", int(e)) for e in sc_edges if int(e) not in seg_edges]
    elif space.family == "A":
        a_nodes = {int(n) for t in range(mesh.n_triangles) for n in mesh.triangles[t]
                   if mesh.tri_region[t] != Region.OMEGA_H_SC}
        entries = [("node", n) for n in sorted(a_nodes)]
    else:
        interior = {int(n) for n in segs[:, 0]} & {int(n) for n in segs[:, 1]}
        entries = [("node", n) for n in sorted(interior)]
    if space.enrichment == 2:
        entries += [("bubble", e) for e in seg_edges]
    if space.family != "A":
        entries.append(("global", 0))
    index = {ent: k for k, ent in enumerate(entries)}
    if space.family == "A":
        outer = {int(n) for n in mesh.boundary_segments.ravel()}
        return entries, {index["node", n]: 0.0 for n in sorted(outer)}
    essential, c = {}, space.circuit
    if space.family == "H":
        assert c.ground_node == min(c.ring_nodes)
        essential[index["node", c.ground_node]] = 0.0
    if c.mode == "current":
        essential[index["global", 0]] = c.value / space.current_scale
    return entries, essential


def _spaces_on_reference_meshes(bar_mesh, tape_mesh):
    two_bars = two_bar_mesh()
    for order in (1, 2):
        yield build_h_space(bar_mesh, order, ("current", 1.5))
        yield build_h_space(bar_mesh, order, ("voltage", 0.5))
        for mesh in (bar_mesh, tape_mesh, two_bars):
            yield build_a_space(mesh, order)
        yield build_t_space(tape_mesh, order, ("current", 2.0))
        yield build_t_space(tape_mesh, order, ("voltage", 2.0))


def test_dof_table_matches_the_per_entity_reference(bar_mesh, tape_mesh):
    for space in _spaces_on_reference_meshes(bar_mesh, tape_mesh):
        mesh = space.mesh
        entries, essential = reference_dof_table(space)
        label = (space.family, space.enrichment, mesh.n_nodes)
        assert space.n_dofs == len(entries), label
        assert [(kind, ent) for _, kind, ent in dof_entries(space)] == entries, label
        for k, (kind, ent) in enumerate(entries):
            assert space.dof(kind, ent) == k, label
        sizes = {"node": mesh.n_nodes, "edge": len(mesh.edges),
                 "bubble": len(mesh.edges), "global": 1}
        for kind, n in sizes.items():
            expected = np.full(n, -1)
            for k, (knd, ent) in enumerate(entries):
                if knd == kind:
                    expected[ent] = k
            assert np.array_equal(space.entity_dofs(kind, n), expected), (label, kind)
        free = [k for k in range(len(entries)) if k not in essential]
        assert np.array_equal(space.free, free) and space.n_free == len(free), label
        x = np.zeros(len(entries))
        x[list(essential)] = list(essential.values())
        assert np.array_equal(space.essential_full(), x), label
        # entities the space does not hold
        held = {ent for kind, ent in entries if kind == "node"}
        missing = next(n for n in range(mesh.n_nodes + 1) if n not in held)
        for kind, ent in [("node", missing), ("node", mesh.n_nodes), ("tape", 0),
                          ("bubble" if space.enrichment == 1 else "global", len(mesh.edges))]:
            with pytest.raises(KeyError):
                space.dof(kind, ent)
        with pytest.raises(KeyError):
            space.dof("node", [entries[0][1], missing])
