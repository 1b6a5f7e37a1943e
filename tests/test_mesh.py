import json
from dataclasses import replace

import numpy as np
import pytest

from htsfem.cli import _build_mesh, main
from htsfem.config import load_config, make_geometry
from htsfem.mesh import (AIR_GRADING, Interface, Mesh2D, MeshError, Region,
                         Scenario, UnderResolvedError, _structured_mesh,
                         build_stacked_bar_mesh, build_tape_mesh, refine, write_native)

from util import edge_tris, l_bar_mesh, read_mesh


def test_stacked_bar_interface_perimeter(bar_mesh):
    segs = bar_mesh.interface_segments
    perim = bar_mesh.segment_lengths(segs).sum()
    assert abs(perim - 0.060) < 1e-12
    # closed polyline
    assert segs[0, 0] == segs[-1, 1]


def test_under_resolved_bar_rejected():
    params = make_geometry(load_config({"geometry": {"delta": 0.005}}))
    with pytest.raises(UnderResolvedError):
        build_stacked_bar_mesh(params)


def test_bar_area_partition(bar_mesh, bar_params):
    total = bar_mesh.signed_areas.sum()
    box = (2.0 * bar_params.air_half) ** 2
    assert abs(total - box) / box < 1e-12


def test_region_areas(bar_mesh, bar_params):
    bar = bar_params.bar_width * bar_params.bar_height
    for region in (Region.OMEGA_H_SC, Region.OMEGA_A_FERRO):
        area = bar_mesh.signed_areas[bar_mesh.region_tris(region)].sum()
        assert abs(area - bar) / bar < 1e-12


def test_tape_segments(tape_mesh):
    segs = tape_mesh.interface_segments
    assert tape_mesh.interface_tag is Interface.GAMMA_W
    assert len(segs) == 20
    assert len(np.unique(segs)) == 21
    assert tape_mesh.w == 1e-6
    lens = tape_mesh.segment_lengths(segs)
    assert lens.max() / lens.min() <= 1.01
    # the chain runs from the minus end to the plus end
    assert np.array_equal(segs[1:, 0], segs[:-1, 1])
    minus = tape_mesh.nodes[segs[0, 0]]
    plus = tape_mesh.nodes[segs[-1, 1]]
    assert minus[0] < plus[0]
    assert abs(plus[0] - minus[0] - 0.01) < 1e-12


def _grid_lines(mesh):
    """The x and y lines of a tensor-grid mesh."""
    xs, ys = np.unique(mesh.nodes[:, 0]), np.unique(mesh.nodes[:, 1])
    assert len(xs) * len(ys) == mesh.n_nodes
    return xs, ys


def _assert_graded(lines, h):
    """Cells between ``lines``, listed from an inner break outward, start
    at most h and grow by at most AIR_GRADING."""
    cells = np.abs(np.diff(lines))
    assert cells[0] <= h * (1 + 1e-9)
    growth = cells[1:] / cells[:-1]
    assert np.all(growth >= 1.0) and np.all(growth <= AIR_GRADING * (1 + 1e-9))


# 0.25 mm is the default; 0.3 mm does not divide the 10 mm tape
@pytest.mark.parametrize("delta", [0.00025, 0.0003])
def test_tape_air_is_graded_from_the_segment_length(delta):
    params = make_geometry(load_config({"scenario": "single_tape",
                                        "geometry": {"delta": delta}}))
    mesh = build_tape_mesh(params)
    hw, L = params.tape_width / 2.0, params.air_half
    h = params.tape_width / np.ceil(params.tape_width / delta)
    # the tape interval is uniform at the segment length, the mesh's delta
    assert mesh.delta == pytest.approx(h, rel=1e-12) and mesh.delta <= delta
    assert mesh.segment_lengths(mesh.interface_segments) == pytest.approx(h, rel=1e-9)
    xs, ys = _grid_lines(mesh)
    tape = xs[(xs >= -hw - 1e-15) & (xs <= hw + 1e-15)]
    assert tape[0] == -hw and np.diff(tape) == pytest.approx(h, rel=1e-9)
    # the air grows away from the tape's line and hits the box edges exactly
    for side in (xs[xs >= hw - 1e-15], xs[xs <= -hw + 1e-15][::-1],
                 ys[ys >= 0.0], ys[ys <= 0.0][::-1]):
        _assert_graded(side, h)
    assert (xs[0], xs[-1], ys[0], ys[-1]) == (-L, L, -L, L)
    assert np.diff(ys).max() > 10 * h
    # refinement halves every cell and keeps the segment length as delta
    fine = refine(mesh).validate()
    fxs, fys = _grid_lines(fine)
    for coarse, lines in ((xs, fxs), (ys, fys)):
        assert np.array_equal(lines[::2], coarse)
        assert np.diff(lines).reshape(-1, 2) == pytest.approx(
            np.repeat(np.diff(coarse)[:, None] / 2, 2, axis=1), rel=1e-9)
    assert fine.delta == mesh.delta / 2
    assert fine.segment_lengths(fine.interface_segments) == pytest.approx(h / 2, rel=1e-9)


def test_bar_grid_lines_are_uniform_on_every_interval(bar_mesh, bar_params):
    hw, hb, L = bar_params.bar_width / 2, bar_params.bar_height, bar_params.air_half
    xs, ys = _grid_lines(bar_mesh)
    cells = []
    for lines, breaks in ((xs, [-L, -hw, hw, L]), (ys, [-L, -hb, 0.0, hb, L])):
        for a, b in zip(breaks[:-1], breaks[1:]):
            d = np.diff(lines[(lines >= a - 1e-15) & (lines <= b + 1e-15)])
            assert d.max() / d.min() <= 1 + 1e-9
            cells.append(d.max())
    assert bar_mesh.delta == max(cells) == pytest.approx(bar_params.delta, rel=1e-12)


def test_refine_counts_and_delta(bar_mesh):
    fine = refine(bar_mesh)
    assert fine.n_triangles == 4 * bar_mesh.n_triangles
    assert abs(fine.delta - bar_mesh.delta / 2) < 1e-15
    assert abs(fine.signed_areas.sum() - bar_mesh.signed_areas.sum()) \
        < 1e-12 * bar_mesh.signed_areas.sum()
    segs = fine.interface_segments
    coarse_segs = bar_mesh.interface_segments
    fine_len = fine.segment_lengths(segs).sum()
    coarse_len = bar_mesh.segment_lengths(coarse_segs).sum()
    assert abs(fine_len - coarse_len) < 1e-12 * coarse_len
    assert segs[0, 0] == segs[-1, 1]


def test_refine_tape_uniform_and_markers(tape_mesh):
    fine = refine(tape_mesh)
    segs = fine.interface_segments
    lens = fine.segment_lengths(segs)
    assert lens.max() / lens.min() <= 1.01
    # refinement keeps the node ids, so the tape keeps its end nodes
    coarse = tape_mesh.interface_segments
    assert (segs[0, 0], segs[-1, 1]) == (coarse[0, 0], coarse[-1, 1])
    assert len(segs) == 40


def test_conforming_no_hanging_nodes(bar_mesh):
    fine = refine(bar_mesh)
    assert fine.edge_tri_count.max() <= 2


def test_gamma_m_orientation(bar_mesh):
    # counterclockwise around the bar: the right-hand normal of every
    # segment points away from the bar center, and the enclosed area
    # (shoelace formula) is the bar's
    assert bar_mesh.interface_tag is Interface.GAMMA_M
    segs = bar_mesh.interface_segments
    p, q = bar_mesh.nodes[segs[:, 0]], bar_mesh.nodes[segs[:, 1]]
    d = q - p
    outward = np.column_stack([d[:, 1], -d[:, 0]])
    center = np.array([0.0, -0.005])
    assert np.all(np.einsum("sd,sd->s", outward, 0.5 * (p + q) - center) > 0.0)
    area = 0.5 * np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1])
    assert area == pytest.approx(0.02 * 0.01, rel=1e-12)


MESH_ARRAYS = ("nodes", "triangles", "tri_region", "boundary_segments",
               "interface_segments")


def _assert_same_mesh(back, mesh):
    for name in MESH_ARRAYS:
        assert np.array_equal(getattr(back, name), getattr(mesh, name)), name
        assert getattr(back, name).dtype == getattr(mesh, name).dtype, name
    assert back.interface_tag is mesh.interface_tag
    assert back.delta == mesh.delta
    assert back.w == mesh.w


def _roundtrip_cli_mesh(tmp_path, config):
    """The file `htsfem mesh` writes reads back exactly, and so does the
    mesh after one refinement."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["mesh", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    mesh = _build_mesh(load_config(config))
    back = read_mesh(out / "mesh.txt")
    _assert_same_mesh(back, mesh)
    fine = refine(back)
    write_native(fine, tmp_path / "fine.txt")
    _assert_same_mesh(read_mesh(tmp_path / "fine.txt"), fine)
    _assert_same_mesh(fine, refine(mesh))
    return back


def test_native_roundtrip(tmp_path):
    back = _roundtrip_cli_mesh(tmp_path, {"scenario": "stacked_bar",
                                          "geometry": {"delta": 0.002}})
    assert back.w is None and back.interface_tag is Interface.GAMMA_M


def test_native_roundtrip_tape(tmp_path):
    back = _roundtrip_cli_mesh(tmp_path, {"scenario": "single_tape",
                                          "geometry": {"delta": 0.001}})
    assert back.w is not None and back.interface_tag is Interface.GAMMA_W


def test_geometry_validation(bar_params):
    with pytest.raises(ValueError):
        replace(bar_params, delta=-1.0)
    with pytest.raises(ValueError):
        replace(bar_params, delta=0.015)  # not below half the bar width
    # the tape scenario has no bar: its bar width bounds no element size
    mesh = build_tape_mesh(replace(bar_params, scenario=Scenario.SINGLE_TAPE, bar_width=4e-4,
                                   delta=2.5e-4))
    assert mesh.interface_tag is Interface.GAMMA_W


def _variant(mesh, **changes):
    """An unvalidated copy of ``mesh`` with some constructor arguments
    replaced."""
    args = {name: getattr(mesh, name) for name in (
        "nodes", "triangles", "tri_region", "boundary_segments",
        "interface_segments", "interface_tag", "delta", "w")}
    return Mesh2D(**{**args, **changes})


def _with_regions(mesh, tri_region):
    return _variant(mesh, tri_region=tri_region)


def test_gamma_m_must_separate_conductor(bar_mesh):
    segs = bar_mesh.interface_segments
    regions = bar_mesh.tri_region.copy()
    regions[edge_tris(bar_mesh)[bar_mesh.edge_ids(segs[5:6])[0]]] = int(Region.OMEGA_H_SC)
    with pytest.raises(MeshError, match="does not separate conductor from exterior"):
        _with_regions(bar_mesh, regions).validate()


def test_interface_chains_split_loops_and_reject_open_ones():
    # two separate conductors: two closed GAMMA_M loops, in order
    def region(x, y):
        return np.where((0.002 < abs(x)) & (abs(x) < 0.004) & (abs(y) < 0.002),
                        int(Region.OMEGA_H_SC), int(Region.OMEGA_A_AIR))

    breaks = [-0.01, -0.004, -0.002, 0.002, 0.004, 0.01]
    mesh = _structured_mesh(breaks, breaks, 0.001, 1.0, region)
    segs = mesh.interface_segments
    loops = mesh.interface_chains()
    assert len(loops) == 2
    assert np.array_equal(np.concatenate(loops), segs)
    assert all(loop[-1, 1] == loop[0, 0] for loop in loops)
    # a mesh without a conductor or a tape has no interface
    air = _structured_mesh(breaks, breaks, 0.001, 1.0,
                           lambda x, y: np.full(len(x), int(Region.OMEGA_A_AIR)))
    assert air.interface_tag is None and air.interface_chains() == []
    # reversing one loop puts its conductor on the right
    flipped = np.concatenate([loops[0], loops[1][::-1, ::-1]])
    with pytest.raises(MeshError, match="conductor on its left"):
        _variant(mesh, interface_segments=flipped).validate()
    # dropping one segment leaves an open chain
    broken = _variant(mesh, interface_segments=segs[1:])
    with pytest.raises(MeshError, match="GAMMA_M polyline is not closed"):
        broken.validate()


@pytest.mark.parametrize("name", ["bar_mesh", "tape_mesh"])
def test_interface_tris_match_the_edge_oracle(request, name):
    # the interface checks read each segment's triangles from tri_edges
    mesh = request.getfixturevalue(name)
    segs = mesh.interface_segments
    assert np.array_equal(mesh._interface_tris(), edge_tris(mesh)[mesh.edge_ids(segs)])


def test_gamma_w_must_lie_in_air(tape_mesh):
    segs = tape_mesh.interface_segments
    regions = tape_mesh.tri_region.copy()
    regions[edge_tris(tape_mesh)[tape_mesh.edge_ids(segs[3:4])[0]][0]] = int(Region.OMEGA_H_SC)
    with pytest.raises(MeshError, match="GAMMA_W segment must lie inside the air region"):
        _with_regions(tape_mesh, regions).validate()


def reference_edges(mesh):
    """Edge table by the straightforward construction: a 2-D unique of
    the sorted node pairs, then a key lookup of every triangle edge."""
    e = np.sort(np.vstack([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]],
                           mesh.triangles[:, [2, 0]]]), axis=1)
    edges = np.unique(e, axis=0)
    key = edges[:, 0] * mesh.n_nodes + edges[:, 1]
    order = np.argsort(key)
    pos = np.searchsorted(key[order], e[:, 0] * mesh.n_nodes + e[:, 1])
    return edges, order[pos].reshape(3, -1).T


def test_edge_table_matches_reference(bar_mesh, tape_mesh):
    for mesh in (bar_mesh, tape_mesh, refine(bar_mesh), l_bar_mesh()):
        edges, tri_edges = reference_edges(mesh)
        assert np.array_equal(mesh.edges, edges)
        assert np.array_equal(mesh.tri_edges, tri_edges)
        assert np.array_equal(mesh.edge_ids(mesh.edges[:, ::-1]), np.arange(len(edges)))


# -- refused meshes -------------------------------------------------------------


def _flipped_triangle(bar, tape):
    tris = bar.triangles.copy()
    tris[0] = tris[0, ::-1]
    return bar, {"triangles": tris}


def _duplicate_node(bar, tape):
    # an extra node on top of node 0, used by no triangle
    return bar, {"nodes": np.vstack([bar.nodes, bar.nodes[:1]])}


def _edge_of_three_triangles(bar, tape):
    return bar, {"triangles": np.vstack([bar.triangles, bar.triangles[:1]]),
                 "tri_region": np.append(bar.tri_region, bar.tri_region[0])}


def _loop_twice(bar, tape):
    return bar, {"interface_segments": np.vstack([bar.interface_segments] * 2)}


def _outer_boundary_as_gamma_m(bar, tape):
    return bar, {"interface_segments": bar.boundary_segments}


def _clockwise_gamma_m(bar, tape):
    return bar, {"interface_segments": bar.interface_segments[::-1, ::-1]}


def _non_uniform_tape(bar, tape):
    segs = tape.interface_segments
    nodes = tape.nodes.copy()
    nodes[segs[5, 1], 0] += 0.2 * tape.segment_lengths(segs[5:6])[0]
    return tape, {"nodes": nodes}


def _conductor_beside_tape(bar, tape):
    regions = tape.tri_region.copy()
    regions[:2] = int(Region.OMEGA_H_SC)      # the cell in the lower-left corner
    return tape, {"tri_region": regions}


REFUSED = [
    (_flipped_triangle, "triangle with non-positive signed area"),
    (_duplicate_node, "duplicate nodes"),
    (_edge_of_three_triangles, "edge shared by >2 triangles"),
    (_loop_twice, "interface polyline revisits a node"),
    (_outer_boundary_as_gamma_m, "GAMMA_M segment not shared by two triangles"),
    (_clockwise_gamma_m, "GAMMA_M does not keep the conductor on its left"),
    (_non_uniform_tape, r"tape mesh is not uniform \(max/min segment length > 1.01\)"),
    (_conductor_beside_tape, "more than one interface kind: GAMMA_W and a conductor boundary"),
]


@pytest.mark.parametrize("change, message", REFUSED, ids=[c.__name__[1:] for c, _ in REFUSED])
def test_validate_and_read_native_refuse(bar_mesh, tape_mesh, change, message):
    mesh, changes = change(bar_mesh, tape_mesh)
    with pytest.raises(MeshError, match=message):
        _variant(mesh, **changes).validate()
