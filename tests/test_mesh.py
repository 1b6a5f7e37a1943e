import numpy as np
import pytest

from htsfem.mesh import (Boundary, GeometryParams, Interface, Mesh2D, MeshError,
                         Region, Scenario, UnderResolvedError,
                         _structured_mesh, build_stacked_bar_mesh, read_msh22,
                         read_native, refine, write_native)
from htsfem.spaces import TopologyError, _ring_loops

from util import l_bar_mesh


def test_stacked_bar_interface_perimeter(bar_mesh):
    segs, _ = bar_mesh.interface(Interface.GAMMA_M)
    perim = bar_mesh.segment_lengths(segs).sum()
    assert abs(perim - 0.060) < 1e-12
    # closed polyline
    assert segs[0, 0] == segs[-1, 1]


def test_under_resolved_bar_rejected():
    params = GeometryParams(scenario=Scenario.STACKED_BAR, delta=0.005)
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
    segs, _ = tape_mesh.interface(Interface.GAMMA_W)
    assert len(segs) == 20
    assert len(np.unique(segs)) == 21
    assert tape_mesh.w == 1e-6
    lens = tape_mesh.segment_lengths(segs)
    assert lens.max() / lens.min() <= 1.01
    # endpoint markers sit at the tape ends
    minus = tape_mesh.nodes[tape_mesh.tape_endpoints["minus"]]
    plus = tape_mesh.nodes[tape_mesh.tape_endpoints["plus"]]
    assert minus[0] < plus[0]
    assert abs(plus[0] - minus[0] - 0.01) < 1e-12


def test_refine_counts_and_delta(bar_mesh):
    fine = refine(bar_mesh)
    assert fine.n_triangles == 4 * bar_mesh.n_triangles
    assert abs(fine.delta - bar_mesh.delta / 2) < 1e-15
    assert abs(fine.signed_areas.sum() - bar_mesh.signed_areas.sum()) \
        < 1e-12 * bar_mesh.signed_areas.sum()
    segs, _ = fine.interface(Interface.GAMMA_M)
    coarse_segs, _ = bar_mesh.interface(Interface.GAMMA_M)
    fine_len = fine.segment_lengths(segs).sum()
    coarse_len = bar_mesh.segment_lengths(coarse_segs).sum()
    assert abs(fine_len - coarse_len) < 1e-12 * coarse_len
    assert segs[0, 0] == segs[-1, 1]


def test_refine_tape_uniform_and_markers(tape_mesh):
    fine = refine(tape_mesh)
    segs, _ = fine.interface(Interface.GAMMA_W)
    lens = fine.segment_lengths(segs)
    assert lens.max() / lens.min() <= 1.01
    assert fine.tape_endpoints == tape_mesh.tape_endpoints
    assert len(segs) == 40


def test_conforming_no_hanging_nodes(bar_mesh):
    fine = refine(bar_mesh)
    assert fine.edge_tri_count.max() <= 2


def test_interface_normals(bar_mesh):
    segs, norms = bar_mesh.interface(Interface.GAMMA_M)
    assert np.allclose(np.hypot(norms[:, 0], norms[:, 1]), 1.0, atol=1e-14)
    # outward from the conductor: normal points away from the bar center
    mids = 0.5 * (bar_mesh.nodes[segs[:, 0]] + bar_mesh.nodes[segs[:, 1]])
    center = np.array([0.0, -0.005])
    assert np.all(np.einsum("sd,sd->s", norms, mids - center) > 0.0)


def test_native_roundtrip(tmp_path, bar_mesh):
    path = tmp_path / "mesh.txt"
    write_native(bar_mesh, path)
    back = read_native(path)
    assert np.array_equal(back.triangles, bar_mesh.triangles)
    assert np.allclose(back.nodes, bar_mesh.nodes)
    assert np.array_equal(back.tri_region, bar_mesh.tri_region)
    assert back.delta == bar_mesh.delta
    segs, _ = back.interface(Interface.GAMMA_M)
    ref, _ = bar_mesh.interface(Interface.GAMMA_M)
    assert back.segment_lengths(segs).sum() == pytest.approx(
        bar_mesh.segment_lengths(ref).sum(), rel=1e-14)


def test_native_roundtrip_tape(tmp_path, tape_mesh):
    path = tmp_path / "mesh.txt"
    write_native(tape_mesh, path)
    back = read_native(path)
    assert back.w == tape_mesh.w
    assert back.tape_endpoints == tape_mesh.tape_endpoints


def test_msh22_import(tmp_path):
    # two triangles on the unit square, air region, tagged outer boundary
    msh = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
6
1 2 2 3 1 1 2 3
2 2 2 3 1 1 3 4
3 1 2 10 1 1 2
4 1 2 10 1 2 3
5 1 2 10 1 3 4
6 1 2 10 1 4 1
$EndElements
"""
    path = tmp_path / "square.msh"
    path.write_text(msh)
    mesh = read_msh22(path)
    assert mesh.n_nodes == 4
    assert mesh.n_triangles == 2
    assert np.all(mesh.signed_areas > 0)
    assert set(mesh.boundary_tags) == {int(Boundary.GAMMA_E)}
    assert abs(mesh.signed_areas.sum() - 1.0) < 1e-14


def test_geometry_validation():
    with pytest.raises(ValueError):
        GeometryParams(delta=-1.0)
    with pytest.raises(ValueError):
        GeometryParams(delta=0.015)  # not below half the bar width


def _with_regions(mesh, tri_region):
    return Mesh2D(mesh.nodes, mesh.triangles, tri_region, mesh.boundary_segments,
                  mesh.boundary_tags, mesh.interface_segments, mesh.interface_tags,
                  mesh.interface_normals, mesh.delta, mesh.w, mesh.tape_endpoints)


def test_gamma_m_must_separate_conductor(bar_mesh):
    segs, _ = bar_mesh.interface(Interface.GAMMA_M)
    regions = bar_mesh.tri_region.copy()
    regions[bar_mesh.edge_tris[bar_mesh.edge_ids(segs[5:6])[0]]] = int(Region.OMEGA_H_SC)
    with pytest.raises(MeshError, match="does not separate conductor from exterior"):
        _with_regions(bar_mesh, regions).validate()


def test_interface_chains_split_loops_and_reject_open_ones():
    # two separate conductors: two closed GAMMA_M loops, in order
    def region(x, y):
        return Region.OMEGA_H_SC if 0.002 < abs(x) < 0.004 and abs(y) < 0.002 \
            else Region.OMEGA_A_AIR

    breaks = [-0.01, -0.004, -0.002, 0.002, 0.004, 0.01]
    mesh = _structured_mesh(breaks, breaks, 0.001, region)
    segs, normals = mesh.interface(Interface.GAMMA_M)
    loops = mesh.interface_chains(Interface.GAMMA_M)
    assert len(loops) == 2
    assert np.array_equal(np.concatenate(loops), segs)
    assert all(loop[-1, 1] == loop[0, 0] for loop in loops)
    assert all(np.array_equal(a, b) for a, b in zip(_ring_loops(mesh), loops))
    assert mesh.interface_chains(Interface.GAMMA_W) == []
    # dropping one segment leaves an open chain
    broken = Mesh2D(mesh.nodes, mesh.triangles, mesh.tri_region, mesh.boundary_segments,
                    mesh.boundary_tags, segs[1:], mesh.interface_tags[1:], normals[1:],
                    mesh.delta)
    with pytest.raises(MeshError, match="GAMMA_M polyline is not closed"):
        broken.validate()
    with pytest.raises(TopologyError, match="closed loops"):
        _ring_loops(broken)


def test_gamma_w_must_lie_in_air(tape_mesh):
    segs, _ = tape_mesh.interface(Interface.GAMMA_W)
    regions = tape_mesh.tri_region.copy()
    regions[tape_mesh.edge_tris[tape_mesh.edge_ids(segs[3:4])[0]][0]] = int(Region.OMEGA_H_SC)
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
