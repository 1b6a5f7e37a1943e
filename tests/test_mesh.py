import json

import numpy as np
import pytest

from htsfem.cli import _build_mesh, main
from htsfem.config import load_config
from htsfem.mesh import (GeometryParams, Interface, Mesh2D, MeshError, Region,
                         Scenario, UnderResolvedError, _structured_mesh,
                         build_stacked_bar_mesh, read_native, refine, write_native)
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


MESH_ARRAYS = ("nodes", "triangles", "tri_region", "boundary_segments",
               "boundary_tags", "interface_segments", "interface_tags",
               "interface_normals")


def _assert_same_mesh(back, mesh):
    for name in MESH_ARRAYS:
        assert np.array_equal(getattr(back, name), getattr(mesh, name)), name
        assert getattr(back, name).dtype == getattr(mesh, name).dtype, name
    assert back.delta == mesh.delta
    assert back.w == mesh.w
    assert back.tape_endpoints == mesh.tape_endpoints


def _roundtrip_cli_mesh(tmp_path, config):
    """The file `htsfem mesh` writes reads back exactly, and so does the
    mesh after one refinement."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["mesh", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    mesh = _build_mesh(load_config(config))
    back = read_native(out / "mesh.txt")
    _assert_same_mesh(back, mesh)
    fine = refine(back)
    write_native(fine, tmp_path / "fine.txt")
    _assert_same_mesh(read_native(tmp_path / "fine.txt"), fine)
    _assert_same_mesh(fine, refine(mesh))
    return back


def test_native_roundtrip(tmp_path):
    back = _roundtrip_cli_mesh(tmp_path, {"scenario": "stacked_bar",
                                          "geometry": {"delta": 0.002}})
    assert back.w is None and back.tape_endpoints is None
    assert set(back.interface_tags) == {int(Interface.GAMMA_M)}


def test_native_roundtrip_tape(tmp_path):
    back = _roundtrip_cli_mesh(tmp_path, {"scenario": "single_tape",
                                          "geometry": {"delta": 0.001}})
    assert back.w is not None and back.tape_endpoints is not None
    assert set(back.interface_tags) == {int(Interface.GAMMA_W)}


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
