"""Structured triangular meshes for the two reference geometries.

Two scenario builders are provided:

* :func:`build_stacked_bar_mesh` -- a superconducting bar below a
  ferromagnetic bar, both enclosed in an air box.  The bar boundary is
  the field-coupling interface ``GAMMA_M``.
* :func:`build_tape_mesh` -- a thin conducting tape collapsed to an
  interior horizontal polyline ``GAMMA_W`` inside an air box.

Each mesh carries one coupling interface, recorded once: its segments
in traversal order and one tag.  The segment order carries the
orientation that the spaces rely on, and :meth:`Mesh2D.validate`
checks it.

Meshes are generated from a tensor grid of mapped rectangles split into
two triangles each, so that uniform refinement produces exactly halved
element sizes and reproducible degree-of-freedom numberings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from pathlib import Path

import numpy as np

NODE_TOL = 1e-12


class Region(IntEnum):
    """Subdomain tags. The superconductor forms the h-side domain."""

    OMEGA_H_SC = 1
    OMEGA_A_FERRO = 2
    OMEGA_A_AIR = 3


class Boundary(IntEnum):
    GAMMA_E = 10


class Interface(IntEnum):
    GAMMA_M = 20
    GAMMA_W = 21


class Scenario(Enum):
    STACKED_BAR = "stacked_bar"
    SINGLE_TAPE = "single_tape"


class MeshError(ValueError):
    """Invalid mesh or mesh-generation input."""


class UnderResolvedError(MeshError):
    """Requested element size too coarse for the geometry."""


@dataclass(frozen=True)
class GeometryParams:
    """Geometry description for the two scenarios.

    Lengths are in meters.  ``delta`` is the target characteristic
    element size.  ``min_elements_across`` is the resolution guard for
    the bar scenario: generation is refused when fewer than this many
    elements would fit across the bar height.  Stability sweeps relax
    it to 1 to reach deliberately coarse meshes.
    """

    scenario: Scenario
    bar_width: float
    bar_height: float
    air_half: float
    tape_width: float
    tape_thickness: float
    delta: float
    min_elements_across: int

    def __post_init__(self):
        for name in ("bar_width", "bar_height", "air_half", "tape_width",
                     "tape_thickness", "delta"):
            if getattr(self, name) <= 0.0:
                raise MeshError(f"{name} must be positive")
        if self.scenario is Scenario.STACKED_BAR and self.delta >= self.bar_width / 2.0:
            raise MeshError("delta must be smaller than half the bar width")


class Mesh2D:
    """Immutable triangulated 2D domain with tagged entities.

    Attributes
    ----------
    nodes : (N, 2) float array of coordinates.
    triangles : (T, 3) int array, counterclockwise node triples.
    tri_region : (T,) int array of :class:`Region` values.
    boundary_segments : (B, 2) int array of node pairs on the outer
        boundary, all of it GAMMA_E.
    interface_segments : (S, 2) int array of oriented node pairs forming
        the one coupling interface, as one or more chains listed in
        traversal order.  GAMMA_M chains run counterclockwise around
        each conductor, with the conductor on their left; a GAMMA_W
        chain runs from the tape's minus end to its plus end.
    interface_tag : the :class:`Interface` of those segments, or None
        for a mesh without one.  A mesh couples on one interface kind.
    delta : characteristic element size (m).
    w : tape thickness (m) for tape meshes, else None.
    """

    def __init__(self, nodes, triangles, tri_region, boundary_segments,
                 interface_segments, interface_tag, delta, w=None):
        self.nodes = np.asarray(nodes, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.tri_region = np.asarray(tri_region, dtype=np.int64)
        self.boundary_segments = np.asarray(boundary_segments, dtype=np.int64).reshape(-1, 2)
        self.interface_segments = np.asarray(interface_segments, dtype=np.int64).reshape(-1, 2)
        self.interface_tag = None if interface_tag is None else Interface(interface_tag)
        self.delta = float(delta)
        self.w = None if w is None else float(w)

    # -- derived connectivity ------------------------------------------------

    @cached_property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def _edge_table(self):
        """(keys, edges, tri_edges) from one sort of the edge keys
        a * n_nodes + b of the sorted node pairs (a < b) of every
        triangle; ascending keys order the edges lexicographically."""
        t = self.triangles
        e = np.sort(np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1), axis=2)
        keys, inv = np.unique((e[..., 0] * self.n_nodes + e[..., 1]).ravel(),
                              return_inverse=True)
        edges = np.column_stack([keys // self.n_nodes, keys % self.n_nodes])
        return keys, edges, inv.reshape(-1, 3)

    @property
    def edges(self):
        """Unique mesh edges as sorted (min, max) node pairs, ordered
        lexicographically.  Edge ids are positions in this array."""
        return self._edge_table[1]

    @property
    def tri_edges(self):
        """(T, 3) edge ids for local edges (01, 12, 20) of each triangle."""
        return self._edge_table[2]

    def edge_ids(self, pairs):
        """Edge ids for an array of node pairs (orientation ignored)."""
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        key = pairs[:, 0] * self.n_nodes + pairs[:, 1]
        keys = self._edge_table[0]
        pos = np.searchsorted(keys, key)
        bad = (pos >= len(keys)) | (keys[np.minimum(pos, len(keys) - 1)] != key)
        if np.any(bad):
            raise MeshError("node pair is not a mesh edge")
        return pos

    @cached_property
    def edge_tri_count(self):
        return np.bincount(self.tri_edges.ravel(), minlength=len(self.edges))

    @cached_property
    def signed_areas(self):
        p = self.nodes
        t = self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def region_tris(self, region) -> np.ndarray:
        return np.flatnonzero(self.tri_region == int(region))

    def interface_chains(self) -> list:
        """The interface segments split into their chains: maximal runs
        in which each segment starts where the previous one ends."""
        segs = self.interface_segments
        if len(segs) == 0:
            return []
        return np.split(segs, np.flatnonzero(segs[1:, 0] != segs[:-1, 1]) + 1)

    def segment_lengths(self, segments) -> np.ndarray:
        segments = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
        d = self.nodes[segments[:, 1]] - self.nodes[segments[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def boundary_nodes(self) -> np.ndarray:
        return np.unique(self.boundary_segments)

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check structural invariants, among them the two facts the
        spaces rely on: GAMMA_M keeps the conductor on its left, and a
        mesh has one interface kind.  Raise MeshError on violation."""
        if np.any(self.signed_areas <= 0.0):
            raise MeshError("triangle with non-positive signed area")
        scale = max(self.nodes.max() - self.nodes.min(), 1.0)
        quant = np.round(self.nodes / (NODE_TOL * scale)).astype(np.int64)
        quant = quant[np.lexsort(quant.T)]
        if np.any(np.all(quant[1:] == quant[:-1], axis=1)):
            raise MeshError("duplicate nodes")
        if np.any(self.edge_tri_count > 2):
            raise MeshError("non-conforming mesh: edge shared by >2 triangles")
        for chain in self.interface_chains():
            # GAMMA_M chains must close into loops
            if self.interface_tag == Interface.GAMMA_M and chain[-1, 1] != chain[0, 0]:
                raise MeshError("GAMMA_M polyline is not closed")
            if len(np.unique(chain[:, 0])) != len(chain):
                raise MeshError("interface polyline revisits a node")
        if self.interface_tag == Interface.GAMMA_M:
            self._check_gamma_m()
        if self.interface_tag == Interface.GAMMA_W:
            self._check_gamma_w()
            if len(self.region_tris(Region.OMEGA_H_SC)):
                raise MeshError("mesh has more than one interface kind: "
                                "GAMMA_W and a conductor boundary")
        return self

    def _interface_tris(self):
        """(S, 2) ids of the triangles on each interface segment, in
        ascending order, -1 where there are fewer than two; read from
        ``tri_edges`` without sorting every edge of the mesh."""
        segs = self.interface_segments
        seg_of = np.full(len(self.edges), -1, dtype=np.int64)
        seg_of[self.edge_ids(segs)] = np.arange(len(segs))
        hits = seg_of[self.tri_edges]
        tri, local = np.nonzero(hits >= 0)          # ascending triangles
        seg = hits[tri, local]
        second = np.ones(len(seg), dtype=np.int64)
        second[np.unique(seg, return_index=True)[1]] = 0
        out = np.full((len(segs), 2), -1, dtype=np.int64)
        out[seg, second] = tri
        return out

    def _check_gamma_m(self):
        segs = self.interface_segments
        eids = self.edge_ids(segs)
        tris = self._interface_tris()
        if np.any(tris < 0):
            raise MeshError("GAMMA_M segment not shared by two triangles")
        sc = self.tri_region[tris] == int(Region.OMEGA_H_SC)
        if np.any(sc[:, 0] == sc[:, 1]):
            raise MeshError("GAMMA_M segment does not separate conductor from exterior")
        # a counterclockwise triangle lies left of its edge a -> b exactly
        # when it lists b right after a
        inner = np.where(sc[:, 0], tris[:, 0], tris[:, 1])
        local = np.argmax(self.tri_edges[inner] == eids[:, None], axis=1)
        if np.any(self.triangles[inner, local] != segs[:, 0]):
            raise MeshError("GAMMA_M does not keep the conductor on its left")

    def _check_gamma_w(self):
        segs = self.interface_segments
        tris = self._interface_tris()
        if np.any(tris < 0) or not np.all(np.isin(
                self.tri_region[tris], [int(Region.OMEGA_A_AIR), int(Region.OMEGA_A_FERRO)])):
            raise MeshError("GAMMA_W segment must lie inside the air region")
        lens = self.segment_lengths(segs)
        if lens.size and lens.max() / lens.min() > 1.01:
            raise MeshError("tape mesh is not uniform (max/min segment length > 1.01)")


# -- structured generation ----------------------------------------------------


def _interval_points(breaks, delta):
    """Subdivide consecutive break intervals into cells of size <= delta."""
    pts = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        n = max(1, math.ceil((b - a) / delta - 1e-9))
        pts.extend(a + (b - a) * (k + 1) / n for k in range(n))
    return np.array(pts)


def _structured_mesh(x_breaks, y_breaks, delta, region_fn, w=None, tape_span=None):
    """Tensor grid over the given break lines, each cell split into two
    CCW triangles.  ``region_fn(xc, yc)`` maps the arrays of the cell
    centers' coordinates to the array of their Region values.
    The conductor boundary is discovered from cell regions and becomes
    the GAMMA_M interface; ``tape_span=(x0, x1, y)`` makes a GAMMA_W
    polyline the interface instead.
    """
    xs = _interval_points(x_breaks, delta)
    ys = _interval_points(y_breaks, delta)
    nx, ny = len(xs), len(ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * ny + j

    I, J = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    I, J = I.ravel(), J.ravel()
    n00, n10 = nid(I, J), nid(I + 1, J)
    n01, n11 = nid(I, J + 1), nid(I + 1, J + 1)
    tris = np.empty((2 * len(I), 3), dtype=np.int64)
    tris[0::2] = np.column_stack([n00, n10, n11])
    tris[1::2] = np.column_stack([n00, n11, n01])

    xc = 0.5 * (xs[I] + xs[I + 1])
    yc = 0.5 * (ys[J] + ys[J + 1])
    cell_region = np.asarray(region_fn(xc, yc), dtype=np.int64)
    tri_region = np.repeat(cell_region, 2)

    # outer boundary, counterclockwise starting at the lower-left corner
    bsegs = []
    for i in range(nx - 1):
        bsegs.append((nid(i, 0), nid(i + 1, 0)))
    for j in range(ny - 1):
        bsegs.append((nid(nx - 1, j), nid(nx - 1, j + 1)))
    for i in range(nx - 1, 0, -1):
        bsegs.append((nid(i, ny - 1), nid(i - 1, ny - 1)))
    for j in range(ny - 1, 0, -1):
        bsegs.append((nid(0, j), nid(0, j - 1)))
    bsegs = np.array(bsegs, dtype=np.int64)

    if tape_span is not None:
        isegs, tag = _tape_interface(xs, ys, tape_span, nid), Interface.GAMMA_W
    else:
        isegs = _conductor_interface(xs, ys, cell_region, nid)
        tag = Interface.GAMMA_M if len(isegs) else None

    dx = np.diff(xs).max()
    dy = np.diff(ys).max()
    mesh = Mesh2D(nodes, tris, tri_region, bsegs, isegs, tag,
                  delta=max(dx, dy), w=w)
    return mesh.validate()


def _conductor_interface(xs, ys, cell_region, nid):
    """Chain grid edges separating conductor cells from the rest into
    closed counterclockwise loops (one per conductor component)."""
    nx, ny = len(xs), len(ys)
    ncx, ncy = nx - 1, ny - 1
    reg = cell_region.reshape(ncx, ncy)
    sc = reg == int(Region.OMEGA_H_SC)

    # oriented segments keyed by start node; conductor kept on the left
    seg_from = {}
    for i in range(ncx):
        for j in range(ncy):
            if not sc[i, j]:
                continue
            if j == 0 or not sc[i, j - 1]:      # bottom edge, walk +x
                seg_from[nid(i, j)] = nid(i + 1, j)
            if j == ncy - 1 or not sc[i, j + 1]:  # top edge, walk -x
                seg_from[nid(i + 1, j + 1)] = nid(i, j + 1)
            if i == 0 or not sc[i - 1, j]:      # left edge, walk -y
                seg_from[nid(i, j + 1)] = nid(i, j)
            if i == ncx - 1 or not sc[i + 1, j]:  # right edge, walk +y
                seg_from[nid(i + 1, j)] = nid(i + 1, j + 1)

    segs = []
    remaining = dict(seg_from)
    while remaining:
        start = min(remaining)
        node = start
        while True:
            nxt = remaining.pop(node)
            segs.append((node, nxt))
            node = nxt
            if node == start:
                break
    return np.array(segs, dtype=np.int64).reshape(-1, 2)


def _tape_interface(xs, ys, tape_span, nid):
    x0, x1, y = tape_span
    j = int(np.argmin(np.abs(ys - y)))
    cols = np.flatnonzero((xs >= x0 - 1e-12) & (xs <= x1 + 1e-12))
    return np.column_stack([[nid(i, j) for i in cols[:-1]],
                            [nid(i, j) for i in cols[1:]]]).astype(np.int64)


def build_stacked_bar_mesh(params: GeometryParams) -> Mesh2D:
    """Superconducting bar below, ferromagnetic bar above, in air.

    The bars are ``bar_width`` wide and ``bar_height`` tall, stacked
    at y = 0 and centered in a square air box of half-size
    ``air_half``.  The conductor boundary is the GAMMA_M interface and
    the outer boundary is tagged GAMMA_E.
    """
    if params.scenario is not Scenario.STACKED_BAR:
        raise MeshError("params.scenario must be STACKED_BAR")
    hw, hb, L = params.bar_width / 2.0, params.bar_height, params.air_half
    if L <= hw or L <= hb:
        raise MeshError("air box must enclose the bars")
    n_across = math.floor(hb / params.delta + 1e-9)
    if n_across < params.min_elements_across:
        raise UnderResolvedError(
            f"delta={params.delta} resolves the bar height with "
            f"{n_across} < {params.min_elements_across} elements")

    def region(x, y):
        inside = (-hw < x) & (x < hw)
        return np.select([inside & (-hb < y) & (y < 0.0), inside & (0.0 < y) & (y < hb)],
                         [int(Region.OMEGA_H_SC), int(Region.OMEGA_A_FERRO)],
                         int(Region.OMEGA_A_AIR))

    return _structured_mesh([-L, -hw, hw, L], [-L, -hb, 0.0, hb, L],
                            params.delta, region)


def build_tape_mesh(params: GeometryParams) -> Mesh2D:
    """Thin tape as an interior GAMMA_W polyline in an air box.

    The tape spans ``tape_width`` horizontally at y = 0; its thickness
    ``tape_thickness`` is stored on the mesh, not represented
    geometrically.  The tape 1D mesh is uniform by construction.
    """
    if params.scenario is not Scenario.SINGLE_TAPE:
        raise MeshError("params.scenario must be SINGLE_TAPE")
    hw, L = params.tape_width / 2.0, params.air_half
    if L <= hw:
        raise MeshError("air box must enclose the tape")
    n_along = math.floor(params.tape_width / params.delta + 1e-9)
    if n_along < params.min_elements_across:
        raise UnderResolvedError(
            f"delta={params.delta} resolves the tape width with "
            f"{n_along} < {params.min_elements_across} elements")

    mesh = _structured_mesh([-L, -hw, hw, L], [-L, 0.0, L], params.delta,
                            lambda x, y: np.full(len(x), int(Region.OMEGA_A_AIR)),
                            w=params.tape_thickness, tape_span=(-hw, hw, 0.0))
    return mesh


def refine(mesh: Mesh2D) -> Mesh2D:
    """Uniform refinement: each triangle into 4 via edge midpoints,
    each boundary and interface segment into 2, in place.  All tags are
    inherited and the characteristic size halves exactly."""
    edges = mesh.edges
    mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    nodes = np.vstack([mesh.nodes, mids])
    off = mesh.n_nodes

    t = mesh.triangles
    m01 = off + mesh.tri_edges[:, 0]
    m12 = off + mesh.tri_edges[:, 1]
    m20 = off + mesh.tri_edges[:, 2]
    tris = np.empty((4 * len(t), 3), dtype=np.int64)
    tris[0::4] = np.column_stack([t[:, 0], m01, m20])
    tris[1::4] = np.column_stack([t[:, 1], m12, m01])
    tris[2::4] = np.column_stack([t[:, 2], m20, m12])
    tris[3::4] = np.column_stack([m01, m12, m20])
    tri_region = np.repeat(mesh.tri_region, 4)

    def split(segs):
        if len(segs) == 0:
            return np.empty((0, 2), dtype=np.int64)
        mid = off + mesh.edge_ids(segs)
        out = np.empty((2 * len(segs), 2), dtype=np.int64)
        out[0::2] = np.column_stack([segs[:, 0], mid])
        out[1::2] = np.column_stack([mid, segs[:, 1]])
        return out

    out = Mesh2D(nodes, tris, tri_region, split(mesh.boundary_segments),
                 split(mesh.interface_segments), mesh.interface_tag,
                 delta=mesh.delta / 2.0, w=mesh.w)
    return out.validate()


# -- file formats --------------------------------------------------------------


def write_native(mesh: Mesh2D, path):
    """Write the native ASCII mesh format ($Nodes/$Triangles/$Segments/$Meta)."""
    lines = ["$Nodes", str(mesh.n_nodes)]
    for i, (x, y) in enumerate(mesh.nodes):
        lines.append(f"{i} {x:.17g} {y:.17g}")
    lines += ["$EndNodes", "$Triangles", str(mesh.n_triangles)]
    for i, (t, r) in enumerate(zip(mesh.triangles, mesh.tri_region)):
        lines.append(f"{i} {t[0]} {t[1]} {t[2]} {r}")
    segs = [(seg, int(Boundary.GAMMA_E)) for seg in mesh.boundary_segments]
    segs += [(seg, int(mesh.interface_tag)) for seg in mesh.interface_segments]
    lines += ["$EndTriangles", "$Segments", str(len(segs))]
    lines += [f"{k} {a} {b} {tag}" for k, ((a, b), tag) in enumerate(segs)]
    lines += ["$EndSegments", "$Meta"]
    lines.append(f"delta {mesh.delta:.17g}")
    if mesh.w is not None:
        lines.append(f"w {mesh.w:.17g}")
    lines.append("$EndMeta")
    Path(path).write_text("\n".join(lines) + "\n")

