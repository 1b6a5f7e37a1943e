"""Discrete function spaces for the coupled formulations.

Three families are built on a shared DOF bookkeeping:

* ``H``: edge functions on the interior of each conducting component,
  gradients of nodal hats on the component boundary, one net-current
  degree of freedom per component carried by a cut function, and
  (order 2) gradients of edge bubbles on the coupling boundary.
* ``A``: one out-of-plane nodal value per node of the a-side domain,
  plus (order 2) one bubble per coupling-interface edge.
* ``T``: one nodal value per interior tape node, the plus-end value as
  a per-tape global degree of freedom, plus (order 2) one bubble per
  tape segment.  The minus end is fixed to zero strongly.

The H and T spaces expose their conductors or tapes as ``circuits``,
each with one "global" degree of freedom, and the net current of a
unit global coefficient as ``current_scale``; circuit sources and
reactions are handled through these alone.

Degrees of freedom are numbered nodes, then edges, then bubbles, then
globals, so assembled matrices are reproducible.  Essential values are
applied by symmetric elimination downstream; here each constrained
degree of freedom carries its build-time value.

Every space couples on the one interface of its mesh
(``Mesh2D.interface_segments``), so no builder or trace routine takes
an interface tag.  This module holds the DOF bookkeeping, the interface
trace table and the H space's Whitney map.  Fields inside the elements
are evaluated in ``assembly``, on the basis kernels the assembly itself
uses (``field_operator``, ``h_curl_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .mesh import Boundary, Interface, Mesh2D, Region


class TopologyError(ValueError):
    """Conductor topology not supported by the cut construction."""


class SpaceError(ValueError):
    """Inconsistent space construction input."""


@dataclass(frozen=True)
class Conductor:
    """One conducting component.  ``cut`` is its net-current basis
    function as Whitney edge coefficients, edge id -> coefficient in
    the canonical min-to-max node orientation; its curl vanishes off
    the one-triangle-thick layer along the component boundary, and its
    circulation along the boundary loop ``ring_nodes`` equals one."""

    id: int
    ring_nodes: np.ndarray         # boundary loop nodes, ccw
    cut: dict
    ground_node: int
    mode: str                      # "current" | "voltage"
    value: float


@dataclass(frozen=True)
class Tape:
    id: int
    plus: int
    mode: str
    value: float


class DofSpace:
    """Discrete space: DOF table, essential constraints, free indexing."""

    def __init__(self, family, enrichment, mesh, entries, essential, meta):
        self.family = family
        self.enrichment = int(enrichment)
        self.mesh = mesh
        self.entries = list(entries)
        self.index = {ent: k for k, ent in enumerate(self.entries)}
        self.essential = dict(essential)
        self.meta = meta
        self.n_dofs = len(self.entries)
        self.free = np.array([k for k in range(self.n_dofs)
                              if k not in self.essential], dtype=np.int64)
        self.n_free = len(self.free)

    @property
    def circuits(self) -> list:
        """Conductors (H) or tapes (T), each owning one "global" DOF;
        none for A spaces."""
        return self.meta.get("circuits", [])

    @property
    def current_scale(self) -> float:
        """Net current carried by a unit "global" coefficient: 1 for a
        cut, the tape thickness w for a tape's plus-end hat."""
        return self.meta.get("current_scale", 1.0)

    def dof(self, kind, entity) -> int:
        return self.index[(kind, int(entity))]

    @cached_property
    def _kind_dofs(self) -> dict:
        """Per entity kind: (entity ids, their DOFs), in DOF order."""
        kinds = np.array([kind for kind, _ in self.entries])
        ents = np.array([ent for _, ent in self.entries], dtype=np.int64)
        return {str(kind): (ents[kinds == kind], np.flatnonzero(kinds == kind))
                for kind in np.unique(kinds)}

    def entity_dofs(self, kind, n_entities) -> np.ndarray:
        """DOF of each entity of ``kind`` by entity id, -1 where none."""
        out = np.full(n_entities, -1, dtype=np.int64)
        ents, dofs = self._kind_dofs.get(kind, ([], []))
        out[ents] = dofs
        return out

    def essential_full(self) -> np.ndarray:
        """Full-length vector with build-time essential values."""
        x = np.zeros(self.n_dofs)
        for k, v in self.essential.items():
            x[k] = v
        return x

    def expand(self, x_free, x_essential) -> np.ndarray:
        """Scatter a free-DOF vector into a copy of the full-length
        ``x_essential``."""
        x = x_essential.copy()
        x[self.free] = x_free
        return x


# -- conductor discovery and cut construction ----------------------------------


def _conductor_components(mesh: Mesh2D):
    """Connected components of the conducting region, ordered by their
    smallest triangle index."""
    sc = mesh.region_tris(Region.OMEGA_H_SC)
    if len(sc) == 0:
        return []
    pos = np.full(mesh.n_triangles + 1, -1, dtype=np.int64)   # slot -1: no triangle
    pos[sc] = np.arange(len(sc))
    pairs = pos[mesh.edge_tris]
    pairs = pairs[np.all(pairs >= 0, axis=1)]
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(len(sc),) * 2)
    n_comp, labels = connected_components(adj, directed=False)
    comps = [sc[labels == c] for c in range(n_comp)]
    comps.sort(key=lambda tris: int(tris.min()))
    return comps


def _ring_loops(mesh: Mesh2D):
    """The chains of the ordered GAMMA_M polyline, each a closed loop."""
    loops = mesh.interface_chains()
    if any(loop[-1, 1] != loop[0, 0] for loop in loops):
        raise TopologyError("GAMMA_M does not decompose into closed loops")
    return loops


def _cut_basis(mesh, tris, loop) -> dict:
    """Cut function of the component ``tris`` bounded by ``loop``:
    uniform coefficients of 1/B on the B oriented loop edges.  Its
    circulation along the component boundary is one; around any other
    conductor it is zero; its curl vanishes outside the boundary
    triangle layer."""
    # simple connectedness via Euler characteristic V - E + F = 1
    nodes = np.unique(mesh.triangles[tris])
    edges = np.unique(mesh.tri_edges[tris])
    if len(nodes) - len(edges) + len(tris) != 1:
        raise TopologyError("conductor is not simply connected")

    eids = mesh.edge_ids(loop)
    signs = np.where(loop[:, 0] < loop[:, 1], 1.0, -1.0)
    return {int(e): float(s) / len(loop) for e, s in zip(eids, signs)}


def _loop_of_component(mesh, tris):
    tri_set = set(int(t) for t in tris)
    for loop in _ring_loops(mesh):
        t0, t1 = mesh.edge_tris[mesh.edge_ids(loop[:1])[0]]
        if int(t0) in tri_set or int(t1) in tri_set:
            return loop
    raise TopologyError("component has no GAMMA_M boundary loop")


# -- space builders ------------------------------------------------------------


def build_h_space(mesh: Mesh2D, enrichment: int, circuit) -> DofSpace:
    """Magnetic-field space on the conducting domain.

    ``circuit`` maps every conductor component id to ("current", I) or
    ("voltage", V); an unlisted conductor raises SpaceError.  One
    boundary-potential node per component is grounded to
    remove the constant-potential redundancy of the decomposition.
    """
    comps = _conductor_components(mesh)
    if not comps:
        raise SpaceError("mesh has no conducting region")

    conductors = []
    ring_node_set, ring_edge_set = set(), set()
    for cid, tris in enumerate(comps):
        loop = _loop_of_component(mesh, tris)
        if cid not in circuit:
            raise SpaceError(f"conductor {cid} has no circuit entry")
        mode, value = circuit[cid]
        if mode not in ("current", "voltage"):
            raise SpaceError(f"unknown circuit mode {mode!r}")
        conductors.append(Conductor(
            id=cid, ring_nodes=loop[:, 0], cut=_cut_basis(mesh, tris, loop),
            ground_node=int(loop[:, 0].min()), mode=mode, value=value))
        ring_node_set.update(int(n) for n in loop[:, 0])
        ring_edge_set.update(int(e) for e in mesh.edge_ids(loop))

    sc_tris = np.concatenate(comps)
    sc_edges = np.unique(mesh.tri_edges[sc_tris])

    entries = [("node", n) for n in sorted(ring_node_set)]
    entries += [("edge", int(e)) for e in sc_edges if int(e) not in ring_edge_set]
    if enrichment == 2:
        entries += [("bubble", int(e)) for e in sorted(ring_edge_set)]
    entries += [("global", c.id) for c in conductors]

    dof = {ent: k for k, ent in enumerate(entries)}
    essential = {}
    for c in conductors:
        essential[dof["node", c.ground_node]] = 0.0
        if c.mode == "current":
            essential[dof["global", c.id]] = c.value
    return DofSpace("H", enrichment, mesh, entries, essential, {
        "circuits": conductors,
        "current_scale": 1.0,
        "sc_tris": sc_tris,
    })


def build_a_space(mesh: Mesh2D, enrichment: int) -> DofSpace:
    """Vector-potential space on the a-side domain (ferromagnet + air).

    At order 2 one bubble is added per edge of the mesh's coupling
    interface.  The outer boundary carries a zero essential trace;
    ``essential_vector`` sets another.
    """
    a_tris = np.concatenate([mesh.region_tris(Region.OMEGA_A_FERRO),
                             mesh.region_tris(Region.OMEGA_A_AIR)])
    if len(a_tris) == 0:
        raise SpaceError("mesh has no a-side region")
    a_nodes = np.unique(mesh.triangles[a_tris])

    segs = mesh.interface_segments
    if len(segs) == 0:
        raise SpaceError("mesh has no coupling interface")

    entries = [("node", int(n)) for n in a_nodes]
    if enrichment == 2:
        entries += [("bubble", int(e)) for e in np.sort(mesh.edge_ids(segs))]

    gamma_e = mesh.boundary_nodes(Boundary.GAMMA_E)
    gamma_e = gamma_e[np.isin(gamma_e, a_nodes)]
    dof = {ent: k for k, ent in enumerate(entries)}
    gamma_e_dofs = np.array([dof["node", int(n)] for n in gamma_e], dtype=np.int64)
    essential = dict.fromkeys(gamma_e_dofs.tolist(), 0.0)
    return DofSpace("A", enrichment, mesh, entries, essential, {
        "a_tris": a_tris,
        "gamma_e_nodes": gamma_e,
        "gamma_e_dofs": gamma_e_dofs,
    })


def build_t_space(mesh: Mesh2D, enrichment: int, constraints) -> DofSpace:
    """Current-potential space on the tape polyline(s).

    ``constraints`` maps every tape id to ("current", I) or
    ("voltage", V); an unlisted tape raises SpaceError.  The minus end
    is fixed to zero strongly; a current constraint fixes the plus-end
    value to I/w, a voltage constraint leaves it free.
    """
    if mesh.interface_tag is not Interface.GAMMA_W:
        raise SpaceError("mesh has no GAMMA_W interface")
    if mesh.w is None:
        raise SpaceError("tape mesh must store a thickness w")

    tapes, interior = [], set()
    for tid, chain in enumerate(mesh.interface_chains()):
        if tid not in constraints:
            raise SpaceError(f"tape {tid} has no constraint")
        mode, value = constraints[tid]
        if mode not in ("current", "voltage"):
            raise SpaceError(f"unknown tape constraint {mode!r}")
        nodes = np.concatenate([chain[:, 0], chain[-1:, 1]])
        tapes.append(Tape(tid, int(nodes[-1]), mode, float(value)))
        interior.update(int(n) for n in nodes[1:-1])

    entries = [("node", n) for n in sorted(interior)]
    if enrichment == 2:
        entries += [("bubble", int(e))
                    for e in np.sort(mesh.edge_ids(mesh.interface_segments))]
    entries += [("global", t.id) for t in tapes]

    dof = {ent: k for k, ent in enumerate(entries)}
    essential = {dof["global", t.id]: t.value / mesh.w for t in tapes if t.mode == "current"}
    return DofSpace("T", enrichment, mesh, entries, essential, {
        "circuits": tapes,
        "current_scale": mesh.w,
    })


def essential_vector(space: DofSpace, *, currents=None, a_trace=None) -> np.ndarray:
    """Full-length essential-value vector for updated sources.

    ``currents`` maps conductor/tape ids to imposed net currents;
    ``a_trace(x, y)`` overrides the outer-boundary trace of an A space;
    it is called once, on the arrays of the boundary nodes' coordinates.
    Topology (which DOFs are constrained) is fixed at build time.
    """
    x = space.essential_full()
    currents = currents or {}
    for c in space.circuits:
        if c.mode == "current" and c.id in currents:
            x[space.dof("global", c.id)] = currents[c.id] / space.current_scale
    if space.family == "A" and a_trace is not None:
        nodes = space.meta["gamma_e_nodes"]
        x[space.meta["gamma_e_dofs"]] = a_trace(*space.mesh.nodes[nodes].T)
    return x


# -- interface trace machinery --------------------------------------------------


def interface_chain(space: DofSpace):
    """Ordered interface segments, lengths and cumulative arclength."""
    segs = space.mesh.interface_segments
    lens = space.mesh.segment_lengths(segs)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    return segs, lens, cum


@dataclass(frozen=True)
class TraceTable:
    """Coupling trace basis of one space on its mesh's interface.

    Slot p of segment k carries DOF ``dofs[k, p]``; its trace at local
    coordinate u in [0, 1] along the oriented segment is
    ``coeffs[k, p] @ (1, u, u**2)``, exact because every trace is a
    polynomial of degree two at most.  Padded slots hold DOF -1 and zero
    coefficients.
    """

    dofs: np.ndarray        # (S, P)
    coeffs: np.ndarray      # (S, P, 3)
    lens: np.ndarray        # (S,)
    cum: np.ndarray         # (S + 1,) arclength at the segment starts

    def values(self, u) -> np.ndarray:
        """Basis values at local coordinates u of shape (Q,): (S, P, Q)."""
        return self.coeffs @ _powers(u)

    def gather(self, coeffs) -> np.ndarray:
        """Slot coefficients (S, P) of a full-length vector, 0 when padded."""
        return np.where(self.dofs >= 0, np.asarray(coeffs, dtype=float)[self.dofs], 0.0)


def _powers(u):
    u = np.asarray(u, dtype=float)
    return np.stack([np.ones_like(u), u, u * u])


def trace_table(space: DofSpace) -> TraceTable:
    """Tabulated trace basis on the mesh's interface, cached on the
    space: the z-component of n x h for H spaces, the potential value
    for A spaces and the surface-current density dt/ds for T spaces."""
    cached = getattr(space, "_trace_table", None)
    if cached is not None:
        return cached
    mesh = space.mesh
    segs, lens, cum = interface_chain(space)
    eids = mesh.edge_ids(segs)
    node = space.entity_dofs("node", mesh.n_nodes)
    zero, one, inv = np.zeros(len(segs)), np.ones(len(segs)), 1.0 / lens
    if space.family == "A":
        ends = ((one, -one, zero), (zero, one, zero))
        bubble = (zero, one, -one)
    else:
        if space.family == "T":
            for t in space.circuits:
                node[t.plus] = space.dof("global", t.id)
        ends = ((-inv, zero, zero), (inv, zero, zero))
        bubble = (inv, -2.0 * inv, zero)
    slots = [(node[segs[:, 0]], ends[0]), (node[segs[:, 1]], ends[1])]
    if space.enrichment == 2:
        slots.append((space.entity_dofs("bubble", len(mesh.edges))[eids], bubble))
    if space.family == "H":
        cut_dof = np.full(len(mesh.edges), -1, dtype=np.int64)
        cut_val = np.zeros(len(mesh.edges))
        for c in space.circuits:
            e = np.fromiter(c.cut.keys(), dtype=np.int64)
            cut_dof[e] = space.dof("global", c.id)
            cut_val[e] = list(c.cut.values())
        sgn = np.where(segs[:, 0] < segs[:, 1], 1.0, -1.0)
        slots.append((cut_dof[eids], (cut_val[eids] * sgn / lens, zero, zero)))
    dofs = np.stack([d for d, _ in slots], axis=1)
    coeffs = np.stack([np.stack(c, axis=1) for _, c in slots], axis=1)
    coeffs[dofs < 0] = 0.0
    space._trace_table = TraceTable(dofs, coeffs, lens, cum)
    return space._trace_table


def eval_trace(space: DofSpace, coeffs, s):
    """Interface trace at arclength s (scalar or array) along the
    oriented interface polyline; ``coeffs`` is a full-length vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.n_dofs,):
        raise SpaceError("coefficient vector does not match the space")
    tab = trace_table(space)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < -1e-12) or np.any(s_arr > tab.cum[-1] + 1e-12):
        raise SpaceError("arclength outside the interface")
    s_arr = np.clip(s_arr, 0.0, tab.cum[-1])
    ks = np.minimum(np.searchsorted(tab.cum, s_arr, side="right") - 1, len(tab.lens) - 1)
    u = (s_arr - tab.cum[ks]) / tab.lens[ks]
    basis = np.einsum("npc,cn->np", tab.coeffs[ks], _powers(u))
    out = np.sum(tab.gather(coeffs)[ks] * basis, axis=1)
    return out if np.ndim(s) else float(out[0])


# -- Whitney map ----------------------------------------------------------------


def whitney_transform(space: DofSpace):
    """Sparse map from H-space coefficients to Whitney edge circulations.

    Returns (sc_edge_ids, C) where C has one row per canonical
    (min, max) oriented edge of the conducting region and one column
    per degree of freedom.  Edge DOFs map identically; a node DOF n
    contributes the potential difference of its hat on each incident
    edge; the cut carries its stored edge coefficients.  Bubble
    gradients are outside the lowest-order span and have zero columns.
    """
    if space.family != "H":
        raise SpaceError("whitney expansion applies to H spaces")
    cached = getattr(space, "_whitney_transform", None)
    if cached is not None:
        return cached
    mesh = space.mesh
    sc_edges = np.unique(mesh.tri_edges[space.meta["sc_tris"]])
    pos = np.arange(len(sc_edges))
    ends = space.entity_dofs("node", mesh.n_nodes)[mesh.edges[sc_edges]]
    rows = [pos, pos, pos]
    cols = [ends[:, 0], ends[:, 1], space.entity_dofs("edge", len(mesh.edges))[sc_edges]]
    data = [np.full(len(pos), -1.0), np.ones(len(pos)), np.ones(len(pos))]
    for c in space.circuits:
        rows.append(np.searchsorted(sc_edges, np.fromiter(c.cut, np.int64)))
        cols.append(np.full(len(c.cut), space.dof("global", c.id)))
        data.append(np.fromiter(c.cut.values(), float))
    rows, cols, data = (np.concatenate(x) for x in (rows, cols, data))
    has = cols >= 0
    C = coo_matrix((data[has], (rows[has], cols[has])),
                   shape=(len(sc_edges), space.n_dofs)).tocsr()
    space._whitney_transform = (sc_edges, C)
    return sc_edges, C
