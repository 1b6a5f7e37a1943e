"""Discrete function spaces for the coupled formulations.

Three families are built on a shared DOF bookkeeping:

* ``H``: edge functions on the interior of the conductor, gradients
  of nodal hats on its boundary, one net-current degree of freedom
  carried by a cut function, and (order 2) gradients of edge bubbles
  on the coupling boundary.
* ``A``: one out-of-plane nodal value per node of the a-side domain,
  plus (order 2) one bubble per coupling-interface edge.
* ``T``: one nodal value per interior tape node, the plus-end value as
  the global degree of freedom, plus (order 2) one bubble per tape
  segment.  The minus end is fixed to zero strongly.

An H space is built on a mesh with one conductor and a T space on a
mesh with one tape; each exposes it as ``circuit``, which owns the one
"global" degree of freedom, and the net current of a unit global
coefficient as ``current_scale``.  Circuit sources and reactions are
handled through these alone.  The field space's family is the
formulation, h-a for H and t-a for T, and its ``mesh`` the run's mesh.

Each space holds one DOF table, per entity kind: the ascending ids of
its nodes, then edges, then bubbles, then globals, numbered block by
block, so assembled matrices are reproducible and an order-2 A space
starts with its order-1 DOFs.  The builders form the blocks by array
operations on the mesh tables.  Essential values are applied by
symmetric elimination downstream; here the constrained DOFs and their
build-time values are two arrays.

Every space couples on the one interface of its mesh
(``Mesh2D.interface_segments``), so no builder or trace routine takes
an interface tag.  This module holds the DOF bookkeeping, the interface
trace table and the H space's Whitney map.  Fields inside the elements
are evaluated in ``assembly``, on the basis kernels the assembly itself
uses (``field_operator``, ``h_curl_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .mesh import Interface, Mesh2D, Region


class TopologyError(ValueError):
    """Conductor topology not supported by the cut construction."""


class SpaceError(ValueError):
    """Inconsistent space construction input."""


@dataclass(frozen=True)
class Conductor:
    """The conductor of an H space.  Its net-current basis function, the
    cut, has the Whitney coefficients ``cut_coeffs`` on the edges
    ``cut_edges``, in the canonical min-to-max node orientation; its
    curl vanishes off the one-triangle-thick layer along the conductor
    boundary, and its circulation along the boundary loop
    ``ring_nodes`` equals one."""

    ring_nodes: np.ndarray         # boundary loop nodes, ccw
    cut_edges: np.ndarray
    cut_coeffs: np.ndarray
    ground_node: int
    mode: str                      # "current" | "voltage"
    value: float


@dataclass(frozen=True)
class Tape:
    """The tape of a T space: its plus-end node and its constraint."""

    plus: int
    mode: str
    value: float


class DofSpace:
    """Discrete space: DOF table, essential constraints, free indexing.

    ``kinds`` maps each entity kind to its ascending entity ids; the
    DOFs are numbered block by block in that order.  ``essential`` maps
    a kind to (entity ids, build-time values) of its constrained
    entities, held as the arrays ``essential_dofs`` and
    ``essential_values``."""

    def __init__(self, family, enrichment, mesh, kinds, essential, meta):
        self.family = family
        self.enrichment = int(enrichment)
        self.mesh = mesh
        self.kinds = {kind: np.asarray(ents, dtype=np.int64) for kind, ents in kinds.items()}
        sizes = [len(ents) for ents in self.kinds.values()]
        self.offsets = dict(zip(self.kinds, np.cumsum([0] + sizes).tolist()))
        self.n_dofs = sum(sizes)
        self.meta = meta
        ess = [(self.dof(kind, ents), np.broadcast_to(vals, np.shape(ents)))
               for kind, (ents, vals) in essential.items()]
        self.essential_dofs = np.concatenate([d for d, _ in ess] + [np.empty(0, np.int64)])
        self.essential_values = np.concatenate([v for _, v in ess] + [np.empty(0)])
        is_free = np.ones(self.n_dofs, dtype=bool)
        is_free[self.essential_dofs] = False
        self.free = np.flatnonzero(is_free)
        self.n_free = len(self.free)

    @property
    def circuit(self):
        """The conductor (H) or the tape (T), owning the one "global"
        DOF; None for A spaces."""
        return self.meta.get("circuit")

    @property
    def current_scale(self) -> float:
        """Net current carried by a unit "global" coefficient: 1 for a
        cut, the tape thickness ``mesh.w`` for a tape's plus-end hat."""
        return self.mesh.w if self.family == "T" else 1.0

    def dof(self, kind, entity):
        """DOF of an entity of ``kind``, or the DOFs of an array of them;
        KeyError when the space does not hold one."""
        ents, entity = self.kinds[kind], np.asarray(entity, dtype=np.int64)
        pos = np.minimum(np.searchsorted(ents, entity), len(ents) - 1)
        if entity.size and (len(ents) == 0 or np.any(ents[pos] != entity)):
            raise KeyError((kind, entity.tolist()))
        return self.offsets[kind] + pos

    def entity_dofs(self, kind, n_entities) -> np.ndarray:
        """DOF of each entity of ``kind`` by entity id, -1 where none."""
        out = np.full(n_entities, -1, dtype=np.int64)
        if kind in self.kinds:
            ents = self.kinds[kind]
            out[ents] = self.offsets[kind] + np.arange(len(ents))
        return out

    def essential_full(self) -> np.ndarray:
        """Full-length vector with build-time essential values."""
        x = np.zeros(self.n_dofs)
        x[self.essential_dofs] = self.essential_values
        return x

    def expand(self, x_free, x_essential) -> np.ndarray:
        """Scatter a free-DOF vector into a copy of the full-length
        ``x_essential``."""
        x = x_essential.copy()
        x[self.free] = x_free
        return x


# -- space builders ------------------------------------------------------------


def _conductor_loop(mesh: Mesh2D, tris):
    """The one GAMMA_M loop of the conducting triangles ``tris``.  Every
    component is bounded by one loop and every hole by one more, while
    V - E + F counts the components less the holes; a second component
    raises SpaceError, a hole TopologyError."""
    if mesh.interface_tag is not Interface.GAMMA_M:
        raise SpaceError("mesh has no GAMMA_M interface")
    loops = mesh.interface_chains()
    euler = (len(np.unique(mesh.triangles[tris])) - len(np.unique(mesh.tri_edges[tris]))
             + len(tris))
    if len(loops) + euler != 2:
        raise SpaceError(f"mesh has {(len(loops) + euler) // 2} conductor components; "
                         f"an H space takes one")
    if euler != 1:
        raise TopologyError("conductor is not simply connected")
    if loops[0][-1, 1] != loops[0][0, 0]:
        raise TopologyError("GAMMA_M is not a closed loop")
    return loops[0]


def _cut_basis(mesh, loop):
    """Cut function of the conductor bounded by ``loop``, as (edge ids,
    coefficients): uniform coefficients of 1/B on the B oriented loop
    edges.  Its circulation along the conductor boundary is one; its
    curl vanishes outside the boundary triangle layer."""
    return mesh.edge_ids(loop), np.where(loop[:, 0] < loop[:, 1], 1.0, -1.0) / len(loop)


def build_h_space(mesh: Mesh2D, enrichment: int, circuit) -> DofSpace:
    """Magnetic-field space on the conducting domain.

    ``circuit`` is ("current", I) or ("voltage", V) of the mesh's one
    conductor.  One boundary-potential node is grounded to remove the
    constant-potential redundancy of the decomposition.
    """
    sc_tris = mesh.region_tris(Region.OMEGA_H_SC)
    if len(sc_tris) == 0:
        raise SpaceError("mesh has no conducting region")
    loop = _conductor_loop(mesh, sc_tris)
    mode, value = circuit
    if mode not in ("current", "voltage"):
        raise SpaceError(f"unknown circuit mode {mode!r}")
    conductor = Conductor(loop[:, 0], *_cut_basis(mesh, loop),
                          ground_node=int(loop[:, 0].min()), mode=mode, value=value)

    ring_edges = np.unique(conductor.cut_edges)
    kinds = {"node": np.unique(conductor.ring_nodes),
             "edge": np.setdiff1d(mesh.tri_edges[sc_tris], ring_edges)}
    if enrichment == 2:
        kinds["bubble"] = ring_edges
    kinds["global"] = [0]
    essential = {"node": ([conductor.ground_node], 0.0)}
    if mode == "current":
        essential["global"] = ([0], value)
    return DofSpace("H", enrichment, mesh, kinds, essential, {
        "circuit": conductor,
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
    a_nodes = np.flatnonzero(np.bincount(mesh.triangles[a_tris].ravel()))

    segs = mesh.interface_segments
    if len(segs) == 0:
        raise SpaceError("mesh has no coupling interface")

    kinds = {"node": a_nodes}
    if enrichment == 2:
        kinds["bubble"] = np.sort(mesh.edge_ids(segs))
    gamma_e = mesh.boundary_nodes()
    gamma_e = gamma_e[np.isin(gamma_e, a_nodes)]
    return DofSpace("A", enrichment, mesh, kinds, {"node": (gamma_e, 0.0)}, {
        "a_tris": a_tris,
        "gamma_e_nodes": gamma_e,
    })


def build_t_space(mesh: Mesh2D, enrichment: int, constraint) -> DofSpace:
    """Current-potential space on the tape polyline.

    ``constraint`` is ("current", I) or ("voltage", V) of the mesh's
    one tape.  The minus end is fixed to zero strongly; a current
    constraint fixes the plus-end value to I/w, a voltage constraint
    leaves it free.
    """
    if mesh.interface_tag is not Interface.GAMMA_W:
        raise SpaceError("mesh has no GAMMA_W interface")
    if mesh.w is None:
        raise SpaceError("tape mesh must store a thickness w")
    chains = mesh.interface_chains()
    if len(chains) != 1:
        raise SpaceError(f"mesh has {len(chains)} tapes; a T space takes one")
    mode, value = constraint
    if mode not in ("current", "voltage"):
        raise SpaceError(f"unknown tape constraint {mode!r}")
    tape = Tape(int(chains[0][-1, 1]), mode, float(value))

    kinds = {"node": np.unique(chains[0][1:, 0])}
    if enrichment == 2:
        kinds["bubble"] = np.sort(mesh.edge_ids(mesh.interface_segments))
    kinds["global"] = [0]
    essential = {"global": ([0], tape.value / mesh.w)} if mode == "current" else {}
    return DofSpace("T", enrichment, mesh, kinds, essential, {"circuit": tape})


def essential_vector(space: DofSpace, *, current=None, a_trace=None) -> np.ndarray:
    """Full-length essential-value vector for updated sources.

    ``current`` is the imposed net current of a current-driven
    conductor or tape; ``a_trace(x, y)`` overrides the outer-boundary
    trace of an A space; it is called once, on the arrays of the
    boundary nodes' coordinates.  Topology (which DOFs are constrained)
    is fixed at build time.
    """
    x = space.essential_full()
    if current is not None:
        x[space.dof("global", 0)] = current / space.current_scale
    if space.family == "A" and a_trace is not None:
        nodes = space.meta["gamma_e_nodes"]
        x[space.dof("node", nodes)] = a_trace(*space.mesh.nodes[nodes].T)
    return x


# -- interface trace machinery --------------------------------------------------


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

    def values(self, u) -> np.ndarray:
        """Basis values at local coordinates u of shape (Q,): (S, P, Q)."""
        u = np.asarray(u, dtype=float)
        return self.coeffs @ np.stack([np.ones_like(u), u, u * u])

    def gather(self, coeffs) -> np.ndarray:
        """Slot coefficients (S, P) of a full-length vector, 0 when padded."""
        return np.where(self.dofs >= 0, np.asarray(coeffs, dtype=float)[self.dofs], 0.0)


def trace_table(space: DofSpace) -> TraceTable:
    """Tabulated trace basis on the mesh's interface, built afresh on
    every call: the z-component of n x h for H spaces, the potential value
    for A spaces and the surface-current density dt/ds for T spaces."""
    mesh = space.mesh
    segs = mesh.interface_segments
    lens = mesh.segment_lengths(segs)
    eids = mesh.edge_ids(segs)
    node = space.entity_dofs("node", mesh.n_nodes)
    zero, one, inv = np.zeros(len(segs)), np.ones(len(segs)), 1.0 / lens
    if space.family == "A":
        ends = ((one, -one, zero), (zero, one, zero))
        bubble = (zero, one, -one)
    else:
        if space.family == "T":
            node[space.circuit.plus] = space.dof("global", 0)
        ends = ((-inv, zero, zero), (inv, zero, zero))
        bubble = (inv, -2.0 * inv, zero)
    slots = [(node[segs[:, 0]], ends[0]), (node[segs[:, 1]], ends[1])]
    if space.enrichment == 2:
        slots.append((space.entity_dofs("bubble", len(mesh.edges))[eids], bubble))
    if space.family == "H":
        # the interface is the cut's loop: a tangential trace of 1/B on
        # each of its B segments
        cut = np.full(len(segs), space.dof("global", 0))
        slots.append((cut, (one / len(segs) / lens, zero, zero)))
    dofs = np.stack([d for d, _ in slots], axis=1)
    coeffs = np.stack([np.stack(c, axis=1) for _, c in slots], axis=1)
    coeffs[dofs < 0] = 0.0
    return TraceTable(dofs, coeffs, lens)


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
    mesh = space.mesh
    sc_edges = np.unique(mesh.tri_edges[space.meta["sc_tris"]])
    pos = np.arange(len(sc_edges))
    ends = space.entity_dofs("node", mesh.n_nodes)[mesh.edges[sc_edges]]
    conductor = space.circuit
    rows = [pos, pos, pos, np.searchsorted(sc_edges, conductor.cut_edges)]
    cols = [ends[:, 0], ends[:, 1], space.entity_dofs("edge", len(mesh.edges))[sc_edges],
            np.full(len(conductor.cut_edges), space.dof("global", 0))]
    data = [np.full(len(pos), -1.0), np.ones(len(pos)), np.ones(len(pos)),
            conductor.cut_coeffs]
    rows, cols, data = (np.concatenate(x) for x in (rows, cols, data))
    has = cols >= 0
    C = coo_matrix((data[has], (rows[has], cols[has])),
                   shape=(len(sc_edges), space.n_dofs)).tocsr()
    return sc_edges, C
