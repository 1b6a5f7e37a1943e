"""Shared test helpers."""

import numpy as np

from htsfem.mesh import Region, _structured_mesh


def h_dofs_for_potential(h_space, potential):
    """Coefficients representing the gradient of a scalar potential
    inside the conducting region, honouring the grounded boundary node.

    The boundary node DOFs carry the ground-shifted potential; interior
    edge DOFs carry the circulation left over after removing the
    boundary-hat contributions on their endpoints.
    """
    mesh = h_space.mesh
    x = np.zeros(h_space.n_dofs)
    ground = {c.id: c.ground_node for c in h_space.circuits}
    p = {int(n): potential(*mesh.nodes[n])
         for n in np.unique(mesh.triangles[h_space.meta["sc_tris"]])}
    ring = set()
    pg = {}
    for c in h_space.circuits:
        g = p[c.ground_node]
        for n in c.ring_nodes:
            key = ("node", int(n))
            x[h_space.index[key]] = p[int(n)] - g
            ring.add(int(n))
            pg[int(n)] = g
    for k, (kind, ent) in enumerate(h_space.entries):
        if kind != "edge":
            continue
        a, b = (int(v) for v in mesh.edges[ent])
        circ = p[b] - p[a]
        if a in ring:
            circ += p[a] - pg[a]
        if b in ring:
            circ -= p[b] - pg[b]
        x[k] = circ
    return x


def l_bar_mesh():
    """L-shaped conductor in air: its reentrant corner puts two GAMMA_M
    edges on one air triangle, its outer corners on conductor ones."""
    def region(x, y):
        if -0.004 < x < 0.004 and -0.004 < y < -0.002:
            return Region.OMEGA_H_SC
        if 0.002 < x < 0.004 and -0.004 < y < 0.004:
            return Region.OMEGA_H_SC
        return Region.OMEGA_A_AIR

    breaks = [-0.01, -0.004, -0.002, 0.002, 0.004, 0.01]
    return _structured_mesh(breaks, breaks, 0.001, region)
