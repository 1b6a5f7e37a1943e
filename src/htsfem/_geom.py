"""Shared element geometry helpers."""

from __future__ import annotations

import numpy as np


def tri_geometry(mesh, tri_ids):
    """Areas and barycentric gradients for a set of triangles.

    Returns (areas, grads) with grads of shape (T, 3, 2) such that
    grads[t, i] is the constant gradient of the hat function of local
    node i on triangle t.
    """
    tris = mesh.triangles[tri_ids]
    p = mesh.nodes[tris]                       # (T, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    grads = np.empty((len(tris), 3, 2))
    # grad(lambda_i) = perp(p_{i+1} - p_{i+2}) / (2A), perp = rotate +90deg
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return areas, grads


# degree-4 rule on the reference triangle, 6 points (barycentric, weights sum 1)
_A1, _B1, _W1 = 0.445948490915965, 0.108103018168070, 0.223381589678011
_A2, _B2, _W2 = 0.091576213509771, 0.816847572980459, 0.109951743655322
TRI_QP = np.array([
    [_B1, _A1, _A1], [_A1, _B1, _A1], [_A1, _A1, _B1],
    [_B2, _A2, _A2], [_A2, _B2, _A2], [_A2, _A2, _B2],
])
TRI_QW = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

# 3-point Gauss on [0, 1] (degree 5)
_S = np.sqrt(0.6)
LINE_QP = np.array([0.5 * (1.0 - _S), 0.5, 0.5 * (1.0 + _S)])
LINE_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
