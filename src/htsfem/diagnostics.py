"""Post-processing: interface flux profiles, tape current profiles and
a scalar oscillation measure.

Profiles are sampled element-locally, without interpolation smoothing,
so that discretization oscillations survive into the data.  Fields are
evaluated by the assembly's basis kernels: one point location and one
sparse product with ``field_operator`` per profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._geom import tri_geometry
from .materials import MU0
from .mesh import Mesh2D, Region
from .spaces import DofSpace
from .assembly import field_operator, tape_current_density


class SamplingError(ValueError):
    pass


# samples below this fraction of the largest magnitude carry no sign
SIGN_TOL_REL = 1e-9


@dataclass
class ProfileSample:
    """Sampled 1D profile: strictly increasing positions (m) and the
    sampled values."""

    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.positions) < 3:
            raise SamplingError("a profile needs at least 3 samples")
        if np.any(np.diff(self.positions) <= 0.0):
            raise SamplingError("positions must be strictly increasing")

    def to_csv(self, path):
        lines = ["position,value"]
        for p, v in zip(self.positions, self.values):
            lines.append(f"{p:.17g},{v:.17g}")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")


def _ranges(first, count):
    """The concatenated ranges first[k], ..., first[k] + count[k] - 1."""
    return np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())


def locate_points(mesh: Mesh2D, points, region):
    """Containing triangle of ``region`` and barycentric coordinates
    per point: the first triangle of ``mesh.region_tris(region)`` whose
    barycentric coordinates at the point are all at least -1e-10.

    The triangles are binned on a grid by their bounding boxes, widened
    by that tolerance, and each point is tested only against the
    triangles of its bin, in region order."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    cand = mesh.region_tris(region)
    _, grads = tri_geometry(mesh, cand)
    corners = mesh.nodes[mesh.triangles[cand]]
    p0 = corners[:, 0]
    # a point whose coordinates are all >= -eps lies less than 2 eps
    # times the triangle's extent outside its bounding box
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    pad = 1e-9 * (hi - lo).max(axis=1, keepdims=True)
    lo, hi = lo - pad, hi + pad
    n_bins = max(1, int(np.sqrt(len(cand))))
    origin, size = lo.min(axis=0), (hi.max(axis=0) - lo.min(axis=0)) / n_bins

    def bin_of(x):
        return np.clip(((x - origin) / size).astype(np.int64), 0, n_bins - 1)

    first, span = bin_of(lo), bin_of(hi) - bin_of(lo) + 1
    n_cells = span[:, 0] * span[:, 1]
    tri = np.repeat(np.arange(len(cand)), n_cells)
    k = _ranges(np.zeros_like(n_cells), n_cells)
    cell = (first[tri, 0] + k // span[tri, 1]) * n_bins + first[tri, 1] + k % span[tri, 1]
    order = np.lexsort((tri, cell))                 # by bin, then region order
    binned = tri[order]
    starts = np.searchsorted(cell[order], np.arange(n_bins * n_bins + 1))

    # every pair of a point and a triangle of its bin
    cell = bin_of(points) @ np.array([n_bins, 1])
    count = starts[cell + 1] - starts[cell]
    point = np.repeat(np.arange(len(points)), count)
    c = binned[_ranges(starts[cell], count)]
    d = points[point] - p0[c]
    l1 = np.einsum("td,td->t", grads[c, 1, :], d)
    l2 = np.einsum("td,td->t", grads[c, 2, :], d)
    l0 = 1.0 - l1 - l2
    hits = np.flatnonzero((l0 >= -1e-10) & (l1 >= -1e-10) & (l2 >= -1e-10))
    found, at = np.unique(point[hits], return_index=True)
    if len(found) < len(points):
        missing = np.setdiff1d(np.arange(len(points)), found)[0]
        raise SamplingError(f"point {points[missing]} lies outside the sampled region")
    t = hits[at]
    return cand[c[t]], np.column_stack([l0[t], l1[t], l2[t]])


def _bar_extent(mesh: Mesh2D):
    segs = mesh.interface_segments
    xs = mesh.nodes[np.unique(segs), 0]
    ys = mesh.nodes[np.unique(segs), 1]
    return xs.min(), xs.max(), ys.max()


def sample_bn_profile(h_space: DofSpace, a_space: DofSpace, solution, offset: float,
                      side: str, n_samples: int) -> ProfileSample:
    """Normal flux density along a horizontal line offset from the
    conductor/ferromagnet interface of the stacked-bar problem.

    ABOVE samples b = curl a in the a-side material; BELOW samples
    b = mu0 h inside the conductor.  The normal is the conductor's
    outward normal at the top face (+y).
    """
    h_full, a_full = solution
    mesh = h_space.mesh
    x0, x1, y_top = _bar_extent(mesh)
    if offset <= 0.0:
        raise SamplingError("offset must be positive")
    side = side.upper()
    if side == "ABOVE":
        y = y_top + offset
        region = Region.OMEGA_A_FERRO
    elif side == "BELOW":
        y = y_top - offset
        region = Region.OMEGA_H_SC
    else:
        raise SamplingError("side must be ABOVE or BELOW")

    pad = 1e-9 * (x1 - x0)
    xs = np.linspace(x0 + pad, x1 - pad, n_samples)
    pts = np.column_stack([xs, np.full_like(xs, y)])
    tri_ids, barys = locate_points(mesh, pts, region=region)

    if side == "ABOVE":
        vals = (field_operator(a_space, tri_ids, barys) @ a_full)[1::2]
    else:
        vals = MU0 * (field_operator(h_space, tri_ids, barys) @ h_full)[1::2]
    return ProfileSample(xs, vals)


def sample_tape_current(t_space: DofSpace, t_full, j_c: float) -> ProfileSample:
    """Current density per tape element at segment midpoints, divided
    by j_c (dimensionless profile)."""
    mesh = t_space.mesh
    segs = mesh.interface_segments
    j = tape_current_density(t_space, t_full) / j_c
    mids = 0.5 * (mesh.nodes[segs[:, 0]] + mesh.nodes[segs[:, 1]])
    # abscissa along the tape; horizontal tapes sample by x
    s = np.concatenate([[0.0], np.cumsum(mesh.segment_lengths(segs))])
    pos = 0.5 * (s[:-1] + s[1:]) + mids[0, 0] - 0.5 * (s[1] - s[0])
    return ProfileSample(pos, j)


def oscillation_metric(profile: ProfileSample) -> float:
    """Total variation of the profile over its range: 1 for monotone
    profiles, growing with every additional oscillation."""
    v = profile.values
    rng = v.max() - v.min()
    if rng == 0.0:
        return 1.0
    return float(np.abs(np.diff(v)).sum() / rng)


def sign_changes(values) -> int:
    """Count of strict sign alternations, ignoring samples below
    SIGN_TOL_REL of the largest magnitude."""
    v = np.asarray(values, dtype=float)
    scale = np.abs(v).max()
    if scale == 0.0:
        return 0
    s = np.sign(v[np.abs(v) > SIGN_TOL_REL * scale])
    return int(np.sum(s[1:] != s[:-1]))

