"""Numerical inf-sup test over a mesh-refinement sequence.

For a scenario and a space pairing (i, j), each mesh contributes the
pair (beta, ||b||): the square roots of the smallest and largest
nonzero eigenvalues of the coupling pencil.  A log-log slope of beta
against the element size, fitted on the finer half of the sequence,
classifies the pairing: a bounded beta indicates a stable pairing,
beta shrinking linearly with the element size an unstable one.

A sweep runs all requested pairings in one pass over the meshes.  Per
mesh, it builds each space once and factors one norm per side of the
pencil, of the richest order, as one bordered factorization (see
``linalg.interface_schur``); a lower order of the hierarchical basis
takes the leading block of that norm and of its factor.  The mesh
picks the field space: H on the bar's GAMMA_M, which runs h-a, T on
the tape's GAMMA_W, which runs t-a.  No pencil holds an eigenvector on
the whole potential space beyond its two checked ones.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .assembly import (NormSpec, assemble_coupling_matrix, assemble_norm_matrix,
                       field_operator, tape_current_density)
from .linalg import (DegenerateCouplingError, EigenResult, SingularSystemError,
                     infsup_eigenpairs, interface_schur)
from .mesh import (GeometryParams, Interface, Scenario, build_stacked_bar_mesh,
                   build_tape_mesh, refine)
from .spaces import build_a_space, build_h_space, build_t_space

SLOPE_FLAT = 0.3
SLOPE_LINEAR = (0.7, 1.3)
BOUNDED_RATIO = 0.5


@dataclass
class SweepRecord:
    delta_rel: float          # element size over the reference width
    beta: float
    b_norm: float
    n_nonzero: int


@dataclass
class InfSupReport:
    formulation: str
    pairing: tuple
    records: list = field(default_factory=list)
    slope: float = float("nan")
    slope_band: float = float("nan")   # 95% half-width
    verdict: str = "INCONCLUSIVE"

    def to_json(self, path):
        data = {
            "formulation": self.formulation,
            "pairing": list(self.pairing),
            "records": [{"meshsize": r.delta_rel, "beta": r.beta,
                         "normb": r.b_norm, "n_nonzero": r.n_nonzero}
                        for r in self.records],
            "slope": self.slope,
            "slope_95_band": self.slope_band if np.isfinite(self.slope_band) else None,
            "verdict": self.verdict,
        }
        with open(path, "w") as f:
            f.write(json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n")

    def to_csv(self, path):
        _write_csv(path, "meshsize,beta,normb",
                   [(r.delta_rel, r.beta, r.b_norm) for r in self.records])


def _write_csv(path, header, rows):
    """Rows of floats as CSV lines under ``header``, to 17 digits."""
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _fit_slope(deltas, betas):
    """OLS slope of log beta vs log delta on the finest half, with a
    95% confidence half-width."""
    n = len(deltas)
    k = max(2, -(-n // 2))              # ceil(n/2), at least 2 points
    x = np.log(np.asarray(deltas[-k:]))
    y = np.log(np.asarray(betas[-k:]))
    A = np.column_stack([x, np.ones_like(x)])
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    if k > 2 and res.size:
        sigma2 = float(res[0]) / (k - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        band = 1.96 * np.sqrt(sigma2 / sxx)
    else:
        band = float("inf") if k <= 2 else 0.0
    return slope, float(band)


def _verdict(slope, betas):
    bounded = min(betas) > BOUNDED_RATIO * max(betas)
    if abs(slope) < SLOPE_FLAT and bounded:
        return "STABLE"
    if SLOPE_LINEAR[0] <= slope <= SLOPE_LINEAR[1]:
        return "UNSTABLE"
    return "INCONCLUSIVE"


def _field_space(mesh, order: int):
    """The current-driven field space: T on a tape, H on a conductor."""
    build = build_t_space if mesh.interface_tag is Interface.GAMMA_W else build_h_space
    return build(mesh, enrichment=order, mode="current")


def build_pairing(mesh, pairing):
    """Field/potential space pair for an inf-sup evaluation (test-space
    constraints: zero imposed current, zero outer trace)."""
    i, j = pairing
    return _field_space(mesh, i), build_a_space(mesh, enrichment=j)


class HierarchyError(RuntimeError):
    """A lower-order space is not the leading part of the richer one,
    so the two cannot share one norm factor."""


class InfSupMatrix(dict):
    """``{pairing: InfSupReport}`` of one sweep, with its telemetry:
    ``sizes`` (one entry per mesh level; ``peak_rss_mb`` is the process's
    peak resident memory after it), ``counters`` and ``phases``,
    the seconds spent building meshes, building spaces and in the rest
    of the sweep (assembly, factorizations and eigensolves)."""

    def __init__(self, reports):
        super().__init__(reports)
        self.sizes = []
        self.phases = {"mesh": 0.0, "spaces": 0.0, "sweep": 0.0}
        self.counters = {"mesh_levels": 0, "field_norm_factorizations": 0,
                         "interior_factorizations": 0, "pencils": 0,
                         "full_space_pair_checks": 0}


@contextmanager
def _located(level, pairing=None):
    """Tag a solver failure with the mesh level and the pairing whose
    pencil failed (None for a step that every pairing shares)."""
    try:
        yield
    except (SingularSystemError, DegenerateCouplingError) as err:
        err.context = {"level": level,
                       "pairing": None if pairing is None else list(pairing)}
        raise


def _leading_rows(low, high, rows, level) -> int:
    """How many of the ascending ``rows`` of the richer space ``high``
    lie in the lower-order space ``low``, after checking that each free
    DOF of ``low`` is, by its (kind, entity), the same free DOF of ``high``."""
    at = np.concatenate([high.dof(kind, ents) for kind, ents in low.kinds.items()])
    if not np.array_equal(at[low.free], high.free[:low.n_free]):
        raise HierarchyError(
            f"level {level}: the order-{low.enrichment} {low.family} DOFs are not "
            f"the leading DOFs of the order-{high.enrichment} space")
    return int(np.searchsorted(rows, low.n_free))


def _shared_norm(spaces, rows, norms, level):
    """One side of the pencil at one level, for its ``spaces`` {order:
    space}: the richest space's norm, factored once with the ``rows``
    that the level's couplings touch last, each order's norm (a lower
    order's is the leading block) and how many of ``rows`` it holds."""
    top = spaces[max(spaces)]
    counts = {str(i): _leading_rows(s, top, rows, level) for i, s in spaces.items()}
    N = assemble_norm_matrix(top, norms)
    with _located(level):
        factor = interface_schur(N, rows)
    blocks = {i: N if s is top else N[:s.n_free, :s.n_free] for i, s in spaces.items()}
    return factor, blocks, counts


def _sweep_level(mesh, pairings, norms, level, reports, width_ref):
    """One mesh level of every pairing: each distinct space is built
    once, and each side of the pencil factors one norm, of its richest
    order, with the union of the columns (field side, N_V) or rows
    (potential side, N_Q) that the level's couplings touch last
    (``_shared_norm``).  Every pairing gets those two factors; a lower
    order takes the leading block of the richer norm, and the pencil
    reads the leading rows of its factor."""
    start = time.perf_counter()
    v_sp = {i: _field_space(mesh, i) for i in sorted({p[0] for p in pairings})}
    q_sp = {j: build_a_space(mesh, enrichment=j) for j in sorted({p[1] for p in pairings})}
    reports.phases["spaces"] += time.perf_counter() - start
    B = {pair: assemble_coupling_matrix(v_sp[pair[0]], q_sp[pair[1]]) for pair in pairings}
    cols = np.unique(np.concatenate([b.indices for b in B.values()]))
    P = np.unique(np.concatenate([np.flatnonzero(np.diff(b.indptr)) for b in B.values()]))
    lu_v, N_V, n_c = _shared_norm(v_sp, cols, norms, level)
    interior, N_Q, n_p = _shared_norm(q_sp, P, norms, level)
    reports.counters["field_norm_factorizations"] += 1
    reports.counters["interior_factorizations"] += 1
    sizes = {
        "field_free_dofs": {str(i): int(s.n_free) for i, s in v_sp.items()},
        "potential_free_dofs": {str(j): int(s.n_free) for j, s in q_sp.items()},
        "coupled_columns": n_c,
        "coupled_rows": n_p,
        "interior_dofs": len(interior.order) - len(interior.rows),
        "field_norm_fill": lu_v.fill,
        "potential_norm_fill": interior.fill,
    }

    for pair in pairings:
        i, j = pair
        with _located(level, pair):
            eig = infsup_eigenpairs(B[pair], N_V[i], N_Q[j], lu_v=lu_v, interior=interior)
        reports.counters["pencils"] += 1
        reports.counters["full_space_pair_checks"] += len(eig.checked)
        reports[pair].records.append(SweepRecord(
            mesh.delta / width_ref, eig.beta, eig.b_norm, len(eig.eigenvalues)))
    sizes["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reports.sizes.append(sizes)


def run_infsup_sweep(params: GeometryParams, pairings, n_refinements: int,
                     norms: NormSpec) -> InfSupMatrix:
    """Inf-sup test of every pairing (i, j) in ``pairings`` on the base
    mesh of ``params`` plus ``n_refinements`` uniform refinements
    (n_refinements + 1 meshes, coarse to fine), in one pass over the
    meshes: h-a on the stacked bar, t-a on the tape.  Returns
    ``{pairing: InfSupReport}``.

    A solver failure carries ``context``: the mesh level and the
    pairing, or None for a factorization that all pairings share.
    """
    if n_refinements < 3:
        raise ValueError("n_refinements must be >= 3")
    pairings = list(dict.fromkeys(tuple(p) for p in pairings))
    if not pairings:
        raise ValueError("no pairing given")
    start = time.perf_counter()
    if params.scenario is Scenario.STACKED_BAR:
        mesh, width_ref, formulation = build_stacked_bar_mesh(params), params.bar_width, "ha"
    else:
        mesh, width_ref, formulation = build_tape_mesh(params), params.tape_width, "ta"
    mesh_s = time.perf_counter() - start

    reports = InfSupMatrix({pair: InfSupReport(formulation, pair) for pair in pairings})

    for level in range(n_refinements + 1):
        if level > 0:
            tick = time.perf_counter()
            mesh = refine(mesh)
            mesh_s += time.perf_counter() - tick
        reports.counters["mesh_levels"] += 1
        _sweep_level(mesh, pairings, norms, level, reports, width_ref)
    reports.phases["mesh"] = mesh_s
    reports.phases["sweep"] = time.perf_counter() - start - mesh_s - reports.phases["spaces"]

    for rep in reports.values():
        deltas = [r.delta_rel for r in rep.records]
        betas = [r.beta for r in rep.records]
        rep.slope, rep.slope_band = _fit_slope(deltas, betas)
        rep.verdict = _verdict(rep.slope, betas)
    return reports


def export_eigenmode(v_space, q_space, B, eig: EigenResult, mode_rank: int, out_prefix):
    """Write one eigenmode as point clouds: the potential eigenvector at
    the a-nodes and the supremizer v = N_V^{-1} B^T q, which achieves the
    sup for q, sampled on elements.  Only q is extended to I, and v is
    solved with the pencil's factor of N_V (``eig.field``, which may
    factor a richer norm), as in the full-space check."""
    if not (0 <= mode_rank < len(eig.eigenvalues)):
        raise IndexError("mode rank out of range")
    mesh = q_space.mesh
    q_free = eig.interior.extend(eig.Y[:, mode_rank])
    q_full = q_space.expand(q_free, np.zeros(q_space.n_dofs))
    dof = q_space.entity_dofs("node", mesh.n_nodes)
    nodes = np.argsort(dof)[np.count_nonzero(dof < 0):]     # a-nodes in DOF order
    _write_csv(f"{out_prefix}_potential.csv", "x,y,value",
               np.column_stack([mesh.nodes[nodes], q_full[dof[nodes]]]).tolist())

    v_full = v_space.expand(eig.field.coupled_solve(B.T @ q_free), np.zeros(v_space.n_dofs))
    if v_space.family == "H":
        tris = v_space.meta["sc_tris"]
        h = field_operator(v_space, tris, np.full((len(tris), 3), 1.0 / 3.0)) @ v_full
        points = mesh.nodes[mesh.triangles[tris]].mean(axis=1)
        values = np.hypot(*h.reshape(-1, 2).T)
    else:
        points = mesh.nodes[mesh.interface_segments].mean(axis=1)
        values = tape_current_density(v_space, v_full)
    _write_csv(f"{out_prefix}_supremizer.csv", "x,y,value",
               np.column_stack([points, values]).tolist())
    return q_full, v_full
