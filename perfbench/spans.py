"""Tracing from outside the package: timing wrappers substituted for the
module and class attributes that htsfem's callers look up at call time.

Each wrapped call records a span (name, start, end, parent, run id,
attributes) in memory; nothing is written until the caller asks for
the spans.  ``patched`` restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Span recorder; ``run_id`` tags the spans of one CLI invocation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid].start, self.spans[sid].end = start, end
            if attrs is not None:
                self.spans[sid].attrs = attrs(args, out)
            return out
        return wrapper

    def to_json(self):
        return [asdict(s) for s in self.spans]


def _system_size(args, out):
    return {"n": int(args[0].shape[0]), "nnz": int(args[0].nnz)}


def _coupled_rows(args, out):
    return {"coupled_rows": int(np.count_nonzero(np.diff(args[0].tocsr().indptr)))}


def _history(args, out):
    return {"steps": out.n_steps, "newton_iters": int(sum(out.newton_iters))}


def _dofs(args, out):
    return {"dofs": int(out.n_dofs)}


def _triangles(args, out):
    return {"triangles": int(out.n_triangles)}


# (owner, attribute, span name, attribute extractor).  The owner is a
# module, or "module:Class" for a method; each entry is an attribute the
# calling code looks up when it runs, so substituting it is seen there.
TARGETS = [
    ("htsfem.cli", "main", "cli.main", None),
    ("htsfem.config", "load_config", "cli.config", None),
    ("htsfem.config", "dump_resolved", "cli.write", None),
    ("htsfem.cli", "_write_summary", "cli.write", None),
    ("htsfem.cli", "write_history_csv", "cli.write", None),
    ("htsfem.cli", "write_snapshots", "cli.write", None),
    ("htsfem.diagnostics:ProfileSample", "to_csv", "cli.write", None),
    ("htsfem.infsup:InfSupReport", "to_json", "cli.write", None),
    ("htsfem.infsup:InfSupReport", "to_csv", "cli.write", None),
    ("htsfem.cli", "build_stacked_bar_mesh", "mesh.build", _triangles),
    ("htsfem.cli", "build_tape_mesh", "mesh.build", _triangles),
    ("htsfem.infsup", "build_stacked_bar_mesh", "mesh.build", _triangles),
    ("htsfem.infsup", "build_tape_mesh", "mesh.build", _triangles),
    ("htsfem.infsup", "refine", "mesh.refine", _triangles),
    ("htsfem.mesh:Mesh2D", "validate", "mesh.validate", None),
    ("htsfem.cli", "build_h_space", "spaces.build", _dofs),
    ("htsfem.cli", "build_a_space", "spaces.build", _dofs),
    ("htsfem.cli", "build_t_space", "spaces.build", _dofs),
    ("htsfem.infsup", "build_h_space", "spaces.build", _dofs),
    ("htsfem.infsup", "build_a_space", "spaces.build", _dofs),
    ("htsfem.infsup", "build_t_space", "spaces.build", _dofs),
    ("htsfem.cli", "run_transient", "transient.run", _history),
    ("htsfem.cli", "circuit_post", "transient.post", None),
    ("htsfem.transient", "assemble_ha_iteration", "assembly.iteration", None),
    ("htsfem.transient", "assemble_ta_iteration", "assembly.iteration", None),
    ("htsfem.transient", "solve_sparse", "linalg.solve_sparse", _system_size),
    ("htsfem.cli", "run_infsup_sweep", "infsup.sweep", None),
    ("htsfem.infsup", "assemble_coupling_matrix", "assembly.coupling", None),
    ("htsfem.infsup", "assemble_norm_matrix", "assembly.norm", None),
    ("htsfem.infsup", "infsup_eigenpairs", "linalg.eigenpairs", _coupled_rows),
    ("htsfem.cli", "sample_bn_profile", "diagnostics.sample", None),
    ("htsfem.cli", "sample_tape_current", "diagnostics.sample", None),
    ("htsfem.cli", "oscillation_metric", "diagnostics.sample", None),
    ("htsfem.cli", "sign_changes", "diagnostics.sample", None),
]


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Substitute timing wrappers for ``targets``; restore on exit."""
    saved = []
    try:
        for owner_path, attr, name, attrs in targets:
            owner = _owner(owner_path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one span run one after another, never overlapping)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _percentile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# name -> (unit, better); the traced run reports exactly these.
PER_LAYER = {
    "linalg.solve_sparse_s": ("s", "lower"),
    "linalg.solve_sparse_calls": ("count", "lower"),
    "linalg.solve_sparse_p50_ms": ("ms", "lower"),
    "linalg.solve_sparse_p95_ms": ("ms", "lower"),
    "linalg.solve_sparse_n": ("count", "lower"),
    "linalg.solve_sparse_nnz": ("count", "lower"),
    "linalg.eigenpairs_s": ("s", "lower"),
    "linalg.eigenpairs_calls": ("count", "lower"),
    "linalg.eigenpairs_p50_ms": ("ms", "lower"),
    "linalg.eigenpairs_coupled_rows": ("count", "lower"),
    "assembly.iteration_s": ("s", "lower"),
    "assembly.iteration_calls": ("count", "lower"),
    "assembly.iteration_p50_ms": ("ms", "lower"),
    "assembly.iteration_p95_ms": ("ms", "lower"),
    "assembly.norm_s": ("s", "lower"),
    "assembly.coupling_s": ("s", "lower"),
    "transient.run_s": ("s", "lower"),
    "transient.self_s": ("s", "lower"),
    "transient.steps": ("count", "lower"),
    "transient.newton_iters": ("count", "lower"),
    "transient.useful_solve_ratio": ("ratio", "higher"),
    "transient.assemblies_per_iter": ("ratio", "lower"),
    "mesh.build_s": ("s", "lower"),
    "mesh.refine_s": ("s", "lower"),
    "mesh.validate_s": ("s", "lower"),
    "mesh.validate_calls": ("count", "lower"),
    "mesh.triangles_max": ("count", "lower"),
    "spaces.build_s": ("s", "lower"),
    "spaces.build_calls": ("count", "lower"),
    "spaces.dofs_max": ("count", "lower"),
    "infsup.sweep_s": ("s", "lower"),
    "infsup.self_s": ("s", "lower"),
    "infsup.mesh_levels_built": ("count", "lower"),
    "diagnostics.sample_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "failed_frac": ("ratio", "lower"),
}


def layer_metrics(spans, traced_run_s, untraced_run_s, bytes_written,
                  failed_frac) -> dict:
    """The PER_LAYER metrics of one traced run.

    Times are self times: ``mesh.build_s`` and ``mesh.refine_s``
    exclude the ``mesh.validate`` calls inside them, and
    ``transient.self_s``/``infsup.self_s`` exclude every wrapped call
    made from the run or the sweep.  ``trace.coverage`` is the share of
    the traced run time spent in self time of spans below ``cli.main``.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[i] for i in idx(name))

    def total_s(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx(name))

    def durations_ms(name):
        return [1e3 * (spans[i]["end"] - spans[i]["start"]) for i in idx(name)]

    def attr_max(name, key):
        return max((spans[i]["attrs"][key] for i in idx(name)), default=0)

    def attr_sum(name, key):
        return sum(spans[i]["attrs"][key] for i in idx(name))

    def under(i, name):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    solves = len(idx("linalg.solve_sparse"))
    newton = attr_sum("transient.run", "newton_iters")
    levels = sum(under(i, "infsup.sweep")
                 for i in idx("mesh.build") + idx("mesh.refine"))
    covered = sum(t for s, t in zip(spans, own) if s["parent"] is not None)
    values = {
        "linalg.solve_sparse_s": self_s("linalg.solve_sparse"),
        "linalg.solve_sparse_calls": solves,
        "linalg.solve_sparse_p50_ms": _percentile(durations_ms("linalg.solve_sparse"), 0.5),
        "linalg.solve_sparse_p95_ms": _percentile(durations_ms("linalg.solve_sparse"), 0.95),
        "linalg.solve_sparse_n": attr_max("linalg.solve_sparse", "n"),
        "linalg.solve_sparse_nnz": attr_max("linalg.solve_sparse", "nnz"),
        "linalg.eigenpairs_s": self_s("linalg.eigenpairs"),
        "linalg.eigenpairs_calls": len(idx("linalg.eigenpairs")),
        "linalg.eigenpairs_p50_ms": _percentile(durations_ms("linalg.eigenpairs"), 0.5),
        "linalg.eigenpairs_coupled_rows": attr_max("linalg.eigenpairs", "coupled_rows"),
        "assembly.iteration_s": self_s("assembly.iteration"),
        "assembly.iteration_calls": len(idx("assembly.iteration")),
        "assembly.iteration_p50_ms": _percentile(durations_ms("assembly.iteration"), 0.5),
        "assembly.iteration_p95_ms": _percentile(durations_ms("assembly.iteration"), 0.95),
        "assembly.norm_s": self_s("assembly.norm"),
        "assembly.coupling_s": self_s("assembly.coupling"),
        "transient.run_s": total_s("transient.run"),
        "transient.self_s": self_s("transient.run"),
        "transient.steps": attr_sum("transient.run", "steps"),
        "transient.newton_iters": newton,
        "transient.useful_solve_ratio": newton / solves if solves else 0.0,
        "transient.assemblies_per_iter":
            len(idx("assembly.iteration")) / solves if solves else 0.0,
        "mesh.build_s": self_s("mesh.build"),
        "mesh.refine_s": self_s("mesh.refine"),
        "mesh.validate_s": self_s("mesh.validate"),
        "mesh.validate_calls": len(idx("mesh.validate")),
        "mesh.triangles_max": max(attr_max("mesh.build", "triangles"),
                                  attr_max("mesh.refine", "triangles")),
        "spaces.build_s": self_s("spaces.build"),
        "spaces.build_calls": len(idx("spaces.build")),
        "spaces.dofs_max": attr_max("spaces.build", "dofs"),
        "infsup.sweep_s": total_s("infsup.sweep"),
        "infsup.self_s": self_s("infsup.sweep"),
        "infsup.mesh_levels_built": levels,
        "diagnostics.sample_s": self_s("diagnostics.sample"),
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.coverage": covered / traced_run_s,
        "failed_frac": failed_frac,
    }
    return {name: {"value": (int if unit in ("count", "bytes") else float)(values[name]),
                   "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
