"""Command-line entry point.

Subcommands:

* ``solve``     -- transient run with profile and oscillation outputs.
* ``infsup``    -- stability sweep, report as JSON and CSV.
* ``mesh``      -- emit the scenario mesh in the native format.
* ``eigenmode`` -- export one eigenmode of the inf-sup pencil.

Outputs land in one directory per run: ``config.resolved.json``, data
CSVs and a ``run.json`` summary.  Runs are deterministic: repeated
invocations with the same configuration produce byte-identical files.
Exit codes: 0 success, 2 configuration error, 3 any solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .assembly import assemble_coupling_matrix, assemble_norm_matrix
from .diagnostics import (oscillation_metric, sample_bn_profile,
                          sample_tape_current, sign_changes)
from .infsup import build_pairing, export_eigenmode, run_infsup_sweep
from .linalg import DegenerateCouplingError, SingularSystemError, infsup_eigenpairs
from .mesh import (Scenario, build_stacked_bar_mesh, build_tape_mesh,
                   write_native)
from .spaces import build_a_space, build_h_space, build_t_space
from .transient import NonConvergenceError, circuit_post, run_transient, \
    write_history_csv, write_snapshots

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _emit_error(kind, message, **context):
    print(json.dumps({"error": kind, "message": str(message), **context},
                     sort_keys=True, allow_nan=False))


def _emit_nonconvergence(err: NonConvergenceError):
    """The error line of a failed step: its index, the time and step size
    of the last attempt and that attempt's residual trace, with a
    non-finite residual written as null."""
    residuals = err.residuals
    if residuals is not None:
        residuals = [float(r) if np.isfinite(r) else None for r in residuals]
    _emit_error("nonconvergence", err, step=err.step, t=err.t, dt=err.dt,
                residuals=residuals)


def _build_mesh(cfg):
    params = cfgmod.make_geometry(cfg)
    if params.scenario is Scenario.STACKED_BAR:
        return build_stacked_bar_mesh(params)
    return build_tape_mesh(params)


def _build_spaces(cfg, mesh):
    i, j = cfg["pairing"]
    build = build_h_space if cfg["scenario"] == "stacked_bar" else build_t_space
    return build(mesh, i, cfgmod.circuit(cfg)[0]), build_a_space(mesh, j)


def _phase(phases, name, start):
    """Record the seconds since ``start`` as phase ``name``; returns now."""
    now = _time.perf_counter()
    phases[name] = round(now - start, 3)
    return now


def cmd_solve(cfg, outdir: Path, quiet=False) -> int:
    t0 = tick = _time.perf_counter()
    phases = {}
    mesh = _build_mesh(cfg)
    tick = _phase(phases, "mesh", tick)
    v_space, q_space = _build_spaces(cfg, mesh)
    tick = _phase(phases, "spaces", tick)
    materials = cfgmod.make_materials(cfg)
    timecfg = cfgmod.make_time(cfg)
    hist = run_transient((v_space, q_space), materials, timecfg)
    tick = _phase(phases, "transient", tick)

    sol = (hist.v[-1], hist.q[-1])
    jc = cfg["material"]["j_c"]
    samp = cfg["sampling"]
    metrics = {}
    if v_space.family == "H":
        for side in ("ABOVE", "BELOW"):
            prof = sample_bn_profile(v_space, q_space, sol,
                                     offset=samp["offset"], side=side,
                                     n_samples=samp["n_samples"])
            prof.to_csv(outdir / f"profile_bn_{side.lower()}.csv")
            metrics[f"oscillation_bn_{side.lower()}"] = oscillation_metric(prof)
    else:
        prof = sample_tape_current(v_space, hist.v[-1], j_c=jc)
        prof.to_csv(outdir / "profile_tape_current.csv")
        metrics["oscillation_tape_current"] = oscillation_metric(prof)
        metrics["interior_sign_changes"] = sign_changes(prof.values[3:-3])

    vals = circuit_post(hist, (v_space, q_space))
    name = "voltage" if v_space.circuit.mode == "current" else "current"
    write_history_csv(hist, name, vals, outdir / f"history_{name}.csv")
    write_history_csv(hist, "newton_iterations", hist.newton_iters,
                      outdir / "history_newton.csv")
    write_snapshots(hist, outdir)
    with open(outdir / "oscillation_metrics.json", "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    _phase(phases, "write", tick)

    summary = {
        "command": "solve",
        "steps": hist.n_steps,
        "newton_iterations_total": int(np.sum(hist.newton_iters)),
        "newton_iterations_max": int(np.max(hist.newton_iters)),
        "final_residual": float(hist.final_residuals[-1]),
        "metrics": metrics,
        "sizes": hist.sizes,
        "counters": hist.counters,
        "phases": phases,
        "wall_seconds": round(_time.perf_counter() - t0, 3),
    }
    _write_summary(outdir, summary)
    if not quiet:
        print(f"solve: {hist.n_steps} steps, metrics {metrics}")
    return EXIT_OK


def cmd_infsup(cfg, outdir: Path, pairings=None, quiet=False) -> int:
    t0 = _time.perf_counter()
    params = cfgmod.make_geometry(cfg)
    n_ref = cfg["sweep"]["n_refinements"]
    norms = cfgmod.make_norms(cfg)
    if pairings is None:
        pairings = [tuple(cfg["pairing"])]
    reports = run_infsup_sweep(params, pairings, n_ref, norms=norms)
    phases = {name: round(t, 3) for name, t in reports.phases.items()}
    tick = _time.perf_counter()
    verdicts = {}
    for (i, j), rep in reports.items():
        rep.to_json(outdir / f"infsup_{i}{j}.json")
        rep.to_csv(outdir / f"infsup_{i}{j}.csv")
        verdicts[f"{i}{j}"] = rep.verdict
        if not quiet:
            print(f"infsup ({i},{j}): {rep.verdict} slope={rep.slope:.3f}")
    _phase(phases, "write", tick)
    summary = {
        "command": "infsup",
        "verdicts": verdicts,
        "sizes": reports.sizes,
        "counters": reports.counters,
        "phases": phases,
        "wall_seconds": round(_time.perf_counter() - t0, 3),
    }
    _write_summary(outdir, summary)
    return EXIT_OK


def cmd_mesh(cfg, outdir: Path, quiet=False) -> int:
    mesh = _build_mesh(cfg)
    write_native(mesh, outdir / "mesh.txt")
    summary = {"command": "mesh", "nodes": mesh.n_nodes,
               "triangles": mesh.n_triangles, "delta": mesh.delta}
    _write_summary(outdir, summary)
    if not quiet:
        print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles")
    return EXIT_OK


def cmd_eigenmode(cfg, outdir: Path, mode_rank=0, quiet=False) -> int:
    v_space, q_space = build_pairing(_build_mesh(cfg), cfg["pairing"])
    n = q_space.n_free          # the pencil has at most n nonzero eigenvalues
    if not -n <= mode_rank < n:
        raise cfgmod.ConfigError(f"mode rank {mode_rank} outside the {n} free potential DOFs")
    norms = cfgmod.make_norms(cfg)
    B = assemble_coupling_matrix(v_space, q_space)
    N_V = assemble_norm_matrix(v_space, norms)
    N_Q = assemble_norm_matrix(q_space, norms)
    eig = infsup_eigenpairs(B, N_V, N_Q)
    n = len(eig.eigenvalues)
    if not -n <= mode_rank < n:
        raise cfgmod.ConfigError(f"mode rank {mode_rank} outside [-{n}, {n - 1}]")
    rank = mode_rank if mode_rank >= 0 else n + mode_rank
    export_eigenmode(v_space, q_space, B, eig, rank, outdir / "eigenmode")
    summary = {"command": "eigenmode", "mode_rank": rank,
               "lambda": float(eig.eigenvalues[rank]),
               "beta": eig.beta, "b_norm": eig.b_norm}
    _write_summary(outdir, summary)
    if not quiet:
        print(f"eigenmode {rank}: lambda={eig.eigenvalues[rank]:.6e}")
    return EXIT_OK


def _write_summary(outdir: Path, summary: dict):
    with open(outdir / "run.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="htsfem", description=__doc__)
    parser.add_argument("command",
                        choices=["solve", "infsup", "mesh", "eigenmode"])
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--pairing", help="space orders i,j, or 'all' for infsup")
    parser.add_argument("--refinements", type=int,
                        help="number of refinements for infsup")
    parser.add_argument("--mode-rank", type=int, default=0,
                        help="eigenmode rank for the eigenmode command")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.load_config(args.config)
        pairings = None
        if args.pairing is not None:
            if args.pairing.lower() == "all":
                if args.command != "infsup":
                    raise cfgmod.ConfigError("--pairing all applies to infsup only")
                pairings = [(1, 1), (1, 2), (2, 1), (2, 2)]
            else:
                orders = args.pairing.split(",")
                if len(orders) != 2 or any(p.strip() not in ("1", "2") for p in orders):
                    raise cfgmod.ConfigError(f"--pairing takes i,j with orders 1 or 2, or "
                                             f"'all'; got {args.pairing!r}")
                cfg["pairing"] = [int(p) for p in orders]
        if args.refinements is not None:
            cfg["sweep"]["n_refinements"] = args.refinements
        if cfg["sweep"]["n_refinements"] < 3:
            raise cfgmod.ConfigError("n_refinements must be >= 3")
        outdir = Path(args.out or cfg["output_dir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            cfgmod.dump_resolved(cfg, outdir / "config.resolved.json")
        except OSError as err:
            raise cfgmod.ConfigError(f"cannot write the output directory {outdir}: "
                                     f"{err.strerror or err}") from err
    except ValueError as err:              # ConfigError is a ValueError
        _emit_error("config", err)
        return EXIT_CONFIG

    try:
        if args.command == "solve":
            return cmd_solve(cfg, outdir, quiet=args.quiet)
        if args.command == "infsup":
            return cmd_infsup(cfg, outdir, pairings=pairings, quiet=args.quiet)
        if args.command == "mesh":
            return cmd_mesh(cfg, outdir, quiet=args.quiet)
        return cmd_eigenmode(cfg, outdir, mode_rank=args.mode_rank,
                             quiet=args.quiet)
    except NonConvergenceError as err:
        _emit_nonconvergence(err)
        return EXIT_SOLVER
    except (SingularSystemError, DegenerateCouplingError) as err:
        _emit_error("solver", err, **getattr(err, "context", {}))
        return EXIT_SOLVER
    except ValueError as err:
        _emit_error("config", err)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
