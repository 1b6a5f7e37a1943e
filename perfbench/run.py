"""The htsfem benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bar_solve --seed 0 --seconds 20 --trace 0

A closed loop with one client: this process launches one workload
process at a time (``perfbench/child.py``) and waits for it, until
``--seconds`` have passed.  Every timed run is a fresh interpreter, so
the package's assembly caches start empty as they do for a CLI user;
its outputs go to a temporary directory inside the checkout, are
checked, then removed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters importing htsfem and resolving the
configuration), ``run_s`` (median wall time of the workload's
``cli.main`` calls) and ``peak_rss_mb`` (median peak resident memory of
the workload process).  ``--trace 1`` runs the workload once untraced
and once traced and reports the per-layer metrics of ``spans.py``.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Each result is also recorded, with the environment, under
``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out"
SETUP_PROBES = 5
BUDGET_S = 170.0        # a benchmark run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """Environment of the workload processes (which import htsfem from
    this checkout themselves): temporary files inside the checkout, one
    BLAS thread.

    One thread because on a small shared machine the spinning worker
    threads of a threaded BLAS lose time slices to other work, and the
    run time spreads far more than it gains on the median."""
    env = dict(os.environ)
    env["TMPDIR"] = str(WORK / "tmp")
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    return env


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.deadline = time.monotonic() + BUDGET_S

    def _child(self, mode: str, outdir: Path):
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(outdir)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise subprocess.TimeoutExpired(cmd, 0)
        return subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=remaining)

    def probe(self, mode="probe") -> dict:
        """Set-up time of a fresh interpreter (``ready`` minus launch)."""
        outdir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK / "tmp"))
        try:
            launched = time.monotonic()
            proc = self._child(mode, outdir)
            if proc.returncode != 0:
                raise BenchError(f"{mode} failed: {proc.stderr.strip()[-2000:]}")
            info = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} timed out") from err
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        info["setup_s"] = info.pop("ready") - launched
        return info

    def run(self, mode: str) -> dict:
        """One workload process; returns its timings and check failures."""
        outdir = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=WORK / "tmp"))
        started = time.monotonic()
        rec = {"mode": mode, "failures": []}
        try:
            proc = self._child(mode, outdir)
            if proc.returncode != 0:
                rec["failures"].append(f"exit {proc.returncode}: "
                                       f"{proc.stderr.strip()[-2000:]}")
                return rec
            result = json.loads((outdir / "result.json").read_text())
            rec.update(run_s=result["run_s"], peak_rss_mb=result["peak_rss_mb"],
                       spans=result["spans"])
            tags = [tag for tag, _, _ in workloads.invocations(self.workload, self.seed)]
            rec["bytes_written"] = sum(p.stat().st_size for tag in tags
                                       for p in (outdir / tag).rglob("*") if p.is_file())
            # the CLI's own summaries (steps, Newton iterations, verdicts)
            rec["summaries"] = {tag: json.loads((outdir / tag / "run.json").read_text())
                                for tag in tags if (outdir / tag / "run.json").is_file()}
            if any(result["exit_codes"]):
                rec["failures"].append(f"cli exit codes {result['exit_codes']}: "
                                       f"{proc.stdout.strip()[-2000:]}")
            rec["failures"] += workloads.check(self.workload, self.seed, outdir)
        except subprocess.TimeoutExpired:
            rec["failures"].append("timed out")
        finally:
            rec["wall_s"] = time.monotonic() - started
            shutil.rmtree(outdir, ignore_errors=True)
        return rec


def _git_sha():
    if not (ROOT / ".git").exists():
        return None     # git would report an enclosing repository instead
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: int, trace: bool):
    nproc = len(os.sched_getaffinity(0))
    load_start = os.getloadavg()[0]
    bench = Bench(workload, seed)
    # untimed warm-up: fills the file cache with the interpreter, the
    # libraries and the package, and reports their versions
    env = bench.probe("env")
    env.pop("setup_s")
    env.update(git_sha=_git_sha(), src_sha256=_src_sha256(), nproc=nproc,
               python=platform.python_version(),
               blas_threads={var: bench.env[var] for var in BLAS_VARS})

    metrics = {}
    if trace:
        runs = [bench.run("run"), bench.run("traced")]
    else:
        setup = [bench.probe()["setup_s"] for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = statistics.median(setup)
        runs = []
        t0 = time.monotonic()
        while not runs or time.monotonic() - t0 < seconds:
            runs.append(bench.run("run"))
            # stop early rather than overrun the time limit
            if bench.deadline - time.monotonic() < 1.5 * runs[-1]["wall_s"]:
                break

    failed = sum(bool(r["failures"]) for r in runs)
    if trace:
        untraced, traced = runs
        if "spans" not in traced or "run_s" not in untraced:
            raise BenchError("traced run failed: "
                             + "; ".join(untraced["failures"] + traced["failures"]))
        metrics = spans.layer_metrics(traced["spans"], traced["run_s"],
                                      untraced["run_s"], traced["bytes_written"],
                                      failed / len(runs))
    else:
        timed = [r for r in runs if "run_s" in r]
        if not timed:
            raise BenchError("no run completed: " + "; ".join(runs[0]["failures"]))
        metrics["run_s"] = statistics.median(r["run_s"] for r in timed)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in timed)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    load_end = os.getloadavg()[0]
    env.update(load1_start=load_start, load1_end=load_end,
               contended=max(load_start, load_end) > nproc)
    return env, runs, failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "htsfem" / "cli.py").is_file():
        print(f"error: no htsfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        env, runs, failed, metrics = measure(args.workload, args.seed,
                                             args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed,
              "drive_factor": workloads.drive_factor(args.seed),
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "runs": runs}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1))

    if env["contended"]:
        print(f"warning: contended (1-min load {env['load1_start']:.2f} at start, "
              f"{env['load1_end']:.2f} at end, {env['nproc']} cores)", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"drive_factor={record['drive_factor']:.6f} trace={args.trace}: "
          f"{len(runs)} runs, {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for r in runs:
        for msg in r["failures"]:
            print(f"FAILED ({r['mode']}): {msg}")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
