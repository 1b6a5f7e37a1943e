"""One workload process: imports htsfem from the checkout's ``src`` and
runs a workload's CLI invocations through ``htsfem.cli.main``.

Modes:

* ``probe`` -- resolve the workload's first configuration, then print
  the monotonic clock (the parent subtracts its launch time: set-up).
* ``env``   -- like ``probe``, then print the library versions and BLAS.
* ``run``   -- run the workload; write run time, exit codes and peak
  memory to ``<out>/result.json``.
* ``traced`` -- ``run`` with timing wrappers; spans go in the result too.

Usage: python3 perfbench/child.py MODE --workload W --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import htsfem.cli  # noqa: E402
import htsfem.config  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _blas_info():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["probe", "env", "run", "traced"])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    src = (ROOT / "src" / "htsfem").resolve()
    if Path(htsfem.cli.__file__).resolve().parent != src:
        print(f"htsfem imported from {htsfem.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    runs = workloads.invocations(args.workload, args.seed)
    argvs = []
    for tag, cfg, cli_args in runs:
        path = args.out / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        argvs.append(cli_args + ["--config", str(path),
                                 "--out", str(args.out / tag), "--quiet"])

    if args.mode in ("probe", "env"):
        htsfem.config.load_config(args.out / f"{runs[0][0]}.json")
        ready = time.monotonic()
        info = _blas_info() if args.mode == "env" else {}
        print(json.dumps({"ready": ready, **info}))
        return 0

    tracer = spans.Tracer()
    codes = []
    with (spans.patched(tracer) if args.mode == "traced" else nullcontext()):
        t0 = time.perf_counter()
        for run_id, cli_argv in enumerate(argvs):
            tracer.run_id = run_id
            codes.append(htsfem.cli.main(cli_argv))
        run_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"run_s": run_s, "exit_codes": codes, "peak_rss_mb": peak_kb / 1024.0,
              "spans": tracer.to_json()}
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
