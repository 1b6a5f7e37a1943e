"""The benchmark's workloads: their inputs, derived from a seed, and the
checks their outputs must pass.

Seed 0 runs the reference configurations.  Any other seed scales the
transient drive amplitude by a factor in [0.95, 1.05]; for those seeds
only the seed-independent invariants are checked.  ``ha_verdict`` has
no random input.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Stacked bar, h-a pairing (2,1), delta 1 mm: the configuration `{}`.
BAR_B_EXT = 0.4                       # schema default of source.b_ext
BAR_STEPS = 80
BAR_OSCILLATION = {"oscillation_bn_above": 1.634, "oscillation_bn_below": 1.121}
BAR_OSCILLATION_RTOL = 1e-3

# Criterion-4 tape parameters.
TAPE_CONFIG = {"scenario": "single_tape", "geometry": {"delta": 0.0003125},
               "source": {"current_rel": 0.1},
               "time": {"t_end": 0.5, "n_ramp_steps": 20}}
TAPE_STEPS = 40
TAPE_MIN_CONTRAST = 5.0
TAPE_MIN_SIGN_CHANGES = 10

# Criterion-1 h-a verdict matrix: 4 pairings x 5 meshes.
HA_CONFIG = {"geometry": {"delta": 0.008, "air_half": 0.042,
                          "min_elements_across": 1},
             "sweep": {"n_refinements": 4}, "norms": {"dt0": 0.0125}}
HA_VERDICTS = {"11": "UNSTABLE", "12": "STABLE", "21": "STABLE",
               "22": "UNSTABLE"}
HA_RECORDS = 5
HA_RTOL = 1e-6
HA_REFERENCE = Path(__file__).with_name("ha_verdict_reference.json")

WORKLOADS = {
    "bar_solve": "default stacked-bar solve: time goes to the transient "
                 "path, mostly sparse factorization of the coupled system",
    "tape_contrast": "tape (1,1) then (1,2): tiny nonlinear block in a large "
                     "linear a-block, so factoring the linear block dominates",
    "ha_verdict": "h-a inf-sup verdict matrix: mesh sequence, norm assembly "
                  "and dense eigensolves; no Newton, no transient solve",
}


def drive_factor(seed: int) -> float:
    """Scale of the transient drive amplitude: 1 at seed 0, otherwise
    drawn from [0.95, 1.05]."""
    if seed == 0:
        return 1.0
    return 0.95 + 0.1 * random.Random(seed).random()


def invocations(workload: str, seed: int):
    """The CLI runs of a workload as (tag, config, argv) triples; the
    caller adds --config and --out."""
    f = drive_factor(seed)
    if workload == "bar_solve":
        cfg = {} if seed == 0 else {"source": {"b_ext": BAR_B_EXT * f}}
        return [("solve", cfg, ["solve"])]
    if workload == "tape_contrast":
        cfg = json.loads(json.dumps(TAPE_CONFIG))
        cfg["source"]["current_rel"] *= f
        return [("p11", cfg, ["solve", "--pairing", "1,1"]),
                ("p12", cfg, ["solve", "--pairing", "1,2"])]
    if workload == "ha_verdict":
        return [("all", HA_CONFIG, ["infsup", "--pairing", "all"])]
    raise ValueError(f"unknown workload {workload!r}")


def _read_json(path: Path):
    with open(path) as f:
        return json.load(f)


def _close(value, ref, rtol):
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def check(workload: str, seed: int, outdir: Path) -> list[str]:
    """Failures of one workload run whose CLI outputs are under
    ``outdir/<tag>``; an empty list means the run is correct."""
    try:
        if workload == "bar_solve":
            return _check_bar(seed, outdir / "solve")
        if workload == "tape_contrast":
            return _check_tape(outdir / "p11", outdir / "p12")
        if workload == "ha_verdict":
            return _check_ha(outdir / "all")
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"unreadable output: {err!r}"]
    raise ValueError(f"unknown workload {workload!r}")


def _check_bar(seed, out):
    run = _read_json(out / "run.json")
    fails = []
    if run["steps"] != BAR_STEPS:
        fails.append(f"bar steps {run['steps']} != {BAR_STEPS}")
    if seed == 0:
        for key, ref in BAR_OSCILLATION.items():
            got = run["metrics"][key]
            if not _close(got, ref, BAR_OSCILLATION_RTOL):
                fails.append(f"{key} {got} != {ref} (rtol {BAR_OSCILLATION_RTOL})")
    return fails


def _check_tape(out11, out12):
    run11, run12 = _read_json(out11 / "run.json"), _read_json(out12 / "run.json")
    fails = [f"tape {tag} steps {run['steps']} != {TAPE_STEPS}"
             for tag, run in (("(1,1)", run11), ("(1,2)", run12))
             if run["steps"] != TAPE_STEPS]
    contrast = (run11["metrics"]["oscillation_tape_current"]
                / run12["metrics"]["oscillation_tape_current"])
    if not contrast >= TAPE_MIN_CONTRAST:
        fails.append(f"tape contrast {contrast:.3f} < {TAPE_MIN_CONTRAST}")
    changes = run11["metrics"]["interior_sign_changes"]
    if changes < TAPE_MIN_SIGN_CHANGES:
        fails.append(f"tape (1,1) sign changes {changes} < {TAPE_MIN_SIGN_CHANGES}")
    return fails


def _check_ha(out):
    reference = _read_json(HA_REFERENCE)
    fails = []
    for tag, verdict in HA_VERDICTS.items():
        rep = _read_json(out / f"infsup_{tag}.json")
        if rep["verdict"] != verdict:
            fails.append(f"pairing {tag} verdict {rep['verdict']} != {verdict}")
        records = rep["records"]
        if len(records) != HA_RECORDS:
            fails.append(f"pairing {tag} has {len(records)} records, not {HA_RECORDS}")
            continue
        for k, (rec, ref) in enumerate(zip(records, reference[tag])):
            for key in ("beta", "normb"):
                if not _close(rec[key], ref[key], HA_RTOL):
                    fails.append(f"pairing {tag} record {k} {key} {rec[key]} "
                                 f"!= {ref[key]} (rtol {HA_RTOL})")
            if not 1.0 <= rec["normb"] <= 2.0:
                fails.append(f"pairing {tag} record {k} normb {rec['normb']} "
                             "outside [1, 2]")
    return fails
