"""Tests of the benchmark's own logic; none of them runs a workload.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run_id": 0, "attrs": attrs}


def test_self_times_of_nested_spans():
    s = [_span("cli.main", 0.0, 10.0),
         _span("infsup.sweep", 1.0, 7.0, 0),
         _span("mesh.refine", 2.0, 4.0, 1),
         _span("mesh.validate", 2.5, 3.5, 2),
         _span("cli.write", 8.0, 9.5, 0)]
    assert spans.self_times(s) == pytest.approx([2.5, 4.0, 1.0, 1.0, 1.5])


def test_layer_metrics_from_spans():
    s = [_span("cli.main", 0.0, 10.0),
         _span("infsup.sweep", 1.0, 9.0, 0),
         _span("mesh.build", 1.0, 2.0, 1, triangles=8),
         _span("mesh.validate", 1.5, 2.0, 2),
         _span("mesh.refine", 2.0, 4.0, 1, triangles=32),
         _span("mesh.validate", 3.0, 4.0, 4),
         _span("linalg.eigenpairs", 4.0, 8.0, 1, coupled_rows=12)]
    m = {k: v["value"] for k, v in
         spans.layer_metrics(s, 10.0, 9.0, 123, 0.0).items()}
    assert set(m) == set(spans.PER_LAYER)
    assert m["mesh.build_s"] == pytest.approx(0.5)
    assert m["mesh.refine_s"] == pytest.approx(1.0)
    assert m["mesh.validate_s"] == pytest.approx(1.5)
    assert m["mesh.validate_calls"] == 2
    assert m["mesh.triangles_max"] == 32
    assert m["infsup.sweep_s"] == pytest.approx(8.0)
    assert m["infsup.self_s"] == pytest.approx(1.0)
    assert m["infsup.mesh_levels_built"] == 2
    assert m["linalg.eigenpairs_coupled_rows"] == 12
    assert m["linalg.solve_sparse_calls"] == 0
    assert m["transient.useful_solve_ratio"] == 0.0
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert m["trace.coverage"] == pytest.approx(0.8)
    assert m["cli.bytes_written"] == 123


def test_patched_records_spans_and_restores_attributes(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def boom():
        raise RuntimeError("boom")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    targets = [("fake_layer", "outer", "outer", None),
               ("fake_layer", "inner", "inner", lambda args, out: {"out": out}),
               ("fake_layer", "boom", "boom", None)]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.patched(tracer, targets):
            tracer.run_id = 3
            assert mod.outer(1) == 4
            mod.boom()
    assert (mod.inner, mod.outer, mod.boom) == (inner, outer, boom)
    names = [(s["name"], s["parent"], s["run_id"]) for s in tracer.to_json()]
    assert names == [("outer", None, 3), ("inner", 0, 3), ("boom", None, 3)]
    assert tracer.spans[1].attrs == {"out": 2}
    assert all(s.end >= s.start > 0.0 for s in tracer.spans)


def test_patched_restores_every_htsfem_target():
    owners = [(spans._owner(o), a) for o, a, _, _ in spans.TARGETS]
    before = [vars(owner)[attr] for owner, attr in owners]
    with spans.patched(spans.Tracer()):
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(owners, before))
    assert all(vars(owner)[attr] is orig
               for (owner, attr), orig in zip(owners, before))


def _write_ha_outputs(out: Path, verdicts):
    ref = json.loads(workloads.HA_REFERENCE.read_text())
    out.mkdir(parents=True)
    for tag, verdict in verdicts.items():
        (out / f"infsup_{tag}.json").write_text(json.dumps(
            {"verdict": verdict, "records": ref[tag]}))


def test_ha_check_accepts_reference_and_rejects_wrong_verdict(tmp_path):
    _write_ha_outputs(tmp_path / "good" / "all", workloads.HA_VERDICTS)
    assert workloads.check("ha_verdict", 0, tmp_path / "good") == []
    wrong = dict(workloads.HA_VERDICTS, **{"12": "UNSTABLE"})
    _write_ha_outputs(tmp_path / "bad" / "all", wrong)
    fails = workloads.check("ha_verdict", 0, tmp_path / "bad")
    assert len(fails) == 1 and "verdict" in fails[0]


def test_missing_output_is_a_failure(tmp_path):
    assert workloads.check("bar_solve", 0, tmp_path)
    assert workloads.check("tape_contrast", 1, tmp_path)


def test_bar_and_tape_checks(tmp_path):
    def solve_out(tag, steps, metrics):
        (tmp_path / tag).mkdir()
        (tmp_path / tag / "run.json").write_text(
            json.dumps({"steps": steps, "metrics": metrics}))

    solve_out("solve", 80, {"oscillation_bn_above": 1.6341742,
                            "oscillation_bn_below": 1.1209354})
    assert workloads.check("bar_solve", 0, tmp_path) == []
    solve_out("p11", 40, {"oscillation_tape_current": 14.1,
                          "interior_sign_changes": 18})
    solve_out("p12", 40, {"oscillation_tape_current": 3.0,
                          "interior_sign_changes": 0})
    fails = workloads.check("tape_contrast", 7, tmp_path)
    assert len(fails) == 1 and "contrast" in fails[0]


def test_wrong_verdict_counts_as_failed_run(tmp_path, monkeypatch):
    """A workload process that exits cleanly but reports a wrong verdict
    is a failed run."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    (tmp_path / "tmp").mkdir()

    def fake_child(self, mode, outdir):
        wrong = dict(workloads.HA_VERDICTS, **{"11": "STABLE"})
        _write_ha_outputs(outdir / "all", wrong)
        (outdir / "result.json").write_text(json.dumps(
            {"run_s": 1.0, "exit_codes": [0], "peak_rss_mb": 1.0, "spans": []}))
        return subprocess.CompletedProcess([], 0, "", "")

    monkeypatch.setattr(run.Bench, "_child", fake_child)
    rec = run.Bench("ha_verdict", 0).run("run")
    assert rec["run_s"] == 1.0
    assert any("verdict" in f for f in rec["failures"])
    assert list((tmp_path / "tmp").iterdir()) == []


def test_drive_factor_and_seed_zero_configs():
    assert workloads.drive_factor(0) == 1.0
    factors = [workloads.drive_factor(s) for s in range(1, 50)]
    assert all(0.95 <= f <= 1.05 for f in factors)
    assert factors == [workloads.drive_factor(s) for s in range(1, 50)]
    assert workloads.invocations("bar_solve", 0) == [("solve", {}, ["solve"])]
    tape = workloads.invocations("tape_contrast", 0)
    assert [c for _, c, _ in tape] == [workloads.TAPE_CONFIG] * 2
    bar = workloads.invocations("bar_solve", 2)[0][1]
    assert bar["source"]["b_ext"] == pytest.approx(0.4 * workloads.drive_factor(2))


def test_benchmark_json_matches_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == spans.PER_LAYER
