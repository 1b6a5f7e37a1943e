import filecmp
import json

import jsonschema
import numpy as np
import pytest

import htsfem.cli
import htsfem.infsup
from htsfem.assembly import assemble_coupling_matrix, assemble_norm_matrix
from htsfem.cli import main
from htsfem.config import (CONFIG_SCHEMA, ConfigError, circuit, load_config, make_geometry,
                           make_norms)
from htsfem.infsup import build_pairing
from htsfem.linalg import DegenerateCouplingError, SingularSystemError, infsup_eigenpairs


SMALL_BAR = {
    "scenario": "stacked_bar",
    "pairing": [2, 1],
    "geometry": {"delta": 0.002},
    "time": {"t_end": 0.2, "n_ramp_steps": 5},
}

SMALL_TAPE = {
    "scenario": "single_tape",
    "geometry": {"delta": 0.001},
    "time": {"t_end": 0.2, "n_ramp_steps": 5},
}


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_defaults_resolve():
    cfg = load_config(None)
    assert cfg["scenario"] == "stacked_bar"
    assert cfg["material"]["j_c"] == 3e8
    assert cfg["material"]["e_c"] == 1e-4
    assert cfg["material"]["mu_r"] == 1000
    assert cfg["source"]["b_ext"] == 0.4
    geo = make_geometry(cfg)
    assert geo.bar_width == 0.02


def test_tape_defaults_switch():
    cfg = load_config({"scenario": "single_tape"})
    assert "formulation" not in cfg         # the scenario decides it
    assert cfg["pairing"] == [1, 2]
    assert cfg["material"]["j_c"] == 2.5e8
    assert cfg["geometry"]["tape_thickness"] == 1e-6


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        load_config({"scenari": "stacked_bar"})
    with pytest.raises(ConfigError):
        load_config({"material": {"jc": 1.0}})
    with pytest.raises(ConfigError):
        load_config({"seed": 0})


def test_circuit_reads_the_scenario():
    # the bar's net current, 0 unless set; the tape's voltage where set,
    # else its current, by default current_rel times the critical current
    assert circuit(load_config({})) == ("current", 0.0)
    assert circuit(load_config({"source": {"current": 2.0}})) == ("current", 2.0)
    tape = {"scenario": "single_tape"}
    assert circuit(load_config(tape)) == ("current", 0.5 * (2.5e8 * 1e-6 * 0.01))
    assert circuit(load_config({**tape, "source": {"current": 1.5}})) == ("current", 1.5)
    assert circuit(load_config({**tape, "source": {"voltage": 1e-4}})) == ("voltage", 1e-4)


def test_config_schema_checked_once_and_reports_as_validate():
    # the validator is built at import without a metaschema check, so
    # the schema is checked here; its errors are those of jsonschema.validate
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)
    for raw in ({"scenari": "stacked_bar"}, {"material": {"j_c": -1.0}},
                {"pairing": [1, 3]}, {"time": {"n_ramp_steps": 0, "dt": "x"}}):
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            load_config(raw)
        assert str(got.value) == f"invalid configuration: {ref.value.message}"


def test_negative_jc_rejected():
    with pytest.raises(ConfigError):
        load_config({"material": {"j_c": -1.0}})


def test_cli_mesh(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BAR)
    out = tmp_path / "out"
    assert main(["mesh", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "mesh.txt").exists()
    assert (out / "config.resolved.json").exists()
    assert (out / "run.json").exists()


def test_cli_malformed_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"material": {"j_c": -5.0}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"] == "config"
    assert not (out / "run.json").exists()


def test_cli_formulation_key_exit_2(tmp_path, capsys):
    # retired keys are unknown: the spaces carry the formulation, and no
    # command reads a linear resistivity
    for key, cfg in (("formulation", {"scenario": "single_tape", "formulation": "ta"}),
                     ("rho_linear", {"material": {"rho_linear": 1e-8}}),
                     ("base_delta", {"sweep": {"base_delta": 0.002}})):
        out = tmp_path / key
        assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert err["error"] == "config" and f"'{key}'" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("scenario,key,value", [
    ("stacked_bar", "source.voltage", 1e-4), ("stacked_bar", "source.current_rel", 0.2),
    ("stacked_bar", "geometry.tape_width", 0.02),
    ("stacked_bar", "geometry.tape_thickness", 2e-6),
    ("single_tape", "source.b_ext", 0.2), ("single_tape", "geometry.bar_width", 4e-4),
    ("single_tape", "geometry.bar_height", 0.02), ("single_tape", "material.mu_r", 1.0),
    ("single_tape", "sampling.offset", 2e-4), ("single_tape", "sampling.n_samples", 100)])
def test_cli_source_key_the_scenario_does_not_read_exit_2(tmp_path, capsys, scenario,
                                                          key, value):
    # refused and named, not dropped; at its default the key passes, so
    # a resolved configuration loads again
    section, name = key.split(".")
    cfg = write_cfg(tmp_path, {"scenario": scenario, section: {name: value}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err == {"error": "config",
                   "message": f"{key} does not apply to the {scenario} scenario"}
    assert not out.exists()
    resolved = load_config({"scenario": scenario})
    assert load_config(resolved) == resolved


def test_cli_null_current_rel_exit_2(tmp_path, capsys):
    # source.current_rel has one default, in the schema; null is refused
    cfg = write_cfg(tmp_path, {"source": {"current_rel": None}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"] == "config"
    assert not (out / "run.json").exists()


def test_cli_too_few_refinements_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BAR)
    rc = main(["infsup", "--config", cfg, "--out", str(tmp_path / "o"),
               "--refinements", "2", "--quiet"])
    assert rc == 2


def test_cli_bad_pairing_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BAR)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--pairing", "3,1"])
    assert rc == 2


@pytest.mark.parametrize("pairing", ["1,2,3", "1", "x,1", "1,", "", "3,1"])
def test_cli_malformed_pairing_exit_2(tmp_path, capsys, pairing):
    # one line that names the option and the value given
    out = tmp_path / "o"
    rc = main(["mesh", "--config", write_cfg(tmp_path, SMALL_BAR), "--out", str(out),
               "--pairing", pairing, "--quiet"])
    assert rc == 2
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert "--pairing" in err["message"] and repr(pairing) in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True])
def test_cli_out_that_cannot_be_a_directory_exit_2(tmp_path, capsys, under):
    # an existing file, or a path under one
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub" if under else blocker
    rc = main(["mesh", "--config", write_cfg(tmp_path, SMALL_BAR), "--out", str(out),
               "--quiet"])
    assert rc == 2
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config" and str(out) in err["message"]
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("command", ["solve", "mesh", "eigenmode"])
def test_cli_pairing_all_outside_infsup_exit_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SMALL_BAR)
    out = tmp_path / "o"
    rc = main([command, "--config", cfg, "--out", str(out), "--pairing", "all", "--quiet"])
    assert rc == 2
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0], parse_constant=_reject_constant)["error"] == "config"
    assert not out.exists()


def test_cli_solve_tape(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_TAPE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    metrics = json.loads((out / "oscillation_metrics.json").read_text())
    assert "oscillation_tape_current" in metrics
    assert (out / "profile_tape_current.csv").exists()
    assert (out / "history_voltage.csv").exists()
    run = json.loads((out / "run.json").read_text())
    assert run["steps"] >= 10  # halved steps may add entries


def test_cli_solve_tape_reports_sizes_and_counters(tmp_path):
    from htsfem.assembly import _coupling_full
    from htsfem.cli import _build_mesh, _build_spaces
    cfg = write_cfg(tmp_path, SMALL_TAPE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    run = json.loads((out / "run.json").read_text())
    resolved = load_config(SMALL_TAPE)
    t_space, a_space = _build_spaces(resolved, _build_mesh(resolved))
    coupled_rows = np.count_nonzero(np.diff(_coupling_full(t_space, a_space)[a_space.free].indptr))
    # B couples every free t DOF: the condensed field matrix is dense
    assert run["sizes"] == {"field_free_dofs": t_space.n_free,
                            "potential_free_dofs": a_space.n_free,
                            "interface_columns": t_space.n_free,
                            "interface_rows": coupled_rows,
                            "field_system_rows": t_space.n_free,
                            "field_system_nnz": t_space.n_free ** 2}
    counters = run["counters"]
    assert counters["a_factorizations"] == 1
    # the whole a is recovered once per accepted step, twice after a
    # damped last iteration; an unramped outer trace needs no lift solve
    assert 0 < counters["a_solves"] <= 2 * (run["steps"] + counters["rejected_attempts"])
    assert counters["field_solves"] >= run["newton_iterations_total"]
    assert counters["a_factor_fill"] > a_space.n_free
    phases = run["phases"]
    assert set(phases) == {"mesh", "spaces", "transient", "write"}
    assert all(t >= 0.0 for t in phases.values())
    assert sum(phases.values()) <= run["wall_seconds"] + 0.005


def test_cli_solve_tape_voltage(tmp_path):
    # source.voltage = e_c per unit length drives the critical current
    cfg = write_cfg(tmp_path, {
        "scenario": "single_tape",
        "geometry": {"delta": 0.0005, "air_half": 0.02},
        "source": {"voltage": 1e-4},
        "time": {"t_end": 0.5, "n_ramp_steps": 10},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert not (out / "history_voltage.csv").exists()
    lines = (out / "history_current.csv").read_text().strip().split("\n")
    assert lines[0] == "time,current"
    final = float(lines[-1].split(",")[1])
    i_c = 2.5e8 * 1e-6 * 0.01
    assert final > 0.0
    assert final == pytest.approx(i_c, rel=1e-3)


def test_cli_solve_bar_and_infsup(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BAR)
    out = tmp_path / "solve"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    metrics = json.loads((out / "oscillation_metrics.json").read_text())
    assert "oscillation_bn_above" in metrics

    # the report holds the inf-sup result alone, on the bar and the tape
    for name, base in (("bar", SMALL_BAR), ("tape", SMALL_TAPE)):
        sweep_cfg = dict(base)
        sweep_cfg["geometry"] = {**base["geometry"], "delta": 0.002}
        sweep_cfg["sweep"] = {"n_refinements": 3}
        cfg2 = write_cfg(tmp_path, sweep_cfg, f"sweep_{name}.json")
        out2 = tmp_path / f"infsup_{name}"
        assert main(["infsup", "--config", cfg2, "--out", str(out2),
                     "--pairing", "1,1", "--quiet"]) == 0
        rep = json.loads((out2 / "infsup_11.json").read_text(),
                         parse_constant=_reject_constant)
        assert set(rep) == {"formulation", "pairing", "records", "slope", "slope_95_band",
                            "verdict"}
        assert rep["slope_95_band"] is None     # two points in the fit
        assert rep["verdict"] == "UNSTABLE"
        assert len(rep["records"]) == 4


def test_cli_nonconvergence_exit_3(tmp_path, capsys):
    cfg = {
        "scenario": "single_tape",
        "geometry": {"delta": 0.001},
        "time": {"t_end": 0.1, "n_ramp_steps": 2, "newton_max_iter": 1,
                 "newton_rtol": 1e-15, "newton_stol": 1e-15},
    }
    path = write_cfg(tmp_path, cfg, "hard.json")
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1],
                     parse_constant=_reject_constant)
    assert err["error"] == "nonconvergence"
    # the failed step, the time and step size of its last attempt (the
    # first step, after four halvings) and that attempt's residual trace
    assert err["step"] == 0
    assert err["dt"] > 0.0
    assert err["t"] == pytest.approx(err["dt"], rel=1e-12)
    assert isinstance(err["residuals"], list) and err["residuals"]
    assert all(r is None or r >= 0.0 for r in err["residuals"])


def test_cli_refused_ta_pairing_exit_3(tmp_path, capsys):
    # a power-law t-a transient on a pairing whose coupling has a
    # field-side kernel is refused before its first step
    cfg = {"scenario": "single_tape", "geometry": {"delta": 0.001, "air_half": 0.02}}
    path = write_cfg(tmp_path, cfg, "kernel.json")
    rc = main(["solve", "--config", path, "--pairing", "2,1", "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 3
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1],
                     parse_constant=_reject_constant)
    assert err["error"] == "solver"
    assert "t-a pairing (2,1)" in err["message"] and "dimensional kernel" in err["message"]


@pytest.mark.parametrize("error", [SingularSystemError, DegenerateCouplingError])
@pytest.mark.parametrize("command", ["infsup", "eigenmode"])
def test_cli_pencil_failure_exit_3(tmp_path, capsys, monkeypatch, command, error):
    def failing_pencil(B, N_V, N_Q, *, lu_v=None, interior=None):
        raise error("eigenpair residual 1.000e-03 exceeds 1e-8")
    monkeypatch.setattr(htsfem.infsup, "infsup_eigenpairs", failing_pencil)
    monkeypatch.setattr(htsfem.cli, "infsup_eigenpairs", failing_pencil)
    cfg = dict(SMALL_BAR)
    cfg["sweep"] = {"n_refinements": 3}
    path = write_cfg(tmp_path, cfg)
    rc = main([command, "--config", path, "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 3
    lines = capsys.readouterr().out.strip().split("\n")
    err = json.loads(lines[-1], parse_constant=_reject_constant)
    expected = {"error": "solver",
                "message": "eigenpair residual 1.000e-03 exceeds 1e-8"}
    if command == "infsup":
        # the sweep names the failed pencil: SMALL_BAR's pairing, coarsest mesh
        expected.update(pairing=[2, 1], level=0)
    assert err == expected


def test_cli_infsup_all_pairings(tmp_path):
    cfg = dict(SMALL_BAR)
    cfg["geometry"] = {"delta": 0.004, "min_elements_across": 1}
    cfg["sweep"] = {"n_refinements": 3}
    path = write_cfg(tmp_path, cfg, "all.json")
    out = tmp_path / "out"
    assert main(["infsup", "--config", path, "--out", str(out),
                 "--pairing", "all", "--quiet"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["verdicts"] == {"11": "UNSTABLE", "12": "STABLE",
                               "21": "STABLE", "22": "UNSTABLE"}
    # one pass over the 4 meshes: each N_V factored once per field
    # order, N_Q condensed once per mesh; 16 pencils, each with its
    # smallest and largest pair checked on the whole potential space
    assert run["counters"] == {"mesh_levels": 4, "field_norm_factorizations": 8,
                               "interior_factorizations": 4, "pencils": 16,
                               "full_space_pair_checks": 32}
    assert len(run["sizes"]) == 4
    peaks = [level["peak_rss_mb"] for level in run["sizes"]]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)
    for level in run["sizes"]:
        assert set(level) == {"field_free_dofs", "potential_free_dofs",
                              "coupled_columns", "coupled_rows", "interior_dofs",
                              "field_norm_fill", "potential_norm_fill", "peak_rss_mb"}
        assert set(level["field_free_dofs"]) == {"1", "2"}
        assert (level["interior_dofs"] + level["coupled_rows"]["2"]
                == level["potential_free_dofs"]["2"])
        # each bordered factor holds at least the diagonals of L and U
        for i in ("1", "2"):
            assert 0 < level["coupled_columns"][i] <= level["field_free_dofs"][i]
            assert level["field_norm_fill"][i] >= 2 * level["field_free_dofs"][i]
        assert level["potential_norm_fill"] >= 2 * level["potential_free_dofs"]["2"]
    phases = run["phases"]
    assert set(phases) == {"mesh", "spaces", "sweep", "write"}
    assert all(t >= 0.0 for t in phases.values())
    assert sum(phases.values()) <= run["wall_seconds"] + 0.005
    for tag in ("11", "12", "21", "22"):
        assert (out / f"infsup_{tag}.csv").exists()


def test_cli_eigenmode(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BAR)
    out = tmp_path / "out"
    assert main(["eigenmode", "--config", cfg, "--out", str(out),
                 "--pairing", "1,1", "--quiet"]) == 0
    assert (out / "eigenmode_potential.csv").exists()
    assert (out / "eigenmode_supremizer.csv").exists()


@pytest.mark.parametrize("rank", [100000, -100000])
def test_cli_eigenmode_rank_out_of_range_exit_2(tmp_path, capsys, monkeypatch, rank):
    # a rank beyond the free potential DOFs exits before any norm
    # assembly, so the pencil never runs
    def not_reached(*args, **kwargs):
        raise AssertionError("the eigenmode command went past the rank check")
    monkeypatch.setattr(htsfem.cli, "assemble_norm_matrix", not_reached)
    monkeypatch.setattr(htsfem.cli, "infsup_eigenpairs", not_reached)
    cfg = write_cfg(tmp_path, SMALL_BAR)
    out = tmp_path / "out"
    rc = main(["eigenmode", "--config", cfg, "--out", str(out), "--pairing", "1,1",
               "--mode-rank", str(rank), "--quiet"])
    assert rc == 2
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    err = json.loads(lines[0], parse_constant=_reject_constant)
    assert err["error"] == "config"
    assert f"mode rank {rank} outside" in err["message"]
    assert not (out / "eigenmode_potential.csv").exists()
    assert not (out / "run.json").exists()


def test_cli_eigenmode_rank_beyond_the_spectrum_exit_2(tmp_path, capsys):
    # within the free potential DOFs but beyond the nonzero eigenvalues:
    # rejected after the solve, naming the spectrum's range
    resolved = load_config(SMALL_BAR)
    v_space, q_space = build_pairing(htsfem.cli._build_mesh(resolved), (1, 1))
    norms = make_norms(resolved)
    eig = infsup_eigenpairs(assemble_coupling_matrix(v_space, q_space),
                            assemble_norm_matrix(v_space, norms),
                            assemble_norm_matrix(q_space, norms))
    rank = len(eig.eigenvalues)
    assert rank < q_space.n_free
    cfg = write_cfg(tmp_path, SMALL_BAR)
    out = tmp_path / "out"
    rc = main(["eigenmode", "--config", cfg, "--out", str(out), "--pairing", "1,1",
               "--mode-rank", str(rank), "--quiet"])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1],
                     parse_constant=_reject_constant)
    assert err["error"] == "config"
    assert err["message"].startswith(f"mode rank {rank} outside [-")
    assert not (out / "run.json").exists()


def test_cli_determinism(tmp_path):
    # byte-identical outputs across repeated runs (acceptance 10 uses
    # larger cases; this is the quick version)
    cfg = write_cfg(tmp_path, SMALL_TAPE)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    # run.json carries wall-clock timings; every data artifact must match
    files = sorted(p.name for p in outs[0].iterdir() if p.name != "run.json")
    assert {"snapshots_t.npy", "snapshots_v.npy", "snapshots_q.npy"} <= set(files)
    for name in files:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
