import io
import re

import numpy as np
import pytest

from htsfem import transient
from htsfem.linalg import SingularSystemError
from htsfem.materials import MagneticLaw, Materials, PowerLaw, VACUUM
from htsfem.mesh import GeometryParams, Region, Scenario, build_tape_mesh
from htsfem.spaces import build_a_space, build_h_space, build_t_space
from htsfem.transient import (MAX_HALVINGS, NonConvergenceError, Ramp, TimeConfig, TimeHistory,
                              _circuit_values, circuit_post, ramp_then_hold,
                              run_transient, write_history_csv, write_snapshots)

from util import (backward_error, free_indices, magnetization, monolithic, penetrated_area,
                  s_full)

JC = 2.5e8
WIDTH = 0.01


@pytest.fixture(scope="module")
def small_tape():
    params = GeometryParams(scenario=Scenario.SINGLE_TAPE, delta=0.001,
                            air_half=0.02)
    return build_tape_mesh(params)


def linear_mats(rho):
    return Materials(PowerLaw(e_c=rho * JC, j_c=JC, n=1),
                     {int(Region.OMEGA_A_AIR): VACUUM})


def test_ramp_profile():
    r = ramp_then_hold(2.0, 1.0, 3.0)
    assert r(0.0) == 0.0
    assert r(0.5) == 1.0
    assert r(1.0) == 2.0
    assert r(2.9) == 2.0


def test_time_config_validation():
    with pytest.raises(ValueError):
        TimeConfig(dt=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.1, t_end=1.0, rel_residual_tol=2.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.1, t_end=1.0, max_iter=0)


def test_linear_single_newton_iteration(bar_spaces_11, bar_materials_linear):
    tc = TimeConfig(dt=0.05, t_end=0.25, b_ext=ramp_then_hold(0.4, 0.125, 0.25),
                    drive=ramp_then_hold(0.0, 0.125, 0.25),
                    rel_residual_tol=1e-12)
    hist = run_transient(bar_spaces_11, bar_materials_linear, tc)
    assert hist.n_steps == 5
    assert all(it == 1 for it in hist.newton_iters)
    assert max(hist.final_residuals) <= 1e-12


def test_step_count_matches_grid(small_tape):
    t = build_t_space(small_tape, 1, ("current", 1.0))
    a = build_a_space(small_tape, 1)
    tc = TimeConfig(dt=0.1, t_end=0.5,
                    drive=ramp_then_hold(1.0, 0.25, 0.5),
                    rel_residual_tol=1e-10)
    hist = run_transient((t, a), linear_mats(1e-9), tc)
    assert hist.n_steps == 5
    assert np.allclose(hist.dts, 0.1)


def test_imposed_tape_current_reproduced(small_tape, tape_materials_power):
    # net current = w * (t_plus - t_minus) integrates the element values
    from htsfem.assembly import tape_current_density
    I0 = 0.3 * JC * small_tape.w * WIDTH
    ramp = ramp_then_hold(I0, 0.25, 0.5)
    t = build_t_space(small_tape, 1, ("current", I0))
    a = build_a_space(small_tape, 1)
    tc = TimeConfig(dt=0.05, t_end=0.5, drive=ramp)
    hist = run_transient((t, a), tape_materials_power, tc)
    segs = small_tape.interface_segments
    lens = small_tape.segment_lengths(segs)
    for k, tk in enumerate(hist.times):
        j = tape_current_density(t, hist.v[k])
        net = small_tape.w * float(j @ lens)
        imposed = ramp(tk)
        assert abs(net - imposed) <= 1e-10 * max(abs(imposed), I0)


def test_zero_drive_zero_voltage(small_tape):
    t = build_t_space(small_tape, 1, ("current", 0.0))
    a = build_a_space(small_tape, 1)
    tc = TimeConfig(dt=0.1, t_end=0.3,
                    drive=ramp_then_hold(0.0, 0.15, 0.3))
    hist = run_transient((t, a), linear_mats(1e-9), tc)
    V = circuit_post(hist, (t, a))
    assert np.abs(V).max() == 0.0


def test_dc_voltage_matches_analytic_resistance(small_tape):
    # per-unit-length resistance of a uniform tape: rho / (w * width)
    rho = 1e-8
    I0 = 2.0
    t = build_t_space(small_tape, 1, ("current", I0))
    a = build_a_space(small_tape, 1)
    tc = TimeConfig(dt=0.25, t_end=20.0,
                    drive=ramp_then_hold(I0, 1.0, 20.0),
                    rel_residual_tol=1e-12)
    hist = run_transient((t, a), linear_mats(rho), tc)
    V = circuit_post(hist, (t, a))
    R = rho / (small_tape.w * WIDTH)
    assert V[-1] == pytest.approx(R * I0, rel=1e-6)
    assert V[-1] * I0 > 0.0


def test_reciprocity_roundtrip(small_tape):
    # imposing the recovered voltage reproduces the imposed current
    rho = 1e-9
    I0 = 1.0
    mats = linear_mats(rho)
    t = build_t_space(small_tape, 1, ("current", I0))
    a = build_a_space(small_tape, 1)
    tc = TimeConfig(dt=0.05, t_end=1.0,
                    drive=ramp_then_hold(I0, 0.5, 1.0),
                    rel_residual_tol=1e-10)
    h1 = run_transient((t, a), mats, tc)
    V = circuit_post(h1, (t, a))

    vramp = Ramp((0.0, *h1.times), (0.0, *V))
    t2 = build_t_space(small_tape, 1, ("voltage", 0.0))
    tc2 = TimeConfig(dt=0.05, t_end=1.0, drive=vramp,
                     rel_residual_tol=1e-10)
    h2 = run_transient((t2, a), mats, tc2)
    I_rec = circuit_post(h2, (t2, a))
    I_imp = np.array([ramp_then_hold(I0, 0.5, 1.0)(tk) for tk in h2.times])
    assert np.abs(I_rec - I_imp).max() < 1e-6 * I0


def test_build_time_voltage_matches_constant_ramp(small_tape):
    # a build-time voltage and the same value as a drive ramp follow one
    # convention: V = R I, so V > 0 drives a positive current
    rho = 1e-8
    V0 = 1e-3
    mats = linear_mats(rho)
    a = build_a_space(small_tape, 1)
    t = build_t_space(small_tape, 1, ("voltage", V0))
    currents = []
    for drive in (None, Ramp((0.0,), (V0,))):
        tc = TimeConfig(dt=0.25, t_end=2.0, drive=drive, rel_residual_tol=1e-12)
        hist = run_transient((t, a), mats, tc)
        currents.append(circuit_post(hist, (t, a)))
    assert np.array_equal(currents[0], currents[1])
    R = rho / (small_tape.w * WIDTH)
    assert currents[0][-1] == pytest.approx(V0 / R, rel=1e-4)


def test_requesting_imposed_quantity_is_identity(small_tape):
    I0 = 1.5
    t = build_t_space(small_tape, 1, ("current", I0))
    a = build_a_space(small_tape, 1)
    ramp = ramp_then_hold(I0, 0.15, 0.3)
    tc = TimeConfig(dt=0.1, t_end=0.3, drive=ramp)
    hist = run_transient((t, a), linear_mats(1e-9), tc)
    # the imposed quantity can be read back from the coefficients
    dof = t.dof("global", 0)
    for k, tk in enumerate(hist.times):
        assert hist.v[k][dof] * small_tape.w == pytest.approx(ramp(tk), rel=1e-12)


def test_nonconvergence_error_carries_step(small_tape, tape_materials_power):
    # one Newton iteration never meets the tolerance: the first step
    # fails at every size down to MAX_HALVINGS halvings of dt
    I0 = 0.5 * JC * small_tape.w * WIDTH
    t = build_t_space(small_tape, 1, ("current", I0))
    a = build_a_space(small_tape, 1)
    tc = TimeConfig(dt=0.25, t_end=0.5,
                    drive=ramp_then_hold(I0, 0.25, 0.5),
                    max_iter=1, rel_residual_tol=1e-14, rel_increment_tol=1e-15)
    with pytest.raises(NonConvergenceError, match="after 4 halvings") as err:
        run_transient((t, a), tape_materials_power, tc)
    assert MAX_HALVINGS == 4
    assert err.value.step is not None
    assert err.value.step == 0
    assert err.value.t == 0.25 / 16 and err.value.dt == 0.25 / 16
    assert len(err.value.residuals) == 2          # initial plus one iteration


@pytest.fixture(scope="module")
def bar_power_history(bar_spaces_11, bar_materials_power):
    tc = TimeConfig(dt=0.025, t_end=1.0, b_ext=ramp_then_hold(0.4, 0.5, 1.0),
                    drive=ramp_then_hold(0.0, 0.5, 1.0))
    return run_transient(bar_spaces_11, bar_materials_power, tc)


def test_penetration_advances_monotonically(bar_mesh, bar_spaces_11,
                                            bar_power_history):
    h, _ = bar_spaces_11
    hist = bar_power_history
    pen = [penetrated_area(bar_mesh, h, v, 3e8) for v in hist.v]
    last = 0.0
    for k, t in enumerate(hist.times):
        if t > 0.5 + 1e-9:
            break
        assert pen[k] >= last - 1e-12
        last = pen[k]
    assert last > 0.0  # the front actually moved


def test_magnetization_creep_during_hold(bar_mesh, bar_spaces_11,
                                         bar_power_history):
    h, _ = bar_spaces_11
    hist = bar_power_history
    mags = [np.hypot(*magnetization(bar_mesh, h, v)) for v in hist.v]
    hold = [k for k, t in enumerate(hist.times) if t > 0.5 + 1e-9]
    assert len(hold) > 2
    for k_prev, k in zip(hold[:-1], hold[1:]):
        assert mags[k] <= mags[k_prev] * (1.0 + 1e-9)


def test_newton_superlinear_tail(bar_power_history):
    hist = bar_power_history
    ok = tot = 0
    for trace in hist.residual_traces:
        if len(trace) >= 3:
            tot += 1
            if trace[-1] <= 10.0 * trace[-2] ** 1.5:
                ok += 1
    assert tot > 0
    assert ok >= 0.8 * tot


def test_tape_overshoot_bounded(tape_mesh, tape_materials_power):
    # power-law creep limits |j| overshoot on the stable pairing
    from htsfem.assembly import tape_current_density
    jc = tape_materials_power.power.j_c
    I0 = 0.5 * jc * tape_mesh.w * 0.01
    t = build_t_space(tape_mesh, 1, ("current", I0))
    a = build_a_space(tape_mesh, 2)
    tc = TimeConfig(dt=0.025, t_end=0.5,
                    drive=ramp_then_hold(I0, 0.25, 0.5))
    hist = run_transient((t, a), tape_materials_power, tc)
    worst = max(np.abs(tape_current_density(t, v)).max() for v in hist.v)
    assert worst <= 1.25 * jc


def test_history_exports(tmp_path, small_tape):
    t = build_t_space(small_tape, 1, ("current", 1.0))
    a = build_a_space(small_tape, 1)
    tc = TimeConfig(dt=0.1, t_end=0.3,
                    drive=ramp_then_hold(1.0, 0.15, 0.3))
    hist = run_transient((t, a), linear_mats(1e-9), tc)
    V = circuit_post(hist, (t, a))
    csv = tmp_path / "voltage.csv"
    write_history_csv(hist, "voltage", V, csv)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "time,voltage"
    assert len(lines) == hist.n_steps + 1

    write_snapshots(hist, tmp_path)
    t, v, q = (np.load(tmp_path / f"snapshots_{name}.npy", allow_pickle=False)
               for name in "tvq")
    assert len(t) == len(v) == len(q) == hist.n_steps
    assert t[0, 0] == pytest.approx(hist.times[0])
    assert np.allclose(v[0], hist.v[0])
    assert np.allclose(q[0], hist.q[0])


def test_snapshot_files_round_trip_bitwise_and_match_np_save(tmp_path):
    # every value, sign bit included, comes back exactly; each file equals
    # np.save of the stacked array, which the row-at-a-time writer avoids
    rng = np.random.default_rng(0)
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0,
                     1e16, 123456789.125, 1e-5, 1e21])
    hist = TimeHistory()
    for k in range(3):
        hist.times.append(0.1 * (k + 1))
        hist.dts.append(-0.0 if k == 1 else 0.1)
        hist.v.append(np.concatenate([edge, rng.standard_normal(50)
                                      * 10.0 ** rng.integers(-300, 300, 50)]))
        hist.q.append(rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40))
    write_snapshots(hist, tmp_path)

    stacked = {"t": np.column_stack([hist.times, hist.dts]),
               "v": np.stack(hist.v), "q": np.stack(hist.q)}
    for name, arr in stacked.items():
        path = tmp_path / f"snapshots_{name}.npy"
        ref = io.BytesIO()
        np.save(ref, arr)
        assert path.read_bytes() == ref.getvalue(), name
        loaded = np.load(path, allow_pickle=False)
        assert np.array_equal(loaded.view(np.uint64), arr.view(np.uint64)), name
        assert loaded.dtype == np.dtype("<f8") and loaded.flags.c_contiguous
        assert loaded.shape == {"t": (3, 2), "v": (3, len(edge) + 50), "q": (3, 40)}[name]


def test_drive_values_record_the_imposed_values(small_tape):
    # a ramped circuit imposes its ramp at the accepted times, an unramped
    # one the build-time value it is held at; an imposed current is the
    # accepted iterate's global DOF
    a = build_a_space(small_tape, 1)
    ramp = ramp_then_hold(1.5, 0.15, 0.3)
    for mode, value, drive in (("current", 1.5, ramp),
                               ("current", 0.7, None),
                               ("voltage", 1e-4, None)):
        t = build_t_space(small_tape, 1, (mode, value))
        tc = TimeConfig(dt=0.1, t_end=0.3, drive=drive, rel_residual_tol=1e-10)
        hist = run_transient((t, a), linear_mats(1e-9), tc)
        expected = [ramp(tk) if drive else value for tk in hist.times]
        values = [_circuit_values(t, drive, tk) for tk in hist.times]
        imposed = [c if mode == "current" else v for c, v in values]
        assert imposed == expected
        assert all((c is None) == (mode == "voltage") and (v is None) == (mode == "current")
                   for c, v in values)
        if mode == "current":
            dof = t.dof("global", 0)
            assert [v[dof] for v in hist.v] == [x / t.current_scale for x in expected]


def test_transient_refuses_spaces_that_name_no_formulation(bar_spaces_11,
                                                           bar_materials_linear):
    # the spaces name the formulation, (H, A) h-a and (T, A) t-a; any
    # other pair is refused before a block is built
    h, a = bar_spaces_11
    tc = TimeConfig(dt=0.1, t_end=0.3)
    for spaces, names in (((a, a), "(A, A)"), ((h, h), "(H, H)")):
        with pytest.raises(ValueError, match=re.escape(f"(H or T, A) spaces, not {names}")):
            run_transient(spaces, bar_materials_linear, tc)


def test_counters_record_a_forced_halving(small_tape, monkeypatch):
    calls = []

    def fail_first(K, s):
        calls.append(len(s))
        if len(calls) == 1:
            raise SingularSystemError("refused for the test")
        return transient.solve_dense.__wrapped__(K, s)

    # the t-a field solve factors the dense condensed system
    fail_first.__wrapped__ = transient.solve_dense
    monkeypatch.setattr(transient, "solve_dense", fail_first)
    t = build_t_space(small_tape, 1, ("current", 1.0))
    a = build_a_space(small_tape, 1)
    tc = TimeConfig(dt=0.1, t_end=0.3,
                    drive=ramp_then_hold(1.0, 0.15, 0.3),
                    rel_residual_tol=1e-10)
    hist = run_transient((t, a), linear_mats(1e-9), tc)
    c = hist.counters
    assert c["rejected_attempts"] == 1 and c["step_halvings"] == 1
    assert hist.dts[0] == 0.05
    assert c["field_solves"] == len(calls) == sum(hist.newton_iters) + 1
    assert c["backtracking_trials"] == 0          # linear: every full step is taken


def test_ta_pairing_with_a_field_kernel_is_refused_before_its_first_step(
        tape_mesh, tape_materials_power, monkeypatch):
    # T order 2 against A order 1: B_Γ has a 19-dimensional kernel on the
    # free T DOFs, where the power-law field block vanishes at zero
    # current; the run is refused without assembling an iteration, and
    # the same pairing under a linear law, whose block stays definite, runs
    calls = []
    assemble = transient.assemble_ta_iteration
    monkeypatch.setattr(transient, "assemble_ta_iteration",
                        lambda *args, **kwargs: calls.append(1) or assemble(*args, **kwargs))
    I0 = 0.1 * JC * tape_mesh.w * WIDTH
    spaces = (build_t_space(tape_mesh, 2, ("current", I0)), build_a_space(tape_mesh, 1))
    tc = TimeConfig(dt=0.025, t_end=0.05, drive=ramp_then_hold(I0, 0.25, 0.25))
    with pytest.raises(SingularSystemError, match=r"t-a pairing \(2,1\).* 19-dimensional kernel"):
        run_transient(spaces, tape_materials_power, tc)
    assert calls == []
    hist = run_transient(spaces, linear_mats(1e-9), tc)
    assert hist.n_steps == 2 and calls




@pytest.fixture
def tape_power_case(tape_mesh, tape_materials_power):
    I0 = 0.5 * JC * tape_mesh.w * WIDTH
    t = build_t_space(tape_mesh, 1, ("current", I0))
    a = build_a_space(tape_mesh, 1)
    tc = TimeConfig(dt=0.025, t_end=0.2,
                    drive=ramp_then_hold(I0, 0.25, 0.5))
    return (t, a), tape_materials_power, tc


@pytest.fixture
def bar_power_case(bar_spaces_11, bar_materials_power):
    tc = TimeConfig(dt=0.025, t_end=0.2, b_ext=ramp_then_hold(0.4, 0.5, 1.0),
                    drive=ramp_then_hold(0.0, 0.5, 1.0))
    return bar_spaces_11, bar_materials_power, tc


@pytest.mark.parametrize("case", ["bar_power_case", "tape_power_case"])
def test_final_residuals_match_monolithic(request, monkeypatch, case):
    # the Newton measure, evaluated on the blocks, against the backward
    # error of the monolithic system at each accepted iterate
    spaces, mats, tc = request.getfixturevalue(case)
    name = "assemble_ha_iteration" if spaces[0].family == "H" else "assemble_ta_iteration"
    assemble = getattr(transient, name)
    calls = []

    def recording(*args, **kwargs):
        sys = assemble(*args, **kwargs)
        calls.append((args[1][0], args[2].copy(), args[3], sys))
        return sys

    monkeypatch.setattr(transient, name, recording)
    hist = run_transient(spaces, mats, tc)
    if hist.counters["rejected_attempts"] == 0:
        # one assembly per attempt, per Newton iteration and per trial
        assert len(calls) == (hist.n_steps + sum(hist.newton_iters)
                              + hist.counters["backtracking_trials"])
    v_prev = np.zeros(spaces[0].n_dofs)
    for k in range(hist.n_steps):
        x = np.concatenate([hist.v[k], hist.q[k]])
        sys = [s for prev, it, dt, s in calls if dt == hist.dts[k]
               and np.array_equal(prev, v_prev) and np.array_equal(it, hist.v[k])][-1]
        free = free_indices(sys)
        mono = backward_error(monolithic(sys)[free], x, s_full(sys)[free])
        assert hist.final_residuals[k] == pytest.approx(mono, rel=1e-12, abs=1e-15)
        v_prev = hist.v[k]


def test_newton_iterations_construct_few_sparse_matrices(bar_spaces_11,
                                                       bar_materials_power, monkeypatch):
    # every scipy CSR and CSC construction passes through the private
    # scipy.sparse._compressed._cs_matrix.__init__; counted from the first
    # assembly on, a bar run builds at most 3 per Newton iteration (the
    # run's set-up builds its fixed blocks before that)
    from scipy.sparse import _compressed
    built = {"n": 0, "counting": False}
    init = _compressed._cs_matrix.__init__

    def counting_init(self, *args, **kwargs):
        built["n"] += built["counting"]
        init(self, *args, **kwargs)

    assemble = transient.assemble_ha_iteration

    def first_assembly_starts_counting(*args, **kwargs):
        built["counting"] = True
        return assemble(*args, **kwargs)

    monkeypatch.setattr(_compressed._cs_matrix, "__init__", counting_init)
    monkeypatch.setattr(transient, "assemble_ha_iteration", first_assembly_starts_counting)
    tc = TimeConfig(dt=0.025, t_end=0.1, b_ext=ramp_then_hold(0.4, 0.05, 0.1))
    hist = run_transient(bar_spaces_11, bar_materials_power, tc)
    iters = sum(hist.newton_iters)
    assert iters >= 4
    assert built["n"] <= 3 * iters


def test_runs_on_shared_spaces_match_fresh_spaces(bar_mesh, bar_materials_power):
    # one pair of spaces serves a run with mu_r 1000 and then one with
    # mu_r 10: nothing of the first run may leak into the second, and
    # each must equal, bitwise, its run on spaces built afresh
    def spaces():
        return (build_h_space(bar_mesh, 1, ("current", 0.0)),
                build_a_space(bar_mesh, 1))

    soft = bar_materials_power
    hard = Materials(soft.power, {**soft.magnetic,
                                  int(Region.OMEGA_A_FERRO): MagneticLaw(10.0)})
    tc = TimeConfig(dt=0.025, t_end=0.05, b_ext=ramp_then_hold(0.4, 0.05, 0.1))
    shared = spaces()
    runs = [run_transient(shared, mats, tc) for mats in (soft, hard)]
    for mats, hist in zip((soft, hard), runs):
        fresh = run_transient(spaces(), mats, tc)
        assert hist.n_steps == fresh.n_steps
        assert hist.newton_iters == fresh.newton_iters
        assert hist.final_residuals == fresh.final_residuals
        for k in range(fresh.n_steps):
            assert np.array_equal(hist.v[k], fresh.v[k])
            assert np.array_equal(hist.q[k], fresh.q[k])
    assert not np.array_equal(runs[0].q[-1], runs[1].q[-1])
