import io
import re

import numpy as np
import pytest

from htsfem import transient
from htsfem.config import load_config, make_geometry
from htsfem.linalg import SingularSystemError
from htsfem.materials import Materials, PowerLaw
from htsfem.mesh import build_tape_mesh
from htsfem.spaces import build_a_space, build_h_space, build_t_space, essential_vector
from htsfem.transient import (MAX_HALVINGS, NonConvergenceError, Ramp, TimeHistory,
                              _circuit_values, circuit_post, ramp_then_hold,
                              run_transient, write_history_csv, write_snapshots)

from util import (backward_error, free_indices, magnetization, monolithic, penetrated_area,
                  s_full, time_config)

JC = 2.5e8
WIDTH = 0.01


@pytest.fixture(scope="module")
def small_tape():
    return build_tape_mesh(make_geometry(load_config({"scenario": "single_tape",
                                                      "geometry": {"delta": 0.001}})))


def linear_mats(rho):
    return Materials(PowerLaw(e_c=rho * JC, j_c=JC, n=1, j_reg=1e-3 * JC), 1.0)


def test_ramp_profile():
    r = ramp_then_hold(2.0, 1.0, 3.0)
    assert r(0.0) == 0.0
    assert r(0.5) == 1.0
    assert r(1.0) == 2.0
    assert r(2.9) == 2.0


def test_time_config_validation():
    hold = ramp_then_hold(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        time_config(dt=-1.0, t_end=1.0, b_ext=None, drive=hold)
    with pytest.raises(ValueError):
        time_config(dt=0.1, t_end=1.0, b_ext=None, drive=hold, rel_residual_tol=2.0)
    with pytest.raises(ValueError):
        time_config(dt=0.1, t_end=1.0, b_ext=None, drive=hold, max_iter=0)


def test_linear_single_newton_iteration(bar_spaces_11, bar_materials_linear):
    tc = time_config(dt=0.05, t_end=0.25, b_ext=ramp_then_hold(0.4, 0.125, 0.25),
                     drive=ramp_then_hold(0.0, 0.125, 0.25),
                     rel_residual_tol=1e-12)
    hist = run_transient(bar_spaces_11, bar_materials_linear, tc)
    assert hist.n_steps == 5
    assert all(it == 1 for it in hist.newton_iters)
    assert max(hist.final_residuals) <= 1e-12


def test_step_count_matches_grid(small_tape):
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    tc = time_config(dt=0.1, t_end=0.5, b_ext=None,
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
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    tc = time_config(dt=0.05, t_end=0.5, b_ext=None, drive=ramp)
    hist = run_transient((t, a), tape_materials_power, tc)
    segs = small_tape.interface_segments
    lens = small_tape.segment_lengths(segs)
    for k, tk in enumerate(hist.times):
        j = tape_current_density(t, hist.v[k])
        net = small_tape.w * float(j @ lens)
        imposed = ramp(tk)
        assert abs(net - imposed) <= 1e-10 * max(abs(imposed), I0)


def test_zero_drive_zero_voltage(small_tape):
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    tc = time_config(dt=0.1, t_end=0.3, b_ext=None,
                     drive=ramp_then_hold(0.0, 0.15, 0.3))
    hist = run_transient((t, a), linear_mats(1e-9), tc)
    V = circuit_post(hist, (t, a))
    assert np.abs(V).max() == 0.0


def test_dc_voltage_matches_analytic_resistance(small_tape):
    # per-unit-length resistance of a uniform tape: rho / (w * width)
    rho = 1e-8
    I0 = 2.0
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    tc = time_config(dt=0.25, t_end=20.0, b_ext=None,
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
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    tc = time_config(dt=0.05, t_end=1.0, b_ext=None,
                     drive=ramp_then_hold(I0, 0.5, 1.0),
                     rel_residual_tol=1e-10)
    h1 = run_transient((t, a), mats, tc)
    V = circuit_post(h1, (t, a))

    vramp = Ramp((0.0, *h1.times), (0.0, *V))
    t2 = build_t_space(small_tape, 1, "voltage")
    tc2 = time_config(dt=0.05, t_end=1.0, b_ext=None, drive=vramp,
                      rel_residual_tol=1e-10)
    h2 = run_transient((t2, a), mats, tc2)
    I_rec = circuit_post(h2, (t2, a))
    I_imp = np.array([ramp_then_hold(I0, 0.5, 1.0)(tk) for tk in h2.times])
    assert np.abs(I_rec - I_imp).max() < 1e-6 * I0


def test_constant_voltage_drive_follows_v_equals_r_i(small_tape):
    # a voltage-driven space driven by V0 held constant follows one
    # convention: V = R I, so V > 0 drives a positive current
    rho = 1e-8
    V0 = 1e-3
    a = build_a_space(small_tape, 1)
    t = build_t_space(small_tape, 1, "voltage")
    tc = time_config(dt=0.25, t_end=2.0, b_ext=None, drive=Ramp((0.0,), (V0,)),
                     rel_residual_tol=1e-12)
    current = circuit_post(run_transient((t, a), linear_mats(rho), tc), (t, a))
    R = rho / (small_tape.w * WIDTH)
    assert current[-1] == pytest.approx(V0 / R, rel=1e-4)


def test_requesting_imposed_quantity_is_identity(small_tape):
    I0 = 1.5
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    ramp = ramp_then_hold(I0, 0.15, 0.3)
    tc = time_config(dt=0.1, t_end=0.3, b_ext=None, drive=ramp)
    hist = run_transient((t, a), linear_mats(1e-9), tc)
    # the imposed quantity can be read back from the coefficients
    dof = t.dof("global", 0)
    for k, tk in enumerate(hist.times):
        assert hist.v[k][dof] * small_tape.w == pytest.approx(ramp(tk), rel=1e-12)


def test_nonconvergence_error_carries_step(small_tape, tape_materials_power):
    # one Newton iteration never meets the tolerance: the first step
    # fails at every size down to MAX_HALVINGS halvings of dt
    I0 = 0.5 * JC * small_tape.w * WIDTH
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    tc = time_config(dt=0.25, t_end=0.5, b_ext=None,
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
    tc = time_config(dt=0.025, t_end=1.0, b_ext=ramp_then_hold(0.4, 0.5, 1.0),
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
    t = build_t_space(tape_mesh, 1, "current")
    a = build_a_space(tape_mesh, 2)
    tc = time_config(dt=0.025, t_end=0.5, b_ext=None,
                     drive=ramp_then_hold(I0, 0.25, 0.5))
    hist = run_transient((t, a), tape_materials_power, tc)
    worst = max(np.abs(tape_current_density(t, v)).max() for v in hist.v)
    assert worst <= 1.25 * jc


def test_history_exports(tmp_path, small_tape):
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    tc = time_config(dt=0.1, t_end=0.3, b_ext=None,
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
    # a circuit imposes its drive ramp at the accepted times, a ramp or
    # a held value; an imposed current is the accepted iterate's global
    # DOF
    a = build_a_space(small_tape, 1)
    for mode, drive in (("current", ramp_then_hold(1.5, 0.15, 0.3)),
                        ("current", Ramp((0.0,), (0.7,))),
                        ("voltage", Ramp((0.0,), (1e-4,)))):
        t = build_t_space(small_tape, 1, mode)
        tc = time_config(dt=0.1, t_end=0.3, b_ext=None, drive=drive, rel_residual_tol=1e-10)
        hist = run_transient((t, a), linear_mats(1e-9), tc)
        expected = [drive(tk) for tk in hist.times]
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
    tc = time_config(dt=0.1, t_end=0.3, b_ext=None, drive=ramp_then_hold(0.0, 0.15, 0.3))
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
    t = build_t_space(small_tape, 1, "current")
    a = build_a_space(small_tape, 1)
    tc = time_config(dt=0.1, t_end=0.3, b_ext=None,
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
    spaces = (build_t_space(tape_mesh, 2, "current"), build_a_space(tape_mesh, 1))
    tc = time_config(dt=0.025, t_end=0.05, b_ext=None, drive=ramp_then_hold(I0, 0.25, 0.25))
    with pytest.raises(SingularSystemError, match=r"t-a pairing \(2,1\).* 19-dimensional kernel"):
        run_transient(spaces, tape_materials_power, tc)
    assert calls == []
    hist = run_transient(spaces, linear_mats(1e-9), tc)
    assert hist.n_steps == 2 and calls




@pytest.fixture
def tape_power_case(tape_mesh, tape_materials_power):
    I0 = 0.5 * JC * tape_mesh.w * WIDTH
    t = build_t_space(tape_mesh, 1, "current")
    a = build_a_space(tape_mesh, 1)
    tc = time_config(dt=0.025, t_end=0.2, b_ext=None,
                     drive=ramp_then_hold(I0, 0.25, 0.5))
    return (t, a), tape_materials_power, tc


@pytest.fixture
def bar_power_case(bar_spaces_11, bar_materials_power):
    tc = time_config(dt=0.025, t_end=0.2, b_ext=ramp_then_hold(0.4, 0.5, 1.0),
                     drive=ramp_then_hold(0.0, 0.5, 1.0))
    return bar_spaces_11, bar_materials_power, tc


@pytest.mark.parametrize("case", ["bar_power_case", "tape_power_case"])
def test_final_residuals_match_monolithic(request, monkeypatch, case):
    # the Newton measure, evaluated on the blocks, against the backward
    # error of the monolithic system at each accepted iterate
    spaces, mats, tc = request.getfixturevalue(case)
    name = "assemble_ha_iteration" if spaces[0].family == "H" else "assemble_ta_iteration"
    calls = _record_assemblies(monkeypatch, name)
    hist = run_transient(spaces, mats, tc)
    if hist.counters["rejected_attempts"] == 0:
        # one assembly per attempt, per Newton iteration and per trial
        assert len(calls) == (hist.n_steps + sum(hist.newton_iters)
                              + hist.counters["backtracking_trials"])
    for k, (_, systems) in enumerate(_accepted_attempts(calls, hist)):
        it, sys = systems[-1]
        assert np.array_equal(it, hist.v[k])
        x = np.concatenate([hist.v[k], hist.q[k]])
        free = free_indices(sys)
        mono = backward_error(monolithic(sys, mats)[free], x, s_full(sys)[free])
        assert hist.final_residuals[k] == pytest.approx(mono, rel=1e-12, abs=1e-15)


def _record_assemblies(monkeypatch, name):
    """The (step, iterate, system) of every call of the transient's
    assembler ``name``, in call order."""
    assemble = getattr(transient, name)
    calls = []

    def recording(step, iterate):
        sys = assemble(step, iterate)
        calls.append((step, iterate.copy(), sys))
        return sys

    monkeypatch.setattr(transient, name, recording)
    return calls


def _accepted_attempts(calls, hist):
    """(step, [(iterate, system), ...]) of each accepted step of
    ``hist``, from the recorded ``calls``: the first attempt after the
    previous step's on the step's size, since a rejected attempt is
    followed by one on half its size."""
    attempts = {}
    for step, it, sys in calls:
        attempts.setdefault(id(step), (step, []))[1].append((it, sys))
    attempts = iter(attempts.values())
    for dt in hist.dts:
        yield next(a for a in attempts if a[0].dt == dt)


@pytest.mark.parametrize("case", ["bar_power_case", "tape_power_case"])
def test_a_step_attempt_is_formed_once(request, monkeypatch, case):
    # every system of a step attempt shares the one Step formed when the
    # attempt begins, a rejected attempt's too (the first field solve is
    # refused): its old-state source and its eliminated potential
    # right-hand side are those of the attempt's previous state and
    # essential values, bit for bit
    spaces, mats, tc = request.getfixturevalue(case)
    ha = spaces[0].family == "H"
    calls = _record_assemblies(monkeypatch,
                               "assemble_ha_iteration" if ha else "assemble_ta_iteration")
    solve = "solve_sparse" if ha else "solve_dense"
    original, failed = getattr(transient, solve), []

    def fail_first(*args):
        if not failed:
            failed.append(1)
            raise SingularSystemError("refused for the test")
        return original(*args)

    monkeypatch.setattr(transient, solve, fail_first)
    hist = run_transient(spaces, mats, tc)
    assert failed and hist.counters["rejected_attempts"] >= 1
    # each Step serves one unbroken run of assemblies, one per attempt
    order = [id(step) for step, _, _ in calls]
    runs = [i for k, i in enumerate(order) if k == 0 or order[k - 1] != i]
    assert len(runs) == len(set(runs)) == hist.n_steps + hist.counters["rejected_attempts"]
    v_space, q_space = spaces
    v_prev, q_prev = np.zeros(v_space.n_dofs), np.zeros(q_space.n_dofs)
    for k, (step, systems) in enumerate(_accepted_attempts(calls, hist)):
        assert all(sys.step is step for _, sys in systems)
        t = hist.times[k]
        v_ess = essential_vector(v_space, current=tc.drive(t))
        a_ess = essential_vector(q_space, a_trace=None if tc.b_ext is None else
                                 lambda x, y, b=tc.b_ext(t): -b * y)
        assert np.array_equal(step.v_essential, v_ess)
        assert np.array_equal(step.a_essential, a_ess)
        blocks = step.blocks
        s_prev = blocks.B_T @ q_prev[blocks.gamma]
        if ha:
            s_prev = s_prev + blocks.mass @ v_prev
        assert np.array_equal(step.s_prev, s_prev)
        assert np.array_equal(step.s_potential,
                              -(blocks.q_rows @ np.concatenate([v_ess, a_ess])))
        v_prev, q_prev = hist.v[k], hist.q[k]


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
    tc = time_config(dt=0.025, t_end=0.1, b_ext=ramp_then_hold(0.4, 0.05, 0.1),
                     drive=ramp_then_hold(0.0, 0.05, 0.1))
    hist = run_transient(bar_spaces_11, bar_materials_power, tc)
    iters = sum(hist.newton_iters)
    assert iters >= 4
    assert built["n"] <= 3 * iters


def test_runs_on_shared_spaces_match_fresh_spaces(bar_mesh, bar_materials_power):
    # one pair of spaces serves a run with mu_r 1000 and then one with
    # mu_r 10: nothing of the first run may leak into the second, and
    # each must equal, bitwise, its run on spaces built afresh
    def spaces():
        return (build_h_space(bar_mesh, 1, "current"),
                build_a_space(bar_mesh, 1))

    soft = bar_materials_power
    hard = Materials(soft.power, 10.0)
    tc = time_config(dt=0.025, t_end=0.05, b_ext=ramp_then_hold(0.4, 0.05, 0.1),
                     drive=ramp_then_hold(0.0, 0.05, 0.1))
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
