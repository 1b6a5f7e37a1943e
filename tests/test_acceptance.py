"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 1-4 carry runtime budgets; they use the coarsest meshes that
still resolve the phenomena.
"""

import filecmp
import json
import time

import numpy as np
import pytest
import scipy.sparse as sp

from htsfem.assembly import assemble_norm_matrix, \
    assemble_ha_iteration, h_curl_matrix, linear_blocks, tape_current_density
from htsfem.config import load_config, make_geometry
from htsfem.diagnostics import (oscillation_metric, sample_bn_profile,
                                sample_tape_current, sign_changes)
from htsfem.infsup import run_infsup_sweep
from htsfem.linalg import SingularSystemError, infsup_eigenpairs
from htsfem.materials import MU0, Materials, PowerLaw, de_dj, rho_power
from htsfem.mesh import build_stacked_bar_mesh, build_tape_mesh
from htsfem.spaces import (build_a_space, build_h_space, build_t_space,
                           essential_vector)
from htsfem.transient import NonConvergenceError, ramp_then_hold, run_transient

from util import (NORMS, build_time_values, dof_entries, e_field, eliminated,
                  eval_trace, expand, h_dofs_for_potential, interface_chain,
                  solve_reference, time_config)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


# -- criterion 1 + 2: h-a inf-sup verdict matrix and ||b|| bounds ---------------


@pytest.fixture(scope="module")
def ha_sweep_reports():
    params = make_geometry(load_config({"geometry": {"delta": 0.008, "air_half": 0.042,
                                                     "min_elements_across": 1}}))
    t0 = time.perf_counter()
    reports = run_infsup_sweep(params, [(1, 1), (1, 2), (2, 1), (2, 2)], 4, NORMS)
    return reports, time.perf_counter() - t0


def test_criterion_1_ha_verdict_matrix(ha_sweep_reports):
    reports, elapsed = ha_sweep_reports
    for pair in [(1, 2), (2, 1)]:
        rep = reports[pair]
        assert rep.verdict == "STABLE", (pair, rep.verdict, rep.slope)
        assert abs(rep.slope) < 0.3
        betas = [r.beta for r in rep.records]
        assert min(betas) > 0.5 * max(betas)
    for pair in [(1, 1), (2, 2)]:
        rep = reports[pair]
        assert rep.verdict == "UNSTABLE", (pair, rep.verdict, rep.slope)
        assert 0.7 <= rep.slope <= 1.3
    deltas = [r.delta_rel for r in reports[(1, 1)].records]
    assert len(deltas) >= 4
    assert max(deltas) == pytest.approx(0.4, rel=1e-9)
    assert min(deltas) == pytest.approx(0.025, rel=1e-9)
    assert elapsed < 120.0
    report(1, f"h-a verdicts stable={{(1,2),(2,1)}} unstable={{(1,1),(2,2)}}, "
              f"slopes {reports[(1,1)].slope:.2f}/{reports[(2,2)].slope:.2f}, "
              f"delta/W in [0.025, 0.4], {elapsed:.0f}s < 120s")


def test_criterion_2_bnorm_bounded(ha_sweep_reports):
    reports, _ = ha_sweep_reports
    values = [r.b_norm for rep in reports.values() for r in rep.records]
    assert min(values) >= 1.0
    assert max(values) <= 2.0
    report(2, f"coupling norm within [1.0, 2.0]: observed "
              f"[{min(values):.3f}, {max(values):.3f}] over "
              f"{len(values)} records")


# -- criterion 3: t-a verdict matrix --------------------------------------------


def test_criterion_3_ta_verdict_matrix():
    params = make_geometry(load_config({"scenario": "single_tape", "geometry": {"delta": 0.001}}))
    reports = run_infsup_sweep(params, [(1, 1), (1, 2), (2, 1), (2, 2)], 3, NORMS)
    verdicts = {pair: rep.verdict for pair, rep in reports.items()}
    assert verdicts[(1, 2)] == "STABLE"
    assert verdicts[(2, 1)] == "STABLE"
    assert verdicts[(1, 1)] == "UNSTABLE"
    assert verdicts[(2, 2)] == "UNSTABLE"

    # the (2,1) pairing passes the inf-sup test; its power-law transient
    # may still be refused or fail to converge -- the outcome is
    # recorded, not asserted
    mesh = build_tape_mesh(make_geometry(load_config({"scenario": "single_tape",
                                                      "geometry": {"delta": 0.0005}})))
    jc = 2.5e8
    I0 = 0.1 * jc * mesh.w * 0.01
    mats = Materials(PowerLaw(e_c=1e-4, j_c=jc, n=20, j_reg=1e-3 * jc), 1.0)
    t_sp = build_t_space(mesh, 2, ("current", I0))
    a_sp = build_a_space(mesh, 1)
    tc = time_config(dt=0.025, t_end=0.25, b_ext=None,
                     drive=ramp_then_hold(I0, 0.25, 0.25))
    try:
        run_transient((t_sp, a_sp), mats, tc)
        outcome = "converged"
    except NonConvergenceError as err:
        outcome = f"Newton did not converge ({err})"
    except SingularSystemError as err:
        outcome = f"refused ({err})"
    report(3, f"t-a verdicts {verdicts}; (2,1) transient outcome recorded: "
              f"{outcome}")


# -- criterion 4: oscillation contrast ------------------------------------------


def test_criterion_4_oscillation_contrast_bar():
    params = make_geometry(load_config({"geometry": {"delta": 0.0005}}))
    mesh = build_stacked_bar_mesh(params)
    mats = Materials(PowerLaw(e_c=1e-4, j_c=3e8, n=20, j_reg=1e-3 * 3e8), 1000.0)
    metrics = {}
    for pair in [(1, 1), (2, 1)]:
        h = build_h_space(mesh, pair[0], ("current", 0.0))
        a = build_a_space(mesh, pair[1])
        tc = time_config(dt=0.025, t_end=1.0, b_ext=ramp_then_hold(0.4, 0.5, 1.0),
                         drive=ramp_then_hold(0.0, 0.5, 1.0))
        t0 = time.perf_counter()
        hist = run_transient((h, a), mats, tc)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        prof = sample_bn_profile(h, a, (hist.v[-1], hist.q[-1]),
                                 offset=1e-4, side="ABOVE", n_samples=400)
        metrics[pair] = oscillation_metric(prof)
    contrast = metrics[(1, 1)] / metrics[(2, 1)]
    assert contrast >= 5.0
    report(4, f"stacked-bar flux-profile oscillation contrast "
              f"{metrics[(1,1)]:.1f} vs {metrics[(2,1)]:.1f} "
              f"({contrast:.1f}x >= 5x)")


def test_criterion_4_oscillation_contrast_tape():
    params = make_geometry(load_config({"scenario": "single_tape",
                                        "geometry": {"delta": 0.0003125}}))
    mesh = build_tape_mesh(params)
    jc = 2.5e8
    I0 = 0.1 * jc * mesh.w * 0.01
    mats = Materials(PowerLaw(e_c=1e-4, j_c=jc, n=20, j_reg=1e-3 * jc), 1.0)
    metrics, profiles = {}, {}
    for pair in [(1, 1), (1, 2)]:
        t_sp = build_t_space(mesh, pair[0], ("current", I0))
        a_sp = build_a_space(mesh, pair[1])
        tc = time_config(dt=0.0125, t_end=0.5, b_ext=None,
                         drive=ramp_then_hold(I0, 0.25, 0.5))
        t0 = time.perf_counter()
        hist = run_transient((t_sp, a_sp), mats, tc)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        prof = sample_tape_current(t_sp, hist.v[-1], j_c=jc)
        metrics[pair] = oscillation_metric(prof)
        profiles[pair] = prof
    contrast = metrics[(1, 1)] / metrics[(1, 2)]
    changes = sign_changes(profiles[(1, 1)].values[3:-3])
    assert contrast >= 5.0
    assert changes >= 10
    report(4, f"tape current-profile contrast {contrast:.1f}x >= 5x with "
              f"{changes} interior sign changes in the unstable profile")


# -- criterion 5: eigensolver oracle --------------------------------------------


def test_criterion_5_eigensolver_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        n_q = int(rng.integers(10, 41))
        n_v = int(rng.integers(n_q, 61))
        B = rng.normal(size=(n_q, n_v))
        A = rng.normal(size=(n_v, n_v))
        N_V = A @ A.T + n_v * np.eye(n_v)
        C = rng.normal(size=(n_q, n_q))
        N_Q = C @ C.T + n_q * np.eye(n_q)
        res = infsup_eigenpairs(sp.csr_matrix(B), sp.csr_matrix(N_V),
                                sp.csr_matrix(N_Q))
        Lq = np.linalg.cholesky(N_Q)
        Lv = np.linalg.cholesky(N_V)
        M = np.linalg.solve(Lq, B @ np.linalg.inv(Lv).T)
        ref = np.sort(np.linalg.svd(M, compute_uv=False) ** 2)
        assert len(res.eigenvalues) == len(ref)
        err = np.abs(res.eigenvalues - ref).max() / ref.max()
        worst = max(worst, err)
        assert err < 1e-10
    report(5, f"20 random pencils match the whitened-SVD oracle, "
              f"worst relative error {worst:.2e} < 1e-10")


# -- criterion 6: Jacobian correctness ------------------------------------------


def test_criterion_6_jacobian_finite_differences():
    jc = 3e8
    worst = 0.0
    for n in (5.0, 20.0, 40.0):
        law = PowerLaw(e_c=1e-4, j_c=jc, n=n, j_reg=1e-3 * jc)
        for j in np.logspace(np.log10(0.01 * jc), np.log10(3 * jc), 10):
            eps = 1e-6 * jc
            fd = (e_field(j + eps, law) - e_field(j - eps, law)) / (2 * eps)
            d = de_dj(j, rho_power(j, law), law)
            err = abs(d - fd) / abs(d)
            worst = max(worst, err)
            assert err < 1e-5, (n, j, err)
    report(6, f"differential resistivity matches central differences at "
              f"30 states, worst relative error {worst:.2e} < 1e-5")


# -- criterion 7: exactness invariants ------------------------------------------


def test_criterion_7_exactness(bar_mesh, tape_mesh):
    # (a) the gradient part of the field space is element-wise curl-free
    h2 = build_h_space(bar_mesh, 2, ("current", 0.0))
    rng = np.random.default_rng(11)
    x = np.zeros(h2.n_dofs)
    for k, kind, _ in dof_entries(h2):
        if kind in ("node", "bubble"):
            x[k] = rng.normal()
    G = h_curl_matrix(h2)
    curl = G @ x
    y = rng.normal(size=h2.n_dofs)
    curl_ref = G @ y
    rel_a = np.abs(curl).max() / np.abs(curl_ref).max()
    assert rel_a < 1e-12

    # (b) bubble enrichment never changes the curl
    z = rng.normal(size=h2.n_dofs)
    curl_full = G @ z
    z2 = z.copy()
    for k, kind, _ in dof_entries(h2):
        if kind == "bubble":
            z2[k] = 0.0
    curl_wo = G @ z2
    rel_b = np.abs(curl_full - curl_wo).max() / np.abs(curl_full).max()
    assert rel_b < 1e-12

    # (c) imposed tape current reproduced at every step
    jc = 2.5e8
    I0 = 0.3 * jc * tape_mesh.w * 0.01
    ramp = ramp_then_hold(I0, 0.15, 0.3)
    t_sp = build_t_space(tape_mesh, 1, ("current", I0))
    a_sp = build_a_space(tape_mesh, 1)
    mats = Materials(PowerLaw(e_c=1e-4, j_c=jc, n=20, j_reg=1e-3 * jc), 1.0)
    tc = time_config(dt=0.05, t_end=0.3, b_ext=None, drive=ramp)
    hist = run_transient((t_sp, a_sp), mats, tc)
    segs = tape_mesh.interface_segments
    lens = tape_mesh.segment_lengths(segs)
    worst_c = 0.0
    for k, tk in enumerate(hist.times):
        net = tape_mesh.w * float(tape_current_density(t_sp, hist.v[k]) @ lens)
        err = abs(net - ramp(tk)) / max(abs(ramp(tk)), I0)
        worst_c = max(worst_c, err)
    assert worst_c <= 1e-10

    # (d) the electric-scalar-potential coupling term vanishes on the
    # closed interface for every single-valued trial trace, and equals
    # the net-current functional on the cut: adding it to the coupling
    # matrix therefore changes nothing
    from htsfem._geom import LINE_QP, LINE_QW
    h1 = build_h_space(bar_mesh, 1, ("current", 0.0))
    segs_m, lens_m, cum = interface_chain(h1)
    scale = 1.0 / lens_m.min()
    worst_d = 0.0
    for k, kind, _ in dof_entries(h1):
        xx = np.zeros(h1.n_dofs)
        xx[k] = 1.0
        circ = 0.0
        for ks in range(len(segs_m)):
            for u, w in zip(LINE_QP, LINE_QW):
                circ += w * lens_m[ks] * eval_trace(h1, xx, cum[ks] + u * lens_m[ks])
        if kind == "global":
            assert circ == pytest.approx(1.0, abs=1e-12)
        else:
            worst_d = max(worst_d, abs(circ) / scale)
    assert worst_d < 1e-12
    report(7, f"curl-free gradients ({rel_a:.1e}), curl-invariant bubbles "
              f"({rel_b:.1e}), imposed current ({worst_c:.1e}), closed-loop "
              f"potential term ({worst_d:.1e})")


# -- criterion 8: patch test -----------------------------------------------------


def test_criterion_8_patch_test_all_pairings(bar_mesh):
    mats = Materials(PowerLaw(e_c=1.6e-8 * 3e8, j_c=3e8, n=1, j_reg=1e-3 * 3e8), 1.0)
    b0 = 0.4
    worst = 0.0
    for pair in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        h = build_h_space(bar_mesh, pair[0], ("current", 0.0))
        a = build_a_space(bar_mesh, pair[1])
        a_ess = essential_vector(a, a_trace=lambda x, y: -b0 * x)
        essential = set(a.essential_dofs.tolist())
        a_exact = np.array([a_ess[k] if k in essential else
                            (-b0 * bar_mesh.nodes[ent, 0] if kind == "node" else 0.0)
                            for k, kind, ent in dof_entries(a)])
        h_exact = h_dofs_for_potential(h, lambda x, y: (b0 / MU0) * y)
        blocks = linear_blocks(h, a, mats)
        sys = assemble_ha_iteration(blocks, (h_exact, a_exact), h_exact, 0.0125,
                                    **{**build_time_values(blocks), "a_essential": a_ess})
        v_new, q_new = expand(sys, solve_reference(*eliminated(sys, mats)))
        N_H = assemble_norm_matrix(h, NORMS)
        N_A = assemble_norm_matrix(a, NORMS)
        dv = (v_new - h_exact)[h.free]
        dq = (q_new - a_exact)[a.free]
        err2 = float(dv @ (N_H @ dv) + dq @ (N_A @ dq))
        ref2 = float(h_exact[h.free] @ (N_H @ h_exact[h.free])
                     + a_exact[a.free] @ (N_A @ a_exact[a.free]))
        rel = np.sqrt(err2 / ref2)
        worst = max(worst, rel)
        assert rel < 1e-10, (pair, rel)
    report(8, f"uniform-field patch reproduced on all four pairings, "
              f"worst energy-norm error {worst:.2e} < 1e-10")


# -- criterion 9: linear limit ---------------------------------------------------


def test_criterion_9_linear_limit(bar_spaces_11, bar_materials_linear):
    tc = time_config(dt=0.025, t_end=0.25, b_ext=ramp_then_hold(0.4, 0.125, 0.25),
                     drive=ramp_then_hold(0.0, 0.125, 0.25),
                     rel_residual_tol=1e-12)
    hist = run_transient(bar_spaces_11, bar_materials_linear, tc)
    assert all(it == 1 for it in hist.newton_iters)
    assert max(hist.final_residuals) <= 1e-12
    report(9, f"linear problem converges in exactly one iteration per step, "
              f"worst residual {max(hist.final_residuals):.1e} <= 1e-12")


# -- criterion 10: determinism ---------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    from htsfem.cli import main
    solve_cfg = {"scenario": "single_tape", "geometry": {"delta": 0.0005},
                 "time": {"t_end": 0.25, "n_ramp_steps": 5}}
    sweep_cfg = {"scenario": "stacked_bar",
                 "geometry": {"delta": 0.004, "min_elements_across": 1},
                 "sweep": {"n_refinements": 3}}
    checked = set()
    for tag, cfg, cmd in [("solve", solve_cfg, "solve"),
                          ("sweep", sweep_cfg, "infsup"),
                          ("mode", sweep_cfg, "eigenmode")]:
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{tag}_{run}"
            rc = main([cmd, "--config", str(cfg_path), "--out", str(out),
                       "--quiet"])
            assert rc == 0
            outs.append(out)
        for p in sorted(outs[0].iterdir()):
            if p.name == "run.json":     # wall-clock timings
                continue
            assert filecmp.cmp(p, outs[1] / p.name, shallow=False), p.name
            checked.add((tag, p.name))
    assert {("solve", f"snapshots_{name}.npy") for name in "tvq"} <= checked
    assert any(tag == "sweep" for tag, _ in checked)
    assert {("mode", f"eigenmode_{name}.csv")
            for name in ("potential", "supremizer")} <= checked
    report(10, f"repeated runs byte-identical across {len(checked)} artifacts")
