import numpy as np
import pytest

from htsfem.diagnostics import (ProfileSample, SamplingError, locate_points,
                                oscillation_metric, sample_bn_profile,
                                sample_tape_current, sign_changes)
from htsfem.materials import MU0, Materials, PowerLaw
from htsfem.mesh import Region
from htsfem.spaces import build_a_space, build_t_space, essential_vector
from htsfem.transient import ramp_then_hold, run_transient

from hypothesis import given, settings
from hypothesis import strategies as st

from util import (dof_entries, eliminated, expand, locate_points_reference, magnetization,
                  penetrated_area, solve_reference, time_config)


def test_metric_monotone():
    p = ProfileSample(np.arange(5.0), np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert oscillation_metric(p) == pytest.approx(1.0)


def test_metric_triangle_pulse():
    p = ProfileSample(np.arange(5.0), np.array([0.0, 1.0, 2.0, 1.0, 0.0]))
    assert oscillation_metric(p) == pytest.approx(2.0)


def test_metric_alternating():
    m = 6
    vals = np.array([(-1.0) ** k for k in range(2 * m)])
    p = ProfileSample(np.arange(2.0 * m), vals)
    assert oscillation_metric(p) == pytest.approx(2 * m - 1)


def test_metric_constant_profile():
    p = ProfileSample(np.arange(3.0), np.zeros(3))
    assert oscillation_metric(p) == 1.0


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=40))
@settings(max_examples=150, deadline=None)
def test_metric_at_least_one(values):
    p = ProfileSample(np.arange(float(len(values))), np.array(values))
    assert oscillation_metric(p) >= 1.0 - 1e-12


def test_profile_validation():
    with pytest.raises(SamplingError):
        ProfileSample(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(SamplingError):
        ProfileSample(np.array([0.0, 2.0, 1.0]), np.zeros(3))


def test_sign_changes():
    assert sign_changes([1.0, -1.0, 1.0, -1.0]) == 3
    assert sign_changes([1.0, 2.0, 3.0]) == 0
    assert sign_changes([1.0, 1e-15, -1.0]) == 1
    assert sign_changes(np.zeros(4)) == 0


def test_locate_points(bar_mesh):
    for pt, region in (([0.0, -0.005], Region.OMEGA_H_SC),
                       ([0.015, 0.015], Region.OMEGA_A_AIR)):
        tri_ids, barys = locate_points(bar_mesh, np.array([pt]), region)
        assert bar_mesh.tri_region[tri_ids[0]] == int(region)
        assert np.allclose(barys.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(SamplingError):
        locate_points(bar_mesh, np.array([[1.0, 1.0]]), Region.OMEGA_A_AIR)


@pytest.mark.parametrize("region", [Region.OMEGA_H_SC, Region.OMEGA_A_FERRO,
                                    Region.OMEGA_A_AIR])
def test_binned_location_matches_the_full_search(bar_mesh, region):
    # random points of the region, its nodes (shared by several
    # triangles) and its edge midpoints: the binned search returns the
    # full search's triangle, the first hit in region order, and the
    # same barycentric coordinates bit for bit
    tris = bar_mesh.triangles[bar_mesh.region_tris(region)]
    corners = bar_mesh.nodes[tris]
    rng = np.random.default_rng(2)
    w = rng.dirichlet(np.ones(3), size=len(tris))
    pts = np.concatenate([np.einsum("tk,tkd->td", w, corners)[::7], corners[::5, 0],
                          0.5 * (corners[::5, 0] + corners[::5, 1])])
    tri_ids, barys = locate_points(bar_mesh, pts, region)
    ref_ids, ref_barys = locate_points_reference(bar_mesh, pts, region)
    assert np.array_equal(tri_ids, ref_ids)
    assert np.array_equal(barys, ref_barys)


def test_zero_solution_zero_profile(bar_spaces_11):
    h, a = bar_spaces_11
    sol = (np.zeros(h.n_dofs), np.zeros(a.n_dofs))
    prof = sample_bn_profile(h, a, sol, offset=1e-4, side="ABOVE", n_samples=200)
    assert np.abs(prof.values).max() == 0.0
    assert len(prof.positions) >= 50


def test_uniform_field_patch_both_sides(bar_mesh, bar_spaces_11):
    # vertical uniform field in an all-vacuum linear problem: the
    # interface-normal flux matches on both sides of the interface
    from htsfem.assembly import assemble_ha_iteration, linear_blocks
    h, a = bar_spaces_11
    mats = Materials(PowerLaw(e_c=1.6e-8 * 3e8, j_c=3e8, n=1, j_reg=1e-3 * 3e8), 1.0)
    from util import h_dofs_for_potential, make_step
    b0 = 0.4
    # exact pair: a = -b0*x gives b = (0, b0); h = b/mu0 = grad((b0/mu0) y)
    trace = lambda x, y: -b0 * x
    a_exact = essential_vector(a, a_trace=trace)
    essential = set(a.essential_dofs.tolist())
    a_full = np.array([a_exact[k] if k in essential else
                       -b0 * bar_mesh.nodes[ent, 0]
                       for k, kind, ent in dof_entries(a)])
    h_full = h_dofs_for_potential(h, lambda x, y: (b0 / MU0) * y)
    # fixed point of one implicit step from the exact state
    blocks = linear_blocks(h, a, mats)
    sys = assemble_ha_iteration(make_step(blocks, (h_full, a_full), 0.0125, a_trace=trace),
                                h_full)
    v_new, q_new = expand(sys, solve_reference(*eliminated(sys, mats)))
    above = sample_bn_profile(h, a, (v_new, q_new),
                              offset=1e-4, side="ABOVE", n_samples=200)
    below = sample_bn_profile(h, a, (v_new, q_new),
                              offset=1e-4, side="BELOW", n_samples=200)
    assert np.abs(above.values - b0).max() < 1e-10 * b0
    assert np.abs(above.values - below.values).max() < 1e-10 * b0


def test_bn_profile_offset_outside_region(bar_spaces_11):
    h, a = bar_spaces_11
    sol = (np.zeros(h.n_dofs), np.zeros(a.n_dofs))
    with pytest.raises(SamplingError):
        sample_bn_profile(h, a, sol, offset=0.02, side="ABOVE", n_samples=200)
    with pytest.raises(SamplingError):
        sample_bn_profile(h, a, sol, offset=-1e-4, side="BELOW", n_samples=200)


def test_tape_profile_constant_ramp(tape_mesh):
    t = build_t_space(tape_mesh, 1, "current")
    T = 2.0 / tape_mesh.w
    x = essential_vector(t, current=2.0)
    xm = tape_mesh.nodes[tape_mesh.interface_segments[0, 0], 0]
    for k, kind, ent in dof_entries(t):
        if kind == "node":
            x[k] = T * (tape_mesh.nodes[ent, 0] - xm) / 0.01
    jc = 2.5e8
    prof = sample_tape_current(t, x, j_c=jc)
    expect = 2.0 / (tape_mesh.w * 0.01 * jc)
    assert np.abs(prof.values - expect).max() < 1e-9 * expect


def test_tape_profile_conservation(tape_mesh, tape_materials_power):
    # integrated sampled profile reproduces the imposed current
    jc = tape_materials_power.power.j_c
    I0 = 0.4 * jc * tape_mesh.w * 0.01
    t = build_t_space(tape_mesh, 1, "current")
    a = build_a_space(tape_mesh, 1)
    tc = time_config(dt=0.05, t_end=0.25, b_ext=None,
                     drive=ramp_then_hold(I0, 0.25, 0.25))
    hist = run_transient((t, a), tape_materials_power, tc)
    prof = sample_tape_current(t, hist.v[-1], j_c=jc)
    segs = tape_mesh.interface_segments
    lens = tape_mesh.segment_lengths(segs)
    net = tape_mesh.w * jc * float(prof.values @ lens)
    assert net == pytest.approx(I0, rel=1e-8)


def test_stable_tape_penetration_shape(tape_mesh, tape_materials_power):
    # fast subcritical ramp: current peaks near j_c at the tape edges
    # with a lower plateau in the middle
    jc = tape_materials_power.power.j_c
    I0 = 0.8 * jc * tape_mesh.w * 0.01
    t = build_t_space(tape_mesh, 1, "current")
    a = build_a_space(tape_mesh, 2)
    tc = time_config(dt=0.00125, t_end=0.05, b_ext=None,
                     drive=ramp_then_hold(I0, 0.05, 0.05))
    hist = run_transient((t, a), tape_materials_power, tc)
    prof = sample_tape_current(t, hist.v[-1], j_c=jc)
    v = prof.values
    mid = v[len(v) // 2]
    assert 0.85 <= v[0] <= 1.25
    assert 0.85 <= v[-1] <= 1.25
    assert mid < v[0]
    assert np.all(v > 0.0)


def test_penetrated_area_and_magnetization(bar_mesh, bar_spaces_11):
    h, a = bar_spaces_11
    x = np.zeros(h.n_dofs)
    assert penetrated_area(bar_mesh, h, x, 3e8) == 0.0
    assert np.allclose(magnetization(bar_mesh, h, x), 0.0)
    # unit net current: |m| is finite and nonzero
    x[h.dof("global", 0)] = 1.0
    m = magnetization(bar_mesh, h, x)
    assert np.hypot(*m) > 0.0


def test_profile_csv(tmp_path):
    p = ProfileSample(np.arange(4.0), np.array([0.0, 1.0, 0.5, 2.0]))
    path = tmp_path / "prof.csv"
    p.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "position,value"
    assert len(lines) == 5
