"""The graded tape mesh against the uniform one as the oracle: the
paper's two t-a results, the tape current's oscillations and the verdict
matrix, read the same on both."""

import pytest

import htsfem.infsup as infsup
from htsfem.config import load_config, make_geometry
from htsfem.diagnostics import oscillation_metric, sample_tape_current, sign_changes
from htsfem.materials import Materials, PowerLaw
from htsfem.mesh import build_tape_mesh
from htsfem.spaces import build_a_space, build_t_space
from htsfem.transient import ramp_then_hold, run_transient

from util import NORMS, time_config, uniform_tape_mesh


def _tape_current(mesh, pair):
    """Oscillation and interior sign changes of the tape current after
    the criterion-4 transient of ``pair`` on ``mesh``."""
    jc = 2.5e8
    I0 = 0.1 * jc * mesh.w * 0.01
    mats = Materials(PowerLaw(e_c=1e-4, j_c=jc, n=20, j_reg=1e-3 * jc), 1.0)
    t_sp = build_t_space(mesh, pair[0], "current")
    a_sp = build_a_space(mesh, pair[1])
    tc = time_config(dt=0.0125, t_end=0.5, b_ext=None, drive=ramp_then_hold(I0, 0.25, 0.5))
    prof = sample_tape_current(t_sp, run_transient((t_sp, a_sp), mats, tc).v[-1], j_c=jc)
    return oscillation_metric(prof), sign_changes(prof.values[3:-3])


@pytest.mark.parametrize("pair", [(1, 1), (1, 2)])
def test_graded_tape_current_matches_the_uniform_mesh(pair):
    params = make_geometry(load_config({"scenario": "single_tape",
                                        "geometry": {"delta": 0.000625}}))
    osc, changes = _tape_current(build_tape_mesh(params), pair)
    osc_ref, changes_ref = _tape_current(uniform_tape_mesh(params), pair)
    assert osc == pytest.approx(osc_ref, rel=0.01)
    assert changes == changes_ref


def test_graded_ta_verdict_matrix_matches_the_uniform_mesh(monkeypatch):
    params = make_geometry(load_config({"scenario": "single_tape", "geometry": {"delta": 0.001}}))
    pairings = [(1, 1), (1, 2), (2, 1), (2, 2)]
    graded = infsup.run_infsup_sweep(params, pairings, 3, NORMS)
    monkeypatch.setattr(infsup, "build_tape_mesh", uniform_tape_mesh)
    uniform = infsup.run_infsup_sweep(params, pairings, 3, NORMS)
    for pair in pairings:
        assert graded[pair].verdict == uniform[pair].verdict
        assert [r.delta_rel for r in graded[pair].records] == pytest.approx(
            [r.delta_rel for r in uniform[pair].records], rel=1e-12)
        if graded[pair].verdict == "STABLE":
            assert [r.beta for r in graded[pair].records] == pytest.approx(
                [r.beta for r in uniform[pair].records], rel=0.03)
