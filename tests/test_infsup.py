import json

import numpy as np
import pytest

import htsfem.infsup
from htsfem.assembly import assemble_coupling_matrix, assemble_norm_matrix
from htsfem.infsup import (HierarchyError, InfSupMatrix, InfSupReport, build_pairing,
                           export_eigenmode, run_infsup_sweep, _fit_slope, _leading_rows,
                           _sweep_level, _verdict)
from htsfem.linalg import infsup_eigenpairs, interface_schur
from htsfem.mesh import refine
from htsfem.spaces import DofSpace, build_a_space

from util import NORMS, dof_entries, solve_reference


def test_sweep_requires_three_refinements(bar_params):
    with pytest.raises(ValueError):
        run_infsup_sweep(bar_params, [(1, 1)], 2, NORMS)


def test_verdict_rules():
    assert _verdict(0.05, [0.4, 0.41, 0.42]) == "STABLE"
    assert _verdict(1.0, [0.4, 0.2, 0.1]) == "UNSTABLE"
    assert _verdict(0.5, [0.4, 0.3, 0.25]) == "INCONCLUSIVE"
    # flat slope but unbounded drop is not stable
    assert _verdict(0.1, [0.4, 0.1, 0.1]) != "STABLE"


def test_slope_fit_on_finest_half():
    deltas = [0.4, 0.2, 0.1, 0.05, 0.025]
    betas = [1.0, 0.5, 0.25, 0.125, 0.0625]  # exact slope 1
    slope, band = _fit_slope(deltas, betas)
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_mode_rayleigh_quotient_and_normalization(bar_mesh):
    v_sp, q_sp = build_pairing(bar_mesh, (1, 1))
    B = assemble_coupling_matrix(v_sp, q_sp)
    NV = assemble_norm_matrix(v_sp, NORMS)
    NQ = assemble_norm_matrix(q_sp, NORMS)
    eig = infsup_eigenpairs(B, NV, NQ)
    assert eig.beta <= eig.b_norm
    # top mode: coupling Rayleigh quotient equals ||b||^2
    q = eig.eigenvectors[:, -1]
    Gq = B @ solve_reference(NV, np.asarray(B.T @ q).ravel())
    quotient = float(q @ Gq) / float(q @ (NQ @ q))
    assert quotient == pytest.approx(eig.b_norm ** 2, rel=1e-8)
    assert float(q @ (NQ @ q)) == pytest.approx(1.0, abs=1e-8)


def test_unstable_smallest_mode_oscillates(tmp_path, bar_mesh):
    v_sp, q_sp = build_pairing(bar_mesh, (1, 1))
    B = assemble_coupling_matrix(v_sp, q_sp)
    NV = assemble_norm_matrix(v_sp, NORMS)
    NQ = assemble_norm_matrix(q_sp, NORMS)
    eig = infsup_eigenpairs(B, NV, NQ)
    q_full, v_full = export_eigenmode(v_sp, q_sp, B, eig, 0, tmp_path / "mode")
    segs = bar_mesh.interface_segments
    vals = np.array([q_full[q_sp.dof("node", int(n))] for n in segs[:, 0]])
    s = np.sign(vals[np.abs(vals) > 1e-12 * np.abs(vals).max()])
    changes = int(np.sum(s[1:] != s[:-1])) + int(s[0] != s[-1])
    assert changes >= 0.5 * len(segs)
    # exported point clouds exist with one row per entity
    pot = (tmp_path / "mode_potential.csv").read_text().strip().split("\n")
    assert len(pot) == sum(kind == "node" for _, kind, _ in dof_entries(q_sp)) + 1
    sup = (tmp_path / "mode_supremizer.csv").read_text().strip().split("\n")
    assert len(sup) == len(v_sp.meta["sc_tris"]) + 1


@pytest.mark.parametrize("mesh,form,pair", [("bar_mesh", "ha", (1, 1)),
                                            ("bar_mesh", "ha", (2, 1)),
                                            ("tape_mesh", "ta", (1, 2))])
def test_supremizer_matches_reference_solve(request, tmp_path, mesh, form, pair):
    # the exported supremizer, solved with the pencil's own factor of
    # N_V, against the pivoting reference solve of N_V v = B^T q, for
    # the smallest and the largest mode
    mesh = request.getfixturevalue(mesh)
    v_sp, q_sp = build_pairing(mesh, pair)
    assert v_sp.family == {"ha": "H", "ta": "T"}[form]        # the mesh picks it
    B = assemble_coupling_matrix(v_sp, q_sp)
    NV = assemble_norm_matrix(v_sp, NORMS)
    eig = infsup_eigenpairs(B, NV, assemble_norm_matrix(q_sp, NORMS))
    for rank in (0, len(eig.eigenvalues) - 1):
        q_full, v_full = export_eigenmode(v_sp, q_sp, B, eig, rank,
                                          tmp_path / f"mode{rank}")
        ref = solve_reference(NV, np.asarray(B.T @ q_full[q_sp.free]).ravel())
        assert np.abs(v_full[v_sp.free] - ref).max() <= 1e-10 * np.abs(ref).max()


def test_mode_rank_out_of_range(bar_mesh, tmp_path):
    v_sp, q_sp = build_pairing(bar_mesh, (1, 1))
    B = assemble_coupling_matrix(v_sp, q_sp)
    NV = assemble_norm_matrix(v_sp, NORMS)
    NQ = assemble_norm_matrix(q_sp, NORMS)
    eig = infsup_eigenpairs(B, NV, NQ)
    with pytest.raises(IndexError):
        export_eigenmode(v_sp, q_sp, B, eig, 10 ** 6, tmp_path / "mode")


def test_hierarchical_nesting_beta(bar_mesh):
    # enlarging the field space cannot decrease the sup
    betas = {}
    for pair in [(1, 1), (2, 1)]:
        v_sp, q_sp = build_pairing(bar_mesh, pair)
        B = assemble_coupling_matrix(v_sp, q_sp)
        NV = assemble_norm_matrix(v_sp, NORMS)
        NQ = assemble_norm_matrix(q_sp, NORMS)
        betas[pair] = infsup_eigenpairs(B, NV, NQ).beta
    assert betas[(2, 1)] >= betas[(1, 1)] * (1.0 - 1e-10)


def test_report_serialization(tmp_path):
    rep = InfSupReport("ha", (1, 2))
    from htsfem.infsup import SweepRecord
    rep.records = [SweepRecord(0.1, 0.4, 1.5, 20), SweepRecord(0.05, 0.41, 1.5, 40)]
    rep.slope = 0.02
    rep.verdict = "STABLE"
    rep.to_json(tmp_path / "rep.json")
    assert json.loads((tmp_path / "rep.json").read_text())["verdict"] == "STABLE"
    rep.to_csv(tmp_path / "rep.csv")
    lines = (tmp_path / "rep.csv").read_text().strip().split("\n")
    assert lines[0] == "meshsize,beta,normb"
    assert len(lines) == 3


PAIRINGS = [(1, 1), (1, 2), (2, 1), (2, 2)]


# the mesh picks the field space: H on the bar (h-a), T on the tape (t-a)
MESHES = pytest.mark.parametrize("mesh,formulation", [("bar_mesh", "ha"), ("tape_mesh", "ta")],
                                 ids=["ha", "ta"])


@MESHES
def test_shared_level_matches_separate_pencils(request, mesh, formulation):
    # the shared mesh, spaces, N_V factors and N_Q condensation of one
    # level give every pairing the record of its own separate pencil
    base = request.getfixturevalue(mesh)
    meshes = [base, refine(base)]
    reports = InfSupMatrix({pair: InfSupReport(formulation, pair) for pair in PAIRINGS})
    for level, mesh in enumerate(meshes):
        _sweep_level(mesh, PAIRINGS, NORMS, level, reports, 1.0)
    # 8 pencils, each checked on the whole potential space at its two ends
    assert reports.counters == {"mesh_levels": 0, "field_norm_factorizations": 4,
                                "interior_factorizations": 2, "pencils": 8,
                                "full_space_pair_checks": 16}
    for level, mesh in enumerate(meshes):
        sizes = reports.sizes[level]
        for pair in PAIRINGS:
            v_sp, q_sp = build_pairing(mesh, pair)
            B = assemble_coupling_matrix(v_sp, q_sp)
            eig = infsup_eigenpairs(B, assemble_norm_matrix(v_sp, NORMS),
                                    assemble_norm_matrix(q_sp, NORMS))
            rec = reports[pair].records[level]
            assert rec.delta_rel == mesh.delta
            assert rec.beta == pytest.approx(eig.beta, rel=1e-10, abs=0.0)
            assert rec.b_norm == pytest.approx(eig.b_norm, rel=1e-10, abs=0.0)
            assert rec.n_nonzero == len(eig.eigenvalues)
            assert sizes["field_free_dofs"][str(pair[0])] == v_sp.n_free
            assert sizes["potential_free_dofs"][str(pair[1])] == q_sp.n_free
        # every order-2 potential DOF beyond the order-1 ones is coupled
        extra = sizes["potential_free_dofs"]["2"] - sizes["potential_free_dofs"]["1"]
        assert sizes["coupled_rows"]["2"] - sizes["coupled_rows"]["1"] == extra
        assert sizes["interior_dofs"] == (sizes["potential_free_dofs"]["2"]
                                          - sizes["coupled_rows"]["2"])


def _bubbles_first(space):
    """The same potential space with its bubble DOFs numbered first."""
    kinds = {"bubble": space.kinds["bubble"], "node": space.kinds["node"]}
    return DofSpace("A", space.enrichment, space.mesh, kinds,
                    {"node": space.meta["gamma_e_nodes"]}, space.meta)


def test_leading_rows_checks_the_hierarchy(bar_mesh):
    _, q1 = build_pairing(bar_mesh, (1, 1))
    v2, q2 = build_pairing(bar_mesh, (2, 2))
    P = np.flatnonzero(np.diff(assemble_coupling_matrix(v2, q2).indptr))
    n_p = _leading_rows(q1, q2, P, 0)
    B11 = assemble_coupling_matrix(build_pairing(bar_mesh, (1, 1))[0], q1)
    assert np.array_equal(P[:n_p], np.flatnonzero(np.diff(B11.indptr)))
    with pytest.raises(HierarchyError, match="level 3: .* different interiors"):
        _leading_rows(q1, q2, P[:-1], 3)
    with pytest.raises(HierarchyError, match="level 2: .* not the leading DOFs"):
        _leading_rows(q1, _bubbles_first(q2), P, 2)


def test_sweep_names_the_level_of_a_broken_hierarchy(bar_params, monkeypatch):
    def shuffled_a_space(mesh, enrichment):
        space = build_a_space(mesh, enrichment)
        return _bubbles_first(space) if enrichment == 2 else space
    monkeypatch.setattr(htsfem.infsup, "build_a_space", shuffled_a_space)
    with pytest.raises(HierarchyError, match="level 0"):
        run_infsup_sweep(bar_params, [(1, 1), (1, 2)], 3, NORMS)


@MESHES
def test_lower_potential_norm_is_the_leading_block(request, mesh, formulation, monkeypatch):
    # the order-1 pencil gets the leading block of the order-2 norm; it
    # must be the order-1 space's own norm
    mesh = request.getfixturevalue(mesh)
    seen = {}

    def recording(B, N_V, N_Q, *args, **kwargs):
        seen[N_Q.shape[0]] = N_Q
        return infsup_eigenpairs(B, N_V, N_Q, *args, **kwargs)

    monkeypatch.setattr(htsfem.infsup, "infsup_eigenpairs", recording)
    pairings = [(1, 1), (1, 2)]
    reports = InfSupMatrix({pair: InfSupReport(formulation, pair) for pair in pairings})
    _sweep_level(mesh, pairings, NORMS, 0, reports, 1.0)
    for pair in pairings:
        q_sp = build_pairing(mesh, pair)[1]
        ref = assemble_norm_matrix(q_sp, NORMS)
        assert abs(seen[q_sp.n_free] - ref).max() <= 1e-13 * abs(ref).max()


@MESHES
def test_lower_order_pencil_reads_the_richer_factor(request, mesh, formulation):
    # the order-1 pencil gives the same spectrum and extended end modes
    # with the level's order-2 factor as with a factor of its own; a
    # factor that splits the DOFs otherwise is refused
    mesh = request.getfixturevalue(mesh)
    v1, q1 = build_pairing(mesh, (1, 1))
    q2 = build_pairing(mesh, (1, 2))[1]
    B = assemble_coupling_matrix(v1, q1)
    B2 = assemble_coupling_matrix(v1, q2)
    N_V = assemble_norm_matrix(v1, NORMS)
    N_Q2 = assemble_norm_matrix(q2, NORMS)
    P = np.unique(np.concatenate([np.flatnonzero(np.diff(b.indptr)) for b in (B, B2)]))
    n_p = _leading_rows(q1, q2, P, 0)
    assert n_p < len(P)
    n = q1.n_free
    N_Q = N_Q2[:n, :n]
    own = infsup_eigenpairs(B, N_V, N_Q)
    shared = infsup_eigenpairs(B, N_V, N_Q, interior=interface_schur(N_Q2, P))
    assert len(shared.Y) == n_p
    assert np.allclose(shared.eigenvalues, own.eigenvalues, rtol=1e-10, atol=0.0)
    ends = [0, len(own.eigenvalues) - 1]
    for q, q_ref in zip(shared.interior.extend(shared.Y[:, ends]).T,
                        own.interior.extend(own.Y[:, ends]).T):
        q = q * np.sign(q @ q_ref)
        assert np.abs(q - q_ref).max() <= 1e-10 * np.abs(q_ref).max()
    # the extra order-2 rows numbered among the interior, and an
    # order-1 factor without its last interior DOF
    interior = np.setdiff1d(np.arange(n), P)
    keep = np.delete(np.arange(n), interior[-1])
    for factor in [interface_schur(N_Q2, P[:n_p]),
                   interface_schur(N_Q[keep][:, keep], np.searchsorted(keep, P[:n_p]))]:
        with pytest.raises(ValueError, match="splits other DOFs"):
            infsup_eigenpairs(B, N_V, N_Q, interior=factor)
