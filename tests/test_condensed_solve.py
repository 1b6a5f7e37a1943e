"""The block form of a Newton iteration against the straightforward
paths: the transient's solve (a-block factored once, the h-a bordered
(v, a_Γ) system factored in its elimination order or the t-a dense
condensed system, a recovered by one back-substitution) against the
monolithic solve, its (v, a_Γ) against the condensed field system
A + B_Γ^T S_K^{-1} B_Γ of a pivoting sparse solve, its interface values
a_Γ against the recovered a, the field-block kernels against
element-by-element scatter assembly, and the blockwise backward errors
against those of the monolithic system."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from htsfem._geom import LINE_QP, LINE_QW
from htsfem.assembly import (_coupling_full, _curl_form, _h_mass, _masked_scatter, _scatter,
                             _whitney_local, assemble_ha_iteration, assemble_ta_iteration,
                             linear_blocks)
from htsfem.linalg import BorderedSchur, InterfaceSchur, SingularSystemError, solve_sparse
from htsfem.materials import MU0, de_dj, rho_power
from htsfem.spaces import (build_a_space, build_h_space, build_t_space,
                           essential_vector, trace_table, whitney_transform)
from htsfem.transient import _field_solve, _gated_recovery

from util import (a_stiffness, backward_error, build_time_values, condensed, curl_h, dense_schur,
                  eliminated, expand, field_block, free_field_block, free_indices, interface_term,
                  monolithic, s_full, solve_reference)

PAIRINGS = [(form, i, j) for form in ("ha", "ta") for i in (1, 2) for j in (1, 2)]
# j_c times the conductor cross-section: the 20 mm x 10 mm bar, the
# 1 um x 10 mm tape
CRITICAL_CURRENT = {"ha": 3e8 * 0.02 * 0.01, "ta": 2.5e8 * 1e-6 * 0.01}


@pytest.fixture(scope="module")
def coupled(bar_mesh, tape_mesh, bar_materials_power, tape_materials_power):
    """Per pairing: spaces, assembler, the run's blocks and a-block
    factor, the critical current and a sampler of power-law iterates.
    The a-block K_nu and the coupling B are assembled apart from the
    run's blocks, on all DOFs."""
    cases = {}

    def get(form, i, j):
        if (form, i, j) in cases:
            return cases[form, i, j]
        if form == "ha":
            mesh, mats, assemble = bar_mesh, bar_materials_power, assemble_ha_iteration
            v = build_h_space(mesh, i, ("current", 0.0))
        else:
            mesh, mats, assemble = tape_mesh, tape_materials_power, assemble_ta_iteration
            v = build_t_space(mesh, i, ("current", 0.0))
        q = build_a_space(mesh, j)
        blocks = linear_blocks(v, q, mats)
        case = SimpleNamespace(
            form=form, mesh=mesh, v=v, q=q, mats=mats, assemble=assemble, blocks=blocks,
            K_nu=a_stiffness(q, mats), B=_coupling_full(v, q), i_c=CRITICAL_CURRENT[form],
            sample=_iterate_sampler(form, v, mats.power.j_c))
        case.schur = _factor(case)
        cases[form, i, j] = case
        return case
    return get


def _factor(case, K_nu=None):
    """The case's a-block factor as ``run_transient`` builds it: for h-a
    bordered on the field block's fixed pattern, for t-a condensed.
    ``K_nu`` replaces the case's a-block, if given."""
    K = case.K_nu if K_nu is None else K_nu
    free, form = case.q.free, case.blocks.form
    blocks = (K[free][:, free], case.B[free][:, case.v.free])
    if case.form == "ta":
        return InterfaceSchur(*blocks)
    return BorderedSchur(*blocks, form.free_block(form.data(np.ones(form.G.shape[0]))))


def _lift(case, sys, schur):
    return schur.lift(eliminated(sys, case.mats)[1][sys.blocks.v_space.n_free:])


def _solve_condensed(case, sys, schur):
    """The free-DOF solution of ``sys`` as the transient takes it: the
    bordered field solve, then the gated recovery of a; also a_Γ."""
    v, a_gamma = _field_solve(sys, schur, _lift(case, sys, schur))
    return np.concatenate([v, _gated_recovery(sys, v, schur)]), a_gamma


def _iterate_sampler(form, v, jc):
    """Random field coefficients in the power-law regime.

    h-a: a random direction scaled to a peak |j| in [0.01, 1.5] j_c; the
    conductor mass keeps the field block definite.  t-a: a current
    density constant per segment with |j| in [0.7, 1.3] j_c and random
    sign.  The tape block is dt*D alone, and far below j_c the n = 20
    law makes D vanish; on the kernel of B (t bubbles against a hats)
    the system is then singular to working precision, where no two
    solvers agree."""
    if form == "ha":
        def sample(rng):
            x = rng.standard_normal(v.n_dofs)
            return x * rng.uniform(0.01, 1.5) * jc / np.abs(curl_h(v, x)[1]).max()
        return sample
    J = np.stack([_tape_current_at_qp(v, e).ravel() for e in np.eye(v.n_dofs)], axis=1)
    n_seg = J.shape[0] // 3

    def sample(rng):
        seg = rng.uniform(0.7, 1.3, n_seg) * rng.choice([-1.0, 1.0], n_seg) * jc
        return np.linalg.lstsq(J, np.repeat(seg, 3), rcond=None)[0]
    return sample


def _tape_current_at_qp(space, coeffs):
    """Surface current density dt/ds at the Gauss points of each tape
    segment, (S, Q)."""
    tab = trace_table(space)
    return np.einsum("sp,spq->sq", tab.gather(coeffs), tab.values(LINE_QP))


def _system(case, rng, dt, drive, b_ext):
    """A random Newton system of ``case`` around sampled field iterates."""
    a_prev = 1e-3 * rng.standard_normal(case.q.n_dofs)
    v_ess = essential_vector(case.v, current=drive * case.i_c)
    a_ess = essential_vector(case.q, a_trace=lambda x, y: -b_ext * y)
    return case.assemble(case.blocks, (case.sample(rng), a_prev), case.sample(rng), dt,
                         a_essential=a_ess, v_essential=v_ess, voltage=None)


@pytest.mark.parametrize("form,i,j", PAIRINGS)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-3.0, -1.0),
       drive=st.floats(-1.0, 1.0), b_ext=st.floats(0.0, 0.5))
@settings(max_examples=8, deadline=None)
def test_condensed_solve_matches_monolithic(coupled, form, i, j, seed, log_dt,
                                            drive, b_ext):
    case = coupled(form, i, j)
    sys = _system(case, np.random.default_rng(seed), 10.0 ** log_dt, drive, b_ext)
    x = expand(sys, _solve_condensed(case, sys, case.schur)[0])
    x_ref = expand(sys, solve_reference(*eliminated(sys, case.mats)))
    for block, ref in zip(x, x_ref):
        assert np.abs(block - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("form,i,j", PAIRINGS)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-3.0, -1.0),
       drive=st.floats(-1.0, 1.0), b_ext=st.floats(0.0, 0.5))
@settings(max_examples=8, deadline=None)
def test_bordered_solve_matches_condensed(coupled, form, i, j, seed, log_dt, drive, b_ext):
    # (v, a_Γ) of the run's field solve (h-a: the bordered system in its
    # elimination order, t-a: the dense condensed system) against the
    # condensed field system solved by the pivoting reference
    case = coupled(form, i, j)
    sys = _system(case, np.random.default_rng(seed), 10.0 ** log_dt, drive, b_ext)
    lift = _lift(case, sys, case.schur)
    v_ref = solve_reference(*condensed(sys, case.schur, lift))
    ref = (v_ref, case.schur.interface_values(v_ref, lift))
    for x, x_ref in zip(_field_solve(sys, case.schur, lift), ref):
        assert _close(x, x_ref, 1e-10)


@pytest.mark.parametrize("form,i,j", PAIRINGS)
def test_bordered_matrix_holds_the_blocks(coupled, form, i, j):
    # h-a: renumbered back, the bordered matrix is [[A, B_Γ^T], [B_Γ, -S_K]]
    # entry for entry; a nonsymmetric A on the run's pattern exposes a
    # transposed scatter, and an A off the pattern is refused.  t-a: the
    # condensed system is A + B_Γ^T S_K^{-1} B_Γ and s_v + B_Γ^T z_Γ
    case = coupled(form, i, j)
    schur = case.schur
    sys = _system(case, np.random.default_rng(5), 0.01, 0.5, 0.3)
    A = free_field_block(sys)
    A.data = A.data * np.random.default_rng(6).uniform(0.5, 1.5, A.nnz)
    assert abs(A - A.T).max() > 0.0
    lift = _lift(case, sys, schur)
    if form == "ta":
        M, s = schur.condensed(A.toarray(), sys.s_field, lift)
        M_ref, s_ref = condensed(sys, schur, lift)
        assert M.shape == (schur.size,) * 2 and M.size == schur.nnz
        assert _close(M, M_ref - free_field_block(sys) + A, 1e-13) and _close(s, s_ref, 1e-13)
        return
    assert np.array_equal(A.indices, case.blocks.form.free_block(sys.A_data).indices)
    P, s = schur.bordered(A.data, sys.s_field, lift)
    at = np.concatenate(schur.split(np.arange(schur.size))).astype(np.int64)
    B_gamma = case.B[case.q.free][:, case.v.free].tocsr()[schur.factor.rows]
    ref = sp.bmat([[A, B_gamma.T], [B_gamma, -schur.factor.S]])
    assert P.shape == (schur.size,) * 2 and P.nnz == schur.nnz
    # the layout holds no explicit zero: A's pattern, B_Γ and its
    # transpose, and the dense S_K
    assert np.all(A.data != 0.0) and np.all(P.data != 0.0)
    assert P.nnz == A.nnz + 2 * B_gamma.nnz + len(schur.factor.rows) ** 2
    assert np.array_equal(P[at][:, at].toarray(), ref.toarray())
    assert np.array_equal(s[at], np.concatenate([sys.s_field, schur.factor.S @ lift]))
    with pytest.raises(ValueError, match="pattern"):
        schur.bordered(sp.tril(A).tocsr().data, sys.s_field, lift)


@pytest.mark.parametrize("form,i,j", PAIRINGS)
def test_lift_fast_path_matches_full_solve(coupled, form, i, j):
    # s_q zero off Γ: the lift S_K^{-1} s_q,Γ skips the back-substitution
    # and equals the full solve on Γ; one entry off Γ takes the full path
    schur = coupled(form, i, j).schur
    factor = schur.factor
    rng = np.random.default_rng(9)
    s_q = np.zeros(len(factor.order))
    s_q[factor.rows] = rng.standard_normal(len(factor.rows))
    solves = schur.solves
    assert _close(schur.lift(s_q), factor.solve(s_q)[factor.rows], 1e-12)
    assert schur.solves == solves
    s_q[rng.choice(np.setdiff1d(np.arange(len(s_q)), factor.rows))] = 1.0
    z = schur.lift(s_q)
    assert _close(z, factor.solve(s_q)[factor.rows], 1e-12)
    assert schur.solves == solves + 1


@pytest.mark.parametrize("form,i,j", [p for p in PAIRINGS if p[0] == "ha"])
def test_bordered_matrix_filled_in_place_matches_a_fresh_one(coupled, form, i, j):
    # the one bordered CSC, refilled for successive power-law iterates,
    # against the bordered CSC built from scratch for each: equal arrays;
    # and solve_sparse on it equals, bit for bit, its solve of a copy and
    # of the CSR that it converts first
    case = coupled(form, i, j)
    schur, rng = case.schur, np.random.default_rng(11)
    inv = np.argsort(np.concatenate(schur.split(np.arange(schur.size))))
    B_gamma = case.B[case.q.free][:, case.v.free].tocsr()[schur.factor.rows]
    for _ in range(3):
        sys = _system(case, rng, 10.0 ** rng.uniform(-3.0, -1.0), rng.uniform(-1.0, 1.0), 0.3)
        lift = _lift(case, sys, schur)
        P, s = schur.bordered(case.blocks.form.free_data(sys.A_data), sys.s_field, lift)
        ref = sp.bmat([[free_field_block(sys), B_gamma.T], [B_gamma, -schur.factor.S]],
                      format="csr")[inv][:, inv].tocsc()
        ref.sort_indices()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(P, name), getattr(ref, name))
        x = solve_sparse(P, s)
        assert np.array_equal(x, solve_sparse(P.copy(), s))
        assert np.array_equal(x, solve_sparse(P.tocsr(), s))


@pytest.mark.parametrize("form,i,j", PAIRINGS)
def test_field_block_data_matches_fresh_matrices(coupled, form, i, j):
    # the products on the curl form's pattern, with the data and with
    # |data|, against those of A_v and abs(A_v) built afresh, bit for bit;
    # the free block as the data selection, the sparse block and the
    # dense block that t-a solves
    case = coupled(form, i, j)
    rng = np.random.default_rng(12)
    sys = _system(case, rng, 0.01, 0.5, 0.3)
    form_, A = case.blocks.form, field_block(sys)
    x = rng.standard_normal(case.v.n_dofs)
    assert np.array_equal(form_.product(sys.A_data, x), A @ x)
    assert np.array_equal(form_.product(np.abs(sys.A_data), x), abs(A) @ x)
    free = free_field_block(sys)
    block = form_.free_block(sys.A_data)
    assert np.array_equal(form_.free_data(sys.A_data), free.data)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(block, name), getattr(free, name))
    assert np.array_equal(form_.free_dense(sys.A_data), block.toarray())


@pytest.mark.parametrize("form,i,j", PAIRINGS)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-3.0, -1.0),
       drive=st.floats(-1.0, 1.0), b_ext=st.floats(0.0, 0.5))
@settings(max_examples=8, deadline=None)
def test_interface_values_match_recovered_potential(coupled, form, i, j, seed, log_dt,
                                                    drive, b_ext):
    # a_Γ = S_K^{-1} B_Γ v - z_Γ against the back-substituted a on Γ
    case = coupled(form, i, j)
    sys = _system(case, np.random.default_rng(seed), 10.0 ** log_dt, drive, b_ext)
    x_free, a_gamma = _solve_condensed(case, sys, case.schur)
    assert _close(a_gamma, x_free[case.v.n_free:][case.schur.factor.rows], 1e-12)


@pytest.mark.parametrize("form,i,j", PAIRINGS)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-3.0, -1.0),
       drive=st.floats(-1.0, 1.0), b_ext=st.floats(0.0, 0.5))
@settings(max_examples=8, deadline=None)
def test_field_error_matches_backward_error(coupled, form, i, j, seed, log_dt, drive,
                                           b_ext):
    # the Newton measure at (v, a(v)) against the backward error of the
    # monolithic system over the free field rows; over the free potential
    # rows, an exact elimination leaves only rounding
    case = coupled(form, i, j)
    rng = np.random.default_rng(seed)
    sys = _system(case, rng, 10.0 ** log_dt, drive, b_ext)
    v, a = sys.v_essential.copy(), sys.a_essential.copy()
    v[case.v.free] = case.sample(rng)[case.v.free]
    a[case.q.free] = case.schur.recover(v[case.v.free], sys.s_potential)
    x, free, nv = np.concatenate([v, a]), free_indices(sys), case.v.n_free
    K, s = monolithic(sys, case.mats), s_full(sys)
    ref = backward_error(K[free[:nv]], x, s[free[:nv]])
    assert abs(sys.field_error(v, a[sys.blocks.gamma]) - ref) <= 1e-12 * ref
    assert backward_error(K[free[nv:]], x, s[free[nv:]]) <= 1e-13
    assert sys.backward_error(v, a) <= (1.0 + 1e-12) * max(ref, 1e-13)


@pytest.mark.parametrize("form,i,j", [p for p in PAIRINGS if p[0] == "ha"])
def test_interface_term_matches_dense_schur(coupled, form, i, j):
    # S_K against the dense Schur complement of K onto the coupled rows,
    # and the interface term against Bs^T K^{-1} Bs: minus the dense
    # Schur complement of [[K, Bs], [Bs^T, 0]] onto the Bs columns (the
    # t-a a-blocks, 6k DOFs, are too large for a dense oracle)
    case = coupled(form, i, j)
    K = case.K_nu[case.q.free][:, case.q.free]
    B = case.B[case.q.free][:, case.v.free].tocsr()
    gamma = np.flatnonzero(np.diff(B.indptr))
    assert np.array_equal(case.schur.factor.rows, gamma)
    assert _close(case.schur.factor.S, dense_schur(K, gamma), 1e-12)
    Bs = B[:, case.schur.cols].toarray()
    n = K.shape[0]
    M = np.block([[K.toarray(), Bs], [Bs.T, np.zeros((Bs.shape[1],) * 2)]])
    T_ref = -dense_schur(M, np.arange(n, n + Bs.shape[1]))
    sys = _system(case, np.random.default_rng(4), 0.01, 0.5, 0.3)
    T = interface_term(sys, case.schur)
    assert _close(T[case.schur.cols][:, case.schur.cols], T_ref, 1e-12)
    assert T.nnz <= len(case.schur.cols) ** 2


@pytest.mark.parametrize("form,i,j", PAIRINGS)
def test_condensed_gate_rejects_stale_a_factor(coupled, form, i, j):
    # a factor of another a-block solves another system exactly; the
    # full-system residual gate must refuse it
    case = coupled(form, i, j)
    sys = _system(case, np.random.default_rng(7), 0.01, 0.5, 0.3)
    stale = _factor(case, K_nu=2.0 * case.K_nu)
    with pytest.raises(SingularSystemError):
        _solve_condensed(case, sys, stale)


@pytest.mark.parametrize("form,i,j", PAIRINGS)
def test_condensed_gate_rejects_inconsistent_rhs(coupled, form, i, j):
    # a field solve without the a-side right-hand side (S_K z_Γ bordered,
    # B_Γ^T z_Γ condensed): the gate on the recovered a must refuse it
    case = coupled(form, i, j)
    sys = _system(case, np.random.default_rng(8), 0.01, 0.5, 0.3)
    lift = _lift(case, sys, case.schur)
    assert np.abs(lift).max() > 0.0
    v, _ = _field_solve(sys, case.schur, np.zeros_like(lift))
    with pytest.raises(SingularSystemError):
        _gated_recovery(sys, v, case.schur)


def _h_stiffness_scatter(space, tri_weights):
    """Weighted curl-curl of an H space by element-by-element scatter of
    the local blocks w * area * c c^T onto the Whitney edges, mapped to
    the space's DOFs."""
    mesh = space.mesh
    tri_ids = space.meta["sc_tris"]
    sc_edges, C = whitney_transform(space)
    pos = np.full(len(mesh.edges), -1, dtype=np.int64)
    pos[sc_edges] = np.arange(len(sc_edges))
    _, curls, areas = _whitney_local(mesh, tri_ids)
    eids = pos[mesh.tri_edges[tri_ids]]
    loc = np.einsum("t,te,tf->tef", tri_weights * areas, curls, curls)
    Kw = _scatter(np.repeat(eids, 3, axis=1), np.tile(eids, (1, 3)),
                  loc.reshape(len(areas), 9), (len(sc_edges),) * 2)
    return (C.T @ Kw @ C).tocsr()


def _t_stiffness_scatter(space, qp_weights):
    """Weighted tape curl-curl by scatter of the per-segment blocks."""
    tab = trace_table(space)
    fv = tab.values(LINE_QP)
    loc = np.einsum("sq,siq,sjq->sij", LINE_QW * qp_weights, fv, fv) * tab.lens[:, None, None]
    return _masked_scatter(tab.dofs, tab.dofs, loc, (space.n_dofs,) * 2)


def _close(x, ref, rtol):
    x, ref = (np.asarray(y.toarray() if hasattr(y, "toarray") else y) for y in (x, ref))
    return np.abs(x - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("form,i,j", PAIRINGS)
def test_field_block_matches_scatter_assembly(coupled, form, i, j):
    case = coupled(form, i, j)
    rng = np.random.default_rng(3)
    dt = 0.01
    v_prev, v_it = case.sample(rng), case.sample(rng)
    a_prev = 1e-3 * rng.standard_normal(case.q.n_dofs)
    sys = case.assemble(case.blocks, (v_prev, a_prev), v_it, dt,
                        **build_time_values(case.blocks))
    if form == "ha":
        j_it = curl_h(case.v, v_it)[1]
        scale, stiffness = dt, _h_stiffness_scatter
        M = _h_mass(case.v, MU0)
        A_ref, s_ref = M, M @ v_prev
    else:
        j_it = _tape_current_at_qp(case.v, v_it)
        scale, stiffness = dt * case.mesh.w, _t_stiffness_scatter
        A_ref, s_ref = 0.0, 0.0
    rho = rho_power(j_it, case.mats.power)
    dedj = de_dj(j_it, rho, case.mats.power)
    A_ref = A_ref + stiffness(case.v, scale * dedj)
    rhs_term = stiffness(case.v, scale * (rho - dedj)) @ v_it
    s_ref = case.B.T @ a_prev + s_ref - rhs_term
    assert _close(field_block(sys), A_ref, 1e-13)
    assert _close(free_field_block(sys), A_ref[case.v.free][:, case.v.free], 1e-13)
    assert _close(sys.s_v, s_ref, 1e-13)
    # the nonlinear right-hand-side term K(w) v_it, formed without K(w)
    w_rhs = np.ravel(scale * (rho - dedj))
    form = _curl_form(case.v)
    assert _close(form.apply(w_rhs, form.G @ v_it), rhs_term, 1e-13)


@pytest.mark.parametrize("form,i,j", PAIRINGS)
@given(seed=st.integers(0, 2**32 - 1), log_dt=st.floats(-3.0, -1.0),
       drive=st.floats(-1.0, 1.0), b_ext=st.floats(0.0, 0.5))
@settings(max_examples=8, deadline=None)
def test_block_backward_errors_match_monolithic(coupled, form, i, j, seed, log_dt,
                                                drive, b_ext):
    case = coupled(form, i, j)
    rng = np.random.default_rng(seed)
    sys = _system(case, rng, 10.0 ** log_dt, drive, b_ext)
    v, a = case.sample(rng), 1e-3 * rng.standard_normal(case.q.n_dofs)
    x = np.concatenate([v, a])
    # the gate's and the final residual's backward errors, each against
    # its straightforward evaluation
    free = free_indices(sys)
    x_run = np.concatenate(expand(sys, x[free]))
    ref = backward_error(monolithic(sys, case.mats)[free], x_run, s_full(sys)[free])
    v_run, a_run = x_run[:case.v.n_dofs], x_run[case.v.n_dofs:]
    assert abs(sys.backward_error(v_run, a_run) - ref) <= 1e-12 * ref
    K, s = eliminated(sys, case.mats)
    ref = backward_error(K, x[free], s)
    assert abs(sys.free_backward_error(v[case.v.free], a[case.q.free]) - ref) <= 1e-12 * ref
    assert _close(np.concatenate([sys.s_field, sys.s_potential]), s, 1e-13)
