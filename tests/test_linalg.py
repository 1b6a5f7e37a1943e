from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import htsfem.linalg
from htsfem.linalg import (ZERO_TOL_REL, DegenerateCouplingError, SchurFactor,
                           SingularSystemError, infsup_eigenpairs, interface_schur,
                           solve_dense, solve_sparse)

from util import (NORMS, build_time_values, dense_schur, eliminated, solve_reference,
                  time_config)


def dense_infsup_oracle(B, N_V, N_Q):
    """Whitened SVD: the nonzero eigenvalues are the squared singular
    values of N_Q^{-1/2} B N_V^{-1/2}."""
    Lq = np.linalg.cholesky(N_Q)
    Lv = np.linalg.cholesky(N_V)
    M = np.linalg.solve(Lq, B @ np.linalg.inv(Lv).T)
    svals = np.linalg.svd(M, compute_uv=False)
    return np.sort(svals ** 2)


def random_spd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


def test_solve_identity():
    n = 12
    K = sp.eye(n, format="csr")
    s = np.arange(1.0, n + 1.0)
    assert np.allclose(solve_sparse(K, s), s, atol=1e-14)


@pytest.mark.parametrize("solve", [solve_sparse, solve_reference])
def test_solve_symmetric_indefinite_vs_dense(solve):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(50, 50))
    K = A + A.T  # symmetric, generically indefinite
    s = rng.normal(size=50)
    x = solve(sp.csr_matrix(K), s)
    x_ref = np.linalg.solve(K, s)
    assert np.abs(x - x_ref).max() < 1e-10 * np.abs(x_ref).max()


@pytest.mark.parametrize("solve", [solve_sparse, solve_reference])
def test_solve_assembled_ha_vs_dense(solve, bar_spaces_11, bar_materials_linear):
    from htsfem.assembly import assemble_ha_iteration, linear_blocks
    from htsfem.spaces import essential_vector
    h, a = bar_spaces_11
    z = (np.zeros(h.n_dofs), np.zeros(a.n_dofs))
    a_ess = essential_vector(a, a_trace=lambda x, y: -0.4 * y)
    blocks = linear_blocks(h, a, bar_materials_linear)
    sys = assemble_ha_iteration(blocks, z, z[0], 0.0125,
                                **{**build_time_values(blocks), "a_essential": a_ess})
    K, s = eliminated(sys, bar_materials_linear)
    x = solve(K, s)
    K = K.toarray()
    x_ref = np.linalg.solve(K, s)
    x_ref += np.linalg.solve(K, s - K @ x_ref)   # refine the oracle once
    err = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
    assert err < 1e-9


def test_solve_singular_raises():
    K = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        solve_sparse(K, np.ones(2))


def test_solve_sparse_multiplies_by_K_after_the_abs_product(monkeypatch):
    # K's data holds |K| only within the product with it: a refinement
    # that multiplies by K after |K| sees K, and the solve passes its gate
    refined, products = htsfem.linalg._refined_solve, []

    def abs_product_first(K, s, row_max, factor, abs_product):
        y = np.arange(1.0, K.shape[0] + 1.0)
        before = K @ y
        abs_product(y)
        products.append((before, K @ y))
        return refined(K, s, row_max, factor, abs_product)
    monkeypatch.setattr(htsfem.linalg, "_refined_solve", abs_product_first)
    rng = np.random.default_rng(3)
    K0 = random_spd(rng, 20) - 25.0 * np.eye(20)        # indefinite, signs mixed
    K, s = sp.csc_matrix(K0), rng.normal(size=20)
    data = K.data.copy()
    x = solve_sparse(K, s)
    (before, after), = products
    assert np.array_equal(after, before)
    assert np.array_equal(K.data, data)
    assert np.abs(K0 @ x - s).max() <= 1e-10 * np.abs(s).max()


def test_dense_solve_matches_scaled_oracle_and_refuses_indefinite():
    # rows scaled 16 orders of magnitude apart: the equilibrated Cholesky
    # solve against the solve of the unscaled SPD core; an indefinite
    # matrix is refused by its factorization
    rng = np.random.default_rng(1)
    scale = 10.0 ** rng.uniform(-8.0, 8.0, 30)
    K0 = random_spd(rng, 30)
    s = rng.normal(size=30)
    x_ref = np.linalg.solve(K0, s / scale) / scale
    x = solve_dense(K0 * scale[:, None] * scale, s)
    assert np.all(np.abs(x - x_ref) <= 1e-10 * np.abs(x_ref))
    A = rng.normal(size=(30, 30))
    with pytest.raises(SingularSystemError, match="factorization failed"):
        solve_dense(A + A.T, s)


def test_solve_refuses_an_off_diagonal_pivot():
    # regular, but its numbering puts a zero on the diagonal: the caller
    # chose an order that needs a pivot, and the solve refuses it
    K = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(solve_reference(K, np.array([1.0, 2.0])), [2.0, 1.0])
    with pytest.raises(SingularSystemError, match="pivoted off the diagonal"):
        solve_sparse(K, np.array([1.0, 2.0]))


def test_every_factorization_keeps_the_callers_order(monkeypatch, tmp_path, bar_mesh,
                                                    bar_spaces_11, bar_materials_power):
    # a transient, a pencil and an eigenmode export: every SuperLU
    # factorization is in the caller's order on diagonal pivots, and
    # every incomplete one only reads a minimum-degree order
    import htsfem.linalg
    from htsfem.assembly import assemble_coupling_matrix, assemble_norm_matrix
    from htsfem.infsup import build_pairing, export_eigenmode
    from htsfem.transient import ramp_then_hold, run_transient
    calls = {"splu": [], "spilu": []}

    def recording(name):
        factorize = getattr(htsfem.linalg, name)

        def record(K, **options):
            calls[name].append(options)
            return factorize(K, **options)
        return record

    for name in calls:
        monkeypatch.setattr(htsfem.linalg, name, recording(name))
    tc = time_config(dt=0.025, t_end=0.05, b_ext=ramp_then_hold(0.4, 0.05, 0.1),
                     drive=ramp_then_hold(0.0, 0.05, 0.1))
    hist = run_transient(bar_spaces_11, bar_materials_power, tc)
    assert hist.n_steps == 2
    v_sp, q_sp = build_pairing(bar_mesh, (1, 1))
    B = assemble_coupling_matrix(v_sp, q_sp)
    eig = infsup_eigenpairs(B, assemble_norm_matrix(v_sp, NORMS),
                            assemble_norm_matrix(q_sp, NORMS))
    n_splu = len(calls["splu"])
    export_eigenmode(v_sp, q_sp, B, eig, 0, tmp_path / "mode")
    assert len(calls["splu"]) == n_splu          # the export factors nothing
    # the a-block, one bordered system per Newton iteration, N_V and N_Q
    assert n_splu == 1 + hist.counters["field_solves"] + 2
    assert calls["splu"] == [{"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
                              "options": {"SymmetricMode": True}}] * n_splu
    # the a-block interior, the field block, N_V's interior and N_Q's interior
    assert calls["spilu"] == [{"drop_tol": 1.0, "fill_factor": 1.0,
                               "permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                               "options": {"SymmetricMode": True}}] * 4


def test_eig_identity():
    n = 8
    I = sp.eye(n, format="csr")
    res = infsup_eigenpairs(I, I, I)
    assert np.allclose(res.eigenvalues, 1.0, atol=1e-12)
    assert res.beta == pytest.approx(1.0, rel=1e-12)
    assert res.b_norm == pytest.approx(1.0, rel=1e-12)
    assert len(res.eigenvalues) == n


def test_eig_zero_row():
    n = 6
    B = np.eye(n)
    B[2] = 0.0
    res = infsup_eigenpairs(sp.csr_matrix(B), sp.eye(n, format="csr"),
                            sp.eye(n, format="csr"))
    assert len(res.eigenvalues) == n - 1
    assert res.beta == pytest.approx(1.0, rel=1e-12)


def test_eig_random_vs_whitened_svd():
    rng = np.random.default_rng(1)
    B = rng.normal(size=(30, 40))
    N_V = random_spd(rng, 40)
    N_Q = random_spd(rng, 30)
    res = infsup_eigenpairs(sp.csr_matrix(B), sp.csr_matrix(N_V),
                            sp.csr_matrix(N_Q))
    ref = dense_infsup_oracle(B, N_V, N_Q)
    assert len(res.eigenvalues) == len(ref)
    assert np.abs(res.eigenvalues - ref).max() < 1e-10 * ref.max()


def test_eig_nonneg_and_orthonormal():
    rng = np.random.default_rng(2)
    B = rng.normal(size=(15, 25))
    B[5] = 0.0
    N_V = random_spd(rng, 25)
    N_Q = random_spd(rng, 15)
    res = infsup_eigenpairs(sp.csr_matrix(B), sp.csr_matrix(N_V),
                            sp.csr_matrix(N_Q))
    assert res.eigenvalues.min() >= 0.0
    Q = res.eigenvectors
    M = Q.T @ (N_Q @ Q)
    assert np.abs(M - np.eye(M.shape[0])).max() < 1e-8
    # retained count equals the rank of B
    assert len(res.eigenvalues) == np.linalg.matrix_rank(B)


def test_eig_permutation_invariance():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(12, 20))
    N_V = random_spd(rng, 20)
    N_Q = random_spd(rng, 12)
    beta0 = infsup_eigenpairs(sp.csr_matrix(B), sp.csr_matrix(N_V),
                              sp.csr_matrix(N_Q)).beta
    perm = rng.permutation(12)
    P = np.eye(12)[perm]
    beta1 = infsup_eigenpairs(sp.csr_matrix(P @ B), sp.csr_matrix(N_V),
                              sp.csr_matrix(P @ N_Q @ P.T)).beta
    assert beta1 == pytest.approx(beta0, rel=1e-10)


@given(seed=st.integers(0, 2**32 - 1), n_q=st.integers(4, 24), n_v=st.integers(2, 30),
       coupled=st.floats(0.1, 0.9), density=st.floats(0.1, 0.6))
@example(seed=3364, n_q=24, n_v=23, coupled=0.75, density=0.109375)
@settings(max_examples=60, deadline=None)
def test_eig_interior_dofs_vs_whitened_svd(seed, n_q, n_v, coupled, density):
    # B couples only some potential rows; N_Q is sparse and couples the
    # other (interior) rows to them, so the pencil runs through the
    # Schur complement S != N_Q[P,P] and the harmonic extension
    rng = np.random.default_rng(seed)
    rows = rng.random(n_q) < coupled
    rows[rng.integers(n_q)] = True
    B = sp.random(n_q, n_v, density=density, random_state=rng).toarray()
    B[rows, rng.integers(n_v, size=n_q)[rows]] += 1.0     # every coupled row is nonzero
    B[~rows] = 0.0
    N_V = random_spd(rng, n_v)
    L = sp.random(n_q, n_q, density=0.3, random_state=rng).toarray()
    L[np.ix_(~rows, rows)] += rng.normal(size=(int((~rows).sum()), int(rows.sum())))
    N_Q = L @ L.T + np.eye(n_q)
    res = infsup_eigenpairs(sp.csr_matrix(B), sp.csr_matrix(N_V), sp.csr_matrix(N_Q))
    ref = dense_infsup_oracle(B, N_V, N_Q)
    # the oracle's nonzero eigenvalues by the pencil's own cutoff: B may
    # have full rank and yet an eigenvalue below 1e-10 of the largest
    # (seed 3364: rank 21, the 21st at 9.8e-11)
    rank = int(np.count_nonzero(ref > 1e-10 * ref.max()))
    assert len(res.eigenvalues) == rank
    assert np.abs(res.eigenvalues - ref[len(ref) - rank:]).max() < 1e-10 * ref.max()
    Q = res.eigenvectors
    assert np.abs(Q.T @ N_Q @ Q - np.eye(rank)).max() < 1e-8


@pytest.mark.parametrize("pairing", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_eig_ha_pairings_vs_whitened_svd(bar_mesh, pairing):
    from htsfem.assembly import assemble_coupling_matrix, assemble_norm_matrix
    from htsfem.infsup import build_pairing
    v_sp, q_sp = build_pairing(bar_mesh, pairing)
    B = assemble_coupling_matrix(v_sp, q_sp)
    N_V = assemble_norm_matrix(v_sp, NORMS)
    N_Q = assemble_norm_matrix(q_sp, NORMS)
    res = infsup_eigenpairs(B, N_V, N_Q)
    ref = dense_infsup_oracle(B.toarray(), N_V.toarray(), N_Q.toarray())
    k = len(res.eigenvalues)
    assert np.abs(res.eigenvalues - ref[len(ref) - k:]).max() < 1e-10 * ref.max()
    assert ref[:len(ref) - k].max(initial=0.0) <= ZERO_TOL_REL * res.eigenvalues[-1]


def test_eig_indefinite_potential_norm_raises():
    I3 = sp.eye(3, format="csr")
    with pytest.raises(SingularSystemError):
        infsup_eigenpairs(I3, I3, sp.diags([1.0, 1.0, -1.0], format="csr"))


def test_eig_degenerate_coupling():
    n = 5
    Z = sp.csr_matrix((n, n))
    with pytest.raises(DegenerateCouplingError):
        infsup_eigenpairs(Z, sp.eye(n, format="csr"), sp.eye(n, format="csr"))


def _pencil_with_45_pairs():
    """A random pencil with 45 kept eigenpairs: B couples 50 of the 70
    potential DOFs and a dense N_Q couples the other 20 to them, so both
    the Schur term of S and the extension to I are nonzero.  Returns
    (B, N_V, N_Q, coupled rows) after checking that it passes the gate."""
    rng = np.random.default_rng(4)
    coupled = np.sort(rng.choice(70, size=50, replace=False))
    B = np.zeros((70, 45))
    B[coupled] = rng.normal(size=(50, 45))
    B = sp.csr_matrix(B)
    N_V = sp.csr_matrix(random_spd(rng, 45))
    N_Q = sp.csr_matrix(random_spd(rng, 70))
    res = infsup_eigenpairs(B, N_V, N_Q)
    assert len(res.eigenvalues) == 45
    assert res.checked.tolist() == [0, 44]
    Q = res.eigenvectors
    assert np.abs(res.interior.extend(res.Y[:, 17]) - Q[:, 17]).max() <= 1e-14 * np.abs(Q).max()
    assert np.abs(Q.T @ (N_Q @ Q) - np.eye(45)).max() < 1e-8
    return B, N_V, N_Q, coupled


def test_gate_rejects_a_perturbed_schur_complement():
    B, N_V, N_Q, P = _pencil_with_45_pairs()
    interior = interface_schur(N_Q, P)
    S = interior.S.copy()
    d = 1e-5 * np.abs(S).max()
    S[3, 11] += d
    S[11, 3] += d
    with pytest.raises(SingularSystemError, match="full-space check: eigen"):
        infsup_eigenpairs(B, N_V, N_Q, interior=replace(interior, S=S))


def test_gate_rejects_a_dropped_schur_term():
    B, N_V, N_Q, P = _pencil_with_45_pairs()
    interior = interface_schur(N_Q, P)
    S = N_Q[P][:, P].toarray()
    with pytest.raises(SingularSystemError, match="full-space check: eigen"):
        infsup_eigenpairs(B, N_V, N_Q, interior=replace(interior, S=S))


def test_gate_rejects_an_extension_left_at_zero(monkeypatch):
    B, N_V, N_Q, _ = _pencil_with_45_pairs()

    def zero_on_interior(self, Y):
        Q = np.zeros((len(self.order) - len(self.rows) + len(Y),) + Y.shape[1:])
        Q[self.rows[:len(Y)]] = Y
        return Q
    monkeypatch.setattr(SchurFactor, "extend", zero_on_interior)
    with pytest.raises(SingularSystemError, match="full-space check: eigen"):
        infsup_eigenpairs(B, N_V, N_Q)


def test_gate_rejects_an_error_in_a_middle_eigenvalue(monkeypatch):
    # the full-space check sees only pairs 0 and 44; the condensed gate
    # sees every kept pair
    B, N_V, N_Q, _ = _pencil_with_45_pairs()
    eigh = scipy.linalg.eigh

    def wrong_eigenvalue(G, S):
        lam, Y = eigh(G, S)
        lam[25] *= 1.0 + 1e-5            # kept pair 20: 5 of the 50 vanish
        return lam, Y
    monkeypatch.setattr(scipy.linalg, "eigh", wrong_eigenvalue)
    with pytest.raises(SingularSystemError,
                       match="condensed pencil: eigenpair 20 residual"):
        infsup_eigenpairs(B, N_V, N_Q)


def test_gate_rejects_euclidean_normalization(monkeypatch):
    B, N_V, N_Q, _ = _pencil_with_45_pairs()
    eigh = scipy.linalg.eigh

    def euclidean(G, S):
        lam, Y = eigh(G, S)
        return lam, Y / np.linalg.norm(Y, axis=0)
    monkeypatch.setattr(scipy.linalg, "eigh", euclidean)
    with pytest.raises(SingularSystemError,
                       match="condensed pencil: eigenvector .* not norm-orthonormal"):
        infsup_eigenpairs(B, N_V, N_Q)


def test_gate_rejects_a_perturbed_field_schur_complement():
    B, N_V, N_Q, _ = _pencil_with_45_pairs()
    lu_v = interface_schur(N_V, np.arange(45))
    S = lu_v.S.copy()
    d = 1e-5 * np.abs(S).max()
    S[3, 11] += d
    S[11, 3] += d
    with pytest.raises(SingularSystemError, match="full-space check: eigen"):
        infsup_eigenpairs(B, N_V, N_Q, lu_v=replace(lu_v, S=S))


def random_sparse_spd(rng, n, density):
    A = sp.random(n, n, density=density, random_state=rng).toarray()
    return sp.csr_matrix(A @ A.T + np.diag(rng.uniform(0.5, 2.0, n)))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), n_rows=st.integers(1, 40),
       density=st.floats(0.02, 0.3))
@example(seed=0, n=20, n_rows=1, density=0.1)          # a single row
@example(seed=1, n=12, n_rows=12, density=0.2)         # an empty interior
@settings(max_examples=60, deadline=None)
def test_interface_schur_vs_dense(seed, n, n_rows, density):
    rng = np.random.default_rng(seed)
    K = random_sparse_spd(rng, n, density)
    rows = rng.permutation(n)[:min(n_rows, n)]           # scattered, in any order
    factor = interface_schur(K, rows)
    S_ref = dense_schur(K, rows)
    assert np.abs(factor.S - S_ref).max() <= 1e-12 * np.abs(S_ref).max()
    assert np.array_equal(factor.order[len(factor.order) - len(rows):], rows)
    assert factor.fill >= n
    Kd = K.toarray()
    b = rng.normal(size=(n, 3))
    x_ref = np.linalg.solve(Kd, b)
    assert np.abs(factor.solve(b) - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
    assert np.abs(factor.solve(b[:, 0]) - x_ref[:, 0]).max() <= 1e-10 * np.abs(x_ref).max()
    # the harmonic extension of values on the ascending rows P
    P = np.sort(rows)
    I = np.setdiff1d(np.arange(n), P)
    interior = interface_schur(K, P)
    assert np.array_equal(np.sort(interior.order[:len(I)]), I)
    assert np.abs(interior.S - dense_schur(K, P)).max() <= 1e-12 * np.abs(S_ref).max()
    Y = rng.normal(size=(len(P), 2))
    Q_ref = np.empty((n, 2))
    Q_ref[P] = Y
    if len(I):
        Q_ref[I] = -np.linalg.solve(Kd[np.ix_(I, I)], Kd[np.ix_(I, P)] @ Y)
    assert np.abs(interior.extend(Y) - Q_ref).max() <= 1e-10 * np.abs(Q_ref).max()


def test_leading_condensation_extends_in_the_smaller_space():
    # the last 5 DOFs are rows of P: without them, the first 25 DOFs
    # and the leading rows of P form a space whose norm is K's leading
    # block, and the factor of K condenses and extends in that space
    # through its leading 8 rows
    rng = np.random.default_rng(5)
    K = random_sparse_spd(rng, 30, 0.15)
    P = np.concatenate([np.sort(rng.choice(25, size=8, replace=False)), np.arange(25, 30)])
    factor = interface_schur(K, P)
    K_low = K[:25][:, :25]
    S_low = factor.S[:8, :8]
    assert np.abs(S_low - dense_schur(K_low, P[:8])).max() <= 1e-12 * np.abs(S_low).max()
    Y = rng.normal(size=8)
    ref = interface_schur(K_low, P[:8]).extend(Y)
    assert np.abs(factor.extend(Y) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_interface_schur_refuses_a_pivoting_factorization():
    # K[I,I] is nonsingular but has a zero leading pivot: SuperLU must
    # swap rows, and the trailing block is then not the Schur complement
    K = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
    with pytest.raises(SingularSystemError, match="pivoted"):
        interface_schur(K, [2])
