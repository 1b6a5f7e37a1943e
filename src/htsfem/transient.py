"""Implicit-Euler time stepping with Newton-Raphson iterations.

Sources are piecewise-linear ramps; the default experiment ramps the
drive over the first half of the simulation and holds it afterwards.
A step whose Newton loop fails is retried with a halved step size (at
most MAX_HALVINGS halvings); the step size re-doubles towards the
nominal one after two consecutive easy steps.  The spaces make the
run: an H field space runs h-a and a T field space t-a, each against
an A space on the same mesh.

Voltage convention: voltages are per unit length and positive when
driving a positive net current through a resistive state (V = R I at
DC).  It holds alike for a drive ramp and the reported voltage; the
sign of the weak form is applied in assembly only.  A space holds the
drive's mode only; its value at each step is the ramp's.

Solving a Newton iteration.  The a-side is linear, so the free
reluctivity block K_nu and the coupling B are the same in every
iteration of a run.  ``run_transient`` builds them once, as the free
potential rows [B, -K_nu] of the run's ``LinearBlocks``, with the
field curl form and the H mass.  Each step attempt forms once what
its time and drive fix (``htsfem.assembly.begin_step``): the essential
values, the old-state source B^T a_prev [+ M v_prev], the circuit term
and the eliminated potential right-hand side s_q.  Every iteration
assembles from the blocks and that ``Step`` only the field block A_v,
as its data on a fixed sparsity pattern, and the field right-hand side
s_v (``htsfem.assembly``).  ``run_transient``
slices the free K_nu from those rows and factors it once, with the
rows Γ that B couples last, into its Schur complement
S_K onto Γ (``linalg.InterfaceSchur``), and Newton sees the a-side
only through S_K.  h-a solves for the field DOFs v by one
``solve_sparse`` factorization of the bordered (v, a_Γ) system, in an
order fixed once per run (``linalg.BorderedSchur``): the bordered CSC
is laid out once, and each iteration writes A_v's free data into it in
place; ``solve_sparse`` works on that CSC's own arrays and keeps
nothing between calls.  On the tape B couples
every free field DOF, and t-a solves the dense condensed system
(A_v + B_Γ^T S_K^{-1} B_Γ) v = s_v + B_Γ^T z_Γ, its dense field block
filled from the data, by one ``solve_dense`` Cholesky factorization.
No iteration constructs a sparse matrix.
Either takes the interface values a_Γ = S_K^{-1} B_Γ v - z_Γ at v.  The
lift z_Γ = (K_nu^{-1} s_q)_Γ is formed once per step attempt: the
eliminated potential right-hand side s_q holds only essential values,
its coupling part lies on Γ, so z_Γ = S_K^{-1} s_q,Γ, and only a
nonzero outer trace (an external field) costs one back-substitution
through the whole factor.

A power-law t-a run refuses, before its first step, a pairing whose
free B_Γ has a kernel on the field side (``_refuse_field_kernel``):
the field block vanishes at zero current, so the condensed system is
singular on that kernel.

Newton convergence and backtracking are judged on the componentwise
backward error of the free field rows, A_v v + B^T a - s_v against
|A_v||v| + |B^T||a| + |s_v|, which reads a only on the rows B couples.
The potential rows of an exact elimination are zero up to rounding.  A
backtracking trial (v, a_Γ) + damping (dv, da_Γ) is linear in the
unknowns and needs no back-substitution; the increment test is made on
(v, a_Γ) too.

The whole a is recovered once per accepted step, by one
back-substitution a = K_nu^{-1} (B v - s_q) at the last field solve.
That solve is gated: (v, a) must have a componentwise backward error
of at most 1e-10 on the free system that was solved, else the step is
halved as after a failed solve.  If the last iteration was damped, a
is recovered once more at the accepted v.  The accepted iterate is not
gated against the system reassembled at it, which would hold the
Newton residual (up to the tolerance) to 1e-10.  The recorded final
residual is the componentwise backward error of the whole system over
the free rows at the accepted iterate, and the circuit reactions are
its field rows' residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib import format as npformat

from .assembly import assemble_ha_iteration, assemble_ta_iteration, begin_step, linear_blocks
from .linalg import (BorderedSchur, InterfaceSchur, SingularSystemError, solve_dense,
                     solve_sparse)
from .materials import Materials
from .spaces import essential_vector

# halvings of a failing step before the run gives up
MAX_HALVINGS = 4


class NonConvergenceError(RuntimeError):
    """A step failed; ``t`` and ``dt`` are the time and the step size of
    its last attempt, ``residuals`` that attempt's residual trace."""

    def __init__(self, message, step=None, residuals=None, t=None, dt=None):
        super().__init__(message)
        self.step = step
        self.residuals = residuals
        self.t = t
        self.dt = dt


@dataclass(frozen=True)
class Ramp:
    """Piecewise-linear source profile; constant extrapolation."""

    times: tuple
    values: tuple

    def __call__(self, t):
        return float(np.interp(t, self.times, self.values))


def ramp_then_hold(peak: float, t_ramp: float, t_end: float) -> Ramp:
    return Ramp((0.0, t_ramp, t_end), (0.0, peak, peak))


@dataclass(frozen=True)
class TimeConfig:
    """Time grid, Newton controls and source ramps; a failing step is
    halved at most MAX_HALVINGS times.

    ``drive`` is the Ramp of the conductor's or tape's current or
    voltage, whichever its space was built to impose.  ``b_ext`` ramps
    the uniform external field b, imposed as the outer trace a = -b y;
    without one the outer trace is zero.
    """

    dt: float
    t_end: float
    b_ext: Ramp | None
    drive: Ramp
    max_iter: int
    rel_residual_tol: float
    rel_increment_tol: float

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise ValueError("dt and t_end must be positive")
        if not (0.0 < self.rel_residual_tol < 1.0) or \
                not (0.0 < self.rel_increment_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class TimeHistory:
    """Accepted steps of a transient run (full coefficient vectors).

    ``sizes`` holds the free field and potential DOF counts, the
    number of interface columns, the number of interface rows |Γ| and
    the rows and structural nonzeros of the field matrix each iteration
    factors (``InterfaceSchur.size`` and ``nnz``).
    ``counters`` holds the a-block factorizations, the back-substitutions
    through the a-block factor (``a_solves``: the recoveries of a, and
    the lifts of a step attempt under an external field), the
    field solves (failed attempts included), the fill of the
    a-block factor, the rejected step attempts, the step halvings and
    the backtracking trials (trial iterates at a damping below 1)."""

    times: list = field(default_factory=list)
    dts: list = field(default_factory=list)
    v: list = field(default_factory=list)
    q: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    final_residuals: list = field(default_factory=list)
    residual_traces: list = field(default_factory=list)
    reactions: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.times)


def _circuit_values(v_space, drive, t):
    """Imposed (current, voltage) at time t, the ``drive`` ramp's value,
    the one the circuit is not driven by being None."""
    value = drive(t)
    return (value, None) if v_space.circuit.mode == "current" else (None, value)


def run_transient(spaces, materials: Materials, time: TimeConfig) -> TimeHistory:
    """Integrate the coupled system from a zero initial solution.

    ``spaces`` is (h_space, a_space), run h-a, or (t_space, a_space),
    run t-a.  Returns the accepted-step history; raises
    NonConvergenceError when a step fails after all halvings.
    """
    v_space, q_space = spaces
    if v_space.family not in ("H", "T") or q_space.family != "A":
        raise ValueError(f"a transient runs on (H or T, A) spaces, not "
                         f"({v_space.family}, {q_space.family})")
    ha = v_space.family == "H"
    assemble = assemble_ha_iteration if ha else assemble_ta_iteration

    hist = TimeHistory()
    blocks = linear_blocks(v_space, q_space, materials)
    qf, vf = q_space.free, v_space.free
    # the free a-block and coupling, sliced from the free potential rows
    # [B, -K_nu], the a-block negated in place (one copy, not two); h-a
    # borders the field block's fixed pattern, with weights that only
    # order it; B couples every field DOF of a tape, and t-a condenses
    form, q_rows = blocks.form, blocks.q_rows
    free = (q_rows[:, v_space.n_dofs + qf], q_rows[:, vf])
    np.negative(free[0].data, out=free[0].data)
    schur = (BorderedSchur(*free, form.free_block(form.data(np.ones(form.G.shape[0]))))
             if ha else InterfaceSchur(*free))
    del free            # of the free a-block, the run keeps only the factor
    if not ha and materials.power.n > 1.0:
        _refuse_field_kernel(schur, v_space, q_space)
    # Newton's potential unknowns are the free rows of blocks.gamma
    if not np.array_equal(qf[schur.factor.rows], blocks.gamma[blocks.gamma_free]):
        raise ValueError("a potential DOF couples only to essential field DOFs")
    hist.sizes = {"field_free_dofs": int(v_space.n_free),
                  "potential_free_dofs": int(q_space.n_free),
                  "interface_columns": len(schur.cols),
                  "interface_rows": len(schur.factor.rows),
                  "field_system_rows": schur.size,
                  "field_system_nnz": schur.nnz}
    hist.counters = {"a_factorizations": 1, "a_solves": 0, "field_solves": 0,
                     "a_factor_fill": schur.factor.fill, "rejected_attempts": 0,
                     "step_halvings": 0, "backtracking_trials": 0}

    v_prev = np.zeros(v_space.n_dofs)
    q_prev = np.zeros(q_space.n_dofs)
    t = 0.0
    dt_cur = time.dt
    easy_run = 0
    step_idx = 0

    while t < time.t_end - 1e-12 * time.t_end:
        dt_cur = min(dt_cur, time.t_end - t)
        halvings = 0
        while True:
            t_new = t + dt_cur
            current, voltage = _circuit_values(v_space, time.drive, t_new)
            trace = (None if time.b_ext is None
                     else lambda x, y, b=time.b_ext(t_new): -b * y)
            step = begin_step(blocks, (v_prev, q_prev), dt_cur,
                              essential_vector(v_space, current=current),
                              essential_vector(q_space, a_trace=trace), voltage)
            try:
                result = _newton_step(assemble, step, v_prev, time, schur, hist.counters)
                break
            except (NonConvergenceError, SingularSystemError) as err:
                hist.counters["rejected_attempts"] += 1
                if halvings >= MAX_HALVINGS:
                    trace_r = getattr(err, "residuals", None)
                    raise NonConvergenceError(
                        f"step {step_idx} failed after {halvings} halvings: {err}",
                        step=step_idx, residuals=trace_r, t=t_new, dt=dt_cur) from err
                halvings += 1
                hist.counters["step_halvings"] += 1
                dt_cur *= 0.5

        v_new, q_new, iters, res_trace, sys, final_residual = result
        hist.times.append(t_new)
        hist.dts.append(dt_cur)
        hist.v.append(v_new)
        hist.q.append(q_new)
        hist.newton_iters.append(iters)
        hist.final_residuals.append(final_residual)
        hist.residual_traces.append(res_trace)
        r_field = sys.field_residual(v_new, q_new[blocks.gamma])
        hist.reactions.append(float(r_field[v_space.dof("global", 0)]))

        v_prev, q_prev = v_new, q_new
        t = t_new
        step_idx += 1
        easy_run = easy_run + 1 if iters <= 3 else 0
        if halvings == 0 and easy_run >= 2 and dt_cur < time.dt:
            dt_cur = min(2.0 * dt_cur, time.dt)
    hist.counters["a_solves"] = schur.solves
    return hist


def _refuse_field_kernel(schur: InterfaceSchur, v_space, q_space):
    """Refuse a t-a pairing whose free coupling B_Γ has a kernel on the
    field side.  The power-law field block dt w D(de/dj) vanishes at
    zero current, like (|J|/j_c)^(n-1), so the condensed field system
    is singular there to working precision (Brezzi's coercivity on
    ker B), whatever the step."""
    kernel = schur.field_kernel()
    if kernel:
        raise SingularSystemError(
            f"t-a pairing ({v_space.enrichment},{q_space.enrichment}): the free coupling "
            f"B_Γ has a {kernel}-dimensional kernel on the field side, where the "
            f"power-law field block vanishes at zero current, so the condensed field "
            f"system is singular")


def _field_solve(sys, schur: InterfaceSchur, lift):
    """The free field DOFs v of ``sys`` with the step attempt's ``lift``,
    by the bordered (h-a) or the condensed (t-a) solve of ``schur``, and
    a_Γ = S_K^{-1} B_Γ v - z_Γ.  The bordered solve's own a_Γ strays from
    the back-substituted a by more than 1e-12 relative on the bar, the
    a_Γ from v about half as far."""
    form = sys.step.blocks.form
    if isinstance(schur, BorderedSchur):
        v = schur.split(solve_sparse(*schur.bordered(form.free_data(sys.A_data), sys.s_field,
                                                     lift)))[0]
    else:
        v = solve_dense(*schur.condensed(form.free_dense(sys.A_data), sys.s_field, lift))
    return v, schur.interface_values(v, lift)


def _gated_recovery(sys, v, schur: InterfaceSchur):
    """The free potential DOFs a = K_nu^{-1} (B v - s_q) of a field
    solve v of ``sys``, by one back-substitution.  The componentwise
    backward error of (v, a) on the free system of ``sys`` gates it: a
    normwise residual is dominated by the flux-potential rows and
    misses errors of the field block."""
    a = schur.recover(v, sys.step.s_potential)
    err = sys.free_backward_error(v, a)
    if not err <= 1e-10:
        raise SingularSystemError(f"field solve residual {err:.3e} exceeds 1e-10")
    return a


def _newton_step(assemble, step, v_prev, time: TimeConfig, schur, counters):
    blocks = step.blocks
    vf, qf, gamma = blocks.v_space.free, blocks.q_space.free, blocks.gamma
    v_it = step.v_essential.copy()
    v_it[vf] = v_prev[vf]
    # the iterate's potential on gamma: the essential values, and a_Γ on
    # the free ones, which are the rows Γ of schur.factor
    on_free = blocks.gamma_free
    a_it = step.a_essential[gamma]
    sys = assemble(step, v_it)
    lift = schur.lift(step.s_potential)     # s_q holds only essential values
    a_it[on_free] = schur.interface_values(v_it[vf], lift)
    # componentwise backward error of the free field rows: robust to the
    # disparate block scalings of the coupled systems (the tape block
    # carries the thickness factor)
    r = sys.field_error(v_it, a_it)
    trace = [r]
    iters = 0
    inc = np.inf
    solved = None
    while r > time.rel_residual_tol and iters < time.max_iter:
        counters["field_solves"] += 1
        v_new, a_new = v_it.copy(), a_it.copy()
        v_new[vf], a_new[on_free] = _field_solve(sys, schur, lift)
        solved = (sys, v_new[vf])
        # backtracking on the residual guards against power-law overshoot
        dv, da = v_new - v_it, a_new - a_it
        damping = 1.0
        for _ in range(4):
            v_try, a_try = v_it + damping * dv, a_it + damping * da
            if damping < 1.0:
                counters["backtracking_trials"] += 1
            sys_try = assemble(step, v_try)
            r_try = sys_try.field_error(v_try, a_try)
            if r_try < r or damping <= 0.125:
                break
            damping *= 0.5
        inc = damping * np.hypot(np.linalg.norm(dv), np.linalg.norm(da)) / max(
            np.hypot(np.linalg.norm(v_try), np.linalg.norm(a_try)), 1e-300)
        v_it, a_it = v_try, a_try
        sys, r = sys_try, r_try
        iters += 1
        trace.append(r)
        if inc < time.rel_increment_tol:
            break
    if r > time.rel_residual_tol and inc >= time.rel_increment_tol:
        raise NonConvergenceError(
            f"Newton stalled at residual {r:.3e} after {iters} iterations",
            residuals=trace)
    # the whole a, once per step: the last field solve's, which the gate
    # checks against the system it solved, unless the step was damped
    if solved is not None:
        a_free = _gated_recovery(*solved, schur)
    if solved is None or damping < 1.0:
        a_free = schur.recover(v_it[vf], step.s_potential)
    q_it = step.a_essential.copy()
    q_it[qf] = a_free
    return v_it, q_it, iters, trace, sys, sys.backward_error(v_it, q_it)


def circuit_post(history: TimeHistory, spaces):
    """Complementary circuit quantity of the conductor or tape.

    Current-driven: the per-unit-length voltage recovered from the
    constrained-row reaction.  Voltage-driven: the net current read
    from the global degree of freedom.  One value per accepted step.
    """
    v_space, _ = spaces
    if v_space.circuit.mode == "current":
        reac = np.array(history.reactions)
        return reac / (np.array(history.dts) * v_space.current_scale)
    dof = v_space.dof("global", 0)
    return np.array([v[dof] for v in history.v]) * v_space.current_scale


def write_history_csv(history: TimeHistory, quantity: str, values, path):
    """One tracked quantity as (time, value) rows."""
    lines = [f"time,{quantity}"]
    for t, v in zip(history.times, values):
        lines.append(f"{t:.17g},{v:.17g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_snapshots(history: TimeHistory, outdir):
    """The coefficient history as three NumPy ``.npy`` files in
    ``outdir``, one row per accepted step: ``snapshots_t.npy``
    (n_steps, 2) holds (time, dt), ``snapshots_v.npy`` (n_steps, n_v)
    the field and ``snapshots_q.npy`` (n_steps, n_q) the potential
    coefficients.  Every array is little-endian float64 in C order, so
    the values are exact and ``np.load(path, allow_pickle=False)``
    reads them.  Each file equals ``np.save`` of the stacked array; it
    is written a row at a time, so the history is never copied whole."""
    outdir = Path(outdir)
    steps = [np.array([t, dt]) for t, dt in zip(history.times, history.dts)]
    for name, rows in (("t", steps), ("v", history.v), ("q", history.q)):
        _write_rows(outdir / f"snapshots_{name}.npy", rows)


def _write_rows(path, rows):
    """Equal-length 1-D ``rows`` as one 2-D ``<f8`` ``.npy`` array."""
    width = len(rows[0]) if rows else 0
    header = {"descr": "<f8", "fortran_order": False, "shape": (len(rows), width)}
    with open(path, "wb") as f:
        npformat.write_array_header_1_0(f, header)
        for row in rows:
            row = np.ascontiguousarray(row, dtype="<f8")
            if row.shape != (width,):
                raise ValueError(f"snapshot row of shape {row.shape}, expected ({width},)")
            row.tofile(f)

