"""Implicit-Euler time stepping with Newton-Raphson iterations.

Sources are piecewise-linear ramps; the default experiment ramps the
drive over the first half of the simulation and holds it afterwards.
A step whose Newton loop fails is retried with a halved step size (at
most four halvings); the step size re-doubles towards the nominal one
after two consecutive easy steps.

Voltage convention: voltages are per unit length and positive when
driving a positive net current through a resistive state (V = R I at
DC).  It holds alike for the value a space was built with, a drive
ramp and the reported voltage; the sign of the weak form is applied in
assembly only.

Solving a Newton iteration.  The a-side is linear, so the free
reluctivity block K_nu and the coupling B are the same in every
iteration of a run.  ``run_transient`` builds them once, with the
field curl form and the H mass, as the run's ``LinearBlocks``, and
every iteration assembles from those blocks only the field block A_v
and the field right-hand side s_v (``htsfem.assembly``).
``run_transient`` also factors the free K_nu once, with the rows that
B couples eliminated last, reads the Schur complement S_K onto those
rows from the factor and forms the dense interface term
B^T K_nu^{-1} B = B_Γ^T S_K^{-1} B_Γ on the field columns that B
couples (``linalg.InterfaceSchur``).  Each iteration then solves only the
condensed field system (A_v + B^T K_nu^{-1} B) v = s_v + B^T z with
``solve_sparse`` and recovers a = K_nu^{-1} B v - z by one
back-substitution.  The lift z = K_nu^{-1} s_q is formed once per step
attempt, as s_q holds only essential values.

Every test of a solution is made on the blocks, never on an assembled
monolithic matrix.  The combined solution must have a componentwise
backward error of at most 1e-10 on the free system, else the step is
halved as after a failed solve.  Newton convergence and backtracking
are judged on the componentwise backward error of the full system over
the free rows: the field rows A_v v + B^T a - s_v against
|A_v||v| + |B^T||a| + |s_v|, the potential rows B v - K_nu a against
|B||v| + |K_nu||a|, with |K_nu| and |B| formed once.  A backtracking
trial (v, a) + damping (dv, da) is linear in the solution and needs no
further back-substitution.  The circuit reactions are the field rows'
residuals at the accepted iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib import format as npformat

from .assembly import assemble_ha_iteration, assemble_ta_iteration, linear_blocks
from .linalg import InterfaceSchur, SingularSystemError, solve_sparse
from .materials import Materials
from .spaces import essential_vector


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
    """Time grid, Newton controls and source ramps.

    ``drives`` maps conductor/tape ids to ("current"|"voltage", Ramp);
    modes must match the ones the spaces were built with.  A conductor
    or tape without an entry keeps its build-time value.
    """

    dt: float
    t_end: float
    b_ext: Ramp | None = None
    b_ext_dir: tuple = (1.0, 0.0)
    drives: dict = field(default_factory=dict)
    max_iter: int = 30
    rel_residual_tol: float = 1e-6
    rel_increment_tol: float = 1e-9
    max_halvings: int = 4

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

    ``sizes`` holds the free field and potential DOF counts and the
    number of interface columns.  ``counters`` holds the a-block
    factorizations, the condensed field solves (failed attempts
    included), the fill of the a-block factor, the rejected step
    attempts, the step halvings and the backtracking trials (trial
    iterates at a damping below 1).  ``drive_values`` holds the imposed
    current or voltage of each circuit at each accepted step."""

    formulation: str
    times: list = field(default_factory=list)
    dts: list = field(default_factory=list)
    v: list = field(default_factory=list)
    q: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    final_residuals: list = field(default_factory=list)
    residual_traces: list = field(default_factory=list)
    reactions: dict = field(default_factory=dict)
    drive_values: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.times)


def _circuit_values(v_space, drives, t):
    """Imposed (currents, voltages) at time t by circuit id: the drive
    ramp where one is given, else the build-time value."""
    currents, voltages = {}, {}
    for c in v_space.circuits:
        mode, ramp = drives.get(c.id, (c.mode, None))
        if mode != c.mode:
            raise ValueError(f"drive mode for conductor {c.id} does not match the space")
        values = currents if c.mode == "current" else voltages
        values[c.id] = ramp(t) if ramp is not None else c.value
    return currents, voltages


def run_transient(mesh, spaces, materials: Materials, time: TimeConfig,
                  formulation: str) -> TimeHistory:
    """Integrate the coupled system from a zero initial solution.

    ``spaces`` is (h_space, a_space) for "ha" or (t_space, a_space)
    for "ta".  Returns the accepted-step history; raises
    NonConvergenceError when a step fails after all halvings.
    """
    formulation = formulation.lower()
    if formulation not in ("ha", "ta"):
        raise ValueError("formulation must be 'ha' or 'ta'")
    v_space, q_space = spaces
    assemble = assemble_ha_iteration if formulation == "ha" else assemble_ta_iteration

    hist = TimeHistory(formulation)
    blocks = linear_blocks(mesh, v_space, q_space, materials)
    qf, vf = q_space.free, v_space.free
    schur = InterfaceSchur(blocks.K_nu[qf][:, qf], blocks.B[qf][:, vf])
    hist.sizes = {"field_free_dofs": int(v_space.n_free),
                  "potential_free_dofs": int(q_space.n_free),
                  "interface_columns": len(schur.cols)}
    hist.counters = {"a_factorizations": 1, "field_solves": 0,
                     "a_factor_fill": schur.factor.fill, "rejected_attempts": 0,
                     "step_halvings": 0, "backtracking_trials": 0}
    ids = [c.id for c in v_space.circuits]
    for cid in ids:
        hist.reactions[cid] = []
        hist.drive_values[cid] = []

    v_prev = np.zeros(v_space.n_dofs)
    q_prev = np.zeros(q_space.n_dofs)
    t = 0.0
    dt_cur = time.dt
    easy_run = 0
    step_idx = 0

    while t < time.t_end - 1e-12 * time.t_end:
        dt_cur = min(dt_cur, time.t_end - t)
        accepted = False
        halvings = 0
        while not accepted:
            t_new = t + dt_cur
            currents, voltages = _circuit_values(v_space, time.drives, t_new)
            v_ess = essential_vector(v_space, currents=currents)
            trace = None
            if time.b_ext is not None:
                bext = time.b_ext(t_new)
                dx, dy = time.b_ext_dir
                trace = lambda x, y, b=bext: -b * (dx * y - dy * x)
            q_ess = essential_vector(q_space, a_trace=trace)
            try:
                result = _newton_step(assemble, blocks, (v_prev, q_prev), dt_cur, v_ess,
                                      q_ess, voltages, time, schur, hist.counters)
            except (NonConvergenceError, SingularSystemError) as err:
                hist.counters["rejected_attempts"] += 1
                if halvings >= time.max_halvings:
                    trace_r = getattr(err, "residuals", None)
                    raise NonConvergenceError(
                        f"step {step_idx} failed after {halvings} halvings: {err}",
                        step=step_idx, residuals=trace_r, t=t_new, dt=dt_cur) from err
                halvings += 1
                hist.counters["step_halvings"] += 1
                dt_cur *= 0.5
                continue
            accepted = True

        v_new, q_new, iters, res_trace, sys = result
        hist.times.append(t_new)
        hist.dts.append(dt_cur)
        hist.v.append(v_new)
        hist.q.append(q_new)
        hist.newton_iters.append(iters)
        hist.final_residuals.append(res_trace[-1])
        hist.residual_traces.append(res_trace)
        r_full = sys.residual(v_new, q_new)
        imposed = {**currents, **voltages}
        for cid in ids:
            hist.reactions[cid].append(float(r_full[v_space.dof("global", cid)]))
            hist.drive_values[cid].append(imposed[cid])

        v_prev, q_prev = v_new, q_new
        t = t_new
        step_idx += 1
        easy_run = easy_run + 1 if iters <= 3 else 0
        if halvings == 0 and easy_run >= 2 and dt_cur < time.dt:
            dt_cur = min(2.0 * dt_cur, time.dt)
    return hist


def _solve_condensed(sys, schur: InterfaceSchur, lift):
    """Free-DOF solution of ``sys`` through the condensed field system
    and the step attempt's ``lift``.  The componentwise backward error on
    the free system gates it: a normwise residual is dominated by the
    flux-potential rows and misses errors of the field block."""
    v = solve_sparse(*schur.condense(sys.A_free, sys.s_free[:sys.n_v_free], lift))
    x = np.concatenate([v, schur.recover(v, lift)])
    err = sys.free_backward_error(x)
    if not err <= 1e-10:
        raise SingularSystemError(f"condensed solve residual {err:.3e} exceeds 1e-10")
    return x


def _newton_step(assemble, blocks, prev, dt, v_ess, q_ess, voltages,
                 time: TimeConfig, schur, counters):
    v_prev, q_prev = prev
    ess_idx_v = np.array(sorted(blocks.v_space.essential), dtype=np.int64)
    ess_idx_q = np.array(sorted(blocks.q_space.essential), dtype=np.int64)
    v_it = v_prev.copy()
    q_it = q_prev.copy()
    if len(ess_idx_v):
        v_it[ess_idx_v] = v_ess[ess_idx_v]
    if len(ess_idx_q):
        q_it[ess_idx_q] = q_ess[ess_idx_q]

    def reassemble(iterate):
        return assemble(blocks, (v_prev, q_prev), iterate, dt, a_essential=q_ess,
                        v_essential=v_ess, voltages=voltages)

    sys = reassemble((v_it, q_it))
    # componentwise backward error: robust to the disparate block
    # scalings of the coupled systems (the tape block carries the
    # thickness factor)
    r = sys.backward_error(v_it, q_it)
    trace = [r]
    iters = 0
    inc = np.inf
    while r > time.rel_residual_tol and iters < time.max_iter:
        if iters == 0:              # s_q holds only the essential values
            lift = schur.lift(sys.s_free[sys.n_v_free:])
        counters["field_solves"] += 1
        x_full = sys.expand(_solve_condensed(sys, schur, lift))
        x_old = np.concatenate([v_it, q_it])
        # backtracking on the residual guards against power-law overshoot
        step = x_full - x_old
        damping = 1.0
        for _ in range(4):
            x_try = x_old + damping * step
            v_try, q_try = sys.split(x_try)
            if damping < 1.0:
                counters["backtracking_trials"] += 1
            sys_try = reassemble((v_try, q_try))
            r_try = sys_try.backward_error(v_try, q_try)
            if r_try < r or damping <= 0.125:
                break
            damping *= 0.5
        inc = damping * np.linalg.norm(step) / max(np.linalg.norm(x_try), 1e-300)
        v_it, q_it = v_try, q_try
        sys, r = sys_try, r_try
        iters += 1
        trace.append(r)
        if inc < time.rel_increment_tol:
            break
    if r > time.rel_residual_tol and inc >= time.rel_increment_tol:
        raise NonConvergenceError(
            f"Newton stalled at residual {r:.3e} after {iters} iterations",
            residuals=trace)
    return v_it, q_it, iters, trace, sys


def circuit_post(history: TimeHistory, spaces, cid: int):
    """Complementary circuit quantity of conductor/tape ``cid``.

    Current-driven: the per-unit-length voltage recovered from the
    constrained-row reaction.  Voltage-driven: the net current read
    from the global degree of freedom.  Returns (times, values).
    """
    v_space, _ = spaces
    times = np.array(history.times)
    item = next(c for c in v_space.circuits if c.id == cid)
    if item.mode == "current":
        reac = np.array(history.reactions[cid])
        return times, reac / (np.array(history.dts) * v_space.current_scale)
    dof = v_space.dof("global", cid)
    return times, np.array([v[dof] for v in history.v]) * v_space.current_scale


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


def read_snapshots(outdir):
    """Inverse of :func:`write_snapshots`: the list of (time, dt, v, q)
    tuples of the ``.npy`` files in ``outdir``."""
    outdir = Path(outdir)
    t, v, q = (np.load(outdir / f"snapshots_{name}.npy", allow_pickle=False)
               for name in "tvq")
    return [(float(tk), float(dk), vk, qk) for (tk, dk), vk, qk in zip(t, v, q)]
