"""Propagation of states: exact shift, spectral and dense propagators,
mild solutions with sampled controls, outputs, and trace diagnostics.

Time stepping uses
    x_{k+1} = P x_k + (dt/2) (P B u_k + B u_{k+1}),    P = e^{dt A},
which telescopes to the trapezoid discretization of the convolution
integral in the mild-solution formula. The residual of the energy balance
along a classical trajectory is then O(dt^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .grids import Grid, as_state
from .linalg import gram_eigh
from .systems import DiscreteSystem


class AlignmentError(ValueError):
    """A time is not representable on the nodal clock of the shift model."""


class SignalError(ValueError):
    """Bad control-signal construction."""


# preset families whose signals are C1 in time
_SMOOTH_PRESET_BASES = ("zero", "const", "ramp")


def _num_steps(t_final: float, dt: float) -> int:
    if dt <= 0:
        raise SignalError(f"dt must be positive, got {dt}")
    if t_final <= 0:
        raise SignalError(f"t_final must be positive, got {t_final}")
    steps = round(t_final / dt)
    if steps < 1 or abs(steps * dt - t_final) > 1e-9 * max(dt, t_final):
        raise SignalError(
            f"t_final={t_final} is not an integer multiple of dt={dt}"
        )
    return steps


@dataclass(eq=False)
class ControlSignal:
    """Uniformly sampled control u(t_k), shape (K+1, m)."""

    times: np.ndarray
    values: np.ndarray
    preset_tag: str = "custom"

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        vals = np.asarray(self.values)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        self.values = vals
        if self.times.ndim != 1 or self.times.size < 2:
            raise SignalError("a control needs at least two time samples")
        if self.values.shape[0] != self.times.size:
            raise SignalError("values and times disagree on the number of samples")
        if not (np.isfinite(self.times).all() and np.isfinite(self.values).all()):
            raise SignalError("control times and values must be finite (no NaN or inf)")
        steps = np.diff(self.times)
        if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
            raise SignalError("time samples must be uniform and increasing")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def m_inputs(self) -> int:
        return self.values.shape[1]

    def norm_l2(self) -> float:
        """Trapezoid L2(0, T) norm of |u(t)| over the samples."""
        sq = np.sum(np.abs(self.values) ** 2, axis=1)
        w = np.full(sq.size, self.dt)
        w[0] = w[-1] = self.dt / 2
        return float(np.sqrt(np.sum(w * sq)))

    @classmethod
    def zero(cls, t_final: float, dt: float, m: int = 1) -> "ControlSignal":
        k = _num_steps(t_final, dt)
        times = np.linspace(0.0, t_final, k + 1)
        return cls(times, np.zeros((k + 1, m)), preset_tag="zero")

    @classmethod
    def constant(cls, level: float, t_final: float, dt: float, m: int = 1) -> "ControlSignal":
        k = _num_steps(t_final, dt)
        times = np.linspace(0.0, t_final, k + 1)
        return cls(times, np.full((k + 1, m), float(level)), preset_tag=f"const:{level:g}")

    @classmethod
    def ramp(cls, slope: float, t_final: float, dt: float, m: int = 1) -> "ControlSignal":
        k = _num_steps(t_final, dt)
        times = np.linspace(0.0, t_final, k + 1)
        vals = float(slope) * np.repeat(times[:, None], m, axis=1)
        return cls(times, vals, preset_tag=f"ramp:{slope:g}")


@dataclass(eq=False)
class Trajectory:
    """States x(t_k) along a run, rows are time samples."""

    times: np.ndarray
    states: np.ndarray
    grid: Grid
    model_tag: str

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(eq=False)
class OutputSignal:
    times: np.ndarray
    values: np.ndarray


def _shift_indices(t: float, h: float) -> int:
    if t < -1e-12:
        raise AlignmentError(f"negative time {t}")
    ratio = t / h
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9 * max(1.0, abs(ratio)):
        raise AlignmentError(
            f"time {t} is not aligned with the grid spacing h={h}; "
            "choose times that are integer multiples of h (e.g. dt = h * integer)"
        )
    return k


def _shift_values(vals: np.ndarray, k: int, n: int) -> np.ndarray:
    # a node keeps propagating only while its source index stays <= n-2;
    # the last node is the outflow condition and never moves inward
    out = np.zeros_like(vals)
    if k == 0:
        out[:] = vals
    elif k <= n - 2:
        out[: n - 1 - k] = vals[k : n - 1]
    return out


def propagate_shift(grid: Grid, x0, t: float) -> np.ndarray:
    """Exact nodal shift: [S(t) x](w) = x(w + t) while w + t < 1, else 0.

    Requires t to be a node multiple of the grid spacing, raises
    AlignmentError otherwise. For t >= 1 the result is identically zero.
    """
    x0v = as_state(x0, grid.n)
    return _shift_values(x0v, _shift_indices(t, grid.h), grid.n)


def _dense_propagator(system: DiscreteSystem, t: float) -> np.ndarray:
    """e^{tA} as a dense matrix: spectral route when hinted, else expm.

    Entries below the smallest normal float are set to zero: subnormal
    operands slow every later mat-vec several times over, while their
    products fall far below the rounding unit of the sums they join.
    """
    if system.propagator_hint != "eigen":
        prop = sla.expm(t * system.a_matrix)
    else:
        w = system.weights
        lam, vecs = gram_eigh(system.a_matrix, w)
        prop = ((vecs * np.exp(t * lam)) @ vecs.conj().T) * w
    prop[np.abs(prop) < np.finfo(float).tiny] = 0.0
    return prop


def propagate_matrix(system: DiscreteSystem, x0, t: float) -> np.ndarray:
    """Dense propagation e^{tA} x0 (spectral route when hinted, else expm)."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    x0v = as_state(x0, system.n)
    return _dense_propagator(system, t) @ x0v


def _make_step(system: DiscreteSystem, dt: float):
    """One-step map v -> e^{dt A} v for the system's preferred route."""
    if system.propagator_hint == "shift":
        q = _shift_indices(dt, system.grid.h)
        if q < 1:
            raise AlignmentError(
                f"dt={dt} is below the grid spacing h={system.grid.h}; "
                "choose dt = h * (positive integer)"
            )
        n = system.n
        return lambda v: _shift_values(v, q, n)
    prop = _dense_propagator(system, dt)
    return lambda v: prop @ v


def mild_solution(system: DiscreteSystem, x0, u: ControlSignal | None = None,
                  t_final: float | None = None, dt: float | None = None) -> Trajectory:
    """Propagate x0 under the control u (or freely until t_final).

    The control's clock defines the output sampling. A missing control
    needs explicit t_final and dt and runs the autonomous dynamics.
    """
    if u is None:
        if t_final is None or dt is None:
            raise SignalError("either a control signal or (t_final, dt) is required")
        steps = _num_steps(t_final, dt)
        times = np.linspace(0.0, t_final, steps + 1)
        uvals = np.zeros((steps + 1, system.m_inputs))
    else:
        if u.m_inputs != system.m_inputs:
            raise SignalError(
                f"control has {u.m_inputs} channels, system expects {system.m_inputs}"
            )
        times = u.times
        uvals = u.values
        dt = u.dt
    x0v = as_state(x0, system.n)
    bu = uvals @ system.b_matrix.T
    out_dtype = np.result_type(x0v.dtype, bu.dtype, system.a_matrix.dtype, float)
    step = _make_step(system, dt)
    states = np.zeros((times.size, system.n), dtype=out_dtype)
    states[0] = x0v
    half = 0.5 * dt
    for k in range(times.size - 1):
        states[k + 1] = step(states[k] + half * bu[k]) + half * bu[k + 1]
    return Trajectory(times=times.copy(), states=states, grid=system.grid,
                      model_tag=system.model_tag)


def output_signal(system: DiscreteSystem, traj: Trajectory) -> OutputSignal:
    """Collocated output y = B^* x, taken in the weighted inner product."""
    wb = system.weights[:, None] * system.b_matrix
    yvals = traj.states @ np.conj(wb)
    return OutputSignal(times=traj.times.copy(), values=yvals)


@dataclass(eq=False)
class ClassicalReport:
    classical: bool
    boundary_ok: bool
    boundary_residual: float
    control_smooth: bool
    detail: str


def classical_check(system: DiscreteSystem, x0, u: ControlSignal | None = None,
                    rel_threshold: float = 0.01) -> ClassicalReport:
    """Coarse gate for classical (vs merely mild) initial data.

    Checks the model's boundary condition on the sampled state and the
    smoothness of the control via its preset tag. The boundary check is an
    O(1)-violation detector: states sampled from smooth functions that
    satisfy the condition pass with residuals at discretization level,
    violations show up at order one.
    """
    x0v = as_state(x0, system.n)
    scale = max(1.0, float(np.max(np.abs(x0v))))
    tag = system.model_tag
    if tag == "transport":
        residual = float(abs(x0v[-1]))
        note = "outflow value x(1)"
    elif tag == "heat":
        residual = float(max(abs(x0v[0]), abs(x0v[-1])))
        note = "endpoint values x(0), x(1)"
    elif tag == "skew_damped":
        residual = float(abs(x0v[0] - x0v[-1]))
        note = "periodic match x(0) = x(1)"
    else:
        residual = 0.0
        note = "custom model, no boundary condition checked"
    boundary_ok = residual <= rel_threshold * scale
    if u is None:
        control_smooth = True
    else:
        control_smooth = u.preset_tag.split(":")[0] in _SMOOTH_PRESET_BASES
    classical = boundary_ok and control_smooth
    detail = (
        f"{note}: residual {residual:.3e} against threshold "
        f"{rel_threshold * scale:.3e}; control "
        + ("smooth" if control_smooth else "not verifiably smooth")
    )
    return ClassicalReport(classical=classical, boundary_ok=boundary_ok,
                           boundary_residual=residual,
                           control_smooth=control_smooth, detail=detail)


@dataclass(eq=False)
class BoundaryTraceReport:
    times: np.ndarray
    from_trajectory: np.ndarray
    from_formula: np.ndarray
    max_discrepancy: float


def boundary_trace(system: DiscreteSystem, x0, u: ControlSignal) -> BoundaryTraceReport:
    """Outflow trace t -> x(t, 0) for transport, computed two ways.

    Route one reads node 0 off the stepped mild solution. Route two
    evaluates the closed-form trace: the initial profile sampled at w = t
    while t < 1, plus the integral of (B u(s))(t - s) over the window
    s in (max(t-1, 0), t]. Points whose spatial argument has reached the
    outflow node contribute zero, matching the shift convention, so on an
    aligned clock (dt = h) the two routes agree to roundoff.
    """
    if system.model_tag != "transport":
        raise ValueError("boundary trace is defined for the transport model only")
    x0v = as_state(x0, system.n)
    traj = mild_solution(system, x0v, u)
    from_traj = traj.states[:, 0]
    n, h = system.n, system.grid.h
    dt = u.dt
    q = _shift_indices(dt, h)
    uvals = u.values
    kmax = uvals.shape[0] - 1
    k = np.arange(kmax + 1)
    # (B u(t_j))(t_k - t_j) = u_j . prof[k - j]: B sampled at s = d q, zero
    # from the outflow node on
    prof = np.zeros(((n - 1) // q + 1, system.m_inputs))
    prof[: (n - 2) // q + 1] = system.b_matrix[: n - 1 : q]
    # the window s in (max(t-1, 0), t] runs over j = j_lo..k; every
    # anti-diagonal sum over it at full weight dt is one convolution
    formula = np.zeros(kmax + 1, dtype=np.result_type(uvals, x0v, float))
    for i in range(system.m_inputs):
        formula += np.convolve(uvals[:, i], prof[:, i])[: kmax + 1]
    j_lo = np.maximum(0, -((n - 1 - k * q) // q))
    f_k = uvals @ prof[0]
    f_lo = np.einsum("ki,ki->k", uvals[j_lo], prof[k - j_lo])
    # trapezoid end points j = k and j = j_lo at half weight (one point
    # when they coincide)
    formula -= 0.5 * (f_k + np.where(j_lo < k, f_lo, 0.0))
    formula *= dt
    # the window edge t - 1 falls inside a cell; the edge value itself is
    # at the outflow point and contributes zero
    leftover = j_lo * dt - (k * dt - 1.0)
    inside = (j_lo > 0) & (dt * 1e-9 < leftover) & (leftover < dt * (1 - 1e-9))
    formula += np.where(inside, 0.5 * leftover * f_lo, 0.0)
    formula[0] = 0.0  # no window at t = 0
    # the initial profile sampled at w = t while t stays inside the interval
    head = x0v[: n - 1 : q][: kmax + 1]
    formula[: head.size] += head
    gap = float(np.max(np.abs(formula - from_traj)))
    return BoundaryTraceReport(times=u.times.copy(), from_trajectory=from_traj,
                               from_formula=formula, max_discrepancy=gap)
