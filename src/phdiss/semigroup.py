"""Propagation of states: exact shift, sine-basis and dense propagators,
mild solutions with sampled controls, outputs, and trace diagnostics.

A run is one Trajectory: its states and the control that drove them,
whose clock is the run's clock. A free run carries the zero control.

Time stepping uses
    x_{k+1} = P x_k + (dt/2) (P B u_k + B u_{k+1}),    P = e^{dt A},
which telescopes to the trapezoid discretization of the convolution
integral in the mild-solution formula. The residual of the energy balance
along a classical trajectory is then O(dt^2). Each step route runs this
recursion in its own basis: the nodal one for "shift" and "expm", heat's
sine basis for "sine", where P is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .grids import Grid, as_state, check_finite
from .linalg import sine_transform
from .systems import DiscreteSystem


class AlignmentError(ValueError):
    """A time is not representable on the nodal clock of the shift model."""


class SignalError(ValueError):
    """Bad control-signal construction."""


@dataclass(eq=False)
class ControlSignal:
    """Control samples u(k T / K), k = 0..K, on the horizon [0, T]: the
    values have shape (K+1, m), and the clock starts at 0 and is uniform
    by construction. The samples and the horizon are all a control holds;
    how far a run is from classical shows in its audit's residual.
    """

    t_final: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.t_final = float(self.t_final)
        vals = np.asarray(self.values)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2:
            raise SignalError(f"control values must be 1-D or 2-D, got shape {vals.shape}")
        self.values = vals
        if vals.shape[0] < 2:
            raise SignalError("a control needs at least two time samples")
        if not 0.0 < self.t_final < np.inf:
            raise SignalError(f"t_final must be positive and finite, got {self.t_final}")
        check_finite(vals, "control", SignalError)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.values.shape[0])

    @property
    def dt(self) -> float:
        return self.t_final / (self.values.shape[0] - 1)

    @property
    def m_inputs(self) -> int:
        return self.values.shape[1]

    def norm_l2(self) -> float:
        """Trapezoid L2(0, T) norm of |u(t)| over the samples."""
        sq = np.sum(np.abs(self.values) ** 2, axis=1)
        w = np.full(sq.size, self.dt)
        w[0] = w[-1] = self.dt / 2
        return float(np.sqrt(np.sum(w * sq)))


@dataclass(eq=False)
class Trajectory:
    """One run: states x(t_k) as rows, and the control that drove them."""

    states: np.ndarray
    control: ControlSignal

    @property
    def times(self) -> np.ndarray:
        return self.control.times

    @property
    def dt(self) -> float:
        return self.control.dt


def _shift_indices(t: float, h: float) -> int:
    ratio = t / h
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9 * max(1.0, abs(ratio)):
        raise AlignmentError(
            f"time {t} is not aligned with the grid spacing h={h}; "
            "choose times that are integer multiples of h (e.g. dt = h * integer)"
        )
    return k


def _shift_values(vals: np.ndarray, k: int, n: int) -> np.ndarray:
    # the exact nodal shift [S(k h) x](w) = x(w + k h) while w + k h < 1,
    # else 0, for k >= 1: a node keeps propagating only while its source
    # index stays <= n-2; the last node is the outflow condition and never
    # moves inward
    out = np.zeros_like(vals)
    if k <= n - 2:
        out[: n - 1 - k] = vals[k : n - 1]
    return out


def _dense_propagator(system: DiscreteSystem, t: float) -> np.ndarray:
    """e^{tA} as a dense matrix, by expm.

    Entries below the smallest normal float are set to zero: subnormal
    operands slow every later mat-vec several times over, while their
    products fall far below the rounding unit of the sums they join.
    """
    prop = sla.expm(t * system.a_matrix)
    prop[np.abs(prop) < np.finfo(float).tiny] = 0.0
    return prop


def sine_spectrum(grid: Grid) -> np.ndarray:
    """Eigenvalues of heat's A in the sine basis, in node order: the two
    decoupled boundary nodes at -2/h^2, and between them the Dirichlet
    second difference, lambda_j = -(4/h^2) sin^2(j pi / (2 (n - 1))),
    j = 1..n-2."""
    lam = np.full(grid.n, -2.0 / grid.h**2)
    j = np.arange(1, grid.n - 1)
    lam[1:-1] = -4.0 / grid.h**2 * np.sin(j * np.pi / (2 * (grid.n - 1))) ** 2
    return lam


def sine_basis(x: np.ndarray) -> np.ndarray:
    """Heat's eigenbasis S, applied in place along the last axis of the
    float or complex array x, which it returns: the orthonormal DST-I on
    the interior nodes, the two boundary nodes unchanged. S is its own
    inverse, so it maps into the basis and back."""
    sine_transform(x[..., 1:-1], out=x[..., 1:-1])
    return x


def _make_step(system: DiscreteSystem, dt: float):
    """(basis, step) for the step route of the system's model: step is
    v -> e^{dt A} v in the coordinates basis(x), and basis, applied in
    place along the last axis, is its own inverse; None stands for the
    nodal basis."""
    if system.model.step == "shift":
        q = _shift_indices(dt, system.grid.h)
        if q < 1:
            raise AlignmentError(
                f"dt={dt} is below the grid spacing h={system.grid.h}; "
                "choose dt = h * (positive integer)"
            )
        n = system.n
        return None, lambda v: _shift_values(v, q, n)
    if system.model.step == "sine":
        p = np.exp(dt * sine_spectrum(system.grid))
        return sine_basis, lambda v: p * v
    prop = _dense_propagator(system, dt)
    return None, lambda v: prop @ v


def mild_solution(system: DiscreteSystem, x0, u: ControlSignal) -> Trajectory:
    """Propagate x0 under the control u, whose clock is the run's clock.

    A free run passes the zero control on the clock it wants; the returned
    trajectory carries it like any other. The steps run in the basis of the
    model's step route: x0 and B are mapped in once, and the states back
    in place.
    """
    if u.m_inputs != system.m_inputs:
        raise SignalError(
            f"control has {u.m_inputs} channels, system expects {system.m_inputs}"
        )
    n = system.n
    x0v = as_state(x0, n)
    b = system.b_matrix
    out_dtype = np.result_type(x0v.dtype, u.values.dtype, b.dtype,
                               system.a_matrix.dtype, float)
    basis, step = _make_step(system, u.dt)
    states = np.zeros((u.values.shape[0], n), dtype=out_dtype)
    states[0] = x0v
    if basis is not None:
        basis(states[0])
        b = basis(b.T.copy()).T
    # B u_k per step, no (K+1) x n array; a np.dot call costs a quarter of @
    half = 0.5 * u.dt
    bu = np.dot(b, u.values[0])
    for k in range(u.values.shape[0] - 1):
        bu_next = np.dot(b, u.values[k + 1])
        states[k + 1] = step(states[k] + half * bu) + half * bu_next
        bu = bu_next
    if basis is not None:
        basis(states)
        states[0] = x0v  # not its round trip through the basis
    return Trajectory(states=states, control=u)


def output_signal(system: DiscreteSystem, traj: Trajectory) -> np.ndarray:
    """Collocated output y = B^* x, taken in the weighted inner product,
    as a (K+1) x m array with one row per time sample."""
    wb = system.weights[:, None] * system.b_matrix
    return traj.states @ np.conj(wb)


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
    prof = np.zeros(((n - 1) // q + 1, system.m_inputs), dtype=system.b_matrix.dtype)
    prof[: (n - 2) // q + 1] = system.b_matrix[: n - 1 : q]
    # the window s in (max(t-1, 0), t] runs over j = j_lo..k; every
    # anti-diagonal sum over it at full weight dt is one convolution
    formula = np.zeros(kmax + 1, dtype=np.result_type(uvals, x0v, prof))
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
    return BoundaryTraceReport(times=u.times, from_trajectory=from_traj,
                               from_formula=formula, max_discrepancy=gap)
