"""Dissipation rates in three equivalent representations, energy audits,
and the integral bound on dissipated energy.

For a dissipative generator A in the inner product with gram matrix W:

* the sesquilinear dissipation form r[x, y] = -(<Ax, y> + <x, Ay>) / 2,
  whose diagonal r[x] = -Re<Ax, x> >= 0 is the instantaneous rate;
* the rate operator M = G^{-1} F on the graph space, F = -Herm(W A),
  G = W + A^H W A, with rate = ||M^{1/2} x||_G^2 = x^H F x exactly;
* the bounded probe Q = -((A - I)^{-1} + ((A - I)^{-1})*) / 2 (adjoint
  taken in W), which satisfies ||Q^{1/2} (A - I) x||^2 = ||x||^2 + r[x].

A DissipationToolkit holds F and builds the two square roots on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .grids import as_state, norm_sq
from .linalg import assemble_from_factors, gram_sqrt_factors, psd_sqrt
from .semigroup import AlignmentError, ControlSignal, Trajectory, output_signal
from .systems import DiscreteSystem, graph_gram, herm_part_wa


def form_matrix(a_matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """F = -Herm(W A): the matrix of the dissipation form, PSD."""
    return -herm_part_wa(a_matrix, weights)


@dataclass(eq=False)
class DissipationToolkit:
    """Dissipation operators for one generator, W kept as its weights.

    f_matrix is the form matrix (rate = x^H F x). The rest is built on
    first read and kept: m_sqrt, the G-square root of the rate operator
    M = G^{-1} F, and q_matrix, the bounded probe, with its W-square root
    q_sqrt.

    g_chol and m_sqrt_hat hold the Cholesky factor G = L L^H and the
    square root in L-orthonormal coordinates; the rate is evaluated as
    ||m_sqrt_hat @ (L^H x)||^2, which is the same graph-norm quantity as
    ||m_sqrt @ x||_G without routing the arithmetic through the large
    entries of G. m_eigenvalues are the (ascending) eigenvalues of M.
    """

    a_matrix: np.ndarray
    weights: np.ndarray
    g_gram: np.ndarray
    f_matrix: np.ndarray

    @classmethod
    def from_matrices(cls, a_matrix: np.ndarray, weights: np.ndarray) -> "DissipationToolkit":
        """Build the toolkit from a raw generator and quadrature weights.

        Works for any size >= 1, so scalar sanity examples need no grid.
        """
        a = np.asarray(a_matrix, dtype=complex if np.iscomplexobj(a_matrix) else float)
        w = np.asarray(weights, dtype=float).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"generator must be square, got shape {a.shape}")
        if w.shape != (a.shape[0],):
            raise ValueError("weights length does not match the generator size")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        return cls(a_matrix=a, weights=w, g_gram=graph_gram(a, w),
                   f_matrix=form_matrix(a, w))

    @cached_property
    def _m_factors(self):
        # G M = F exactly, so the factors come straight from F; M is never formed
        return gram_sqrt_factors(self.f_matrix, self.g_gram)

    g_chol = property(lambda self: self._m_factors[0])
    m_eigenvalues = property(lambda self: self._m_factors[1])
    m_sqrt_hat = property(lambda self: self._m_factors[2])

    @cached_property
    def m_sqrt(self) -> np.ndarray:
        root = assemble_from_factors(self.g_chol, self.m_sqrt_hat)
        return root if np.iscomplexobj(self.a_matrix) else root.real

    @cached_property
    def q_matrix(self) -> np.ndarray:
        a, w = self.a_matrix, self.weights
        shifted = a.copy()
        shifted.flat[::a.shape[0] + 1] -= 1.0  # A - I
        res = sla.inv(shifted)
        # W-adjoint W^{-1} res^H W, with W diagonal
        res_adj = (res.conj().T * w) * (1.0 / w)[:, None]
        q = -0.5 * (res + res_adj)
        return q if np.iscomplexobj(a) else q.real

    @cached_property
    def q_sqrt(self) -> np.ndarray:
        return psd_sqrt(self.q_matrix, self.weights)


def build_toolkit(system: DiscreteSystem) -> DissipationToolkit:
    """The system's toolkit; it shares the system's A, weights and G."""
    return DissipationToolkit(a_matrix=system.a_matrix, weights=system.weights,
                              g_gram=system.g_gram,
                              f_matrix=form_matrix(system.a_matrix, system.weights))


def form_r(toolkit: DissipationToolkit, x, y=None) -> complex:
    """The dissipation form r[x, y]; r[x, x] is real and nonnegative.

    With y omitted, returns the real diagonal value r[x].
    """
    f = toolkit.f_matrix
    n = f.shape[0]
    xv = as_state(x, n)
    if y is None:
        return float(np.real(np.conj(xv) @ (f @ xv)))
    yv = as_state(y, n)
    return complex(np.conj(yv) @ (f @ xv))


def dissipation_rate(toolkit: DissipationToolkit, x) -> float:
    """Rate through the graph-space route: ||M^{1/2} x||_G^2.

    Evaluated in factored form ||m_sqrt_hat @ (L^H x)||^2 so the result
    matches form_r at round-off level even when G is badly conditioned.
    """
    xv = as_state(x, toolkit.f_matrix.shape[0])
    u = toolkit.g_chol.conj().T @ xv
    v = toolkit.m_sqrt_hat @ u
    return float(np.real(np.conj(v) @ v))


def q_identity_residual(toolkit: DissipationToolkit, x) -> float:
    """|  ||Q^{1/2}(A - I)x||^2 - (||x||^2 + r[x])  |.

    An exact matrix identity, so the absolute residual stays below
    1e-10 * (1 + ||x||_A^2) for any state; callers scale by the graph
    norm before comparing.
    """
    xv = as_state(x, toolkit.f_matrix.shape[0])
    return float(_q_identity_rows(toolkit, xv[None, :])[0][0])


def q_identity_scaled(toolkit: DissipationToolkit, x) -> float:
    """Residual of the probe identity scaled by 1 + ||x||_A^2."""
    xv = as_state(x, toolkit.f_matrix.shape[0])
    return float(_q_identity_rows(toolkit, xv[None, :])[1][0])


def _q_identity_rows(toolkit: DissipationToolkit,
                    states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probe-identity residuals of every row x of states, absolute and
    scaled by 1 + ||x||_A^2, from one pass of stacked products.

    The rows must already have passed grids.as_state.
    """
    w = toolkit.weights
    z = (states @ toolkit.a_matrix.T - states) @ toolkit.q_sqrt.T
    rhs = _weighted_norms_sq(w, states) + _form_rates(toolkit.f_matrix, states)
    residual = np.abs(_weighted_norms_sq(w, z) - rhs)
    return residual, residual / (1.0 + _form_rates(toolkit.g_gram, states))


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral, starting at zero."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]))
    return out


def cumulative_parabolic(values: np.ndarray, dt: float) -> np.ndarray:
    """Running integral by local parabola fits, starting at zero.

    Each interval integrates the quadratic through its own endpoints and
    one neighbor (the right neighbor on the first interval, the left one
    afterwards), so the cumulative values converge at third order for
    smooth integrands while staying single-pass like the trapezoid rule.
    """
    y = np.asarray(values, dtype=float)
    k = y.size - 1
    out = np.zeros(y.size)
    if k < 1:
        return out
    if k == 1:
        out[1] = 0.5 * dt * (y[0] + y[1])
        return out
    inc = np.empty(k)
    inc[0] = dt * (5.0 * y[0] + 8.0 * y[1] - y[2]) / 12.0
    inc[1:] = dt * (-y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:]) / 12.0
    out[1:] = np.cumsum(inc)
    return out


@dataclass(eq=False)
class EnergyLedger:
    """Time series of the energy balance H(t) - H(0) = supplied - dissipated."""

    times: np.ndarray
    hamiltonian: np.ndarray
    supply_rate: np.ndarray
    dissipation_rate: np.ndarray
    supplied: np.ndarray
    dissipated: np.ndarray
    residuals: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.residuals = (self.hamiltonian - self.hamiltonian[0]
                          - self.supplied + self.dissipated)

    @property
    def residual(self) -> float:
        return float(self.residuals[-1])

    @property
    def dissipated_total(self) -> float:
        return float(self.dissipated[-1])

    @property
    def supplied_total(self) -> float:
        return float(self.supplied[-1])

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def _weighted_norms_sq(weights: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Squared weighted norms Re(x_k^H W x_k) of every row x_k of states."""
    return np.einsum("ki,i,ki->k", np.conj(states), weights, states).real


def _form_rates(f: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Rates x_k^H F x_k for every row x_k of states.

    One GEMM per block of at most n rows, so no temporary outgrows the
    n x n form matrix however long the trajectory is. ndarray.conj returns
    real blocks uncopied.
    """
    n = f.shape[0]
    rate = np.empty(states.shape[0])
    for start in range(0, states.shape[0], n):
        xb = states[start:start + n]
        rate[start:start + n] = np.einsum("ij,ij->i", xb.conj(), xb @ f.T).real
    return rate


def energy_audit(system: DiscreteSystem, toolkit: DissipationToolkit,
                 traj: Trajectory, u: ControlSignal | None = None) -> EnergyLedger:
    """Audit a trajectory: energies, rates, cumulative integrals, residual.

    The supplied power Re<u(t), y(t)> integrates by trapezoid (exactly
    matched to the stepping); the dissipated energy integrates the rate
    x^H F x by the parabolic rule, which keeps the residual at quadrature
    level for smooth classical runs.
    """
    states = traj.states
    w = system.weights
    ham = 0.5 * _weighted_norms_sq(w, states)
    rate = _form_rates(toolkit.f_matrix, states)
    dt = traj.dt
    if u is not None and u.values.size and system.m_inputs:
        if (u.times.size != traj.times.size
                or abs(u.dt - dt) > 1e-9 * max(dt, u.dt)):
            raise AlignmentError(
                "control clock does not match the trajectory clock "
                f"({u.times.size} samples at dt={u.dt} vs "
                f"{traj.times.size} at dt={dt})"
            )
        y = output_signal(system, traj).values
        supply = np.sum(np.real(u.values * np.conj(y)), axis=1)
    else:
        supply = np.zeros(states.shape[0])
    supplied = cumulative_trapezoid(supply, dt)
    dissipated = cumulative_parabolic(rate, dt)
    return EnergyLedger(times=traj.times.copy(), hamiltonian=ham,
                        supply_rate=supply, dissipation_rate=rate,
                        supplied=supplied, dissipated=dissipated)


@dataclass(eq=False)
class RTBoundReport:
    """Dissipated-energy bound sqrt(D(T)) <= sqrt(T) ||B|| ||u||_L2 + ||x0|| / sqrt(2)."""

    t_final: float
    lhs: float
    rhs: float
    slack: float
    ok: bool
    b_norm: float
    u_norm: float
    x0_norm: float


def rt_bound_check(system: DiscreteSystem, ledger: EnergyLedger,
                   x0, u: ControlSignal, tol: float = 1e-8) -> RTBoundReport:
    """Check the integral dissipation bound on the audited run from x0 under u.

    ledger is energy_audit of that run; its dissipated total is the
    left-hand side.
    """
    lhs = float(np.sqrt(max(ledger.dissipated_total, 0.0)))
    wb = np.sqrt(system.weights)[:, None] * system.b_matrix
    b_norm = float(np.linalg.norm(wb, 2)) if wb.size else 0.0
    u_norm = u.norm_l2()
    x0_norm = float(np.sqrt(norm_sq(system.weights, as_state(x0, system.n))))
    t_final = float(u.t_final)
    rhs = np.sqrt(t_final) * b_norm * u_norm + x0_norm / np.sqrt(2.0)
    slack = rhs - lhs
    return RTBoundReport(t_final=t_final, lhs=lhs, rhs=float(rhs),
                         slack=float(slack), ok=bool(slack >= -tol),
                         b_norm=b_norm, u_norm=u_norm, x0_norm=x0_norm)
