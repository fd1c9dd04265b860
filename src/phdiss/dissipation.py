"""Dissipation rates in three equivalent representations, energy audits,
and the integral bound on dissipated energy.

For a dissipative generator A in the inner product with gram matrix W:

* the sesquilinear dissipation form r[x, y] = -(<Ax, y> + <x, Ay>) / 2,
  whose diagonal r[x] = -Re<Ax, x> >= 0 is the instantaneous rate;
* the rate operator M = G^{-1} F on the graph space, F = -Herm(W A),
  G = W + A^H W A, with rate = ||M^{1/2} x||_G^2 = x^H F x exactly;
* the bounded probe Q = ((I - A)^{-1} + ((I - A)^{-1})*) / 2 (adjoint
  taken in W), which satisfies ||Q^{1/2} (A - I) x||^2 = ||x||^2 + r[x].

Every function takes the DiscreteSystem itself: it holds the bands of A
and F, and builds each square root on first read, as the Hermitian core
its docstring describes. Of the probe's checks only q_identity_residual reads Q's root;
the run's stacked check solves with I - A instead. The energy audit steps the
system's own run of x0 and u block by block, so no other run's states reach
it; the dissipation bound reads the control and H(0) from that run's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import as_state, block_rows, norm_sq
from .semigroup import ControlSignal, _blocks, _outputs, _start
from .systems import DiscreteSystem, _probe_solve, band_product

import scipy.linalg as sla  # after the package's imports, whose .semigroup imports it first


def form_r(system: DiscreteSystem, x, y=None) -> complex:
    """The dissipation form r[x, y], or with y omitted the real, nonnegative rate r[x]."""
    xv = as_state(x, system.n)
    if y is None:  # the audit's, the probe's and q_check's kernel, on one row
        return float(_form_rates(system.f_bands, xv[None])[0])
    return complex(np.conj(as_state(y, system.n)) @ band_product(system.f_bands, xv))


def dissipation_rate(system: DiscreteSystem, x) -> float:
    """Rate through the graph-space route: ||M^{1/2} x||_G^2.

    Evaluated on the core, ||m_sqrt_hat @ (L^H x)||^2, so the result
    matches form_r at round-off level even when G is badly conditioned.
    """
    xv = as_state(x, system.n)
    u = system.g_chol.conj().T @ xv
    v = system.m_sqrt_hat @ u
    return float(np.real(np.conj(v) @ v))


def q_identity_residual(system: DiscreteSystem, x) -> float:
    """|  ||Q^{1/2}(A - I)x||^2 - (||x||^2 + r[x])  |, through the probe root.

    An exact matrix identity, so the absolute residual stays below
    1e-10 * (1 + ||x||_A^2) for any state; callers scale by the graph
    norm before comparing.
    """
    xv, w = as_state(x, system.n), system.weights
    # ||Q^{1/2} y||_W = ||q_sqrt_hat sqrt(w) y||, an unweighted norm
    z = system.q_sqrt_hat @ (np.sqrt(w) * (band_product(system.a_bands, xv) - xv))
    return abs(float(np.vdot(z, z).real) - norm_sq(w, xv) - form_r(system, xv))


def _q_identity_rows(system: DiscreteSystem, states: np.ndarray) -> np.ndarray:
    """Probe-identity residuals of every row x of states, scaled by
    1 + ||x||^2 + ||Ax||^2, from one pass of stacked products.

    ||Q^{1/2} y||_W^2 = Re z^H R z, z = sqrt(w) y, R = (I - W^{1/2} A W^{-1/2})^{-1}
    since Q_hat = Herm(R): one solve, no root. Rows must have passed grids.as_state.
    """
    w = system.weights
    ax = band_product(system.a_bands, states)
    z = (ax - states) * np.sqrt(w)
    q_sq = np.einsum("ij,ji->i", z.conj(), _probe_solve(system, z.T)).real
    x_sq = norm_sq(w, states)
    residual = np.abs(q_sq - (x_sq + _form_rates(system.f_bands, states)))
    return residual / (1.0 + x_sq + norm_sq(w, ax))


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
    """Time series of the energy balance H(t) - H(0) = supplied - dissipated,
    on the clock of the control that drove the audited run, and its x(T)."""

    control: ControlSignal
    hamiltonian: np.ndarray
    supply_rate: np.ndarray
    dissipation_rate: np.ndarray
    supplied: np.ndarray
    dissipated: np.ndarray
    final_state: np.ndarray
    residuals: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.residuals = (self.hamiltonian - self.hamiltonian[0]
                          - self.supplied + self.dissipated)

    @property
    def times(self) -> np.ndarray:
        return self.control.times

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


def _form_rates(f_bands: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Rates x_k^H F x_k for every row x_k of states, F given by its bands, one band product
    per block of the stepping loop's rows (grids.block_rows): the work arrays stay in
    cache however many rows there are. ndarray.conj returns real blocks uncopied."""
    rate, size = np.empty(states.shape[0]), block_rows(states.shape[1], states.itemsize)
    for start in range(0, states.shape[0], size):
        xb = states[start:start + size]
        rate[start:start + size] = np.einsum("ij,ij->i", xb.conj(),
                                             band_product(f_bands, xb)).real
    return rate


def energy_audit(system: DiscreteSystem, x0, u: ControlSignal) -> EnergyLedger:
    """Audit the run of x0 under the control u, stepped block by block in its
    step basis (semigroup._blocks), which W commutes with, and read there with
    F and B: per-sample energies, rates and cumulative integrals, H(0) of x0
    and x(T) at the nodes, never the (K+1) x n states. The supplied power
    Re<u(t), y(t)> integrates by trapezoid (exactly matched to the stepping);
    the dissipated energy integrates the rate x^H F x by the parabolic rule,
    which keeps the residual at quadrature level for smooth classical runs.
    Raises FloatingPointError when H or either energy overflows."""
    x0v, basis, _, f, _, b = start = _start(system, x0, u)
    w, ham, rate, supply = system.weights, *(np.empty(u.values.shape[0]) for _ in range(3))
    stop = 0  # each block's rows follow the last one's, however many the loop hands out
    # an overflow is refused below by name, not warned about on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(start, u):
            rows = slice(stop, stop := stop + block.shape[0])
            ham[rows] = 0.5 * norm_sq(w, block)
            rate[rows] = _form_rates(f, block)
            supply[rows] = np.sum(np.real(u.values[rows] * np.conj(_outputs(w, b, block))), axis=1)
        ham[0] = 0.5 * norm_sq(w, x0v)
        supplied = cumulative_trapezoid(supply, u.dt)
        dissipated = cumulative_parabolic(rate, u.dt)
    for name, series in (("H", ham), ("supplied", supplied), ("dissipated", dissipated)):
        if not np.isfinite(series).all():
            t = u.times[np.argmin(np.isfinite(series))]
            raise FloatingPointError(f"energy audit overflow: {name} is not finite at t = {t:.6g}")
    return EnergyLedger(control=u, hamiltonian=ham,
                        supply_rate=supply, dissipation_rate=rate,
                        supplied=supplied, dissipated=dissipated,
                        final_state=basis(block[-1].copy()))


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


def rt_bound_check(system: DiscreteSystem, ledger: EnergyLedger) -> RTBoundReport:
    """Check the integral dissipation bound on the run that ledger audits.

    ledger is energy_audit of that run: its dissipated total is the
    left-hand side, its control is u, and ||x0|| = sqrt(2 H(0)). The bound
    holds when the slack is at least -1e-8. ||B|| = ||W^{1/2} B||_2 takes no SVD:
    it is sqrt(sum w |b|^2) by np.sum's pairwise sum for one input (0 for none),
    and sqrt(lambda_max) of the m x m gram B^H W B by scipy's eigvalsh for more.
    """
    u = ledger.control
    lhs = float(np.sqrt(max(ledger.dissipated_total, 0.0)))
    b_norm = _input_norm(system.weights, system.b_matrix)
    u_norm = u.norm_l2()
    x0_norm = float(np.sqrt(2.0 * ledger.hamiltonian[0]))
    t_final = float(u.t_final)
    rhs = np.sqrt(t_final) * b_norm * u_norm + x0_norm / np.sqrt(2.0)
    slack = rhs - lhs
    return RTBoundReport(t_final=t_final, lhs=lhs, rhs=float(rhs),
                         slack=float(slack), ok=bool(slack >= -1e-8),
                         b_norm=b_norm, u_norm=u_norm, x0_norm=x0_norm)


def _input_norm(weights: np.ndarray, b: np.ndarray) -> float:
    """||W^{1/2} B||_2, formed as rt_bound_check's docstring says."""
    if b.shape[1] < 2:
        return float(np.sqrt(np.sum(weights[:, None] * np.abs(b) ** 2)))
    wb = np.sqrt(weights)[:, None] * b
    return float(np.sqrt(sla.eigvalsh(wb.conj().T @ wb)[-1]))
