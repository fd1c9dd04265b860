"""Propagation of states: exact shift, sine-basis, banded Taylor and dense
propagators, runs under sampled controls read block by block, outputs, and
trace diagnostics.

A run is x0 and a control, whose clock is the run's clock; a free run carries
the zero control. _blocks, the one stepping loop, hands its states out in
blocks of at most BLOCK_BYTES in the step basis, where the audit reads them;
run_blocks maps them to the nodes, and final_state maps back only x(T). No
reader stacks the states, so a run holds O(n) memory.

Time stepping uses
    x_{k+1} = P x_k + (dt/2) (P B u_k + B u_{k+1}),    P = e^{dt A},
which telescopes to the trapezoid discretization of the convolution
integral in the mild-solution formula. The residual of the energy balance
along a classical trajectory is then O(dt^2). Each step route runs this
recursion in its own basis: the nodal one for "shift" and "expm", heat's
sine basis for "sine", where P is diagonal. A step writes into its row.

The "expm" route (skew_damped, custom systems) applies P ~ T_m(dt A / s)^s,
a Taylor polynomial on the system's stored bands of A (Al-Mohy and Higham
2011), where that costs less than a dense product, and the dense expm else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid, as_state, check_finite
from .linalg import sine_transform
from .systems import DiscreteSystem, _columns


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


def _shift_indices(t: float, h: float) -> int:
    # the shift route's one alignment check: t = k h with k >= 1
    ratio = t / h
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, abs(ratio)):
        raise AlignmentError(
            f"time {t} is not aligned with the grid spacing h={h}; "
            "choose times that are positive integer multiples of h (e.g. dt = h * integer)"
        )
    return k


def _shift_values(vals: np.ndarray, k: int, n: int, out: np.ndarray) -> np.ndarray:
    # the exact nodal shift [S(k h) x](w) = x(w + k h) while w + k h < 1, else 0,
    # for k >= 1, into out: a node keeps propagating only while its source index
    # stays <= n-2; the last node is the outflow condition and never moves inward
    kept = max(n - 1 - k, 0)
    out[:kept], out[kept:] = vals[k:k + kept], 0
    return out


# theta_m: the largest ||dt A||_1 / s at which the degree-m Taylor polynomial
# of e^{dt A / s} meets double precision, from Al-Mohy and Higham, Computing
# the action of the matrix exponential, SIAM J. Sci. Comput. 33 (2011),
# table 3.1 (m <= 30 from table A.3 of Higham, Functions of Matrices); scipy
# carries the same values as scipy.sparse.linalg._expm_multiply._theta
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def _taylor_poly(x: np.ndarray, m: int) -> np.ndarray:
    """T_m(X) = sum_{j <= m} X^j / j! of the X of bands x, row p + m kd holding
    band p, rounded as a new array per term would round it. X moves band p of
    T to q + p by (X T)[i, i + q + p] = X[i, i + q] T[i + q, i + q + p], so
    term j is written over term j - 1 kd rows higher, c bands at a time from
    the top, whose sources no chunk above overwrote."""
    kd, n = x.shape[0] // 2, x.shape[1]
    w, c = m * kd, m * kd // 2 + 1
    poly = np.zeros((2 * w + 1, n), dtype=x.dtype)
    term = np.zeros((2 * w + 2 * kd + 1, n + 2 * kd), dtype=x.dtype)  # bands wrapped by kd a side
    poly[w] = term[2 * kd] = 1.0
    for j in range(1, m + 1):
        o = (j + 1) * kd  # row p + o of term holds band p of term j - 1
        for hi in range(j * kd, -j * kd - 1, -c):
            lo = max(hi - c + 1, -j * kd)
            new = term[lo + o + kd:hi + o + kd + 1]
            np.divide(sum(x[q + kd] * term[lo - q + o:hi - q + o + 1, kd + q:kd + q + n]
                          for q in range(-kd, kd + 1)), j, out=new[:, kd:n + kd])
            new[:, :kd], new[:, n + kd:] = new[:, n:n + kd], new[:, kd:2 * kd]
            poly[lo + w:hi + w + 1] += new[:, kd:n + kd]
    return poly


def _band_step(a_bands: np.ndarray, dt: float, dtype):
    """The band route's step v -> T_m(dt A / s)^s v for states of the given
    dtype, T_m the degree-m Taylor polynomial, or None when it would cost as
    much as a dense mat-vec.

    (m, s) minimizes m s subject to ||dt A||_1 / s <= theta_m. T_m has
    2 m kd + 1 periodic bands, like A's 2 kd + 1 a_bands, so a step takes
    s (2 m kd + 1) n products against n^2 for a dense one, and the route
    needs s (2 m kd + 1) < n. T_m is built in place (_taylor_poly).
    """
    n, kd = a_bands.shape[1], a_bands.shape[0] // 2
    # column j of A holds A[(j - k) mod n, j] = a_bands[k + kd, (j - k) mod n]
    norm = dt * float(np.abs(np.take_along_axis(a_bands, _columns(n, kd)[::-1], 1)).sum(0).max())
    m, s = min(((m, max(1, math.ceil(norm / theta))) for m, theta in _THETA.items()),
               key=lambda ms: (ms[0] * ms[1], ms[1]))
    w = m * kd
    if s * (2 * w + 1) >= n:
        return None
    bands = _taylor_poly((dt / s) * a_bands, m).T.copy()  # bands[i, p + w] = T_m[i, (i + p) mod n]
    # windows[i, p + w] = v[(i + p) mod n] once padded holds v wrapped by w a side
    padded = np.empty(n + 2 * w, dtype=dtype)
    windows = sliding_window_view(padded, 2 * w + 1)

    def step(v, out):
        for _ in range(s):
            padded[:w], padded[w:n + w], padded[n + w:] = v[n - w:], v, v[:w]
            v = np.einsum("ij,ij->i", bands, windows, out=out)
        return v

    return step


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


def _make_step(system: DiscreteSystem, dt: float, dtype):
    """(basis, step, f_bands, b) of the system's step route: basis maps states
    to its coordinates in place along the last axis, and back; there step(v,
    out) writes e^{dt A} v into out for states of the given dtype, F has the
    bands f_bands and B is b. In heat's sine basis S, F = -W A = S (-W Lambda) S:
    W is scalar where S acts."""
    if system.model.step == "sine":
        lam = sine_spectrum(system.grid)
        p = np.exp(dt * lam)
        return (sine_basis, lambda v, out: np.multiply(p, v, out=out),
                -(system.weights * lam)[None], sine_basis(system.b_matrix.T.copy()).T)
    if system.model.step == "shift":
        q, n = _shift_indices(dt, system.grid.h), system.n
        step = lambda v, out: _shift_values(v, q, n, out)
    elif (step := _band_step(system.a_bands, dt, dtype)) is None:
        prop = _dense_propagator(system, dt)
        step = lambda v, out: np.matmul(prop, v, out=out)
    return lambda x: x, step, system.f_bands, system.b_matrix


# The most bytes of a block of a run's states, so that one heat block's work arrays
# (the block, its B u rows, and rfft's odd extension and complex output) fit a 2 MiB L2
BLOCK_BYTES = 128 * 1024


def block_rows(n: int, itemsize: int = 8) -> int:
    # rows per block of n-entry states for the loop, the rate products and heat's transform:
    # as many as fit BLOCK_BYTES, a multiple of 4 in [4, 64] as the supply's gemv sums fours
    return min(64, max(4, 4 * (BLOCK_BYTES // (4 * n * itemsize))))


def _start(system: DiscreteSystem, x0, u: ControlSignal):
    # the loop's one entry, which refuses a bad run: x0 as a state of the run's
    # dtype, the basis, step, F and B of _make_step, and x0 in that basis
    if u.m_inputs != system.m_inputs:
        raise SignalError(f"control has {u.m_inputs} channels, system expects {system.m_inputs}")
    x0v = as_state(x0, system.n)
    x0v = x0v.astype(np.result_type(x0v, u.values, system.b_matrix, system.a_bands, float))
    basis, step, f, b = _make_step(system, u.dt, x0v.dtype)
    return x0v, basis, step, f, basis(x0v.copy()), b


def _blocks(start, u: ControlSignal):
    # the one stepping loop: the run's blocks in the step basis, each fresh; a
    # consumer may map one in place, as the loop steps on from a copy
    _, _, step, _, x, b = start
    rows, size, work = u.values.shape[0], block_rows(x.size, x.itemsize), np.empty_like(x)
    # hb[1 + k] = (dt/2) B u at row k of the block, hb[0] at the row before it
    hb = np.zeros((min(rows, size) + 1, x.size), dtype=np.result_type(u.values, b))
    for first in range(0, rows, size):
        stop = min(first + size, rows)
        hb[0] = hb[-1]  # a block that has a successor is full
        uk = u.values[first:stop]  # B u one input at a time, so no row count moves a bit
        bu = np.matmul(uk[:, :1], b[:, :1].T, out=hb[1:stop - first + 1])
        for j in range(1, uk.shape[1]):
            bu += uk[:, j:j + 1] * b[:, j]
        bu *= 0.5 * u.dt
        block = np.empty((stop - first, x.size), x.dtype)
        if first == 0:
            block[0] = x
        for k in range(1 if first == 0 else 0, stop - first):
            # x_{k+1} = P (x_k + (dt/2) B u_k) + (dt/2) B u_{k+1}
            x = np.add(step(np.add(x, hb[k], out=work), block[k]), hb[k + 1], out=block[k])
        x = x.copy()
        yield block


def _nodal(start, u: ControlSignal):
    # the loop's blocks mapped to the nodes in place, row 0 x0 itself, not its round trip
    for i, block in enumerate(_blocks(start, u)):
        start[1](block)
        if i == 0:
            block[0] = start[0]
        yield block


def run_blocks(system: DiscreteSystem, x0, u: ControlSignal):
    """The states x(t_k), k = 0..K, of x0 under the control u, whose clock is
    the run's clock: an iterator over consecutive fresh blocks of at most
    block_rows(n) rows from row 0, each mapped from the step basis to the
    nodes in place. A bad state or control is refused at the call. A consumer that
    keeps a row or column past its block copies it, or the block stays alive.
    """
    return _nodal(_start(system, x0, u), u)


def final_state(system: DiscreteSystem, x0, u: ControlSignal) -> np.ndarray:
    """x(T), the last state of the run of x0 under the control u: the run is
    stepped in its step basis, and only row K is mapped back to the nodes. A
    bad state or control is refused at the call."""
    start = _start(system, x0, u)
    for block in _blocks(start, u):
        pass
    return start[1](block[-1].copy())


def _outputs(weights: np.ndarray, b: np.ndarray, states: np.ndarray) -> np.ndarray:
    # y = (W B)^H x of every row x of states, B in their basis: one gemv per input, whose sums
    # do not depend on how many rows a block has (numpy's @ takes a dot product for one row),
    # each written into its row of y
    wb = np.conj(weights[:, None] * b)
    gemv = sla.get_blas_funcs("gemv", (states, wb))
    y = np.zeros((wb.shape[1], len(states)), dtype=gemv.dtype)
    for row, col in zip(y, wb.T):
        gemv(1.0, states.T, col, y=row, overwrite_y=1, trans=1)
    return y.T


@dataclass(eq=False)
class BoundaryTraceReport:
    times: np.ndarray
    from_trajectory: np.ndarray
    from_formula: np.ndarray
    max_discrepancy: float


def boundary_trace(system: DiscreteSystem, x0, u: ControlSignal) -> BoundaryTraceReport:
    """Outflow trace t -> x(t, 0) for transport, computed two ways.

    Route one reads node 0 off the blocks of the stepped run. Route two
    evaluates the closed-form trace: the initial profile sampled at w = t
    while t < 1, plus the integral of (B u(s))(t - s) over the window
    s in (max(t-1, 0), t]. Points whose spatial argument has reached the
    outflow node contribute zero, matching the shift convention, so on an
    aligned clock (dt = h) the two routes agree to roundoff.
    """
    if system.model_tag != "transport":
        raise ValueError("boundary trace is defined for the transport model only")
    x0v = as_state(x0, system.n)
    # a copy of each column, so that no block outlives its turn
    from_traj = np.concatenate([block[:, 0].copy() for block in run_blocks(system, x0v, u)])
    n, dt, uvals = system.n, u.dt, u.values
    q, kmax = _shift_indices(dt, system.grid.h), uvals.shape[0] - 1
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
