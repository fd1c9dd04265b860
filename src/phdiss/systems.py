"""Discrete dissipative generators on the unit interval.

Each model produces a DiscreteSystem, the one object per generator: the
generator A, the input map B and the dissipation form matrix F = -Herm(W A),
where W is the trapezoid gram matrix, kept as the grid's weight vector. The
graph norm is taken from A; G = W + A^H W A is formed only for the M root.
A DiscreteSystem checks itself when built: A's and B's shapes and finiteness,
then dissipativity on the F it forms, whose smallest eigenvalue must not fall
below -1e-8 * max(1, ||F||_2), so -Re<Ax, x> >= 0 up to roundoff. The
eigenvalues are read from F's band: the named models have a diagonal or
tridiagonal F, and only a dense custom F takes a dense eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .grids import Grid, as_state, check_finite, norm_sq
from .linalg import gram_sqrt_factors, psd_sqrt


# The damping of skew_damped, whose rate is DAMPING * ||x||^2. Another
# damping d is assemble_custom(grid, A - (d - DAMPING) * I) on its A.
DAMPING = 0.3

# The widest band of F whose eigenvalues come from the banded eigensolver;
# its work grows like n^2 kd against n^3 for the dense one.
MAX_BAND = 16


class AssemblyError(ValueError):
    """Raised when a model cannot be assembled or fails validation."""


@dataclass(eq=False)
class DiscreteSystem:
    """A discretized system x' = A x + B u, y = B^* x, with its dissipation
    operators.

    Attributes
    ----------
    grid : Grid
    a_matrix : np.ndarray
        Generator, shape (n, n).
    b_matrix : np.ndarray
        Input map, shape (n, m). m may be 0 for autonomous runs.
    model_tag : str
        A key of MODELS, or "custom"; the model property is its registry row.
    f_matrix : np.ndarray
        Dissipation form matrix -Herm(W A), PSD: the rate is x^H F x. The constructor
        forms it, and raises AssemblyError for a bad A or B or a non-dissipative F.
        It keeps integer and boolean A and B as float, complex ones as complex.

    The two dissipation roots are built on first read and kept, each only
    as its Hermitian core in orthonormal coordinates (G and Q are dropped).
    For M = G^{-1} F, with G = L L^H the graph gram, g_chol is L and
    m_sqrt_hat = (L^{-1} F L^{-H})^{1/2}: ||M^{1/2} x||_G = ||m_sqrt_hat L^H x||
    and M^{1/2} x = L^{-H} m_sqrt_hat L^H x. For the bounded probe Q,
    q_sqrt_hat = (W^{1/2} Q W^{-1/2})^{1/2}: ||Q^{1/2} y||_W = ||q_sqrt_hat sqrt(w) y||,
    one eigh after the solve with W^{1/2} A W^{-1/2} - I that q_check takes.
    No run task reads a root.
    """

    grid: Grid
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    model_tag: str
    f_matrix: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n, a, b = self.grid.n, self.a_matrix, self.b_matrix
        if a.shape != (n, n):
            raise AssemblyError(f"generator shape {a.shape} does not match grid size {n}")
        check_finite(a, "generator", AssemblyError)
        if b.ndim != 2 or b.shape[0] != n:
            raise AssemblyError(f"input map has shape {b.shape}, grid has {n} nodes")
        check_finite(b, "input map", AssemblyError)
        self.a_matrix = a.astype(np.result_type(a, float), copy=False)
        self.b_matrix = b.astype(np.result_type(b, float), copy=False)
        self.f_matrix = -herm_part_wa(self.a_matrix, self.grid.weights)
        gap, f_norm = dissipativity_gap(self.f_matrix)
        tol = 1e-8 * max(1.0, f_norm)
        if gap > tol:
            raise AssemblyError(
                f"model '{self.model_tag}' is not dissipative: smallest eigenvalue of "
                f"F = -Herm(WA) is {-gap:.3e} (tolerance {tol:.3e})")

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def m_inputs(self) -> int:
        return self.b_matrix.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights, the diagonal of W."""
        return self.grid.weights

    @property
    def model(self) -> Model:
        """The registry row of model_tag; CUSTOM for a custom system."""
        return MODELS.get(self.model_tag, CUSTOM)

    @cached_property
    def _m_factors(self):
        # G M = F exactly, so the factors come straight from F; M is never formed
        return gram_sqrt_factors(self.f_matrix, graph_gram(self.a_matrix, self.weights))

    g_chol = property(lambda self: self._m_factors[0])
    m_sqrt_hat = property(lambda self: self._m_factors[1])

    @cached_property
    def q_sqrt_hat(self) -> np.ndarray:
        # W^{1/2} Q W^{-1/2} = -Herm((W^{1/2} A W^{-1/2} - I)^{-1}), Hermitian by construction
        res = _probe_solve(self.a_matrix, self.weights, np.identity(self.n))
        return psd_sqrt(-0.5 * (res + res.conj().T))


def _probe_solve(a: np.ndarray, w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # (W^{1/2} A W^{-1/2} - I)^{-1} rhs for a 2-D rhs: a band of at most MAX_BAND a
    # side (transport, heat) goes to solve_banded, and so does a periodic one
    # (skew_damped), whose wrapped corners come back by Woodbury; a wider one
    # takes a dense LU
    n = a.shape[0]
    shifted = np.sqrt(w)[:, None] * a / np.sqrt(w)
    shifted.flat[::n + 1] -= 1.0
    lower, upper = sla.bandwidth(shifted)
    if max(lower, upper) <= MAX_BAND:
        return sla.solve_banded((lower, upper), _band(shifted, lower, upper), rhs)
    kd = periodic_bandwidth(shifted)
    if kd > MAX_BAND:
        return sla.solve(shifted, rhs, overwrite_a=True)
    # the wrapped entries, |i - j| > kd, lie in rows and columns idx: shifted is
    # the band plus E C E^H, E the columns idx of the identity
    idx = np.r_[:kd, n - kd:n]
    c = shifted[np.ix_(idx, idx)]
    c[np.abs(idx[:, None] - idx) <= kd] = 0.0
    # beta I moved into C keeps Herm(band) <= Herm(shifted) <= -I, so the band is
    # no worse conditioned than shifted; skew_damped's corners are skew, beta = 0
    c.flat[::2 * kd + 1] += max(0.0, -np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])
    shifted[np.ix_(idx, idx)] -= c
    e = np.zeros((n, 2 * kd))
    e[idx, np.arange(2 * kd)] = 1.0
    sol = sla.solve_banded((kd, kd), _band(shifted, kd, kd), np.hstack((rhs, e)))
    y, z = sol[:, :rhs.shape[1]], sol[:, rhs.shape[1]:]
    return y - z @ np.linalg.solve(np.identity(2 * kd) + c @ z[idx], c @ y[idx])


def periodic_bandwidth(a: np.ndarray) -> int:
    """The largest min(|i - j|, n - |i - j|) over the nonzeros a[i, j] of the
    n x n matrix a: its half-bandwidth when the rows wrap around, so 1 for
    skew_damped's generator with its two periodic corners."""
    rows, cols = np.nonzero(a)
    dist = np.abs(rows - cols)
    return int(np.minimum(dist, a.shape[0] - dist).max(initial=0))


def herm_part_wa(a_matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Hermitian part of W A; its negation is the dissipation form matrix."""
    wa = weights[:, None] * a_matrix
    return 0.5 * (wa + wa.conj().T)


def dissipativity_gap(f_matrix: np.ndarray) -> tuple[float, float]:
    """(-lambda_min(F), ||F||_2) of the Hermitian form matrix F. The gap is
    <= 0 (up to roundoff) iff the system is dissipative.

    The eigenvalues are read from F's band: a band of at most MAX_BAND
    sub-diagonals, a diagonal F included, goes to eigvals_banded (LAPACK's
    eigenvalues, not a bound), and only a wider F takes a dense eigvalsh.
    """
    kd = max(sla.bandwidth(f_matrix))
    if kd <= MAX_BAND:
        eigs = sla.eigvals_banded(_band(f_matrix, kd, 0), lower=True)
    else:
        eigs = sla.eigvalsh(f_matrix)
    lo, hi = float(eigs.min()), float(eigs.max())
    return -lo, max(-lo, hi)


def _band(a: np.ndarray, lower: int, upper: int) -> np.ndarray:
    # LAPACK band ab[upper + i - j, j] = a[i, j]; upper = 0 gives eigvals_banded's lower one
    ab = np.zeros((lower + upper + 1, a.shape[0]), dtype=a.dtype)
    for k in range(-lower, upper + 1):
        ab[upper - k, max(k, 0):a.shape[0] + min(k, 0)] = np.diagonal(a, k)
    return ab


def graph_gram(a_matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """G = W + A^H W A, symmetrized so that it is Hermitian to the last bit."""
    g = (a_matrix.conj().T * weights) @ a_matrix
    g.flat[::g.shape[0] + 1] += weights
    return 0.5 * (g + g.conj().T)


def _input_matrix(grid: Grid, input_profile) -> np.ndarray:
    # default input profile: the constant-one window over the whole interval;
    # a profile of one value per node is one input column
    if input_profile is None:
        return np.ones((grid.n, 1))
    b = np.asarray(input_profile(grid.nodes) if callable(input_profile) else input_profile)
    return b.reshape(-1, 1) if b.ndim == 1 else b


def _tridiagonal(n: int, lower, diag, upper) -> np.ndarray:
    # the n x n matrix with these sub-, main and super-diagonals, zero elsewhere
    a = np.zeros((n, n))
    a.flat[n::n + 1] = lower
    a.flat[::n + 1] = diag
    a.flat[1::n + 1] = upper
    return a


def assemble_transport(grid: Grid, input_profile=None) -> DiscreteSystem:
    """Transport x' = dx/dw with outflow condition x(1) = 0.

    The solution shifts the profile toward w = 0 and mass leaves through the
    boundary node at 0. The derivative is the second-order summation-by-parts
    stencil whose norm is exactly the trapezoid weight vector, so
    W D + D^T W collapses to boundary terms. The outflow condition enters as
    a penalty on the last row (unit penalty strength). Net effect:
    W A + A^T W = diag(-1, 0, ..., 0, -1), hence the dissipation form is
    |x(0)|^2 / 2 + |x(1)|^2 / 2 with no interior residue.
    """
    n, h = grid.n, grid.h
    a = _tridiagonal(n, -1.0 / (2.0 * h), 0.0, 1.0 / (2.0 * h))
    a[0, 0], a[0, 1] = -1.0 / h, 1.0 / h
    a[-1, -2], a[-1, -1] = -1.0 / h, 1.0 / h - 2.0 / h  # penalty enforcing x(1) = 0
    return DiscreteSystem(grid, a, _input_matrix(grid, input_profile), "transport")


def assemble_heat(grid: Grid, input_profile=None) -> DiscreteSystem:
    """1D diffusion x' = x'' with homogeneous Dirichlet conditions.

    The interior rows are the standard second difference. The boundary
    nodes are kept in the state vector but fully decoupled, each with its
    own fast relaxation, so that Dirichlet-compatible data (zero endpoint
    values) stays exact and W A is symmetric negative semidefinite by
    construction. The sine step route relies on the decoupling: each
    boundary node is an eigenvector of A (semigroup.sine_spectrum).
    A is invertible, every eigenvalue negative, but only a test solves with it.
    """
    n, h = grid.n, grid.h
    a = _tridiagonal(n, 1.0 / h**2, -2.0 / h**2, 1.0 / h**2)
    a[0, 1] = a[1, 0] = a[-2, -1] = a[-1, -2] = 0.0
    return DiscreteSystem(grid, a, _input_matrix(grid, input_profile), "heat")


def assemble_skew_damped(grid: Grid, input_profile=None) -> DiscreteSystem:
    """Periodic central derivative, skew-symmetrized in W, minus DAMPING*I.

    The generator is J - DAMPING*I where J is exactly W-skew-adjoint, so the
    dissipation form is DAMPING * ||x||^2 to machine precision.
    """
    n, s, w = grid.n, 1.0 / (2.0 * grid.h), grid.weights
    # J = (C - W^{-1} C^T W) / 2 entrywise, J_ij = (C_ij - (1/w_i)(C_ji w_j)) / 2,
    # from the periodic central difference C_{i,i+1} = s, C_{i+1,i} = -s
    a = _tridiagonal(n, 0.5 * (-s - (1.0 / w[1:]) * (s * w[:-1])), -DAMPING,
                     0.5 * (s - (1.0 / w[:-1]) * (-s * w[1:])))
    a[-1, 0] = 0.5 * (s - (1.0 / w[-1]) * (-s * w[0]))
    a[0, -1] = 0.5 * (-s - (1.0 / w[0]) * (s * w[-1]))
    return DiscreteSystem(grid, a, _input_matrix(grid, input_profile), "skew_damped")


def assemble_custom(grid: Grid, a_matrix: np.ndarray, b_matrix=None) -> DiscreteSystem:
    """Wrap a user matrix; the system checks it and keeps it as float or complex.

    A custom system takes the "expm" step route: on A's periodic bands where
    that is cheaper than a dense product, with the dense expm otherwise.
    """
    return DiscreteSystem(grid, np.asarray(a_matrix), _input_matrix(grid, b_matrix), "custom")


@dataclass(frozen=True)
class Model:
    """One row of the model registry: its assembler and its step route.

    assemble(grid) builds the system. step is how e^{dt A} is applied:
    "shift" (the exact nodal shift, transport only), "sine" (the diagonal
    semigroup.sine_spectrum in semigroup.sine_basis, heat only) or "expm"
    (skew_damped and custom systems), which steps with a Taylor polynomial
    on A's periodic bands where that costs less than a dense product and
    with the dense expm otherwise; the choice is read from A and dt, and
    only the step route reads step.
    """

    assemble: Callable[[Grid], DiscreteSystem] | None
    step: str = "expm"


# The model registry, read by configs and the CLI. Each row looks its assembler
# up at call time, so a call tracer that rebinds systems.assemble_* sees it.
MODELS: dict[str, Model] = {
    "transport": Model(lambda grid: assemble_transport(grid), "shift"),
    "heat": Model(lambda grid: assemble_heat(grid), "sine"),
    "skew_damped": Model(lambda grid: assemble_skew_damped(grid), "expm"),
}
CUSTOM = Model(assemble=None)


def assemble_model(model_tag: str, grid: Grid) -> DiscreteSystem:
    """Assemble one of the named models (custom needs assemble_custom)."""
    if model_tag not in MODELS:
        raise AssemblyError(f"unsupported model: {model_tag!r}")
    return MODELS[model_tag].assemble(grid)


def graph_norm(system: DiscreteSystem, f) -> float:
    fv, w = as_state(f, system.n), system.weights
    return float(np.sqrt(norm_sq(w, fv) + norm_sq(w, system.a_matrix @ fv)))
