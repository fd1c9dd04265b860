"""Discrete dissipative generators on the unit interval.

Each model produces a DiscreteSystem, the one object per generator: the
generator A, the input map B and the dissipation form matrix F = -Herm(W A),
where W is the trapezoid gram matrix, kept as the grid's weight vector. The
graph norm is taken from A; G = W + A^H W A is formed only for the M root.
Assembly validates dissipativity on the stored F: its smallest eigenvalue
must not fall below -1e-8 * max(1, ||F||_2), so -Re<Ax, x> >= 0 up to
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .grids import Grid, as_state, norm_sq
from .linalg import assemble_from_factors, gram_sqrt_factors, psd_sqrt


# The damping of skew_damped wherever none is given: the assembler, configs,
# the CLI, refinement studies and the scripts all read this one value.
DEFAULT_DAMPING = 0.3


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
    f_matrix : np.ndarray
        Dissipation form matrix -Herm(W A), PSD: the rate is x^H F x.
    model_tag : str
        A key of MODELS, or "custom"; the model property is its registry row.

    The rest is built on first read and kept: m_sqrt, the G-square root of
    the rate operator M = G^{-1} F, and q_sqrt, the W-square root of the
    bounded probe Q; neither G nor Q is kept. g_chol and m_sqrt_hat hold
    the Cholesky factor G = L L^H and the square root in L-orthonormal
    coordinates; the rate is evaluated as ||m_sqrt_hat @ (L^H x)||^2, the
    same graph-norm quantity as ||m_sqrt @ x||_G without routing the
    arithmetic through the large entries of G. m_eigenvalues are the
    (ascending) eigenvalues of M.
    """

    grid: Grid
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    f_matrix: np.ndarray
    model_tag: str

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
    m_eigenvalues = property(lambda self: self._m_factors[1])
    m_sqrt_hat = property(lambda self: self._m_factors[2])

    @cached_property
    def m_sqrt(self) -> np.ndarray:
        root = assemble_from_factors(self.g_chol, self.m_sqrt_hat)
        return root if np.iscomplexobj(self.a_matrix) else root.real

    @cached_property
    def q_sqrt(self) -> np.ndarray:
        return psd_sqrt(_probe_matrix(self.a_matrix, self.weights), self.weights)


def _probe_matrix(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Q = -((A - I)^{-1} + W-adjoint) / 2; its temporaries die before psd_sqrt
    shifted = a.copy()
    shifted.flat[::a.shape[0] + 1] -= 1.0  # A - I
    res = sla.inv(shifted)
    # W-adjoint W^{-1} res^H W, with W diagonal
    res_adj = (res.conj().T * w) * (1.0 / w)[:, None]
    q = -0.5 * (res + res_adj)
    return q if np.iscomplexobj(a) else q.real


def herm_part_wa(a_matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Hermitian part of W A; its negation is the dissipation form matrix."""
    wa = weights[:, None] * a_matrix
    return 0.5 * (wa + wa.conj().T)


def dissipativity_gap(f_matrix: np.ndarray) -> tuple[float, float]:
    """(-lambda_min(F), ||F||_2) of the Hermitian form matrix F, from one
    eigensolve. The gap is <= 0 (up to roundoff) iff the system is dissipative."""
    eigs = sla.eigvalsh(f_matrix)
    return float(-eigs[0]), float(max(-eigs[0], eigs[-1]))


def graph_gram(a_matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """G = W + A^H W A, symmetrized so that it is Hermitian to the last bit."""
    g = (a_matrix.conj().T * weights) @ a_matrix
    g.flat[::g.shape[0] + 1] += weights
    return 0.5 * (g + g.conj().T)


def _input_matrix(grid: Grid, input_profile) -> np.ndarray:
    # default input profile: the constant-one window over the whole interval
    if input_profile is None:
        return np.ones((grid.n, 1))
    if callable(input_profile):
        input_profile = np.reshape(input_profile(grid.nodes), (grid.n, 1))
    # a complex map stays complex, as a complex generator does
    b = np.asarray(input_profile,
                   dtype=complex if np.iscomplexobj(input_profile) else float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.ndim != 2 or b.shape[0] != grid.n:
        raise AssemblyError(f"input map has shape {b.shape}, grid has {grid.n} nodes")
    if not np.isfinite(b).all():
        raise AssemblyError("input map has non-finite entries (NaN or inf)")
    return b


def _finish(grid: Grid, a: np.ndarray, b: np.ndarray, tag: str) -> DiscreteSystem:
    f = -herm_part_wa(a, grid.weights)
    gap, f_norm = dissipativity_gap(f)
    tol = 1e-8 * max(1.0, f_norm)
    if gap > tol:
        raise AssemblyError(
            f"model '{tag}' is not dissipative: smallest eigenvalue of "
            f"F = -Herm(WA) is {-gap:.3e} (tolerance {tol:.3e})"
        )
    return DiscreteSystem(grid=grid, a_matrix=a, b_matrix=b, f_matrix=f,
                          model_tag=tag)


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
    a = np.zeros((n, n))
    a[0, 0], a[0, 1] = -1.0 / h, 1.0 / h
    for i in range(1, n - 1):
        a[i, i - 1] = -1.0 / (2.0 * h)
        a[i, i + 1] = 1.0 / (2.0 * h)
    a[-1, -2], a[-1, -1] = -1.0 / h, 1.0 / h
    a[-1, -1] -= 2.0 / h  # penalty enforcing x(1) = 0
    return _finish(grid, a, _input_matrix(grid, input_profile), "transport")


def assemble_heat(grid: Grid, input_profile=None) -> DiscreteSystem:
    """1D diffusion x' = x'' with homogeneous Dirichlet conditions.

    The interior rows are the standard second difference. The boundary
    nodes are kept in the state vector but fully decoupled, each with its
    own fast relaxation, so that Dirichlet-compatible data (zero endpoint
    values) stays exact and W A is symmetric negative semidefinite by
    construction. The full matrix stays invertible, which the steady-state
    solve -A^{-1}(B c) relies on.
    """
    n, h = grid.n, grid.h
    a = np.zeros((n, n))
    for i in range(1, n - 1):
        a[i, i - 1] = 1.0 / h**2
        a[i, i] = -2.0 / h**2
        a[i, i + 1] = 1.0 / h**2
    a[1, 0] = 0.0
    a[-2, -1] = 0.0
    a[0, 0] = -2.0 / h**2
    a[-1, -1] = -2.0 / h**2
    return _finish(grid, a, _input_matrix(grid, input_profile), "heat")


def assemble_skew_damped(grid: Grid, damping: float = DEFAULT_DAMPING,
                         input_profile=None) -> DiscreteSystem:
    """Periodic central derivative, skew-symmetrized in W, minus damping*I.

    The generator is J - damping*I where J is exactly W-skew-adjoint, so the
    dissipation form is damping * ||x||^2 to machine precision.
    """
    if not 0.0 <= damping < np.inf:
        raise AssemblyError(f"damping must be finite and nonnegative, got {damping}")
    n, h = grid.n, grid.h
    c = np.zeros((n, n))
    for i in range(n):
        c[i, (i + 1) % n] += 1.0 / (2.0 * h)
        c[i, (i - 1) % n] -= 1.0 / (2.0 * h)
    w = grid.weights
    # J = (C - W^{-1} C^T W) / 2, then A = J - damping * I
    a = 0.5 * (c - (1.0 / w)[:, None] * (c.T * w[None, :]))
    a.flat[::n + 1] -= damping
    return _finish(grid, a, _input_matrix(grid, input_profile), "skew_damped")


def assemble_custom(grid: Grid, a_matrix: np.ndarray, b_matrix=None) -> DiscreteSystem:
    """Wrap a user matrix; validation (dissipativity, shapes) still applies.

    A custom system steps with expm and checks no boundary condition.
    """
    a = np.asarray(a_matrix, dtype=complex if np.iscomplexobj(a_matrix) else float)
    if a.shape != (grid.n, grid.n):
        raise AssemblyError(f"generator shape {a.shape} does not match grid size {grid.n}")
    if not np.isfinite(a).all():
        raise AssemblyError("generator has non-finite entries (NaN or inf)")
    return _finish(grid, a, _input_matrix(grid, b_matrix), "custom")


@dataclass(frozen=True)
class Model:
    """One row of the model registry.

    assemble(grid, damping) builds the system; models without damping
    ignore it. step is how e^{dt A} is applied: "shift" (the exact nodal
    shift, transport only), "eigen" (W-eigenpairs, for a W-self-adjoint A)
    or "expm". boundary(x) is the residual of the boundary condition that
    classical data meets, described by boundary_note.
    """

    assemble: Callable[[Grid, float], DiscreteSystem] | None
    step: str = "expm"
    boundary: Callable[[np.ndarray], float] = lambda x: 0.0
    boundary_note: str = "custom model, no boundary condition checked"


# The model registry. Configs and the CLI read their model names from here.
MODELS: dict[str, Model] = {
    "transport": Model(lambda grid, damping: assemble_transport(grid), "shift",
                       lambda x: abs(x[-1]), "outflow value x(1)"),
    "heat": Model(lambda grid, damping: assemble_heat(grid), "eigen",
                  lambda x: max(abs(x[0]), abs(x[-1])), "endpoint values x(0), x(1)"),
    "skew_damped": Model(lambda grid, damping: assemble_skew_damped(grid, damping=damping),
                         "expm", lambda x: abs(x[0] - x[-1]), "periodic match x(0) = x(1)"),
}
CUSTOM = Model(assemble=None)


def assemble_model(model_tag: str, grid: Grid, damping: float = DEFAULT_DAMPING) -> DiscreteSystem:
    """Assemble one of the named models (custom needs assemble_custom)."""
    if model_tag not in MODELS:
        raise AssemblyError(f"unsupported model: {model_tag!r}")
    return MODELS[model_tag].assemble(grid, damping)


def graph_norm(system: DiscreteSystem, f) -> float:
    fv, w = as_state(f, system.n), system.weights
    return float(np.sqrt(norm_sq(w, fv) + norm_sq(w, system.a_matrix @ fv)))
