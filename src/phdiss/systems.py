"""Discrete dissipative generators on the unit interval.

Each model produces a DiscreteSystem holding the generator matrix A, the
input map B and the graph gram matrix G = W + A^H W A, where W is the
diagonal gram matrix of the trapezoid inner product, kept as the grid's
weight vector. Assembly validates dissipativity:
the largest eigenvalue of the symmetric part of W A must not exceed
roundoff, so that -Re<Ax, x> >= 0 holds for every state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .grids import Grid, as_state

PROPAGATOR_HINTS = ("shift", "eigen", "generic")


class AssemblyError(ValueError):
    """Raised when a model cannot be assembled or fails validation."""


@dataclass(eq=False)
class DiscreteSystem:
    """A discretized system x' = A x + B u, y = B^* x.

    Attributes
    ----------
    grid : Grid
    a_matrix : np.ndarray
        Generator, shape (n, n).
    b_matrix : np.ndarray
        Input map, shape (n, m). m may be 0 for autonomous runs.
    g_gram : np.ndarray
        Graph gram matrix W + A^H W A; positive definite.
    model_tag : str
        A key of MODELS, or "custom".
    propagator_hint : str
        Preferred propagation route, one of PROPAGATOR_HINTS.
    """

    grid: Grid
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    g_gram: np.ndarray
    model_tag: str
    propagator_hint: str = "generic"

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


def herm_part_wa(a_matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Hermitian part of W A; its negation is the dissipation form matrix."""
    wa = weights[:, None] * a_matrix
    return 0.5 * (wa + wa.conj().T)


def dissipativity_gap(a_matrix: np.ndarray, weights: np.ndarray) -> float:
    """Largest eigenvalue of Herm(W A). <= 0 (up to roundoff) iff dissipative."""
    return float(sla.eigvalsh(herm_part_wa(a_matrix, weights))[-1])


def spectral_norm(a_matrix: np.ndarray) -> float:
    """||A||_2 as the square root of the top eigenvalue of A^H A.

    Exact to round-off like a full SVD, at the cost of one Gram product
    and one partial symmetric eigensolve.
    """
    n = a_matrix.shape[0]
    top = sla.eigvalsh(a_matrix.conj().T @ a_matrix, subset_by_index=[n - 1, n - 1])
    return float(np.sqrt(max(top[0], 0.0)))


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
        col = np.asarray(input_profile(grid.nodes), dtype=float)
        return col.reshape(grid.n, 1)
    b = np.asarray(input_profile, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != grid.n:
        raise AssemblyError(f"input map has {b.shape[0]} rows, grid has {grid.n} nodes")
    return b


def _finish(grid: Grid, a: np.ndarray, b: np.ndarray, tag: str,
            hint: str) -> DiscreteSystem:
    w = grid.weights
    gap = dissipativity_gap(a, w)
    tol = 1e-8 * max(1.0, spectral_norm(a))
    if gap > tol:
        raise AssemblyError(
            f"model '{tag}' is not dissipative: top eigenvalue of Herm(WA) is "
            f"{gap:.3e} (tolerance {tol:.3e})"
        )
    return DiscreteSystem(grid=grid, a_matrix=a, b_matrix=b,
                          g_gram=graph_gram(a, w), model_tag=tag,
                          propagator_hint=hint)


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
    return _finish(grid, a, _input_matrix(grid, input_profile), "transport", "shift")


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
    return _finish(grid, a, _input_matrix(grid, input_profile), "heat", "eigen")


def assemble_skew_damped(grid: Grid, damping: float = 0.3, input_profile=None) -> DiscreteSystem:
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
    return _finish(grid, a, _input_matrix(grid, input_profile), "skew_damped",
                   "generic")


def assemble_custom(grid: Grid, a_matrix: np.ndarray, b_matrix=None,
                    propagator_hint: str = "generic") -> DiscreteSystem:
    """Wrap a user matrix; validation (dissipativity, shapes) still applies."""
    a = np.asarray(a_matrix, dtype=complex if np.iscomplexobj(a_matrix) else float)
    if a.shape != (grid.n, grid.n):
        raise AssemblyError(f"generator shape {a.shape} does not match grid size {grid.n}")
    if propagator_hint not in PROPAGATOR_HINTS:
        raise AssemblyError(f"unknown propagator hint {propagator_hint!r}")
    return _finish(grid, a, _input_matrix(grid, b_matrix), "custom", propagator_hint)


# The model registry: tag -> assembler(grid, damping). Configs and the CLI
# read their model names from here; models without damping ignore it.
MODELS: dict[str, Callable[[Grid, float], DiscreteSystem]] = {
    "transport": lambda grid, damping: assemble_transport(grid),
    "heat": lambda grid, damping: assemble_heat(grid),
    "skew_damped": lambda grid, damping: assemble_skew_damped(grid, damping=damping),
}


def assemble_model(model_tag: str, grid: Grid, damping: float = 0.3) -> DiscreteSystem:
    """Assemble one of the named models (custom needs assemble_custom)."""
    if model_tag not in MODELS:
        raise AssemblyError(f"unsupported model: {model_tag!r}")
    return MODELS[model_tag](grid, damping)


def graph_inner(system: DiscreteSystem, f, g) -> complex:
    """Graph inner product <f, g> + <Af, Ag>, via the gram matrix G."""
    fv = as_state(f, system.n)
    gv = as_state(g, system.n)
    return complex(np.conj(gv) @ (system.g_gram @ fv))


def graph_norm(system: DiscreteSystem, f) -> float:
    fv = as_state(f, system.n)
    val = np.real(np.conj(fv) @ (system.g_gram @ fv))
    return float(np.sqrt(max(val, 0.0)))
