"""Uniform grids on [0, 1] and the trapezoid-weighted L2 structure.

A state is a 1-D array of nodal samples. Everything downstream measures
length with the weighted inner product ``<f, g> = sum_i w_i f_i conj(g_i)``
where ``w`` are composite-trapezoid weights (h/2 at the endpoints, h
inside). The weights double as the diagonal gram matrix W used by the
operator modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Raised for unusable grid parameters or states."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform closed grid on [0, 1].

    Attributes
    ----------
    n : int
        Number of nodes, at least 3.
    h : float
        Node spacing, 1 / (n - 1).
    nodes : np.ndarray
        The nodes 0, h, 2h, ..., 1.
    weights : np.ndarray
        Trapezoid quadrature weights, shape (n,).
    """

    n: int
    h: float
    nodes: np.ndarray
    weights: np.ndarray


def make_uniform_grid(n: int) -> Grid:
    """Build the uniform n-node grid on [0, 1] with trapezoid weights."""
    if not isinstance(n, (int, np.integer)):
        raise GridError(f"grid size must be an integer, got {n!r}")
    if n < 3:
        raise GridError(f"need at least 3 nodes, got {n}")
    h = 1.0 / (n - 1)
    nodes = np.linspace(0.0, 1.0, n)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0
    return Grid(n=int(n), h=h, nodes=nodes, weights=weights)


def as_state(x, n: int) -> np.ndarray:
    """The state x as an array of n finite samples.

    Every public routine that takes a state passes it through here once.
    Raises GridError for a wrong shape or length and for NaN or inf entries.
    """
    vals = np.asarray(x)
    if vals.ndim != 1:
        raise GridError(f"expected a vector of samples, got shape {vals.shape}")
    if vals.shape[0] != n:
        raise GridError(f"expected {n} samples, got {vals.shape[0]}")
    if not np.isfinite(vals).all():
        raise GridError("state has non-finite entries (NaN or inf)")
    return vals


def norm_sq(weights: np.ndarray, x: np.ndarray):
    """Squared weighted norm ||x||^2 = Re(x^H W x), W = diag(weights), of
    one state, or of every row of a stack of states."""
    return np.einsum("...i,i,...i->...", np.conj(x), weights, x).real
