"""Uniform grids on [0, 1] and the trapezoid-weighted L2 structure.

A state is a 1-D array of nodal samples. Everything downstream measures
length with the weighted inner product ``<f, g> = sum_i w_i f_i conj(g_i)``
where ``w`` are composite-trapezoid weights (h/2 at the endpoints, h
inside). The weights double as the diagonal gram matrix W used by the
operator modules. A Grid is fixed by its number of nodes, which it checks
once against the memory budget of a state; every operator stands on a Grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# The most memory, in MB, of one n x n float64 array, as a dense reader forms (the M and
# Q roots, a dense propagator, the eigvalsh gate); check_operator_size refuses a larger
# one (n > 2000), and Grid(n) a grid whose state alone exceeds it (n > 4,000,000). The M
# root holds at most 4 such arrays, syevd's workspace included (tracemalloc), the Q root 3:
# verify-paper peaks at 197 MB RSS at n = 2000, 150 MB at n = 1601.
# No package path holds a (K+1) x n array of states.
MAX_OPERATOR_MB = 32


class GridError(ValueError):
    """Raised for unusable grid parameters or states."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform closed grid on [0, 1]. Grid(n) refuses a non-integer n, n < 3
    and an n whose state exceeds MAX_OPERATOR_MB before any array exists.

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
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise GridError(f"grid size must be an integer, got {self.n!r}")
        n = int(self.n)
        if n < 3:
            raise GridError(f"need at least 3 nodes, got {n}")
        check_operator_size(n, n)
        h = 1.0 / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
        # frozen, so the derived fields are written past __setattr__, once
        vars(self).update(n=n, h=h, nodes=np.linspace(0.0, 1.0, n), weights=weights)


def check_operator_size(n: int, floats: int | None = None) -> None:
    """Raise GridError, naming MAX_OPERATOR_MB, where an n x n float64 array, or one of
    the given number of floats, exceeds it: each dense reader calls it before it allocates."""
    mb = 8 * (n * n if floats is None else floats) / 1e6
    if mb > MAX_OPERATOR_MB:
        raise GridError(f"a grid of {n} nodes needs {mb:.4g} MB per "
                        f"{'dense n x n operator' if floats is None else 'state'}, over the "
                        f"budget of {MAX_OPERATOR_MB} MB (grids.MAX_OPERATOR_MB)")


def make_uniform_grid(n: int) -> Grid:
    """Build the uniform n-node grid on [0, 1] with trapezoid weights."""
    return Grid(n)


def check_finite(vals: np.ndarray, what: str, error: type[ValueError]) -> None:
    """Raise error unless vals holds numbers, none of them NaN or inf."""
    if vals.dtype.kind not in "biufc":
        raise error(f"{what} must hold numbers, got dtype {vals.dtype}")
    if not np.isfinite(vals).all():
        raise error(f"{what} has non-finite entries (NaN or inf)")


def as_state(x, n: int) -> np.ndarray:
    """The state x as an array of n finite samples.

    Every public routine that takes a state passes it through here once.
    Raises GridError for a wrong shape or length, for entries that are not
    numbers and for NaN or inf entries.
    """
    vals = np.asarray(x)
    if vals.ndim != 1:
        raise GridError(f"expected a vector of samples, got shape {vals.shape}")
    if vals.shape[0] != n:
        raise GridError(f"expected {n} samples, got {vals.shape[0]}")
    check_finite(vals, "state", GridError)
    return vals


def norm_sq(weights: np.ndarray, x: np.ndarray):
    """Squared weighted norm ||x||^2 = Re(x^H W x), W = diag(weights), of
    one state, or of every row of a stack; ndarray.conj leaves a real one uncopied."""
    return np.einsum("...i,i,...i->...", x.conj(), weights, x).real
