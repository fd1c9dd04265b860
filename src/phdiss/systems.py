"""Discrete dissipative generators on the unit interval.

Each model produces a DiscreteSystem, the one object per generator: the
generator A, the input map B and the dissipation form matrix F = -Herm(W A),
where W is the trapezoid gram matrix, kept as the grid's weight vector.
A and F are stored as their periodic bands, each out to its own half-bandwidth:
three rows of n for a named model's A and heat's F, one for a diagonal F.
Dense A and F are built only past grids.check_operator_size: the M root and the gate of
an F wider than MAX_BAND form theirs and drop them, the dense propagator reads a_matrix;
LAPACK gets the bands with a periodic band folded into an ordinary one (_lapack_band),
the probe's shifted A once per system. A DiscreteSystem checks itself when built, F's
dissipativity included; only an assembler names it, else it is "custom" and takes the
"expm" step route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .grids import Grid, as_state, check_finite, check_operator_size, norm_sq
from .linalg import BLOCK, gram_sqrt_factors, hermitian_part, psd_sqrt


# The damping of skew_damped, whose rate is DAMPING * ||x||^2. Another
# damping d is assemble_custom(grid, A - (d - DAMPING) * I) on its A.
DAMPING = 0.3

# The widest band, a side, the gate hands to eigvals_banded once a periodic band is
# folded (_lapack_band); a wider F takes the dense eigvalsh, n^3 work against n u^2.
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
    a_bands : np.ndarray
        Generator A as its periodic bands, shape (2 kd + 1, n), 2 kd <= n:
        a_bands[k + kd, i] = A[i, (i + k) mod n], entries of two bands adding up.
    b_matrix : np.ndarray
        Input map, shape (n, m). m may be 0 for autonomous runs.
    model_tag : str
        Read-only: "custom", or the MODELS key its assembler sets; model is its row.
    f_bands : np.ndarray
        The bands of F = -Herm(W A) out to its own half-bandwidth, PSD: the rate is x^H F x.
        The constructor forms them, raising AssemblyError for bad bands or B or
        a non-dissipative F, and keeps integer and boolean A and B as float.

    a_matrix and f_matrix, A and F as dense arrays, and the two dissipation
    roots, each as its Hermitian core in orthonormal coordinates, are built
    on first read and kept; no run task reads them, and the M root forms its dense A
    and F apart from the two caches, freed once read. For M = G^{-1} F, with
    G = L L^H the graph gram, g_chol is L and m_sqrt_hat = (L^{-1} F L^{-H})^{1/2}:
    ||M^{1/2} x||_G = ||m_sqrt_hat L^H x|| and M^{1/2} x = L^{-H} m_sqrt_hat L^H x.
    For the bounded probe Q, q_sqrt_hat = (W^{1/2} Q W^{-1/2})^{1/2}, one eigh after
    the solve that q_check takes per block of draws, with W^{1/2} A W^{-1/2} - I folded
    once (_probe_band): ||Q^{1/2} y||_W = ||q_sqrt_hat sqrt(w) y||.
    """

    grid: Grid
    a_bands: np.ndarray
    b_matrix: np.ndarray
    _tag: str = field(default="custom", init=False)
    f_bands: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n, a, b = self.grid.n, self.a_bands, self.b_matrix
        if a.ndim != 2 or a.shape[0] % 2 == 0 or a.shape[0] > n + 1 or a.shape[1] != n:
            raise AssemblyError(f"generator bands have shape {a.shape}, grid has {n} nodes")
        check_finite(a, "generator", AssemblyError)
        if b.ndim != 2 or b.shape[0] != n:
            raise AssemblyError(f"input map has shape {b.shape}, grid has {n} nodes")
        check_finite(b, "input map", AssemblyError)
        self.a_bands = a.astype(np.result_type(a, float), copy=False)
        self.b_matrix = b.astype(np.result_type(b, float), copy=False)
        self.f_bands = form_bands(self.a_bands, self.grid.weights)
        gap, f_norm = dissipativity_gap(self.f_bands)
        tol = 1e-8 * max(1.0, f_norm)
        if gap > tol:
            raise AssemblyError(
                "the generator is not dissipative: smallest eigenvalue of "
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

    model_tag = property(lambda self: self._tag)  # read-only: only _named writes _tag
    @property
    def model(self) -> Model:
        """The registry row of model_tag; CUSTOM for a custom system."""
        return MODELS.get(self.model_tag, CUSTOM)

    a_matrix = cached_property(lambda self: _dense(self.a_bands))
    f_matrix = cached_property(lambda self: _dense(self.f_bands))

    @cached_property
    def _m_factors(self):
        # G M = F exactly, so the factors come straight from F; M is never formed. Dense F
        # and A are temporaries, not the a_matrix and f_matrix caches, so each callee frees
        # its argument after the last read; G is formed first, before F exists
        return gram_sqrt_factors(gram=graph_gram(_dense(self.a_bands), self.weights),
                                 product=_dense(self.f_bands))

    g_chol = property(lambda self: self._m_factors[0])
    m_sqrt_hat = property(lambda self: self._m_factors[1])

    @cached_property
    def _probe_band(self):  # _lapack_band of W^{1/2} A W^{-1/2} - I, for every probe solve
        kd, sw = self.a_bands.shape[0] // 2, np.sqrt(self.weights)
        shifted = sw * self.a_bands / sw[_columns(self.n, kd)]
        shifted[kd] -= 1.0
        return _lapack_band(shifted)

    @cached_property
    def q_sqrt_hat(self) -> np.ndarray:
        # W^{1/2} Q W^{-1/2} = -Herm((W^{1/2} A W^{-1/2} - I)^{-1}), Hermitian by construction:
        # _probe_solve of the identity in one F-ordered array, the permuted identity solved in
        # place and its rows put back by blocks of columns
        n = self.n
        check_operator_size(n)
        ab, pos, u = self._probe_band
        res = np.zeros((n, n), dtype=np.result_type(ab, float), order="F")
        res[pos, np.arange(n)] = 1.0
        res = sla.solve_banded((u, u), ab, res, overwrite_b=True)
        for j in range(0, n, BLOCK):
            res[:, j:j + BLOCK] = res[pos, j:j + BLOCK]
        return psd_sqrt(hermitian_part(res, -0.5))


def _columns(n: int, kd: int) -> np.ndarray:
    # cols[k + kd, i] = (i + k) mod n, the column of the band entry bands[k + kd, i]
    return (np.arange(n) + np.arange(-kd, kd + 1)[:, None]) % n


def _dense(bands: np.ndarray) -> np.ndarray:
    n = bands.shape[1]
    check_operator_size(n)
    a = np.zeros((n, n), dtype=bands.dtype)
    np.add.at(a, (np.arange(n), _columns(n, bands.shape[0] // 2)), bands)
    return a


def _lapack_band(bands: np.ndarray):
    # (ab, pos, u): LAPACK's (u, u) band storage ab[u + p - q, q] = B[p, q] of B = P A P^T,
    # where P moves node i to position pos[i]. The order is the natural one when no band
    # entry wraps from one end to the other, else 0, n - 1, 1, n - 2, ..., which folds a
    # periodic band of half-width kd into an ordinary one of half-width u <= 2 kd. Band k's
    # entries go from rows pos to columns pos[(i + k) mod n], a slice of pos repeated, so
    # placing a band takes O(n) indices and ab is the one array of the bands' size
    n, kd = bands.shape[1], bands.shape[0] // 2
    rows = [(k, bands[k + kd]) for k in range(-kd, kd + 1)]
    if 2 * kd == n:  # bands -kd and kd share their entries: they are placed as their sums
        shared, rows = bands[0] + bands[-1], rows[1:-1]
    pos = np.arange(n)
    if any((row[n - k:] if k > 0 else row[:-k]).any() for k, row in rows):
        pos = np.minimum(2 * pos, 2 * (n - 1 - pos) + 1)
    if 2 * kd == n:  # no sum wraps: each lies within n / 2 of its row, one way or the other
        rows.append((kd, shared))
    wrapped = np.concatenate((pos, pos))
    cols = [(wrapped[k % n:k % n + n], row) for k, row in rows]
    u = max(int(np.abs(pos - q).max(where=row != 0, initial=0)) for q, row in cols)
    ab = np.zeros((2 * u + 1, n), dtype=bands.dtype)
    for q, row in cols:
        nz = row != 0
        ab[u + pos[nz] - q[nz], q[nz]] = row[nz]
    return ab, pos, u


def band_product(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x along the last axis of x, a state or a stack of rows, A given by its bands: band k
    times np.roll(x, -k), x read around the wrap, and band 0 times x itself, uncopied."""
    kd = bands.shape[0] // 2
    return sum(bands[k + kd] * (np.roll(x, -k, axis=-1) if k else x) for k in range(-kd, kd + 1))


def _probe_solve(system: DiscreteSystem, rhs: np.ndarray) -> np.ndarray:
    # (W^{1/2} A W^{-1/2} - I)^{-1} rhs for a 2-D rhs, by one banded LU of the system's folded band
    ab, pos, u = system._probe_band
    return sla.solve_banded((u, u), ab, rhs[np.argsort(pos)])[pos]


def periodic_bandwidth(a: np.ndarray) -> int:
    """The largest min(|i - j|, n - |i - j|) over the nonzeros a[i, j] of the
    n x n matrix a: its half-bandwidth when the rows wrap around."""
    rows, cols = np.nonzero(a)
    dist = np.abs(rows - cols)
    return int(np.minimum(dist, a.shape[0] - dist).max(initial=0))


def form_bands(a_bands: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The periodic bands of F = -Herm(W A) from those of A, out to F's own half-bandwidth:
    F[i, i + k] = -(w_i A[i, i + k] + conj(w_{i+k} A[i + k, i])) / 2, A[i + k, i] in band -k;
    where 2 kd = n, band kd alone keeps the entries at distance n / 2, as in A's bands."""
    n, kd = a_bands.shape[1], a_bands.shape[0] // 2
    wa = weights * a_bands
    if 2 * kd == n:  # bands -kd and kd alias: each reads the two halves added up
        wa[0] = wa[-1] = wa[0] + wa[-1]
    partner = np.take_along_axis(wa[::-1], _columns(n, kd), axis=1)
    f = -(0.5 * (wa + partner.conj()))  # negated last: -0.5 * z makes a 0j part +0.0, not -0.0
    if 2 * kd == n:
        f[0] = 0
    kf = int(np.abs(np.flatnonzero(f.any(axis=1)) - kd).max(initial=0))
    return f[kd - kf:kd + kf + 1].copy()  # a copy, so the trimmed rows are freed


def dissipativity_gap(f_bands: np.ndarray) -> tuple[float, float]:
    """(-lambda_min(F), ||F||_2) of the Hermitian F given by its periodic bands;
    the gap is <= 0 (up to roundoff) iff the system is dissipative. A diagonal F
    gives its entries; any other band, folded if it wraps (_lapack_band), gives
    its two ends to eigvals_banded (LAPACK's eigenvalues, not a bound) when at
    most MAX_BAND wide, else to eigvalsh."""
    n = f_bands.shape[1]
    ab, _, u = _lapack_band(f_bands)
    if u == 0:
        lo, hi = float(ab[0].real.min()), float(ab[0].real.max())
    elif u <= MAX_BAND:
        lo, hi = (float(sla.eigvals_banded(ab[u:], lower=True, select="i",
                                           select_range=(j, j))[0]) for j in (0, n - 1))
    else:
        lo, hi = (float(e) for e in sla.eigvalsh(_dense(f_bands))[[0, -1]])
    return -lo, max(-lo, hi)


def graph_gram(a_matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """G = W + A^H W A, symmetrized so that it is Hermitian to the last bit."""
    g = (a_matrix.conj().T * weights) @ a_matrix
    del a_matrix  # freed here when the caller passed a temporary
    g.flat[::g.shape[0] + 1] += weights
    return hermitian_part(g)


def _input_matrix(grid: Grid, input_profile) -> np.ndarray:
    # default input profile: the constant-one window over the whole interval;
    # a profile of one value per node is one input column
    if input_profile is None:
        return np.ones((grid.n, 1))
    b = np.asarray(input_profile(grid.nodes) if callable(input_profile) else input_profile)
    return b.reshape(-1, 1) if b.ndim == 1 else b


def _named(model_tag: str, system: DiscreteSystem) -> DiscreteSystem:
    system._tag = model_tag  # the one place a tag, and so its step route, is set
    return system


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
    a = np.zeros((3, n))  # the sub-, main and super-diagonal
    a[0, 1:], a[2, :-1] = -1.0 / (2.0 * h), 1.0 / (2.0 * h)
    a[1, 0], a[2, 0] = -1.0 / h, 1.0 / h
    a[0, -1], a[1, -1] = -1.0 / h, 1.0 / h - 2.0 / h  # penalty enforcing x(1) = 0
    return _named("transport", DiscreteSystem(grid, a, _input_matrix(grid, input_profile)))


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
    a = np.zeros((3, n))
    a[0, 2:-1], a[1], a[2, 1:-2] = 1.0 / h**2, -2.0 / h**2, 1.0 / h**2
    return _named("heat", DiscreteSystem(grid, a, _input_matrix(grid, input_profile)))


def assemble_skew_damped(grid: Grid, input_profile=None) -> DiscreteSystem:
    """Periodic central derivative, skew-symmetrized in W, minus DAMPING*I.

    The generator is J - DAMPING*I where J is exactly W-skew-adjoint, so the
    dissipation form is DAMPING * ||x||^2 to machine precision.
    """
    n, s, w = grid.n, 1.0 / (2.0 * grid.h), grid.weights
    # J = (C - W^{-1} C^T W) / 2 entrywise, J_ij = (C_ij - (1/w_i)(C_ji w_j)) / 2,
    # from the periodic central difference C_{i,i+1} = s, C_{i+1,i} = -s
    a = np.empty((3, n))  # a[0, 0] and a[2, -1] wrap: the corners J[0, n-1], J[n-1, 0]
    a[0], a[1] = 0.5 * (-s - (1.0 / w) * (s * np.roll(w, 1))), -DAMPING
    a[2] = 0.5 * (s - (1.0 / w) * (-s * np.roll(w, -1)))
    return _named("skew_damped", DiscreteSystem(grid, a, _input_matrix(grid, input_profile)))


def assemble_custom(grid: Grid, a_matrix: np.ndarray, b_matrix=None) -> DiscreteSystem:
    """Wrap a user matrix as its periodic bands out to its periodic_bandwidth,
    which the system checks; a custom system takes the "expm" step route."""
    a, n = np.asarray(a_matrix), grid.n
    check_operator_size(n)
    if a.shape != (n, n):
        raise AssemblyError(f"generator shape {a.shape} does not match grid size {n}")
    kd = periodic_bandwidth(a)
    bands = a[np.arange(n), _columns(n, kd)]
    if 2 * kd == n:
        bands[0] = 0  # band -n/2 is band n/2, kept once
    return DiscreteSystem(grid, bands, _input_matrix(grid, b_matrix))


@dataclass(frozen=True)
class Model:
    """One row of the model registry: its assembler and its step route.

    assemble(grid) builds the system. step, read by the step route only, is
    how e^{dt A} is applied: "shift" (the exact nodal shift, transport only),
    "sine" (the diagonal semigroup.sine_spectrum in semigroup.sine_basis,
    heat only) or "expm" (skew_damped and custom systems; see semigroup).
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
    return float(np.sqrt(norm_sq(w, fv) + norm_sq(w, band_product(system.a_bands, fv))))
