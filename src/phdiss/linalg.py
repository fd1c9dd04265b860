"""Square roots in a weighted inner product, and the sine transform.

A matrix M that is self-adjoint for the inner product induced by a
positive-definite gram matrix G satisfies (G M)^H = G M. Factoring
G = L L^H turns M into the ordinary Hermitian matrix L^{-1} (G M) L^{-H}
in orthonormal coordinates. Spectral calculus runs there: a standard
eigh is backward stable in the scale of M itself, so nothing inherits
the (often enormous) condition number of G. The alternative route via
the generalized eigenproblem loses the exact algebraic identities that
the dissipation module relies on.

A square root is kept in those coordinates only, as its Hermitian core
s_hat = psd_sqrt(L^{-1} (G M) L^{-H}); no root is mapped back to the
original coordinates. gram_sqrt_factors takes a dense G (the graph gram,
which its caller forms for this one call and keeps only as the factor L).
Every step up to the eigenvectors runs in the buffers of its two arguments,
which it overwrites: the Hermitian part of G M is taken in place by blocks
of rows; scipy.linalg's LAPACK factors G and solves with L in place, each
n x n array handed over F-ordered (a real Hermitian x as x^T, a view); the
half-solve is conjugate-transposed in place by blocks for the second solve;
and eigh leaves its vectors in the core's buffer. Handed G M and G as
temporaries, a real M root so holds 4 n x n float64 arrays at its peak: L
and the core with syevd's workspace of 2 n^2 floats, then L, the vectors,
their scaled copy and the root (tracemalloc, which sees the workspace:
scipy allocates it as a numpy array). The Q root
(systems.DiscreteSystem.q_sqrt_hat), one banded solve in place and one
eigh, holds 3. No step calls numpy's own LAPACK.

sine_transform is the orthonormal DST-I, the eigenbasis of the Dirichlet
second difference: heat steps in that basis (semigroup.sine_basis).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .grids import block_rows


class NotSelfAdjointError(ValueError):
    """G M is not Hermitian within tolerance."""


class NotPSDError(ValueError):
    """An eigenvalue is negative beyond the clamping tolerance."""


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """x <- (x + x^H) / 2 in place, by blocks of grids.block_rows rows; returns x.
    Each block is the sum for its rows out from the diagonal, mirrored below it, so
    no n x n temporary is formed, and every entry has the bits of the out-of-place
    0.5 * (x + x^H) (but for the sign of a zero imaginary part)."""
    size = block_rows(len(x), x.itemsize)
    for i in range(0, x.shape[0], size):
        rows = slice(i, i + size)
        block = x[rows, i:] + x[i:, rows].conj().T
        block *= 0.5
        x[i:, rows] = block.conj().T
        x[rows, i:] = block
    return x


def _conj_transpose(x: np.ndarray) -> np.ndarray:
    # x <- x^H in place, by blocks of rows, keeping x's memory order
    size = block_rows(len(x), x.itemsize)
    for i in range(0, x.shape[0], size):
        rows = slice(i, i + size)
        block = x[rows, i:].copy()
        x[rows, i:] = x[i:, rows].conj().T
        x[i:, rows] = block.conj().T
    return x


def _fortran(x: np.ndarray) -> np.ndarray:
    # the Hermitian x as LAPACK overwrites it, F-ordered: x itself, or x^H = x, a view if real
    return x if x.flags.f_contiguous else x.conj().T


def _check_hermitian(product: np.ndarray) -> np.ndarray:
    scale = max(float(np.linalg.norm(product, "fro")), 1e-300)
    size = block_rows(len(product), product.itemsize)
    skew = float(np.sqrt(sum(
        np.linalg.norm(product[i:i + size] - product[:, i:i + size].conj().T) ** 2
        for i in range(0, product.shape[0], size))))
    if skew > 1e-8 * scale:
        raise NotSelfAdjointError(
            "matrix is not self-adjoint in the given inner product "
            f"(relative asymmetry {skew / scale:.3e})"
        )
    return hermitian_part(product)


def psd_sqrt(hat: np.ndarray) -> np.ndarray:
    """Principal square root of the Hermitian positive semidefinite hat.

    Eigenvalues in [-tol, 0) are clamped to zero, below -tol raises
    NotPSDError, where tol = 1e-10 * max(largest magnitude, 1). hat may be
    overwritten: scipy's eigh (syevd, the driver numpy calls) leaves the
    eigenvectors in it when it is real or F-ordered.
    """
    eigvals, vecs = sla.eigh(_fortran(hat), driver="evd", overwrite_a=True)
    tol = 1e-10 * max(float(np.max(np.abs(eigvals), initial=0.0)), 1.0)
    lo = float(np.min(eigvals, initial=0.0))
    if lo < -tol:
        raise NotPSDError(
            f"matrix is not positive semidefinite: eigenvalue {lo:.6e} "
            f"below -{tol:.1e}"
        )
    return (vecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ vecs.conj().T


def gram_sqrt_factors(product: np.ndarray, gram: np.ndarray):
    """Square-root factors of the G-self-adjoint M with product = G M.

    Returns (l, s_hat) where gram = l l^H and s_hat = psd_sqrt of the
    congruence l^{-1} product l^{-H}, so ||M^{1/2} x||_G = ||s_hat l^H x||
    and M^{1/2} x = l^{-H} s_hat l^H x. Raises NotSelfAdjointError if
    product is not Hermitian to a relative asymmetry of 1e-8; gram must be
    Hermitian to the last bit, as graph_gram forms it. Both arguments may be
    overwritten (a float product is), and each is dropped at its last read,
    which frees it when the caller passed it as a temporary: from CPython
    3.11 on, a Python callee holds the only reference to one (on 3.10 the
    caller's stack keeps it to the return). l comes back C-ordered, as
    numpy's Cholesky gave it, so every product with it keeps its BLAS path.
    """
    product = _check_hermitian(np.asarray(product, dtype=np.result_type(product, float)))
    l = sla.cholesky(_fortran(gram), lower=True, overwrite_a=True)
    del gram
    half = sla.solve_triangular(l, _fortran(product), lower=True, overwrite_b=True)
    del product
    hat = sla.solve_triangular(l, _conj_transpose(half), lower=True, overwrite_b=True)
    del half  # hat = L^{-1} product L^{-H}, whose Hermitian part has the bits of hat^H's
    root = psd_sqrt(hermitian_part(hat))
    return np.ascontiguousarray(l), root  # copied once the eigh's buffers are freed


def sine_transform(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I along the last axis of the vector or row stack x,
    of length N: (S x)_j = sqrt(2 / (N + 1)) sum_k x_k sin(pi j k / (N + 1)),
    j, k = 1..N.

    S is real, symmetric and orthogonal, so it is its own inverse. It is
    read off numpy.fft.rfft of the odd extension (0, x, 0, -reversed x),
    whose transform is -2i times the unscaled sine sums; a complex x is
    transformed in its real and imaginary parts. The result goes to out,
    which may be x itself. All rows go through one rfft call, so its work
    arrays grow with the rows: run_blocks maps a block of at most
    grids.BLOCK_BYTES of states at a time, whose work arrays fit a 2 MiB
    L2, and an audit maps x0, B and x(T).
    """
    x = np.asarray(x)
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(x, float))
    if np.iscomplexobj(x):
        sine_transform(x.real, out.real)
        sine_transform(x.imag, out.imag)
        return out
    rows, dest = np.atleast_2d(x), np.atleast_2d(out)
    n = rows.shape[1]
    odd = np.zeros((rows.shape[0], 2 * n + 2))
    odd[:, 1:n + 1] = rows
    np.negative(rows[:, ::-1], out=odd[:, n + 2:])
    dest[...] = np.fft.rfft(odd)[:, 1:n + 1].imag
    dest *= -np.sqrt(0.5 / (n + 1))
    return out
