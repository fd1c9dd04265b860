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

sine_transform is the orthonormal DST-I, the eigenbasis of the Dirichlet
second difference: heat steps in that basis (semigroup.sine_basis).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla


class NotSelfAdjointError(ValueError):
    """G M is not Hermitian within tolerance."""


class NotPSDError(ValueError):
    """An eigenvalue is negative beyond the clamping tolerance."""


def _check_hermitian(product: np.ndarray) -> np.ndarray:
    skew = product - product.conj().T
    scale = max(float(np.linalg.norm(product, "fro")), 1e-300)
    if float(np.linalg.norm(skew, "fro")) > 1e-8 * scale:
        raise NotSelfAdjointError(
            "matrix is not self-adjoint in the given inner product "
            f"(relative asymmetry {np.linalg.norm(skew, 'fro') / scale:.3e})"
        )
    return 0.5 * (product + product.conj().T)


def psd_sqrt(hat: np.ndarray) -> np.ndarray:
    """Principal square root of the Hermitian positive semidefinite hat.

    Eigenvalues in [-tol, 0) are clamped to zero, below -tol raises
    NotPSDError, where tol = 1e-10 * max(largest magnitude, 1).
    """
    eigvals, vecs = np.linalg.eigh(hat)
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
    product is not Hermitian to a relative asymmetry of 1e-8.
    """
    product = _check_hermitian(np.asarray(product))
    l = np.linalg.cholesky(gram)
    half = sla.solve_triangular(l, product, lower=True)
    hat = sla.solve_triangular(l, half.conj().T, lower=True).conj().T
    return l, psd_sqrt(0.5 * (hat + hat.conj().T))


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
    semigroup.BLOCK_BYTES of states at a time, whose work arrays fit a 2 MiB
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
