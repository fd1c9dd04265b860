"""Square roots and eigen-decompositions in a weighted inner product.

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
gram_eigh takes the diagonal gram W as its weight vector, so L = W^{1/2}
and the change of coordinates is a row and column scaling.
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


def gram_eigh(matrix: np.ndarray, weights: np.ndarray):
    """Eigenpairs of a matrix self-adjoint in the inner product of W = diag(weights).

    Returns (eigvals, vecs) with vecs W-orthonormal (vecs^H W vecs = I).
    Raises NotSelfAdjointError if W @ matrix is not Hermitian to a relative
    asymmetry of 1e-8.
    """
    w = np.asarray(weights, dtype=float)
    s = np.sqrt(w)
    wm = _check_hermitian(w[:, None] * np.asarray(matrix))
    eigvals, vecs = np.linalg.eigh(wm / np.outer(s, s))
    return eigvals, vecs / s[:, None]
