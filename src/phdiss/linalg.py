"""Square roots and eigen-decompositions in a weighted inner product.

A matrix M that is self-adjoint for the inner product induced by a
positive-definite gram matrix G satisfies (G M)^H = G M. Factoring
G = L L^H turns M into the ordinary Hermitian matrix L^{-1} (G M) L^{-H}
in orthonormal coordinates. Spectral calculus runs there: a standard
eigh is backward stable in the scale of M itself, so nothing inherits
the (often enormous) condition number of G. The alternative route via
the generalized eigenproblem loses the exact algebraic identities that
the dissipation module relies on.

gram_sqrt_factors takes a dense G (the graph gram). psd_sqrt and gram_eigh
take the diagonal gram W as its weight vector, so L = W^{1/2} and the
change of coordinates is a row and column scaling.
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


def _clamped_sqrt(hat: np.ndarray):
    """Clamped eigenvalues and Hermitian square root of the Hermitian hat."""
    eigvals, vecs = np.linalg.eigh(hat)
    scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    tol = 1e-10 * max(scale, 1.0)
    lo = float(eigvals.min()) if eigvals.size else 0.0
    if lo < -tol:
        raise NotPSDError(
            f"matrix is not positive semidefinite: eigenvalue {lo:.6e} "
            f"below -{tol:.1e}"
        )
    clamped = np.clip(eigvals, 0.0, None)
    return clamped, (vecs * np.sqrt(clamped)) @ vecs.conj().T


def gram_sqrt_factors(product: np.ndarray, gram: np.ndarray):
    """Square-root factors of the G-self-adjoint M with product = G M.

    Returns (l, eigvals, s_hat) where gram = l l^H, eigvals are the
    (clamped) eigenvalues of M, and s_hat is the Hermitian square root of
    l^{-1} product l^{-H}; the assembled root is l^{-H} s_hat l^H. Keeping
    the factors lets callers evaluate ||M^{1/2} x||_G^2 = ||s_hat l^H x||^2
    without round-trip losses.

    Eigenvalues in [-tol, 0) are clamped to zero, below -tol raises
    NotPSDError, where tol = 1e-10 * max(largest magnitude, 1).
    """
    product = _check_hermitian(np.asarray(product))
    l = np.linalg.cholesky(gram)
    half = sla.solve_triangular(l, product, lower=True)
    hat = sla.solve_triangular(l, half.conj().T, lower=True).conj().T
    clamped, s_hat = _clamped_sqrt(0.5 * (hat + hat.conj().T))
    return l, clamped, s_hat


def assemble_from_factors(l: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    """Map the orthonormal-coordinate matrix back: l^{-H} s_hat l^H."""
    return sla.solve_triangular(l.conj().T, s_hat @ l.conj().T, lower=False)


def _weighted_hat(matrix: np.ndarray, weights: np.ndarray):
    """W^{1/2} M W^{-1/2} = W^{-1/2} (W M) W^{-1/2} for W = diag(weights),
    Hermitian when M is W-self-adjoint, and sqrt(weights)."""
    s = np.sqrt(weights)
    wm = _check_hermitian(weights[:, None] * matrix)
    return wm / np.outer(s, s), s


def gram_eigh(matrix: np.ndarray, weights: np.ndarray):
    """Eigenpairs of a matrix self-adjoint in the inner product of W = diag(weights).

    Returns (eigvals, vecs) with vecs W-orthonormal (vecs^H W vecs = I).
    Raises NotSelfAdjointError if W @ matrix is not Hermitian to a relative
    asymmetry of 1e-8.
    """
    hat, s = _weighted_hat(np.asarray(matrix), np.asarray(weights, dtype=float))
    eigvals, vecs = np.linalg.eigh(hat)
    return eigvals, vecs / s[:, None]


def psd_sqrt(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix, self-adjoint w.r.t. W = diag(weights).

    Eigenvalues in [-tol, 0) are clamped to zero, below -tol raises
    NotPSDError, where tol = 1e-10 * max(largest magnitude, 1).

    Parameters
    ----------
    matrix : np.ndarray
        Square matrix, self-adjoint and positive semidefinite in the inner
        product with gram matrix W.
    weights : np.ndarray
        Positive diagonal of W.

    Returns
    -------
    np.ndarray
        S with S @ S = matrix and S self-adjoint w.r.t. W.
    """
    hat, s = _weighted_hat(np.asarray(matrix), np.asarray(weights, dtype=float))
    _, s_hat = _clamped_sqrt(hat)
    # back from W-orthonormal coordinates: W^{-1/2} s_hat W^{1/2}
    return (s_hat / s[:, None]) * s
