import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from phdiss import assemble_model, make_uniform_grid
from phdiss.linalg import (NotPSDError, NotSelfAdjointError,
                           assemble_from_factors, gram_eigh, gram_sqrt_factors,
                           psd_sqrt)


def _random_spd(rng, n, shift=1e-3):
    r = rng.standard_normal((n, n))
    return r @ r.T + shift * np.eye(n)


def _random_weights(rng, n):
    # positive diagonal of a gram matrix W, spread like trapezoid weights
    return rng.uniform(0.05, 1.0, n)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_psd_sqrt_euclidean_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    m = _random_spd(rng, n, shift=0.0)
    s = psd_sqrt(m, np.ones(n))
    np.testing.assert_allclose(s @ s, m, atol=1e-10 * max(1.0, np.linalg.norm(m)))
    np.testing.assert_allclose(s, s.T, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_psd_sqrt_gram_roundtrip_and_self_adjointness(seed, n):
    rng = np.random.default_rng(seed)
    w = _random_weights(rng, n)
    f = _random_spd(rng, n, shift=0.0)
    m = f / w[:, None]  # W-self-adjoint PSD by construction
    s = psd_sqrt(m, w)
    scale = max(1.0, np.linalg.norm(m))
    np.testing.assert_allclose(s @ s, m, atol=1e-8 * scale)
    gs = w[:, None] * s
    np.testing.assert_allclose(gs, gs.conj().T, atol=1e-8 * np.linalg.norm(gs))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_weighted_routes_match_dense_gram(seed, n):
    # the sqrt(w) scaling agrees with the Cholesky route on the dense diag(w)
    rng = np.random.default_rng(seed)
    w = _random_weights(rng, n)
    f = _random_spd(rng, n)  # eigenvalues >= 1e-3 keep the root well conditioned
    m = f / w[:, None]
    scale = max(1.0, np.linalg.norm(m))
    l, _, s_hat = gram_sqrt_factors(f, np.diag(w))
    np.testing.assert_allclose(psd_sqrt(m, w), assemble_from_factors(l, s_hat),
                               atol=1e-10 * scale)
    lam, _ = gram_eigh(m, w)
    np.testing.assert_allclose(lam, sla.eigh(f, np.diag(w), eigvals_only=True),
                               atol=1e-10 * scale)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -0.5]), np.ones(2))


def test_psd_sqrt_clamps_roundoff_negatives():
    s = psd_sqrt(np.diag([1.0, -1e-14]), np.ones(2))
    np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-7)


def test_not_self_adjoint_rejected():
    w = np.ones(3)
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NotSelfAdjointError):
        psd_sqrt(skew, w)
    with pytest.raises(NotSelfAdjointError):
        gram_eigh(skew, w)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gram_eigh_orthonormal_and_reconstructs(seed):
    rng = np.random.default_rng(seed)
    n = 6
    w = _random_weights(rng, n)
    f = _random_spd(rng, n, shift=0.0)
    m = f / w[:, None]
    lam, vecs = gram_eigh(m, w)
    np.testing.assert_allclose(vecs.conj().T @ (w[:, None] * vecs), np.eye(n), atol=1e-8)
    np.testing.assert_allclose(m @ vecs, vecs * lam, atol=1e-8 * max(1.0, lam.max()))


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_m_sqrt_roundtrip_in_gram_norm(model, systems101):
    # ||S S - M|| in the gram-weighted operator norm must stay below 1e-10;
    # the heat gram matrix has condition number ~1e9, which is the point
    sys = systems101[model]
    d = sys.m_sqrt @ sys.m_sqrt - sla.solve(sys.g_gram, sys.f_matrix, assume_a="pos")
    l = sys.g_chol
    # operator norm in the G inner product: ||L^H D L^{-H}||_2
    y = sla.solve_triangular(l, d.conj().T, lower=True).conj().T
    dhat = l.conj().T @ y
    assert np.linalg.norm(dhat, 2) <= 1e-10


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_m_sqrt_gram_self_adjoint_psd(model, systems101):
    sys = systems101[model]
    gs = sys.g_gram @ sys.m_sqrt
    assert np.linalg.norm(gs - gs.conj().T, 2) <= 1e-10 * np.linalg.norm(gs, 2)
    assert sys.m_eigenvalues.min() >= -1e-12


def test_heat_m_eigenvalues_bounded_half():
    # the rate operator is bounded by 1/2 on the graph space
    sys = assemble_model("heat", make_uniform_grid(201))
    assert sys.m_eigenvalues.max() <= 0.5 + 1e-6
    assert sys.m_eigenvalues.min() >= -1e-12
