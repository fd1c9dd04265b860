import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from phdiss import assemble_model, make_uniform_grid
from phdiss.grids import norm_sq
from phdiss.linalg import (NotPSDError, NotSelfAdjointError, gram_sqrt_factors,
                           psd_sqrt, sine_transform)
from phdiss.systems import graph_gram

from conftest import apply_m_sqrt, custom_complex_system


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
    s = psd_sqrt(m.copy())  # psd_sqrt overwrites its argument
    np.testing.assert_allclose(s @ s, m, atol=1e-10 * max(1.0, np.linalg.norm(m)))
    np.testing.assert_allclose(s, s.T, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_psd_sqrt_gram_roundtrip_and_self_adjointness(seed, n):
    # the root L^{-H} s_hat L^H that the factors stand for, formed here only
    rng = np.random.default_rng(seed)
    w = _random_weights(rng, n)
    f = _random_spd(rng, n, shift=0.0)
    m = f / w[:, None]  # W-self-adjoint PSD by construction
    l, s_hat = gram_sqrt_factors(f, np.diag(w))
    s = sla.solve_triangular(l.conj().T, s_hat @ l.conj().T, lower=False)
    scale = max(1.0, np.linalg.norm(m))
    np.testing.assert_allclose(s @ s, m, atol=1e-8 * scale)
    gs = w[:, None] * s
    np.testing.assert_allclose(gs, gs.conj().T, atol=1e-8 * np.linalg.norm(gs))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_weighted_routes_match_dense_gram(seed, n):
    # for a diagonal gram, the sqrt(w) scaling agrees with the Cholesky
    # route on the dense diag(w)
    rng = np.random.default_rng(seed)
    w = _random_weights(rng, n)
    f = _random_spd(rng, n)  # eigenvalues >= 1e-3 keep the root well conditioned
    m = f / w[:, None]
    scale = max(1.0, np.linalg.norm(m))
    s = np.sqrt(w)
    _, s_hat = gram_sqrt_factors(f.copy(), np.diag(w))  # it overwrites both arguments
    np.testing.assert_allclose(psd_sqrt(f / np.outer(s, s)), s_hat, atol=1e-10 * scale)
    # and the eigenvalues of M are those of the scaled congruence
    lam = np.linalg.eigvalsh(f / np.outer(s, s))
    np.testing.assert_allclose(lam, sla.eigh(f, np.diag(w), eigvals_only=True),
                               atol=1e-10 * scale)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_clamps_roundoff_negatives():
    s = psd_sqrt(np.diag([1.0, -1e-14]))
    np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-12)


def test_not_self_adjoint_rejected():
    w = np.ones(3)
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NotSelfAdjointError):
        gram_sqrt_factors(skew, np.diag(w))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
def test_sine_transform_is_the_orthonormal_dst1(seed, n, complex_values):
    # against the dense sine matrix, which is symmetric and its own inverse
    j = np.arange(1, n + 1)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, n))
    if complex_values:
        x = x + 1j * rng.standard_normal((3, n))
    np.testing.assert_allclose(sine_transform(x), x @ s, atol=1e-13)
    np.testing.assert_allclose(sine_transform(sine_transform(x)), x, atol=1e-13)
    np.testing.assert_allclose(s @ s, np.eye(n), atol=1e-13)


def _m_eigenvalues(sys):
    # the eigenvalues of M are those of its core squared
    return np.linalg.eigvalsh(sys.m_sqrt_hat @ sys.m_sqrt_hat)


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_m_sqrt_roundtrip_in_gram_norm(model, systems101):
    # ||S S - M|| in the gram-weighted operator norm must stay below 1e-10;
    # in L-orthonormal coordinates that is ||s_hat^2 - L^{-1} F L^{-H}||_2.
    # The heat gram matrix has condition number ~1e9, which is the point
    sys = systems101[model]
    l = sys.g_chol
    np.testing.assert_allclose(l @ l.conj().T, graph_gram(sys.a_matrix, sys.weights),
                               rtol=1e-12, atol=1e-12)
    half = sla.solve_triangular(l, sys.f_matrix, lower=True)
    congruence = sla.solve_triangular(l, half.conj().T, lower=True).conj().T
    d = sys.m_sqrt_hat @ sys.m_sqrt_hat - congruence
    assert np.linalg.norm(d, 2) <= 1e-10


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_m_sqrt_gram_self_adjoint_psd(model, systems101):
    # G M^{1/2} is Hermitian iff its core is
    s_hat = systems101[model].m_sqrt_hat
    assert np.linalg.norm(s_hat - s_hat.conj().T, 2) <= 1e-10 * np.linalg.norm(s_hat, 2)
    assert _m_eigenvalues(systems101[model]).min() >= -1e-12


def test_heat_m_eigenvalues_bounded_half():
    # the rate operator is bounded by 1/2 on the graph space
    lam = _m_eigenvalues(assemble_model("heat", make_uniform_grid(201)))
    assert lam.max() <= 0.5 + 1e-6
    assert lam.min() >= -1e-12


# Differential tests of the cores against dense oracles built from the
# generalized eigenproblem: a small grid, the named models and a complex
# non-normal custom generator.
ORACLE_SYSTEMS = {
    **{m: (lambda m=m: assemble_model(m, make_uniform_grid(41)))
       for m in ("transport", "heat", "skew_damped")},
    "custom": lambda: custom_complex_system(41, seed=9),
}


def _dense_root(product, gram):
    # the root V Lambda^{1/2} V^H gram of gram^{-1} product, V gram-orthonormal
    lam, v = sla.eigh(product, gram)
    return (v * np.sqrt(np.clip(lam, 0.0, None))) @ (v.conj().T @ gram)


def _oracle_states(sys, seed=3, count=4):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((count, sys.n))
    if np.iscomplexobj(sys.a_matrix):
        xs = xs + 1j * rng.standard_normal((count, sys.n))
    return [*xs, np.sin(np.pi * sys.grid.nodes)]


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_m_core_matches_dense_oracle(name):
    sys = ORACLE_SYSTEMS[name]()
    gram = graph_gram(sys.a_matrix, sys.weights)
    graph_sq = lambda v: np.real(np.conj(v) @ (gram @ v))
    root = _dense_root(sys.f_matrix, gram)
    # errors relative to ||x||_G >= sqrt(2) ||M^{1/2} x||_G (the sine state
    # has zero rate on transport). Transport's M has rank
    # 2: the roots of its zero eigenvalues are sqrt(round-off) in both
    # routes, so its vectors agree to about 2e-7, while ||M^{1/2} x||_G^2
    # still agrees to round-off
    vec_tol = 1e-6 if name == "transport" else 1e-10
    for x in _oracle_states(sys):
        ref = root @ x
        got = apply_m_sqrt(sys, x)
        assert graph_sq(got - ref) <= vec_tol**2 * graph_sq(x)
        z = sys.m_sqrt_hat @ (sys.g_chol.conj().T @ x)
        assert abs(np.vdot(z, z).real - graph_sq(ref)) <= 1e-10 * graph_sq(x)


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_q_core_matches_dense_oracle(name):
    sys = ORACLE_SYSTEMS[name]()
    w = sys.weights
    res = np.linalg.inv(sys.a_matrix - np.eye(sys.n))
    q = -0.5 * (res + (res.conj().T * w) / w[:, None])  # adjoint taken in W
    root = _dense_root(w[:, None] * q, np.diag(w))
    for y in _oracle_states(sys):
        ref = root @ y
        z = sys.q_sqrt_hat @ (np.sqrt(w) * y)
        assert norm_sq(w, z / np.sqrt(w) - ref) <= 1e-20 * norm_sq(w, ref)
        assert np.vdot(z, z).real == pytest.approx(norm_sq(w, ref), rel=1e-10)
