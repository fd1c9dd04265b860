import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdiss import assemble_model, make_uniform_grid
from phdiss.systems import (AssemblyError, assemble_custom, assemble_heat,
                            assemble_skew_damped, assemble_transport,
                            dissipativity_gap, graph_norm, spectral_norm)

from conftest import MODELS, random_state


def test_transport_boundary_collapse():
    # W A + A^T W must collapse to the two boundary entries exactly;
    # this is what makes the dissipation form a pure trace term.
    g = make_uniform_grid(41)
    sys = assemble_transport(g)
    w = np.diag(g.weights)
    sym = w @ sys.a_matrix + sys.a_matrix.T @ w
    expected = np.zeros((41, 41))
    expected[0, 0] = -1.0
    expected[-1, -1] = -1.0
    np.testing.assert_allclose(sym, expected, atol=1e-13)


def test_transport_is_dissipative_exactly():
    g = make_uniform_grid(101)
    sys = assemble_transport(g)
    assert abs(dissipativity_gap(sys.a_matrix, g.weights)) <= 1e-12


def test_heat_matrix_symmetric_negative():
    g = make_uniform_grid(51)
    sys = assemble_heat(g)
    a, w = sys.a_matrix, np.diag(g.weights)
    wa = w @ a
    np.testing.assert_allclose(wa, wa.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(0.5 * (wa + wa.T))
    assert eigs.max() <= 1e-12


def test_heat_boundary_rows_decoupled():
    # homogeneous Dirichlet: end nodes decay on their own and the interior
    # stencil never reads them
    g = make_uniform_grid(21)
    a = assemble_heat(g).a_matrix
    h = g.h
    assert a[0, 0] == pytest.approx(-2.0 / h**2)
    assert a[-1, -1] == pytest.approx(-2.0 / h**2)
    assert np.all(a[0, 1:] == 0.0) and np.all(a[-1, :-1] == 0.0)
    assert a[1, 0] == 0.0 and a[-2, -1] == 0.0
    np.testing.assert_allclose(a[2, 1:4], np.array([1.0, -2.0, 1.0]) / h**2)


def test_heat_generator_invertible_steady_state():
    g = make_uniform_grid(51)
    sys = assemble_heat(g)
    b = sys.b_matrix[:, 0]
    x_ss = np.linalg.solve(sys.a_matrix, -b)
    assert np.linalg.norm(sys.a_matrix @ x_ss + b) <= 1e-10 * np.linalg.norm(b)


def test_skew_part_exactly_skew():
    g = make_uniform_grid(51)
    sys = assemble_skew_damped(g, damping=0.3)
    w = np.diag(g.weights)
    j = sys.a_matrix + 0.3 * np.eye(g.n)
    np.testing.assert_allclose(w @ j + j.T @ w, 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_skew_damped_rate_is_damping_times_norm(systems101, toolkits101, seed):
    from phdiss import form_r
    sys = systems101["skew_damped"]
    x = random_state(sys.n, seed)
    nx2 = float(np.real(np.conj(x) @ (sys.weights * x)))
    assert form_r(toolkits101["skew_damped"], x) == pytest.approx(
        0.3 * nx2, abs=1e-10 * max(1.0, nx2))


def test_custom_rejects_non_dissipative():
    g = make_uniform_grid(5)
    with pytest.raises(AssemblyError):
        assemble_custom(g, np.eye(5))


def test_custom_accepts_dissipative():
    g = make_uniform_grid(5)
    sys = assemble_custom(g, -np.eye(5))
    assert sys.model_tag == "custom"
    assert sys.m_inputs == 1


def test_unknown_model_rejected(grid101):
    with pytest.raises(ValueError, match="unsupported model"):
        assemble_model("advection", grid101)


def test_input_profile_shape_checked(grid101):
    with pytest.raises(AssemblyError):
        assemble_transport(grid101, input_profile=np.ones(7))


def test_default_input_is_constant_window(systems101):
    for sys in systems101.values():
        assert sys.b_matrix.shape == (sys.n, 1)
        np.testing.assert_array_equal(sys.b_matrix[:, 0], np.ones(sys.n))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_graph_norm_definition(systems101, seed, model):
    sys = systems101[model]
    x = random_state(sys.n, seed)
    w = sys.weights
    direct = np.sqrt(np.sum(w * x**2) + np.sum(w * (sys.a_matrix @ x) ** 2))
    assert graph_norm(sys, x) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped", "custom"])
@pytest.mark.parametrize("n", [21, 201])
def test_spectral_norm_matches_svd(model, n):
    g = make_uniform_grid(n)
    if model == "custom":
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = assemble_custom(g, a - 3.0 * np.linalg.norm(a, 2) * np.identity(n)).a_matrix
        assert np.iscomplexobj(a)
    else:
        a = assemble_model(model, g).a_matrix
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)
