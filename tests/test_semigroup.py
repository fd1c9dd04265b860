import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from phdiss import (ControlSignal, GridFunction, assemble_model,
                    make_uniform_grid, mild_solution)
from phdiss.semigroup import (AlignmentError, SignalError, boundary_trace,
                              classical_check, output_signal,
                              propagate_matrix, propagate_shift)

from conftest import MODELS, random_state


def _shift_oracle(vals, k, n):
    # S(0) is the identity; for k >= 1 keep x_{i+k} while the source index
    # stays inside [0, n-2] (the outflow node never moves inward), zero after
    if k == 0:
        return vals.copy()
    out = np.zeros_like(vals)
    for i in range(n):
        if i + k <= n - 2:
            out[i] = vals[i + k]
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 25))
def test_shift_matches_oracle(seed, k):
    g = make_uniform_grid(21)
    x = GridFunction(g, random_state(21, seed))
    shifted = propagate_shift(x, k * g.h)
    np.testing.assert_array_equal(shifted.values,
                                  _shift_oracle(x.values, k, 21))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 12))
def test_shift_semigroup_law(seed, j, k):
    g = make_uniform_grid(21)
    x = GridFunction(g, random_state(21, seed))
    via_two = propagate_shift(propagate_shift(x, j * g.h), k * g.h)
    direct = propagate_shift(x, (j + k) * g.h)
    np.testing.assert_array_equal(via_two.values, direct.values)


def test_shift_identity_and_extinction():
    g = make_uniform_grid(51)
    x = GridFunction(g, np.sin(3 * np.pi * g.nodes) + 1.0)
    np.testing.assert_array_equal(propagate_shift(x, 0.0).values, x.values)
    assert np.all(propagate_shift(x, 1.0).values == 0.0)
    assert np.all(propagate_shift(x, 1.5).values == 0.0)


def test_shift_requires_nodal_alignment():
    g = make_uniform_grid(51)
    x = GridFunction(g, np.ones(51))
    with pytest.raises(AlignmentError):
        propagate_shift(x, 0.5 * g.h)


def test_heat_eigen_propagator_matches_expm():
    sys = assemble_model("heat", make_uniform_grid(41))
    x0 = random_state(41, 3)
    for t in (0.01, 0.1):
        got = propagate_matrix(sys, x0, t).values
        ref = sla.expm(t * sys.a_matrix) @ x0
        np.testing.assert_allclose(got, ref, atol=1e-10)


def test_heat_discrete_mode_decays_exactly():
    # sin(k pi w) is an exact eigenvector of the decoupled Dirichlet stencil
    g = make_uniform_grid(101)
    sys = assemble_model("heat", g)
    k = 3
    x0 = np.sin(k * np.pi * g.nodes)
    mu = (2.0 - 2.0 * np.cos(k * np.pi * g.h)) / g.h**2
    t = 0.05
    got = propagate_matrix(sys, x0, t).values
    np.testing.assert_allclose(got, np.exp(-mu * t) * x0, atol=1e-12)


def test_mild_solution_matches_naive_stepping():
    # independent loop with expm and the trapezoid input rule
    sys = assemble_model("heat", make_uniform_grid(21))
    dt, t_final = 0.01, 0.1
    u = ControlSignal.ramp(2.0, t_final, dt)
    x0 = np.sin(np.pi * sys.grid.nodes)
    traj = mild_solution(sys, x0, u)
    p = sla.expm(dt * sys.a_matrix)
    b = sys.b_matrix
    x = x0.astype(float)
    for k in range(u.times.size - 1):
        x = p @ (x + 0.5 * dt * b @ u.values[k]) + 0.5 * dt * b @ u.values[k + 1]
        np.testing.assert_allclose(traj.states[k + 1], x, atol=1e-11)


def test_mild_solution_second_order_in_dt():
    # Richardson ratio ~4 for the trapezoid input rule.  The wave-like model
    # keeps dt * ||A|| resolved at these step sizes; the stiff heat spectrum
    # would sit in the pre-asymptotic regime and hide the order.
    sys = assemble_model("skew_damped", make_uniform_grid(51))
    x0 = np.sin(np.pi * sys.grid.nodes)
    t_final = 0.1

    def final_state(dt):
        u = ControlSignal.constant(1.0, t_final, dt)
        return mild_solution(sys, x0, u).states[-1]

    d1 = np.linalg.norm(final_state(4e-3) - final_state(2e-3))
    d2 = np.linalg.norm(final_state(2e-3) - final_state(1e-3))
    assert 3.0 < d1 / d2 < 5.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_free_dynamics_contract(systems101, seed, model):
    sys = systems101[model]
    x0 = random_state(sys.n, seed)
    traj = mild_solution(sys, x0, t_final=0.1, dt=0.02)
    w = sys.weights
    norms = np.sqrt(np.einsum("ki,i,ki->k", traj.states, w, traj.states))
    assert np.all(np.diff(norms) <= 1e-12 * max(1.0, norms[0]))


def test_mild_solution_needs_clock():
    sys = assemble_model("heat", make_uniform_grid(21))
    with pytest.raises(SignalError):
        mild_solution(sys, np.zeros(21))
    with pytest.raises(SignalError):
        mild_solution(sys, np.zeros(21), t_final=1.0, dt=0.3)  # not a divisor


def test_control_signal_validation():
    with pytest.raises(SignalError):
        ControlSignal(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(SignalError):
        ControlSignal(np.array([0.0]), np.zeros(1))
    with pytest.raises(SignalError):
        ControlSignal(np.linspace(0, 1, 11), np.zeros(7))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_output_is_weighted_adjoint(systems101, seed, model):
    # <B u, x> = <u, B* x> for the collocated output
    sys = systems101[model]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(sys.n)
    u0 = rng.standard_normal(sys.m_inputs)
    traj = mild_solution(sys, x, t_final=0.02, dt=0.02)
    y0 = output_signal(sys, traj).values[0]
    lhs = np.conj(x) @ (sys.weights * (sys.b_matrix @ u0))
    rhs = np.conj(y0) @ u0
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_output_adjoint_complex_states(grid101):
    from phdiss.systems import assemble_custom
    rng = np.random.default_rng(11)
    n = grid101.n
    sys_c = assemble_custom(grid101, -np.eye(n),
                            b_matrix=rng.standard_normal((n, 2)))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    traj = mild_solution(sys_c, x, t_final=0.02, dt=0.02)
    y0 = output_signal(sys_c, traj).values[0]
    u0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = np.conj(x) @ (sys_c.weights * (sys_c.b_matrix @ u0))
    rhs = np.conj(y0) @ u0
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_classical_gate():
    g = make_uniform_grid(101)
    transport = assemble_model("transport", g)
    heat = assemble_model("heat", g)
    skew = assemble_model("skew_damped", g)
    sinh_bc = np.sinh(1.0 - g.nodes)
    one = np.ones(g.n)
    sine = np.sin(np.pi * g.nodes)
    assert classical_check(transport, sinh_bc).classical
    assert not classical_check(transport, one).classical  # x(1) != 0
    assert classical_check(heat, sine).classical
    assert not classical_check(heat, one).classical
    assert classical_check(skew, one).classical  # periodic: x(0) = x(1)


def test_classical_gate_flags_rough_control():
    g = make_uniform_grid(51)
    sys = assemble_model("transport", g)
    x0 = np.sinh(1.0 - g.nodes)
    t = np.linspace(0.0, 0.5, 26)
    jagged = ControlSignal(t, np.sign(np.sin(37.0 * t)))
    rep = classical_check(sys, x0, jagged)
    assert not rep.control_smooth
    smooth = ControlSignal.ramp(1.0, 0.5, 0.02)
    assert classical_check(sys, x0, smooth).control_smooth


def test_boundary_trace_two_routes_agree():
    g = make_uniform_grid(101)
    sys = assemble_model("transport", g)
    x0 = np.sinh(1.0 - g.nodes)
    u = ControlSignal.constant(0.7, 1.5, g.h)
    rep = boundary_trace(sys, x0, u)
    assert rep.max_discrepancy <= 1e-12


def test_boundary_trace_transport_only(systems101):
    u = ControlSignal.zero(0.1, 0.01)
    with pytest.raises(ValueError):
        boundary_trace(systems101["heat"], np.zeros(101), u)
