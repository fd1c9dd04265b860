import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phdiss.presets
import phdiss.semigroup
from phdiss import (assemble_model, control_signal, energy_audit,
                    make_uniform_grid, mild_solution, rt_bound_check)
from phdiss.systems import assemble_custom, assemble_heat, assemble_transport
from phdiss.semigroup import (_THETA, AlignmentError, ControlSignal, SignalError,
                              _band_step, _dense_propagator, boundary_trace,
                              output_signal)

from conftest import MODELS, free_run, random_state


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


def _shift(system, x, k):
    """S(k h) x on the transport model: one free step of dt = k h; S(0) is
    the first row of the run."""
    dt = max(k, 1) * system.grid.h
    traj = free_run(system, x, dt, dt)
    return traj.states[-1] if k else traj.states[0]


def _free_step(system, x0, t):
    # e^{tA} x0 as one free step of dt = t
    return free_run(system, x0, t, t).states[-1]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 25))
def test_shift_matches_oracle(seed, k):
    sys = assemble_transport(make_uniform_grid(21))
    x = random_state(21, seed)
    np.testing.assert_array_equal(_shift(sys, x, k), _shift_oracle(x, k, 21))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 12))
def test_shift_semigroup_law(seed, j, k):
    sys = assemble_transport(make_uniform_grid(21))
    x = random_state(21, seed)
    via_two = _shift(sys, _shift(sys, x, j), k)
    direct = _shift(sys, x, j + k)
    np.testing.assert_array_equal(via_two, direct)
    # and j + k steps of dt = h land on the same state
    traj = free_run(sys, x, 25 * sys.grid.h, sys.grid.h)
    np.testing.assert_array_equal(traj.states[j + k], direct)


def test_shift_identity_and_extinction():
    g = make_uniform_grid(51)
    sys = assemble_transport(g)
    x = np.sin(3 * np.pi * g.nodes) + 1.0
    np.testing.assert_array_equal(_shift(sys, x, 0), x)
    assert np.all(_free_step(sys, x, 1.0) == 0.0)
    assert np.all(_free_step(sys, x, 1.5) == 0.0)


def test_shift_requires_nodal_alignment():
    g = make_uniform_grid(51)
    sys = assemble_transport(g)
    x = np.ones(51)
    with pytest.raises(AlignmentError):
        _free_step(sys, x, 0.5 * g.h)
    with pytest.raises(AlignmentError):
        _free_step(sys, x, 1.5 * g.h)
    # within the 1e-9 alignment slack of k = 0, but no step of at least one node
    with pytest.raises(AlignmentError, match="is not aligned"):
        _free_step(sys, x, 1e-10 * g.h)


def test_heat_eigen_propagator_matches_expm():
    # the sine-basis step is heat's spectral propagator
    sys = assemble_model("heat", make_uniform_grid(41))
    x0 = random_state(41, 3)
    for t in (0.01, 0.1):
        got = _free_step(sys, x0, t)
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
    got = _free_step(sys, x0, t)
    np.testing.assert_allclose(got, np.exp(-mu * t) * x0, atol=1e-12)


def test_custom_heat_steps_like_heat():
    # heat's A as a custom system is too stiff for the band route at this
    # dt and steps with expm; that must reproduce the sine route of heat
    g = make_uniform_grid(41)
    heat = assemble_model("heat", g)
    custom = assemble_custom(g, heat.a_matrix)
    assert (heat.model.step, custom.model.step) == ("sine", "expm")
    x0 = np.sin(np.pi * g.nodes) + 0.3 * np.sin(4 * np.pi * g.nodes)
    u = control_signal("ramp:0.5", 0.1, 1e-3)
    got = mild_solution(custom, x0, u).states
    ref = mild_solution(heat, x0, u).states
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [21, 201, 801])
@pytest.mark.parametrize("case", ["real", "complex_x0", "complex_input"])
def test_heat_sine_steps_match_expm(n, case):
    # the sine route against the dense expm of the same A; the round-off
    # of expm grows like eps * ||dt A||_1, and ||dt A||_1 = 2560 at n = 801
    g = make_uniform_grid(n)
    profile = (lambda w: np.exp(1j * np.pi * w)) if case == "complex_input" else None
    heat = assemble_heat(g, input_profile=profile)
    custom = assemble_custom(g, heat.a_matrix, b_matrix=heat.b_matrix)
    x0 = np.sin(np.pi * g.nodes) + 0.3 * np.sin(4 * np.pi * g.nodes)
    if case == "complex_x0":
        x0 = x0 + 0.5j * random_state(n, 7) * np.sin(np.pi * g.nodes)
    dt = 1e-3
    u = control_signal("ramp:0.5", 0.05, dt)
    got = mild_solution(heat, x0, u).states
    ref = mild_solution(custom, x0, u).states
    assert got.dtype == ref.dtype
    scale = dt * np.linalg.norm(heat.a_matrix, 1)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * max(1.0, scale))


def test_mild_solution_matches_naive_stepping():
    # independent loop with expm and the trapezoid input rule
    sys = assemble_model("heat", make_uniform_grid(21))
    dt, t_final = 0.01, 0.1
    u = control_signal("ramp:2.0", t_final, dt)
    x0 = np.sin(np.pi * sys.grid.nodes)
    traj = mild_solution(sys, x0, u)
    p = sla.expm(dt * sys.a_matrix)
    b = sys.b_matrix
    x = x0.astype(float)
    for k in range(u.times.size - 1):
        x = p @ (x + 0.5 * dt * b @ u.values[k]) + 0.5 * dt * b @ u.values[k + 1]
        np.testing.assert_allclose(traj.states[k + 1], x, atol=1e-11)


@pytest.mark.parametrize("model", MODELS)
def test_audited_run_holds_one_trajectory(model):
    # n = 401, K = 3200: the states take 10.3 MB, and stepping and auditing
    # them may add one n x n block of rates and skew_damped's 39 propagator
    # bands with their work arrays, but no n x n propagator and no second
    # (K+1) x n array
    sys = assemble_model(model, make_uniform_grid(401))
    u = control_signal("ramp:0.5", 8.0, sys.grid.h)
    x0 = np.sin(np.pi * sys.grid.nodes)
    tracemalloc.start()
    try:
        energy_audit(sys, mild_solution(sys, x0, u))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.values.shape[0] == 3201
    assert peak <= 3201 * 401 * 8 + 8 * 401**2 + 4 * 39 * 401 * 8


def _dense_steps(system, x0, u):
    """The recursion of mild_solution, stepped with the expm propagator."""
    p = _dense_propagator(system, u.dt)
    bu = u.values @ system.b_matrix.T
    states = np.zeros((bu.shape[0], system.n), dtype=np.result_type(p, bu, x0))
    states[0] = x0
    for k in range(bu.shape[0] - 1):
        states[k + 1] = p @ (states[k] + 0.5 * u.dt * bu[k]) + 0.5 * u.dt * bu[k + 1]
    return states


def _count_dense_propagators(monkeypatch):
    calls = []

    def counted(system, t):
        calls.append(t)
        return _dense_propagator(system, t)

    monkeypatch.setattr(phdiss.semigroup, "_dense_propagator", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 120), kd=st.integers(1, 3),
       corners=st.booleans(), complex_a=st.booleans(), complex_b=st.booleans(),
       complex_x0=st.booleans(), reach=st.floats(0.01, 1.0))
@example(seed=64, n=63, kd=1, corners=True, complex_a=False, complex_b=False,
         complex_x0=False, reach=1.0)
def test_band_route_matches_dense_propagator(seed, n, kd, corners, complex_a,
                                             complex_b, complex_x0, reach):
    # a random dissipative generator, W A = M - c I with M of periodic
    # half-bandwidth kd, its wrapped corners kept or cut, and c above
    # Herm(M)'s top eigenvalue; dt puts ||dt A||_1 at reach * theta_m for the
    # largest degree m whose 2 m kd + 1 bands stay below n
    rng = np.random.default_rng(seed)
    grid = make_uniform_grid(n)

    def draw(complex_values, *shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_values else z

    i = np.arange(n)
    m = np.zeros((n, n), dtype=complex if complex_a else float)
    for k in range(-kd, kd + 1):
        j = (i + k) % n
        keep = corners | (np.abs(i - j) <= kd)
        m[i[keep], j[keep]] = draw(complex_a, int(keep.sum()))
    c = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1] + rng.uniform(0.0, 2.0)
    sys = assemble_custom(grid, (m - c * np.identity(n)) / grid.weights[:, None],
                          b_matrix=draw(complex_b, n))
    # np.linalg.norm sums each column in another order than _band_step does,
    # so at reach = 1 the step's own ||dt A||_1 can land an ulp above theta_m
    # and ask for a second substep; the factor 1 - 1e-12 keeps it below
    norm = np.linalg.norm(sys.a_matrix, 1)
    dt = reach * (1 - 1e-12) * _THETA[max(d for d in _THETA if 2 * d * kd + 1 < n)] / norm
    assert _band_step(sys.a_bands, dt, complex) is not None
    u = control_signal("ramp:0.5", 10 * dt, dt)
    x0 = draw(complex_x0, n)
    got = mild_solution(sys, x0, u).states
    want = _dense_steps(sys, x0, u)
    assert got.dtype == want.dtype
    atol = 1e-13 * max(1.0, dt * norm) * np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("steps", [1, 12])
def test_skew_damped_band_route_matches_dense_at_n801(monkeypatch, steps):
    # dt = h: ||dt A||_1 is 1.25, one substep of degree 19; dt = 12 h:
    # 15, above theta_55 = 9.9, so two substeps of degree 50
    sys = assemble_model("skew_damped", make_uniform_grid(801))
    dt = steps * sys.grid.h
    u = control_signal("const:0.5", 800 // steps * dt, dt)
    x0 = np.sin(np.pi * sys.grid.nodes)
    calls = _count_dense_propagators(monkeypatch)
    got = mild_solution(sys, x0, u).states
    assert calls == [] and got.shape == (800 // steps + 1, 801)
    want = _dense_steps(sys, x0, u)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stiff_custom_generator_takes_the_dense_route(monkeypatch):
    # heat's A at n = 801 and dt = 1e-3 has ||dt A||_1 = 2560: s = 259
    # substeps of degree 55 would cost far more than one dense mat-vec
    g = make_uniform_grid(801)
    sys = assemble_custom(g, assemble_heat(g).a_matrix)
    assert _band_step(sys.a_bands, 1e-3, float) is None
    calls = _count_dense_propagators(monkeypatch)
    mild_solution(sys, np.sin(np.pi * g.nodes), control_signal("const:0.5", 2e-3, 1e-3))
    assert calls == [1e-3]


def test_band_route_forms_no_square_array():
    # skew_damped at n = 801, K = 800: the states are one 801 x 801 array,
    # and the band route adds T_m's 2 m kd + 1 = 39 bands (m = 19, kd = 1 at
    # dt = h) and the work arrays that sum them, a fifth of another n x n
    sys = assemble_model("skew_damped", make_uniform_grid(801))
    u = control_signal("ramp:0.5", 1.0, sys.grid.h)
    x0 = np.sin(np.pi * sys.grid.nodes)
    tracemalloc.start()
    try:
        states = mild_solution(sys, x0, u).states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.nbytes == 801 * 801 * 8
    assert peak <= states.nbytes + 4 * 39 * 801 * 8


def test_dense_propagator_has_no_subnormals():
    # e^{dt A} of heat's A at n = 801 and dt = 1e-4 holds subnormal entries
    # far from the diagonal; as a custom system it takes the dense route, and
    # zeroing them leaves every stepped state unchanged
    g = make_uniform_grid(801)
    sys = assemble_custom(g, assemble_heat(g).a_matrix)
    dt = 1e-4
    assert _band_step(sys.a_bands, dt, float) is None
    raw = sla.expm(dt * sys.a_matrix)
    tiny = np.finfo(float).tiny
    assert np.count_nonzero((raw != 0) & (np.abs(raw) < tiny)) > 0
    prop = _dense_propagator(sys, dt)
    assert np.count_nonzero((prop != 0) & (np.abs(prop) < tiny)) == 0
    u = control_signal("ramp:0.4", 20 * dt, dt)
    x0 = np.sin(np.pi * sys.grid.nodes)
    traj = mild_solution(sys, x0, u)
    bu = u.values @ sys.b_matrix.T
    states = np.zeros_like(traj.states)
    states[0] = x0
    for k in range(20):
        states[k + 1] = raw @ (states[k] + 0.5 * dt * bu[k]) + 0.5 * dt * bu[k + 1]
    np.testing.assert_array_equal(traj.states, states)


def test_mild_solution_second_order_in_dt():
    # Richardson ratio ~4 for the trapezoid input rule.  The wave-like model
    # keeps dt * ||A|| resolved at these step sizes; the stiff heat spectrum
    # would sit in the pre-asymptotic regime and hide the order.
    sys = assemble_model("skew_damped", make_uniform_grid(51))
    x0 = np.sin(np.pi * sys.grid.nodes)
    t_final = 0.1

    def final_state(dt):
        u = control_signal("const:1.0", t_final, dt)
        return mild_solution(sys, x0, u).states[-1]

    d1 = np.linalg.norm(final_state(4e-3) - final_state(2e-3))
    d2 = np.linalg.norm(final_state(2e-3) - final_state(1e-3))
    assert 3.0 < d1 / d2 < 5.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_free_dynamics_contract(systems101, seed, model):
    sys = systems101[model]
    x0 = random_state(sys.n, seed)
    traj = free_run(sys, x0, 0.1, 0.02)
    w = sys.weights
    norms = np.sqrt(np.einsum("ki,i,ki->k", traj.states, w, traj.states))
    assert np.all(np.diff(norms) <= 1e-12 * max(1.0, norms[0]))


def test_mild_solution_needs_clock():
    sys = assemble_model("heat", make_uniform_grid(21))
    with pytest.raises(TypeError):
        mild_solution(sys, np.zeros(21))
    with pytest.raises(SignalError):
        free_run(sys, np.zeros(21), 1.0, 0.3)  # not a divisor


def test_mild_solution_refuses_a_second_clock():
    # the control is the only clock: t_final and dt next to it are refused,
    # not silently ignored
    sys = assemble_model("heat", make_uniform_grid(21))
    u = control_signal("const:1.0", 0.1, 0.01)
    with pytest.raises(TypeError):
        mild_solution(sys, np.zeros(21), u, t_final=5.0, dt=0.5)


def test_mild_solution_refuses_a_control_of_another_width():
    sys = assemble_model("heat", make_uniform_grid(21))
    u = control_signal("const:1.0", 0.1, 0.01, m=2)
    with pytest.raises(SignalError, match="2 channels, system expects 1"):
        mild_solution(sys, np.zeros(21), u)


def test_control_signal_validation():
    with pytest.raises(SignalError):
        ControlSignal(1.0, np.zeros(1))
    # a 3-D stack would pass as one channel and fail deep in the stepping
    with pytest.raises(SignalError, match="1-D or 2-D"):
        ControlSignal(0.5, np.ones((6, 1, 1)))


@pytest.mark.parametrize("t_final, dt", [(1e6, 1e-6), (1e300, 1e-300)])
def test_named_control_refuses_too_many_steps(t_final, dt):
    # 10^12 steps would ask for terabytes, and 1e300 / 1e-300 overflows to
    # inf: both are refused before any sample is allocated
    tracemalloc.start()
    try:
        with pytest.raises(SignalError, match="MAX_STEPS"):
            control_signal("zero", t_final, dt)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_named_control_step_cap_is_the_module_constant(monkeypatch):
    # exercised on a small cap, so no test allocates near the real one
    monkeypatch.setattr(phdiss.presets, "MAX_STEPS", 100)
    assert control_signal("zero", 1.0, 0.01).values.shape == (101, 1)
    with pytest.raises(SignalError, match="MAX_STEPS"):
        control_signal("zero", 1.0, 0.005)


@pytest.mark.parametrize("where", ["values", "t_final"])
def test_mild_solution_rejects_non_finite_control(where):
    sys = assemble_model("heat", make_uniform_grid(21))
    t_final, vals = 0.1, np.ones(11)
    if where == "values":
        vals[5] = np.inf
    else:
        t_final = np.inf
    with pytest.raises(SignalError, match="finite"):
        mild_solution(sys, np.zeros(21), ControlSignal(t_final, vals))


@pytest.mark.parametrize("t_final, dt", [(np.nan, 0.1), (np.inf, 0.1),
                                         (1.0, np.nan), (1.0, np.inf)])
def test_named_control_refuses_non_finite_clock(t_final, dt):
    with pytest.raises(SignalError, match="finite"):
        control_signal("zero", t_final, dt)


def test_raw_samples_run_on_zero_to_t_final():
    # the clock of raw samples starts at 0 and ends at t_final: the horizon
    # the dissipation bound reads is the one the samples span
    sys = assemble_model("heat", make_uniform_grid(41))
    rng = np.random.default_rng(5)
    u = ControlSignal(0.5, rng.standard_normal(21))
    traj = mild_solution(sys, np.sin(np.pi * sys.grid.nodes), u)
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, 0.5, 21))
    assert traj.dt == 0.5 / 20
    assert rt_bound_check(sys, energy_audit(sys, traj)).t_final == 0.5


def test_control_is_its_horizon_and_samples():
    init = [f.name for f in dataclasses.fields(ControlSignal) if f.init]
    assert init == ["t_final", "values"]


def test_free_run_carries_the_zero_control(systems101):
    sys = systems101["heat"]
    traj = free_run(sys, np.sin(np.pi * sys.grid.nodes), 0.2, 1e-3)
    u = traj.control
    assert u.values.shape == (201, sys.m_inputs)
    np.testing.assert_array_equal(u.values, 0.0)
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, 0.2, 201))
    assert traj.dt == u.dt


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_output_is_weighted_adjoint(systems101, seed, model):
    # <B u, x> = <u, B* x> for the collocated output
    sys = systems101[model]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(sys.n)
    u0 = rng.standard_normal(sys.m_inputs)
    traj = free_run(sys, x, 0.02, 0.02)
    y0 = output_signal(sys, traj)[0]
    lhs = np.conj(x) @ (sys.weights * (sys.b_matrix @ u0))
    rhs = np.conj(y0) @ u0
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_output_adjoint_complex_states(grid101):
    rng = np.random.default_rng(11)
    n = grid101.n
    sys_c = assemble_custom(grid101, -np.eye(n),
                            b_matrix=rng.standard_normal((n, 2)))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    traj = free_run(sys_c, x, 0.02, 0.02)
    y0 = output_signal(sys_c, traj)[0]
    u0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = np.conj(x) @ (sys_c.weights * (sys_c.b_matrix @ u0))
    rhs = np.conj(y0) @ u0
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_boundary_trace_two_routes_agree():
    g = make_uniform_grid(101)
    sys = assemble_model("transport", g)
    x0 = np.sinh(1.0 - g.nodes)
    u = control_signal("const:0.7", 1.5, g.h)
    rep = boundary_trace(sys, x0, u)
    assert rep.max_discrepancy <= 1e-12


def test_boundary_trace_complex_input_map():
    # from x0 = 0 the trace under i b is i times the trace under b
    g = make_uniform_grid(41)
    b = np.exp(-g.nodes)
    u = control_signal("const:0.7", 1.5, g.h)
    real = boundary_trace(assemble_transport(g, input_profile=b), np.zeros(g.n), u)
    cplx = boundary_trace(assemble_transport(g, input_profile=1j * b), np.zeros(g.n), u)
    assert cplx.max_discrepancy <= 1e-12
    assert np.max(np.abs(real.from_formula)) > 0.1
    np.testing.assert_allclose(cplx.from_formula, 1j * real.from_formula,
                               rtol=0, atol=1e-14)


def test_boundary_trace_transport_only(systems101):
    u = control_signal("zero", 0.1, 0.01)
    with pytest.raises(ValueError):
        boundary_trace(systems101["heat"], np.zeros(101), u)


def _boundary_trace_loop(system, x0v, u):
    # the closed-form route as a double loop over (t_k, s_j); returns the
    # trace and the number of samples that took the window-edge branch
    n, h = system.n, system.grid.h
    dt = u.dt
    q = int(round(dt / h))
    bu = u.values @ system.b_matrix.T
    kmax = u.times.size - 1
    formula = np.zeros(kmax + 1, dtype=np.result_type(x0v, bu, float))
    edge_hits = 0
    for k in range(kmax + 1):
        src = k * q
        acc = x0v[src] if src <= n - 2 else 0.0
        j_lo = max(0, math.ceil((k * q - (n - 1)) / q))
        if k >= 1:
            for j in range(j_lo, k + 1):
                sp = (k - j) * q
                f = bu[j, sp] if sp <= n - 2 else 0.0
                wgt = 0.5 * dt if j in (j_lo, k) else dt
                acc += wgt * f
            leftover = j_lo * dt - (k * dt - 1.0)
            if j_lo > 0 and dt * 1e-9 < leftover < dt * (1 - 1e-9):
                sp = (k - j_lo) * q
                f = bu[j_lo, sp] if sp <= n - 2 else 0.0
                acc += 0.5 * leftover * f
                edge_hits += 1
        formula[k] = acc
    return formula, edge_hits


@pytest.mark.parametrize("n, q", [(101, 1), (42, 2), (41, 3), (401, 7)])
def test_boundary_trace_matches_loop(n, q):
    g = make_uniform_grid(n)
    profile = np.column_stack([np.exp(-g.nodes), np.cos(3.0 * g.nodes)])
    sys = assemble_transport(g, input_profile=profile)
    x0 = random_state(n, n + q)
    steps = math.ceil(1.6 * (n - 1) / q)  # past t = 1, so the window slides
    t = np.linspace(0.0, steps * q * g.h, steps + 1)
    u = ControlSignal(t[-1], np.column_stack([np.sin(5.0 * t), 0.3 - t]))
    rep = boundary_trace(sys, x0, u)
    loop, edge_hits = _boundary_trace_loop(sys, x0, u)
    # the window edge falls inside a cell exactly when q does not divide n - 1
    assert (edge_hits > 0) == ((n - 1) % q != 0)
    scale = max(1.0, float(np.max(np.abs(loop))))
    np.testing.assert_allclose(rep.from_formula, loop, rtol=0, atol=1e-13 * scale)
