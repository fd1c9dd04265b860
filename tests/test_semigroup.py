import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phdiss.linalg
import phdiss.presets
import phdiss.semigroup
from phdiss import (assemble_model, control_signal, energy_audit,
                    make_uniform_grid, rt_bound_check)
from phdiss.config import parse_config_text
from phdiss.dissipation import _form_rates
from phdiss.grids import norm_sq
from phdiss.runner import run_config
from phdiss.systems import (assemble_custom, assemble_heat, assemble_skew_damped,
                            assemble_transport)
from phdiss.semigroup import (_THETA, AlignmentError, ControlSignal, SignalError,
                              _band_step, _blocks, _dense_propagator, _make_step, _outputs,
                              _start, _taylor_poly, block_rows, boundary_trace, final_state,
                              run_blocks, sine_basis)

from conftest import (MODELS, custom_complex_system, free_control, free_run, random_state,
                      run_states)


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
    states = free_run(system, x, dt, dt)
    return states[-1] if k else states[0]


def _free_step(system, x0, t):
    # e^{tA} x0 as one free step of dt = t
    return free_run(system, x0, t, t)[-1]


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
    states = free_run(sys, x, 25 * sys.grid.h, sys.grid.h)
    np.testing.assert_array_equal(states[j + k], direct)


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


def test_heat_sine_step_matches_expm():
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
    got = run_states(custom, x0, u)
    ref = run_states(heat, x0, u)
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
    got = run_states(heat, x0, u)
    ref = run_states(custom, x0, u)
    assert got.dtype == ref.dtype
    scale = dt * np.linalg.norm(heat.a_matrix, 1)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * max(1.0, scale))


def test_run_states_match_naive_stepping():
    # independent loop with expm and the trapezoid input rule
    sys = assemble_model("heat", make_uniform_grid(21))
    dt, t_final = 0.01, 0.1
    u = control_signal("ramp:2.0", t_final, dt)
    x0 = np.sin(np.pi * sys.grid.nodes)
    states = run_states(sys, x0, u)
    p = sla.expm(dt * sys.a_matrix)
    b = sys.b_matrix
    x = x0.astype(float)
    for k in range(u.times.size - 1):
        x = p @ (x + 0.5 * dt * b @ u.values[k]) + 0.5 * dt * b @ u.values[k + 1]
        np.testing.assert_allclose(states[k + 1], x, atol=1e-11)


# the trajectory of a run at n = 401, K = 3200: 10.3 MB of float64
TRAJECTORY_BYTES = 3201 * 401 * 8


@pytest.mark.parametrize("model", MODELS)
def test_audited_run_holds_one_trajectory(model):
    # n = 401, K = 3200: the audit steps the run itself in blocks of 40
    # states and keeps per-sample scalars, so it peaks at a fifth of the
    # 10.3 MB the stacked states would take (0.6-0.75 MB measured): no
    # (K+1) x n array, no n x n propagator
    sys = assemble_model(model, make_uniform_grid(401))
    u = control_signal("ramp:0.5", 8.0, sys.grid.h)
    x0 = np.sin(np.pi * sys.grid.nodes)
    energy_audit(sys, x0, control_signal("zero", 0.1, sys.grid.h))  # lazy imports
    tracemalloc.start()
    try:
        energy_audit(sys, x0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.values.shape[0] == 3201
    assert peak <= TRAJECTORY_BYTES / 5


def _dense_steps(system, x0, u):
    """The recursion of run_blocks, stepped with the expm propagator."""
    p = _dense_propagator(system, u.dt)
    bu = u.values @ system.b_matrix.T
    states = np.zeros((bu.shape[0], system.n), dtype=np.result_type(p, bu, x0))
    states[0] = x0
    for k in range(bu.shape[0] - 1):
        states[k + 1] = p @ (states[k] + 0.5 * u.dt * bu[k]) + 0.5 * u.dt * bu[k + 1]
    return states


def _step_by_step(system, x0, u):
    """The stepping loop as it was before run_blocks: B u_k formed one step
    at a time by np.dot, every state stepped into its row of one stack, and
    the stack mapped back from the step basis at the end."""
    x0v = np.asarray(x0)
    out_dtype = np.result_type(x0v.dtype, u.values.dtype, system.b_matrix.dtype,
                               system.a_bands.dtype, float)
    basis, step, _, b = _make_step(system, u.dt, out_dtype)  # b: B in the step basis
    states = np.zeros((u.values.shape[0], system.n), dtype=out_dtype)
    states[0] = x0v
    basis(states[0])
    half = 0.5 * u.dt
    bu = np.dot(b, u.values[0])
    for k in range(u.values.shape[0] - 1):
        bu_next = np.dot(b, u.values[k + 1])
        step(states[k] + half * bu, states[k + 1])
        states[k + 1] += half * bu_next
        bu = bu_next
    basis(states)
    states[0] = x0v
    return states


def _route_system(route, m):
    # a system on each step route with m input columns; n = 41 lets
    # skew_damped's degree-19 band step (39 bands) undercut a dense one
    g = make_uniform_grid(21 if route == "dense" else 41)
    b = np.cos(np.outer(g.nodes, np.arange(1, m + 1))) + g.nodes[:, None]
    if route == "dense":
        return assemble_custom(g, custom_complex_system(21).a_matrix, b_matrix=b)
    assemble = {"shift": assemble_transport, "sine": assemble_heat,
                "band": assemble_skew_damped}[route]
    return assemble(g, input_profile=b)


@pytest.mark.parametrize("rows", [2, 63, 64, 65, 129, 3201])
@pytest.mark.parametrize("route", ["shift", "sine", "band", "dense"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_blocks_match_the_step_by_step_loop(rows, route, m):
    # on 21 and 41 nodes the rows rule gives blocks of 64 rows, real or
    # complex: block edges fall inside, at and just past a block; B u is one
    # product per input and block, which at m = 1 is the same single product per
    # entry as np.dot, and at m = 2 may round its two terms in another order:
    # an ulp per step, which the steps carry along and which add up like a
    # random walk, so within 1e-15 sqrt(K + 1) of the largest state
    sys = _route_system(route, m)
    dt = sys.grid.h
    if route == "band":
        assert _band_step(sys.a_bands, dt, float) is not None
    if route == "dense":
        assert _band_step(sys.a_bands, dt, complex) is None
    rng = np.random.default_rng(rows + 7 * m)
    u = ControlSignal((rows - 1) * dt, rng.standard_normal((rows, m)))
    for x0 in (random_state(sys.n, rows), random_state(sys.n, rows, complex_values=True)):
        want = _step_by_step(sys, x0, u)
        _check_blocks(sys, x0, u, want, m)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 10**7), itemsize=st.sampled_from([4, 8, 16]),
       budget=st.sampled_from([0, 1, 4096, 128 * 1024, 2**30]))
@example(n=801, itemsize=8, budget=128 * 1024)
def test_rows_rule_is_a_multiple_of_four_up_to_64(n, itemsize, budget):
    # the supply's gemv sums rows in fours, so every block keeps its bits; the
    # rule takes the most rows that fit the budget, or 4 when none do
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phdiss.semigroup, "BLOCK_BYTES", budget)
        rows = block_rows(n, itemsize)
    assert rows % 4 == 0 and 4 <= rows <= 64
    assert rows == 4 or rows * n * itemsize <= budget
    assert rows == 64 or (rows + 4) * n * itemsize > budget


def test_rows_rule_at_the_benchmarked_sizes():
    # 128 KiB: 20 rows of float64 at n = 801, 40 at 401, 64 up to 256, 4 at 100,001
    assert phdiss.semigroup.BLOCK_BYTES == 128 * 1024
    assert [block_rows(n) for n in (21, 256, 401, 801, 100_001)] == [64, 64, 40, 20, 4]
    assert block_rows(801, 16) == 8


def _check_blocks(sys, x0, u, want, m):
    # run_blocks' blocks have the rows rule's length and stack to the states of
    # the step-by-step loop: bitwise at m <= 1, else within 1e-15 sqrt(K + 1)
    rows, size = u.values.shape[0], block_rows(sys.n, want.itemsize)
    blocks = list(run_blocks(sys, x0, u))
    assert [len(b) for b in blocks] == [min(size, rows - s) for s in range(0, rows, size)]
    got = np.concatenate(blocks)
    assert got.dtype == want.dtype
    if m <= 1:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-15 * math.sqrt(rows) * np.abs(want).max()


@pytest.mark.parametrize("budget", [0, 4 * 41 * 8 * 5, 4 * 41 * 8 * 13])
@pytest.mark.parametrize("route", ["shift", "sine", "band", "dense"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_smaller_byte_budget_blocks_match_the_step_by_step_loop(budget, route, m, monkeypatch):
    # a patched BLOCK_BYTES gives fewer than 64 rows on 41 nodes: 4, 20 or 52
    # real rows and 4, 8 or 24 complex ones, and on the dense route's 21 nodes
    # 4, 36 or 64 real and 4, 16 or 48 complex ones (every state of the dense
    # route is complex); K + 1 = 130 rows end inside a block of each size
    monkeypatch.setattr(phdiss.semigroup, "BLOCK_BYTES", budget)
    assert [block_rows(41, size) for size in (8, 16)] == {
        0: [4, 4], 4 * 41 * 8 * 5: [20, 8], 4 * 41 * 8 * 13: [52, 24]}[budget]
    sys = _route_system(route, m)
    rng = np.random.default_rng(budget + m)
    u = ControlSignal(129 * sys.grid.h, rng.standard_normal((130, m)))
    for x0 in (random_state(sys.n, 5), random_state(sys.n, 5, complex_values=True)):
        _check_blocks(sys, x0, u, _step_by_step(sys, x0, u), m)


@pytest.mark.parametrize("rows", [2, 63, 64, 65, 129, 3201])
@pytest.mark.parametrize("route", ["shift", "sine", "band", "dense"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_audit_in_the_step_basis_matches_the_nodal_states(rows, route, m):
    # the audit reads the loop's blocks in the step basis: on the nodal
    # routes they are run_blocks' states, so every series has their bits; in
    # heat's sine basis, which W commutes with, F is diagonal and B is mapped
    # in once, and the series meet the nodal ones at round-off. H(0) is x0's
    # own on every route, which keeps the dissipation bound's ||x0||
    sys = _route_system(route, m)
    rng = np.random.default_rng(rows + 7 * m)
    u = ControlSignal((rows - 1) * sys.grid.h, rng.standard_normal((rows, m)))
    for x0 in (random_state(sys.n, rows), random_state(sys.n, rows, complex_values=True)):
        blocks = list(run_blocks(sys, x0, u))
        states = np.concatenate(blocks)
        y = np.concatenate([_outputs(sys.weights, sys.b_matrix, block) for block in blocks])
        want = {"hamiltonian": 0.5 * norm_sq(sys.weights, states),
                "dissipation_rate": _form_rates(sys.f_bands, states),
                "supply_rate": np.sum(np.real(u.values * np.conj(y)), axis=1),
                "final_state": states[-1]}
        ledger = energy_audit(sys, x0, u)
        for name, value in want.items():
            got = getattr(ledger, name)
            assert got.dtype == value.dtype and got.shape == value.shape
            if route == "sine":
                np.testing.assert_allclose(got, value, rtol=0, atol=1e-13 * np.abs(value).max())
            else:
                np.testing.assert_array_equal(got, value)
        assert ledger.hamiltonian[0] == want["hamiltonian"][0]
        # a bare simulate's x(T) is the audit's, mapped back the same way
        np.testing.assert_array_equal(final_state(sys, x0, u), ledger.final_state)


@pytest.mark.parametrize("n", [3, 5, 41, 401])
def test_heat_form_is_diagonal_in_the_sine_basis(n):
    # F-hat = -w * sine_spectrum is S F S, S the sine basis as a matrix
    sys = assemble_heat(make_uniform_grid(n))
    s = sine_basis(np.identity(n))
    f_hat = _make_step(sys, sys.grid.h, float)[2]
    assert f_hat.shape == (1, n)
    dense = s @ sys.f_matrix @ s
    np.testing.assert_allclose(dense, np.diag(f_hat[0]), rtol=0, atol=1e-14 * np.abs(dense).max())


def test_heat_transforms_as_often_for_any_horizon(monkeypatch, tmp_path):
    # the audit maps x0 and B into the sine basis and x(T) back; so does a
    # bare simulate, which maps back its last row only. No block goes through
    # the transform, so K = 64 and K = 3200 make the same calls
    calls = []

    def counted(x, out=None):
        calls.append(x.shape)
        return phdiss.linalg.sine_transform(x, out)

    monkeypatch.setattr(phdiss.semigroup, "sine_transform", counted)
    sys = assemble_heat(make_uniform_grid(101))
    x0 = np.sin(np.pi * sys.grid.nodes)
    text = ("model = heat\nn_grid = 101\nt_final = {t}\nx0_preset = sine:1\n"
            "u_preset = ramp:0.5\ntasks = simulate\nout_dir = {out}\n")
    counts = []
    for k in (64, 3200):
        calls.clear()
        energy_audit(sys, x0, control_signal("ramp:0.5", k * sys.grid.h, sys.grid.h))
        audited = list(calls)
        calls.clear()
        cfg = parse_config_text(text.format(t=k * sys.grid.h, out=tmp_path / str(k)))
        simulated = run_config(cfg).summary["simulate"]
        counts.append((audited, list(calls)))
        # the one row mapped back is x(T) at the nodes
        u = control_signal("ramp:0.5", k * sys.grid.h, sys.grid.h)
        last = np.concatenate(list(run_blocks(sys, x0, u)))[-1]
        assert simulated["steps"] == k
        assert simulated["final_sup"] == pytest.approx(np.abs(last).max(), rel=1e-13)
    assert counts[0] == counts[1] == ([(1, 99), (99,), (99,)], [(1, 99), (99,), (99,)])


def _term_by_term(x, m):
    """T_m's bands as _band_step summed them before _taylor_poly: a new array
    for every product and term, row p + w holding band p."""
    n, kd = x.shape[1], x.shape[0] // 2
    w = m * kd
    term = np.zeros((2 * w + 1, n), dtype=x.dtype)
    term[w] = 1.0
    poly = term.copy()
    for j in range(1, m + 1):
        r = (j - 1) * kd
        src, prod = term[w - r:w + r + 1], np.zeros_like(term)
        for q in range(-kd, kd + 1):
            prod[w - r + q:w + r + 1 + q] += x[q + kd] * np.roll(src, -q, axis=1)
        term = prod / j
        poly += term
    return poly


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kd=st.integers(1, 4), m=st.integers(1, 30),
       n=st.integers(8, 90), complex_x=st.booleans())
def test_taylor_poly_has_the_bits_of_the_term_by_term_sum(seed, kd, m, n, complex_x):
    # kd <= n / 2, and T_m may be wider than n: the bands stay periodic
    kd = min(kd, n // 2)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * kd + 1, n)) / (2 * kd + 1)
    if complex_x:
        x = x + 1j * rng.standard_normal((2 * kd + 1, n)) / (2 * kd + 1)
    x[:, rng.integers(0, n, 3)] = 0.0  # zero entries, whose products are signed zeros
    got, want = _taylor_poly(x, m), _term_by_term(x, m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, steps", [(801, 1), (801, 12), (41, 1)])
def test_skew_damped_taylor_bands_have_the_bits_of_the_term_by_term_sum(n, steps):
    sys = assemble_model("skew_damped", make_uniform_grid(n))
    x = steps * sys.grid.h * sys.a_bands
    for m in (9, 19, 50):
        assert _taylor_poly(x, m).tobytes() == _term_by_term(x, m).tobytes()


def test_taylor_poly_holds_two_arrays_of_its_size():
    # T_m and the terms, 2 kd rows taller and wrapped by kd columns a side,
    # plus at most three sums of a chunk of m kd // 2 + 1 rows; the
    # term-by-term sum held five arrays of T_m's size. Measured on 20,001
    # columns, so numpy's fixed 64 KB work buffers stay small
    kd, m, n = 1, 19, 20001
    x = np.random.default_rng(3).standard_normal((2 * kd + 1, n)) / 3
    tracemalloc.start()
    try:
        poly = _taylor_poly(x, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w = m * kd
    held = (2 * w + 1) * n + (2 * w + 2 * kd + 1) * (n + 2 * kd) + 3 * (w // 2 + 1) * n
    assert peak <= 8 * held + 2**18
    assert peak < 3 * poly.nbytes


def test_run_blocks_refuses_a_bad_run_at_the_call():
    sys = assemble_model("heat", make_uniform_grid(21))
    with pytest.raises(SignalError, match="channels"):
        run_blocks(sys, np.zeros(21), control_signal("zero", 0.1, 0.01, m=2))


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
    got = run_states(sys, x0, u)
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
    got = run_states(sys, x0, u)
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
    run_states(sys, np.sin(np.pi * g.nodes), control_signal("const:0.5", 2e-3, 1e-3))
    assert calls == [1e-3]


def test_band_route_forms_no_square_array():
    # skew_damped at n = 801, K = 800, read block by block and no block kept:
    # the loop holds a block of 20 states while it steps the next, and the
    # band route adds T_m's 2 m kd + 1 = 39 bands (m = 19, kd = 1 at dt = h)
    # and the work arrays that sum them; the 801 x 801 states never exist
    sys = assemble_model("skew_damped", make_uniform_grid(801))
    u = control_signal("ramp:0.5", 1.0, sys.grid.h)
    x0 = np.sin(np.pi * sys.grid.nodes)
    rows = 0
    tracemalloc.start()
    try:
        for block in run_blocks(sys, x0, u):
            rows += block.shape[0]
        del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 801
    assert peak <= 2 * 64 * 801 * 8 + 4 * 39 * 801 * 8


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
    got = run_states(sys, x0, u)
    bu = u.values @ sys.b_matrix.T
    states = np.zeros_like(got)
    states[0] = x0
    for k in range(20):
        states[k + 1] = raw @ (states[k] + 0.5 * dt * bu[k]) + 0.5 * dt * bu[k + 1]
    np.testing.assert_array_equal(got, states)


def test_final_state_second_order_in_dt():
    # Richardson ratio ~4 for the trapezoid input rule.  The wave-like model
    # keeps dt * ||A|| resolved at these step sizes; the stiff heat spectrum
    # would sit in the pre-asymptotic regime and hide the order.
    sys = assemble_model("skew_damped", make_uniform_grid(51))
    x0 = np.sin(np.pi * sys.grid.nodes)
    t_final = 0.1

    def x_final(dt):
        return final_state(sys, x0, control_signal("const:1.0", t_final, dt))

    d1 = np.linalg.norm(x_final(4e-3) - x_final(2e-3))
    d2 = np.linalg.norm(x_final(2e-3) - x_final(1e-3))
    assert 3.0 < d1 / d2 < 5.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_free_dynamics_contract(systems101, seed, model):
    sys = systems101[model]
    x0 = random_state(sys.n, seed)
    states = free_run(sys, x0, 0.1, 0.02)
    w = sys.weights
    norms = np.sqrt(np.einsum("ki,i,ki->k", states, w, states))
    assert np.all(np.diff(norms) <= 1e-12 * max(1.0, norms[0]))


def test_run_blocks_needs_clock():
    sys = assemble_model("heat", make_uniform_grid(21))
    with pytest.raises(TypeError):
        run_blocks(sys, np.zeros(21))
    with pytest.raises(SignalError):
        free_run(sys, np.zeros(21), 1.0, 0.3)  # not a divisor


def test_run_blocks_refuses_a_second_clock():
    # the control is the only clock: t_final and dt next to it are refused,
    # not silently ignored
    sys = assemble_model("heat", make_uniform_grid(21))
    u = control_signal("const:1.0", 0.1, 0.01)
    with pytest.raises(TypeError):
        run_blocks(sys, np.zeros(21), u, t_final=5.0, dt=0.5)


def test_run_blocks_refuses_a_control_of_another_width():
    # refused at the call, before a block is asked for
    sys = assemble_model("heat", make_uniform_grid(21))
    u = control_signal("const:1.0", 0.1, 0.01, m=2)
    with pytest.raises(SignalError, match="2 channels, system expects 1"):
        run_blocks(sys, np.zeros(21), u)


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
def test_run_states_rejects_non_finite_control(where):
    sys = assemble_model("heat", make_uniform_grid(21))
    t_final, vals = 0.1, np.ones(11)
    if where == "values":
        vals[5] = np.inf
    else:
        t_final = np.inf
    with pytest.raises(SignalError, match="finite"):
        run_states(sys, np.zeros(21), ControlSignal(t_final, vals))


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
    x0 = np.sin(np.pi * sys.grid.nodes)
    assert run_states(sys, x0, u).shape == (21, 41)
    np.testing.assert_array_equal(u.times, np.linspace(0.0, 0.5, 21))
    assert u.dt == 0.5 / 20
    assert rt_bound_check(sys, energy_audit(sys, x0, u)).t_final == 0.5


def test_control_is_its_horizon_and_samples():
    init = [f.name for f in dataclasses.fields(ControlSignal) if f.init]
    assert init == ["t_final", "values"]


def test_free_run_carries_the_zero_control(systems101):
    sys = systems101["heat"]
    states = free_run(sys, np.sin(np.pi * sys.grid.nodes), 0.2, 1e-3)
    u = free_control(sys, 0.2, 1e-3)
    assert u.values.shape == (201, sys.m_inputs) and states.shape == (201, sys.n)
    np.testing.assert_array_equal(u.values, 0.0)
    np.testing.assert_array_equal(u.times, np.linspace(0.0, 0.2, 201))
    np.testing.assert_array_equal(states, run_states(sys, states[0], u))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_output_is_weighted_adjoint(systems101, seed, model):
    # <B u, x> = <u, B* x> for the collocated output
    sys = systems101[model]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(sys.n)
    u0 = rng.standard_normal(sys.m_inputs)
    y0 = _outputs(sys.weights, sys.b_matrix, free_run(sys, x, 0.02, 0.02))[0]
    lhs = np.conj(x) @ (sys.weights * (sys.b_matrix @ u0))
    rhs = np.conj(y0) @ u0
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def _output_system(case, grid):
    # a named model, or skew_damped's A as a custom system with 0 or 2 inputs,
    # real or complex
    if case in MODELS:
        return assemble_model(case, grid)
    m = int(case[-1])
    b = np.cos(np.outer(grid.nodes, np.arange(1, m + 1))) + grid.nodes[:, None]
    b = b * (1 - 0.5j) if case.startswith("complex") else b
    return assemble_custom(grid, assemble_model("skew_damped", grid).a_matrix, b_matrix=b)


@pytest.mark.parametrize("model", MODELS + ("custom_m0", "custom_m2", "complex_m2"))
def test_output_of_a_block_is_its_rows_of_the_stack(model):
    # K + 1 = 65 leaves a last block of one row; y = B^* x takes one gemv per
    # input on it as on a stack of rows, so the audit's supply has the bits of
    # a product over more rows, for every input count (numpy's @ on one row
    # takes a dot product, which moves an ulp here). The audit reads the loop's
    # blocks in the step basis with B in that basis: for heat those are the
    # sine-basis states, whose supply meets the nodal one at round-off; for the
    # nodal routes they are the states themselves
    sys = _output_system(model, make_uniform_grid(201))
    u = control_signal("ramp:0.7", 64 * sys.grid.h, sys.grid.h, m=sys.m_inputs)
    x0 = np.sin(np.pi * sys.grid.nodes)
    states = run_states(sys, x0, u)
    np.testing.assert_array_equal(_outputs(sys.weights, sys.b_matrix, states[64:]),
                                  _outputs(sys.weights, sys.b_matrix, states[60:])[-1:])

    def supply(b, stack):
        y = np.concatenate([_outputs(sys.weights, b, stack[:64]),
                            _outputs(sys.weights, b, stack[64:])])
        return np.sum(np.real(u.values * np.conj(y)), axis=1)

    start = _start(sys, x0, u)
    basis_states = np.concatenate(list(_blocks(start, u)))
    audited = energy_audit(sys, x0, u).supply_rate
    np.testing.assert_array_equal(audited, supply(start[5], basis_states))
    nodal = supply(sys.b_matrix, states)
    if model == "heat":
        np.testing.assert_allclose(audited, nodal, rtol=0, atol=1e-14 * np.abs(nodal).max())
    else:
        np.testing.assert_array_equal(audited, nodal)


def test_output_adjoint_complex_states(grid101):
    rng = np.random.default_rng(11)
    n = grid101.n
    sys_c = assemble_custom(grid101, -np.eye(n),
                            b_matrix=rng.standard_normal((n, 2)))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y0 = _outputs(sys_c.weights, sys_c.b_matrix, free_run(sys_c, x, 0.02, 0.02))[0]
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


def test_boundary_trace_holds_no_trajectory():
    # n = 401, K = 3200: route one keeps a copy of node 0 from each block of
    # states, not the 10.3 MB of stacked states (0.66 MB measured)
    sys = assemble_transport(make_uniform_grid(401))
    x0 = np.sinh(1.0 - sys.grid.nodes)
    u = control_signal("ramp:0.5", 8.0, sys.grid.h)
    boundary_trace(sys, x0, control_signal("zero", 0.1, sys.grid.h))  # lazy imports
    tracemalloc.start()
    try:
        rep = boundary_trace(sys, x0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.from_trajectory.shape == (3201,) and rep.max_discrepancy <= 1e-10
    assert peak <= TRAJECTORY_BYTES / 10


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
