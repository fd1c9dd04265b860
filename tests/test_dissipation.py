import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phdiss.grids
import phdiss.semigroup
import phdiss.systems
from phdiss import (assemble_custom, assemble_model, control_signal,
                    dissipation_rate, energy_audit, form_r, initial_state,
                    make_uniform_grid, q_identity_residual, rt_bound_check)
from phdiss.dissipation import (_input_norm, _q_identity_rows, cumulative_parabolic,
                                cumulative_trapezoid)
from phdiss.grids import norm_sq
from phdiss.linalg import NotPSDError
from phdiss.systems import (AssemblyError, DiscreteSystem, _dense, _probe_solve,
                            assemble_heat, assemble_skew_damped, assemble_transport,
                            form_bands, graph_gram, graph_norm)

from conftest import (MODELS, custom_complex_system, dense_form, free_control,
                      periodic_bands, random_state, run_states)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_transport_form_is_boundary_trace(systems101, seed):
    # W A + A^T W collapses exactly, so r[x] = (x(0)^2 + x(1)^2) / 2
    x = random_state(101, seed)
    r = form_r(systems101["transport"], x)
    assert r == pytest.approx(0.5 * (x[0] ** 2 + x[-1] ** 2), abs=1e-12)


def test_transport_form_exact_for_all_sizes():
    # consequence: no spatial error at all for the boundary functional
    for n in (101, 201, 401):
        g = make_uniform_grid(n)
        sys = assemble_model("transport", g)
        x = np.sinh(1.0 - g.nodes)
        assert abs(form_r(sys, x) - 0.5 * np.sinh(1.0) ** 2) <= 1e-13


def test_heat_rate_of_sine_mode():
    # r[sin(pi w)] = ||(sin(pi w))'||^2 = pi^2 / 2
    sys = assemble_model("heat", make_uniform_grid(201))
    x = np.sin(np.pi * sys.grid.nodes)
    ref = np.pi**2 / 2
    assert form_r(sys, x) == pytest.approx(ref, rel=0.01)
    assert dissipation_rate(sys, x) == pytest.approx(ref, rel=0.01)


def test_transport_rate_of_sinh_state():
    sys = assemble_model("transport", make_uniform_grid(201))
    x = np.sinh(1.0 - sys.grid.nodes)
    assert dissipation_rate(sys, x) == pytest.approx(0.5 * np.sinh(1.0) ** 2,
                                                    rel=0.05)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_form_nonnegative_and_zero_at_zero(systems101, seed, model):
    sys = systems101[model]
    assert form_r(sys, np.zeros(101)) == 0.0
    assert form_r(sys, random_state(101, seed)) >= -1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_form_conjugate_symmetry(systems101, seed, model):
    sys = systems101[model]
    x = random_state(101, seed, complex_values=True)
    y = random_state(101, seed + 1, complex_values=True)
    # roundoff scales with |r|, which reaches ~1e3 on the stiff model
    assert form_r(sys, x, y) == pytest.approx(np.conj(form_r(sys, y, x)),
                                              rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_rate_identity_raw_states(systems101, seed, model):
    # relative accuracy at roundoff level even for unnormalized states
    sys = systems101[model]
    x = random_state(101, seed)
    r = form_r(sys, x)
    assert dissipation_rate(sys, x) == pytest.approx(r, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_q_identity_rows_hold_on_random_states(systems101, seed, model):
    sys = systems101[model]
    x = random_state(101, seed)
    assert _q_identity_rows(sys, x[None, :])[0] <= 1e-10


def test_q_identity_heat_sine_absolute():
    sys = assemble_model("heat", make_uniform_grid(201))
    x = np.sin(3 * np.pi * sys.grid.nodes)
    assert q_identity_residual(sys, x) < 1e-9


def test_scalar_generator_meets_every_identity():
    # A = -I, the scalar -1 at every node: Q = I / 2, and with ||x|| = 1
    # both identities hold exactly
    sys = assemble_custom(make_uniform_grid(3), -np.eye(3))
    # W^{1/2} Q W^{-1/2} = Q = I / 2 as well
    np.testing.assert_allclose(sys.q_sqrt_hat, np.eye(3) / np.sqrt(2.0), atol=1e-14)
    x = np.ones(3)
    assert form_r(sys, x) == pytest.approx(1.0, abs=1e-14)
    assert dissipation_rate(sys, x) == pytest.approx(1.0, abs=1e-12)
    assert q_identity_residual(sys, x) <= 1e-13


@pytest.mark.parametrize("model", MODELS)
def test_assembly_forms_g_and_f_once(systems101, model, monkeypatch):
    # F is -Herm(W A), bit for bit, and the system is its only holder, as
    # its own bands: heat's three, the one diagonal band of the others; G is
    # not formed at assembly at all
    sys = systems101[model]
    assert np.array_equal(_dense(sys.f_bands), dense_form(_dense(sys.a_bands), sys.weights))
    monkeypatch.setattr(phdiss.systems, "graph_gram", None)  # any call fails
    width = 3 if model == "heat" else 1
    assert assemble_model(model, sys.grid).f_bands.shape == (width, sys.n)


def test_system_builds_roots_on_first_read():
    sys = assemble_model("heat", make_uniform_grid(101))
    assert set(vars(sys)) == {f.name for f in dataclasses.fields(sys)}
    core = sys.m_sqrt_hat
    assert sys.m_sqrt_hat is core and sys.g_chol is sys.g_chol
    assert "q_sqrt_hat" not in vars(sys)
    assert sys.q_sqrt_hat is sys.q_sqrt_hat
    # the system keeps the roots, not the G and Q they were taken from
    assert not {"g_gram", "q_matrix"} & set(vars(sys))
    assert not hasattr(sys, "g_gram") and not hasattr(sys, "q_matrix")


def test_system_root_failures_surface_on_first_read():
    # A = I is not dissipative, so the constructor refuses it; built past the
    # constructor, the system exists and each root read fails
    grid = make_uniform_grid(3)
    a, w = np.eye(3), grid.weights
    with pytest.raises(AssemblyError, match="not dissipative"):
        DiscreteSystem(grid, a, np.ones((3, 1)))
    sys = object.__new__(DiscreteSystem)
    a_bands = periodic_bands(a, 1)
    vars(sys).update(grid=grid, a_bands=a_bands, b_matrix=np.ones((3, 1)),
                     model_tag="custom", f_bands=form_bands(a_bands, w))
    np.testing.assert_array_equal(_dense(sys.f_bands), -np.diag(w))
    with pytest.raises(NotPSDError):
        sys.m_sqrt_hat
    with pytest.raises(np.linalg.LinAlgError):  # A - I is singular
        sys.q_sqrt_hat


def test_cumulative_trapezoid_linear_exact():
    dt = 0.1
    t = np.arange(11) * dt
    out = cumulative_trapezoid(3.0 * t, dt)
    np.testing.assert_allclose(out, 1.5 * t**2, atol=1e-14)


def test_cumulative_parabolic_quadratic_exact():
    dt = 0.05
    t = np.arange(21) * dt
    out = cumulative_parabolic(t**2, dt)
    np.testing.assert_allclose(out, t**3 / 3.0, atol=1e-13)


def test_cumulative_parabolic_third_order():
    def total_err(k):
        t = np.linspace(0.0, 1.0, k + 1)
        out = cumulative_parabolic(np.sin(t), t[1])
        return np.max(np.abs(out - (1.0 - np.cos(t))))

    e1, e2 = total_err(100), total_err(200)
    assert 2.5 < np.log2(e1 / e2) < 3.5


def test_cumulative_edge_sizes():
    assert cumulative_parabolic(np.array([1.0]), 0.1)[0] == 0.0
    np.testing.assert_allclose(cumulative_parabolic(np.array([1.0, 1.0]), 0.1),
                               [0.0, 0.1])


def test_audit_zero_run_all_zero(systems101):
    sys = systems101["transport"]
    led = energy_audit(sys, np.zeros(101), free_control(sys, 0.1, sys.grid.h))
    for col in (led.hamiltonian, led.supply_rate, led.dissipation_rate,
                led.supplied, led.dissipated, led.residuals):
        np.testing.assert_array_equal(col, 0.0)


def test_ledger_residual_telescopes(systems101):
    sys = systems101["heat"]
    x0 = np.sin(np.pi * sys.grid.nodes)
    led = energy_audit(sys, x0, free_control(sys, 0.1, 1e-3))
    recon = led.hamiltonian - led.hamiltonian[0] - led.supplied + led.dissipated
    np.testing.assert_allclose(led.residuals, recon, atol=1e-15)
    assert led.residual == led.residuals[-1]


@pytest.mark.parametrize("model,x0_name,dt", [
    ("transport", "sinh", None),
    ("heat", "sine", 1e-3),
    ("skew_damped", "sine", 2e-3),
])
def test_dissipated_monotone_on_classical_runs(model, x0_name, dt,
                                               systems101):
    sys = systems101[model]
    g = sys.grid
    x0 = np.sinh(1.0 - g.nodes) if x0_name == "sinh" else np.sin(np.pi * g.nodes)
    led = energy_audit(sys, x0, free_control(sys, 0.2, dt or g.h))
    assert np.all(np.diff(led.dissipated) >= -1e-12)


@pytest.mark.parametrize("model", MODELS + ("custom",))
def test_audit_rate_matches_form_r(model, systems101):
    # K + 1 = 251 rows against n = 101 (26 against n = 21 for custom), so
    # the rates span full row blocks and a partial last one
    if model == "custom":
        sys = custom_complex_system()
        x0 = random_state(sys.n, 3, complex_values=True)
        u = free_control(sys, 0.25, 1e-2)
    else:
        sys = systems101[model]
        dt = 1e-3 if model == "heat" else sys.grid.h
        x0 = random_state(101, 3)
        u = free_control(sys, 250 * dt, dt)
    states = run_states(sys, x0, u)
    assert states.shape[0] > sys.n and states.shape[0] % sys.n != 0
    rate = energy_audit(sys, x0, u).dissipation_rate
    ref = np.array([form_r(sys, x) for x in states])
    np.testing.assert_allclose(rate, ref, rtol=1e-12, atol=1e-14 * ref.max())
    if model == "transport":
        np.testing.assert_array_equal(
            rate, (states[:, 0] ** 2 + states[:, -1] ** 2) / 2)


@pytest.mark.parametrize("model", MODELS)
def test_audit_places_each_block_by_its_own_rows(model, monkeypatch):
    # K + 1 = 201 rows: with the rows rule patched, the stepping loop hands out blocks
    # of 1, 4, 5 or 63 rows, and the audit places each after the last, so H, the rate
    # and x(T) keep their bits. The supply's gemv sums in groups of 4 rows, so it may
    # move at round-off when a block's row count is not a multiple of 4, which the
    # rule's never is
    sys = assemble_model(model, make_uniform_grid(201))
    x0 = initial_state(sys.grid, "sine:1")
    u = control_signal("const:0.5", 200 * sys.grid.h, sys.grid.h, m=sys.m_inputs)
    want = energy_audit(sys, x0, u)
    for rows in (1, 4, 5, 63):
        monkeypatch.setattr(phdiss.semigroup, "block_rows", lambda n, itemsize=8: rows)
        got = energy_audit(sys, x0, u)
        for name in ("hamiltonian", "dissipation_rate", "final_state"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (rows, name)
        np.testing.assert_allclose(got.supply_rate, want.supply_rate, rtol=0,
                                   atol=1e-15 * np.abs(want.supply_rate).max())
        if rows % 4 == 0:
            assert got.supply_rate.tobytes() == want.supply_rate.tobytes()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("model", MODELS)
def test_ledger_keeps_its_bits_under_any_byte_budget(model, m, monkeypatch):
    # n = 401, K = 404: 128 KiB gives blocks of 40 rows, the last of 5, and no budget
    # gives 4 rows, the last of 1. Every ledger column keeps its bits for two inputs
    # as for one: the loop's B u and the supply's gemv go one input at a time
    grid = make_uniform_grid(401)
    profile = None if m == 1 else (lambda w: np.column_stack((np.ones_like(w), np.cos(w))))
    sys = getattr(phdiss.systems, f"assemble_{model}")(grid, profile)
    x0 = initial_state(grid, "sinh_bc" if model == "transport" else "sine:1")
    u = control_signal("ramp:0.7", 404 * grid.h, grid.h, m=m)
    assert u.values.shape == (405, m) and phdiss.grids.block_rows(401) == 40
    want = energy_audit(sys, x0, u)
    monkeypatch.setattr(phdiss.grids, "BLOCK_BYTES", 0)
    assert phdiss.grids.block_rows(401) == 4
    got = energy_audit(sys, x0, u)
    for name in ("hamiltonian", "supply_rate", "dissipation_rate", "supplied", "dissipated",
                 "residuals", "final_state"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("model", MODELS)
def test_probe_operator_is_folded_once_per_system(model, monkeypatch):
    # q_check's draws in five blocks at n = 801, then the Q root: every solve
    # reads I - W^{1/2} A W^{-1/2} folded once, on the first block
    sys = assemble_model(model, make_uniform_grid(801))
    folds = []

    def counted(bands, _fold=phdiss.systems._lapack_band):
        folds.append(bands.shape)
        return _fold(bands)

    monkeypatch.setattr(phdiss.systems, "_lapack_band", counted)
    rows = phdiss.grids.block_rows(sys.n)
    states = _runner_draw(sys, model)
    assert -(-100 // rows) == 5
    worst = max(_q_identity_rows(sys, states[i:i + rows]).max() for i in range(0, 100, rows))
    assert worst <= 1e-10 and len(folds) == 1
    assert sys.q_sqrt_hat.shape == (801, 801) and len(folds) == 1


def _q_scaled_loop(sys, x):
    # the probe identity of one state, one mat-vec at a time
    w = sys.weights
    # ||Q^{1/2} y||_W = ||q_sqrt_hat sqrt(w) y||
    z = sys.q_sqrt_hat @ (np.sqrt(w) * (_dense(sys.a_bands) @ x - x))
    rhs = norm_sq(w, x) + form_r(sys, x)
    graph_sq = float(np.real(np.conj(x) @ (graph_gram(_dense(sys.a_bands), w) @ x)))
    return abs(norm_sq(np.ones(sys.n), z) - rhs) / (1.0 + graph_sq)


def _runner_draw(sys, model):
    # the 100 states of the runner's q_check, real + 1j * imag for a complex
    # generator
    rng = np.random.default_rng(20250819)
    if model == "custom":
        draw = rng.standard_normal((100, 2, sys.n))
        return draw[:, 0] + 1j * draw[:, 1]
    return rng.standard_normal((100, sys.n))


@pytest.mark.parametrize("model", MODELS + ("custom",))
def test_q_rows_match_per_state_identity(model):
    # a fresh system: the test replaces its form matrix below
    sys = (custom_complex_system() if model == "custom"
           else assemble_model(model, make_uniform_grid(101)))
    states = _runner_draw(sys, model)
    # with the true F and root every residual is round-off noise, so only
    # its size is comparable between the routes
    stacked = _q_identity_rows(sys, states)
    assert stacked.shape == (100,)
    assert float(np.max(stacked)) <= 1e-10
    assert max(_q_scaled_loop(sys, x) for x in states) <= 1e-10
    # a wrong F breaks the identity at order one, and there the stacked
    # (solve) and per-state (root) values must agree row by row: F + 2 G
    # adds twice the graph norm ||x||^2 + ||Ax||^2 > 1 to every rate
    sys.f_bands = periodic_bands(
        _dense(sys.f_bands) + 2.0 * graph_gram(_dense(sys.a_bands), sys.weights), sys.n // 2)
    stacked = _q_identity_rows(sys, states)
    assert float(np.min(stacked)) > 1.0
    loop = np.array([_q_scaled_loop(sys, x) for x in states])
    np.testing.assert_allclose(stacked, loop, rtol=1e-10)
    single = np.array([_q_identity_rows(sys, x[None, :])[0] for x in states])
    np.testing.assert_allclose(stacked, single, rtol=1e-10)


@pytest.mark.parametrize("n", [21, 101, 401])
@pytest.mark.parametrize("model", MODELS + ("custom",))
def test_probe_root_and_solve_routes_agree(model, n):
    # ||Q^{1/2} y||_W^2 = z^H Q_hat z with z = sqrt(w) y, y = (A - I) x, two
    # ways: ||q_sqrt_hat z||^2 through the root, and Re z^H (I - A_hat)^{-1} z
    # through the solve that q_check takes
    sys = (custom_complex_system(n) if model == "custom"
           else assemble_model(model, make_uniform_grid(n)))
    states, w = _runner_draw(sys, model), sys.weights
    z = (states @ _dense(sys.a_bands).T - states) * np.sqrt(w)
    root = z @ sys.q_sqrt_hat.T
    by_root = np.einsum("ij,ij->i", root.conj(), root).real
    by_solve = np.einsum("ij,ji->i", z.conj(), _probe_solve(sys, z.T)).real
    # the routes agree to 1e-12 of the value, or to the root's own round-off,
    # its backward error eps ||Q_hat|| <= eps times ||z||^2: on these rough
    # states ||z||^2 ~ ||Ax||^2 grows like n^2, and on transport and
    # skew_damped at n = 401 that reaches 1.4e-12 of the value
    z_sq = np.einsum("ij,ij->i", z.conj(), z).real
    tol = np.maximum(1e-12 * by_solve, np.finfo(float).eps * z_sq)
    assert np.all(np.abs(by_root - by_solve) <= tol)


@pytest.mark.parametrize("model", MODELS + ("custom",))
def test_wrong_probe_root_breaks_q_identity_residual(model):
    # q_identity_residual reads the root, so the root it reads is what it
    # checks: a wrong one breaks the identity at order one
    sys = (custom_complex_system(101) if model == "custom"
           else assemble_model(model, make_uniform_grid(101)))
    states = _runner_draw(sys, model)[:10]
    scales = 1.0 + np.array([graph_norm(sys, x) ** 2 for x in states])
    true = np.array([q_identity_residual(sys, x) for x in states])
    assert np.all(true <= 1e-10 * scales)
    sys.q_sqrt_hat = np.random.default_rng(11).standard_normal((sys.n, sys.n))
    wrong = np.array([q_identity_residual(sys, x) for x in states])
    assert np.all(wrong > scales)


@pytest.mark.parametrize("assemble", [assemble_transport, assemble_heat,
                                      assemble_skew_damped])
def test_complex_input_map_audits_like_real(assemble):
    # from x0 = 0 the states under i b are i times those under b, and the
    # output (i B)^* x is unchanged: the same supply, rates and bound
    g = make_uniform_grid(41)
    b = np.cos(2.0 * g.nodes) + g.nodes
    u = control_signal("ramp:1.5", 0.5, g.h)
    x0 = np.zeros(g.n)
    ledgers = []
    for profile in (b, 1j * b):
        sys = assemble(g, input_profile=profile)
        ledgers.append(energy_audit(sys, x0, u))
    real, cplx = ledgers
    assert real.supplied_total > 0.0
    assert cplx.supplied_total == pytest.approx(real.supplied_total, rel=1e-12)
    assert cplx.dissipated_total == pytest.approx(real.dissipated_total, rel=1e-12)
    np.testing.assert_allclose(cplx.dissipation_rate, real.dissipation_rate,
                               rtol=1e-12, atol=1e-15)
    bound = [rt_bound_check(assemble(g, input_profile=p), led)
             for p, led in ((b, real), (1j * b, cplx))]
    assert bound[1].b_norm == pytest.approx(bound[0].b_norm, rel=1e-12)
    assert bound[1].rhs == pytest.approx(bound[0].rhs, rel=1e-12)


def test_rt_bound_zero_data(systems101):
    sys = systems101["transport"]
    u = control_signal("zero", 0.5, sys.grid.h)
    x0 = np.zeros(101)
    led = energy_audit(sys, x0, u)
    rep = rt_bound_check(sys, led)
    assert rep.ok
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)


def test_rt_bound_reports_norms(systems101):
    sys = systems101["transport"]
    u = control_signal("const:1.0", 0.5, sys.grid.h)
    x0 = np.ones(101)
    led = energy_audit(sys, x0, u)
    rep = rt_bound_check(sys, led)
    assert rep.x0_norm == pytest.approx(1.0, abs=1e-12)
    assert rep.u_norm == pytest.approx(np.sqrt(0.5), rel=1e-10)
    assert rep.b_norm == pytest.approx(1.0, rel=1e-10)
    assert rep.t_final == 0.5


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 80), m=st.integers(0, 3),
       complex_b=st.booleans(), scale=st.sampled_from([1e-30, 1.0, 1e30]))
def test_input_norm_matches_the_svd(seed, n, m, complex_b, scale):
    # ||W^{1/2} B||_2 from a pairwise sum (one input) or an m x m eigvalsh
    # (more): a few ulps from numpy's SVD, 4.8 at worst over 20,000 draws
    rng = np.random.default_rng(seed)
    w = make_uniform_grid(n).weights
    b = scale * rng.standard_normal((n, m))
    if complex_b:
        b = b + 1j * scale * rng.standard_normal((n, m))
    rtol = 16 * np.finfo(b.dtype).eps
    svd = np.linalg.norm(np.sqrt(w)[:, None] * b, 2)
    assert _input_norm(w, b) == pytest.approx(svd, rel=rtol, abs=0.0)


@pytest.mark.parametrize("n", [3, 21, 801, 100_001])
def test_input_norm_of_the_default_input_is_within_one_ulp(n):
    # ||1||_W = 1; a sequential einsum reads 1 - 8e-15 at n = 801
    w = make_uniform_grid(n).weights
    b = np.ones((n, 1))
    svd = np.linalg.norm(np.sqrt(w)[:, None] * b, 2)
    assert abs(_input_norm(w, b) - svd) <= np.spacing(svd)
    assert abs(_input_norm(w, b) - 1.0) <= np.spacing(1.0)


def test_residual_second_order_envelope():
    # classical free runs: the balance residual behaves like O(dt^2);
    # the heat sine propagator shows the scaling cleanly, the exact shift
    # adds an O(h^2) spatial floor that stays under the dt^2 envelope
    sys = assemble_model("heat", make_uniform_grid(101))
    x0 = np.sin(np.pi * sys.grid.nodes)
    res = []
    for dt in (4e-3, 2e-3, 1e-3):
        res.append(abs(energy_audit(sys, x0, free_control(sys, 0.2, dt)).residual))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders)

    sys_t = assemble_model("transport", make_uniform_grid(1001))
    x0_t = np.sinh(1.0 - sys_t.grid.nodes)
    for q in (4, 2, 1):
        dt = q * sys_t.grid.h
        assert abs(energy_audit(sys_t, x0_t, free_control(sys_t, 0.5, dt)).residual) <= 0.5 * dt**2


def test_transport_rate_or_graph_functions_exact():
    # for smooth states with x(1) = 0 the semidiscrete rate needs no
    # h -> 0 limit at all: the discrete form already is the trace value
    for n in (101, 201, 401):
        g = make_uniform_grid(n)
        sys = assemble_model("transport", g)
        x = (1.0 - g.nodes) ** 3
        assert abs(form_r(sys, x) - 0.5) <= 1e-13
