import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg as sla

from phdiss import assemble_model, grids, make_uniform_grid, systems
from phdiss.grids import Grid, GridError
from phdiss.semigroup import sine_basis, sine_spectrum
from phdiss.systems import (DAMPING, MAX_BAND, AssemblyError, DiscreteSystem, _band,
                            _probe_solve, assemble_custom, assemble_heat,
                            assemble_skew_damped, assemble_transport,
                            dissipativity_gap, graph_norm)

from conftest import MODELS, custom_complex_system, random_state


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
    gap, f_norm = dissipativity_gap(sys.f_matrix)
    assert abs(gap) <= 1e-12
    # F = diag(1/2, 0, ..., 0, 1/2)
    assert f_norm == pytest.approx(0.5, rel=1e-12)


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
    sys = assemble_skew_damped(g)
    w = np.diag(g.weights)
    j = sys.a_matrix + DAMPING * np.eye(g.n)
    np.testing.assert_allclose(w @ j + j.T @ w, 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_skew_damped_rate_is_damping_times_norm(systems101, seed):
    from phdiss import form_r
    sys = systems101["skew_damped"]
    x = random_state(sys.n, seed)
    nx2 = float(np.real(np.conj(x) @ (sys.weights * x)))
    assert form_r(sys, x) == pytest.approx(
        DAMPING * nx2, abs=1e-10 * max(1.0, nx2))


def _loop_generator(model: str, grid) -> np.ndarray:
    # the former entry-by-entry construction of each named generator, the
    # oracle of the stencil writes
    n, h = grid.n, grid.h
    a = np.zeros((n, n))
    if model == "transport":
        a[0, 0], a[0, 1] = -1.0 / h, 1.0 / h
        for i in range(1, n - 1):
            a[i, i - 1] = -1.0 / (2.0 * h)
            a[i, i + 1] = 1.0 / (2.0 * h)
        a[-1, -2], a[-1, -1] = -1.0 / h, 1.0 / h
        a[-1, -1] -= 2.0 / h
    elif model == "heat":
        for i in range(1, n - 1):
            a[i, i - 1] = 1.0 / h**2
            a[i, i] = -2.0 / h**2
            a[i, i + 1] = 1.0 / h**2
        a[1, 0] = 0.0
        a[-2, -1] = 0.0
        a[0, 0] = -2.0 / h**2
        a[-1, -1] = -2.0 / h**2
    else:
        c = np.zeros((n, n))
        for i in range(n):
            c[i, (i + 1) % n] += 1.0 / (2.0 * h)
            c[i, (i - 1) % n] -= 1.0 / (2.0 * h)
        w = grid.weights
        a = 0.5 * (c - (1.0 / w)[:, None] * (c.T * w[None, :]))
        a.flat[::n + 1] -= DAMPING
    return a


@pytest.mark.parametrize("n", [3, 4, 5, 21, 401])
@pytest.mark.parametrize("model", MODELS)
def test_stencil_generator_matches_the_loop_oracle(model, n):
    # same bits, zero signs included, in A and in F
    grid = make_uniform_grid(n)
    system = assemble_model(model, grid)
    a = _loop_generator(model, grid)
    f = -systems.herm_part_wa(a, grid.weights)
    for new, old in ((system.a_matrix, a), (system.f_matrix, f)):
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))


@pytest.mark.parametrize("model", MODELS)
def test_assembly_peaks_at_three_operators(model):
    # A, W A and its Hermitian part: the stencil writes hold no dense
    # difference matrix beside them
    n = 401
    grid = make_uniform_grid(n)
    assemble_model(model, make_uniform_grid(5))  # lazy imports, caches
    tracemalloc.start()
    try:
        assemble_model(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 8 * n**2


def test_custom_rejects_non_dissipative():
    g = make_uniform_grid(5)
    with pytest.raises(AssemblyError):
        assemble_custom(g, np.eye(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_rejects_non_finite_generator(bad):
    # refused before any product or eigensolve touches it
    g = make_uniform_grid(5)
    a = -np.eye(5)
    a[1, 2] = bad
    with pytest.raises(AssemblyError, match="non-finite"):
        assemble_custom(g, a)


def test_custom_rejects_a_generator_of_another_size():
    with pytest.raises(AssemblyError, match=r"shape \(4, 4\) does not match grid size 5"):
        assemble_custom(make_uniform_grid(5), -np.eye(4))


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


def test_callable_profile_shape_checked():
    # a function of the nodes with the wrong length meets the system's shape
    # check, not a bare reshape error
    with pytest.raises(AssemblyError, match=r"input map has shape \(7, 1\), grid has 11"):
        assemble_transport(make_uniform_grid(11), input_profile=lambda w: np.ones(7))


def test_integer_parts_are_kept_as_float():
    g = make_uniform_grid(5)
    sys = assemble_custom(g, -np.eye(5, dtype=int), b_matrix=np.ones(5, dtype=bool))
    assert (sys.a_matrix.dtype, sys.b_matrix.dtype) == (np.float64, np.float64)
    np.testing.assert_array_equal(sys.a_matrix, -np.eye(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("form", ["array", "callable"])
def test_input_map_rejects_non_finite(bad, form):
    # refused at assembly, before any product reads the map
    g = make_uniform_grid(5)
    col = np.ones(5)
    col[2] = bad
    profile = col if form == "array" else (lambda w: col)
    with pytest.raises(AssemblyError, match="non-finite"):
        assemble_custom(g, -np.eye(5), b_matrix=profile)
    with pytest.raises(AssemblyError, match="non-finite"):
        assemble_transport(g, input_profile=profile)


def test_complex_input_map_stays_complex():
    g = make_uniform_grid(5)
    sys = assemble_custom(g, -np.eye(5) + 0j, b_matrix=1j * np.ones((5, 1)))
    np.testing.assert_array_equal(sys.b_matrix, 1j * np.ones((5, 1)))
    heat = assemble_heat(g, input_profile=lambda w: np.exp(1j * w))
    np.testing.assert_array_equal(heat.b_matrix[:, 0], np.exp(1j * g.nodes))


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


@pytest.mark.parametrize("n, shift", [(401, 12.0), (801, 15.0)])
def test_custom_rejects_shifted_heat(n, shift):
    # heat + shift * I is anti-dissipative on its smooth modes (r[sin pi w]
    # < 0) by a gap of about 5e-3; the tolerance scales with ||F||_2, not
    # with ||A||_2 ~ 1/h^2, so fine grids do not let it through
    g = make_uniform_grid(n)
    a = assemble_heat(g).a_matrix + shift * np.identity(n)
    with pytest.raises(AssemblyError, match="not dissipative"):
        assemble_custom(g, a)


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped", "custom"])
def test_assembly_makes_one_eigensolve(monkeypatch, model):
    # the gate reads the stored F: one Hermitian part, then its band decides:
    # a diagonal or tridiagonal F takes one banded solve, and only a dense
    # custom F the dense eigvalsh
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("eigvalsh", "eigvals_banded"):
        monkeypatch.setattr(sla, name, counting(name, getattr(sla, name)))
    monkeypatch.setattr(systems, "herm_part_wa",
                        counting("herm_part_wa", systems.herm_part_wa))
    if model == "custom":
        custom_complex_system(41)
    else:
        assemble_model(model, make_uniform_grid(41))
    solves = ["eigvalsh"] if model == "custom" else ["eigvals_banded"]
    assert sorted(calls) == sorted(solves + ["herm_part_wa"])


def _band_hermitian(rng, n, kd, complex_values):
    f = np.zeros((n, n), dtype=complex if complex_values else float)
    for i in range(kd + 1):
        d = rng.standard_normal(n - i)
        if complex_values and i > 0:
            d = d + 1j * rng.standard_normal(n - i)
        f += np.diag(d, -i)
    return f + np.tril(f, -1).conj().T


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 60),
       kd=st.sampled_from([0, 1, 2, 5]), complex_values=st.booleans())
def test_band_gap_matches_dense_eigvalsh(seed, n, kd, complex_values):
    f = _band_hermitian(np.random.default_rng(seed), n, kd, complex_values)
    assert max(sla.bandwidth(f)) <= kd
    eigs = np.linalg.eigvalsh(f)
    gap, f_norm = dissipativity_gap(f)
    scale = np.abs(eigs).max()
    assert gap == pytest.approx(-eigs[0], abs=1e-13 * scale)
    assert f_norm == pytest.approx(max(-eigs[0], eigs[-1]), abs=1e-13 * scale)


@pytest.mark.parametrize("lower, upper", [(0, 0), (1, 1), (2, 0), (0, 3), (3, 1)])
def test_band_storage_is_lapack_layout(lower, upper):
    # ab[upper + i - j, j] = a[i, j] inside the band and zero in the unused
    # corners; with upper = 0 that is eigvals_banded's lower layout, one
    # sub-diagonal per row
    n = 9
    rng = np.random.default_rng(lower + 4 * upper)
    a = np.triu(np.tril(rng.standard_normal((n, n)), upper), -lower)
    ab = _band(a, lower, upper)
    want = np.zeros((lower + upper + 1, n))
    for i in range(n):
        for j in range(max(0, i - lower), min(n, i + upper + 1)):
            want[upper + i - j, j] = a[i, j]
    np.testing.assert_array_equal(ab, want)
    if upper == 0:
        gate = np.zeros((lower + 1, n))
        for i in range(lower + 1):
            gate[i, :n - i] = np.diagonal(a, -i)
        np.testing.assert_array_equal(ab, gate)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(MAX_BAND + 3, 60),
       band=st.sampled_from([(1, 1), (0, 2), (3, 1)]), corners=st.booleans(),
       complex_values=st.booleans())
def test_probe_solve_matches_dense_solve(seed, n, band, corners, complex_values):
    # a random dissipative generator, W A = M - c I with M of the given
    # (lower, upper) band and c above Herm(M)'s top eigenvalue: tridiagonal
    # or lopsided, which takes the banded branch, or with periodic corners,
    # whose band is n - 1 and takes the dense one
    rng = np.random.default_rng(seed)
    grid = make_uniform_grid(n)
    draw = (lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if complex_values else rng.standard_normal(shape))
    m = np.triu(np.tril(draw(n, n), band[1]), -band[0])
    if corners:
        m[0, -1], m[-1, 0] = draw(2)
    c = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1] + rng.uniform(0.0, 2.0)
    sys = assemble_custom(grid, (m - c * np.identity(n)) / grid.weights[:, None])
    w, rhs = grid.weights, draw(n, 3)
    shifted = np.sqrt(w)[:, None] * sys.a_matrix / np.sqrt(w) - np.identity(n)
    want = np.linalg.solve(shifted, rhs)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("solve_banded", "solve"):
            def counted(*args, _fn=getattr(sla, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            mp.setattr(sla, name, counted)
        got = _probe_solve(sys.a_matrix, w, rhs)
    assert calls == ["solve" if corners else "solve_banded"]
    # round-off: the backward-stable bound, relative to the solution
    tol = n * np.finfo(float).eps * np.linalg.cond(shifted)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("n", [21, 201, 801])
def test_heat_probe_root_matches_dense_root(n):
    # the dense solve-and-eigh root against heat's closed form: A = S diag(lambda) S
    # with S = sine_basis, and W^{1/2} A W^{-1/2} = A since the boundary nodes are
    # decoupled, so the probe core is S diag((1 - lambda)^{-1/2}) S
    grid = make_uniform_grid(n)
    closed = sine_basis(np.identity(n))
    closed *= (1.0 - sine_spectrum(grid)) ** -0.5
    sine_basis(closed)
    np.testing.assert_allclose(assemble_heat(grid).q_sqrt_hat, closed, rtol=0, atol=1e-13)


def test_oversized_grid_refused_before_allocating():
    # a 50,000-node grid would need 20 GB per n x n operator: the Grid itself
    # refuses it before its nodes exist, so no assembler is ever handed one
    n = 50_000
    tracemalloc.start()
    try:
        for build in (Grid, make_uniform_grid):
            with pytest.raises(GridError, match="MAX_OPERATOR_MB"):
                build(n)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


_FAULTS = ("non_dissipative", "nan_a", "inf_b", "object_a", "a_too_big", "a_wide",
           "b_flat", "b_short")


def _faulty_parts(system, fault, i, j, scale):
    # A and B of a good system with one fault injected at (i, j) or of size scale
    n, a, b = system.n, system.a_matrix.copy(), system.b_matrix.copy()
    if fault == "non_dissipative":
        a *= -scale  # F becomes -scale * F, whose smallest eigenvalue is < 0
    elif fault == "nan_a":
        a[i, j] = np.nan
    elif fault == "inf_b":
        b[i, 0] = -np.inf
    elif fault == "object_a":
        a = a.astype(object)
    elif fault == "a_too_big":
        a = np.identity(n + 1)
    elif fault == "a_wide":
        a = a[:, :-1]
    elif fault == "b_flat":
        b = b[:, 0]
    else:
        b = b[:-1]
    return a, b


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), n=st.integers(3, 40), fault=st.sampled_from(_FAULTS),
       i=st.integers(0, 10**6), j=st.integers(0, 10**6), scale=st.floats(0.5, 100.0))
def test_direct_system_with_a_fault_is_refused(model, n, fault, i, j, scale):
    # a DiscreteSystem built directly checks itself as an assembled one does
    system = assemble_model(model, make_uniform_grid(n))
    a, b = _faulty_parts(system, fault, i % n, j % n, scale)
    with pytest.raises(AssemblyError):
        DiscreteSystem(system.grid, a, b, model)
    # the same parts without the fault build, and form the assembled F
    rebuilt = DiscreteSystem(system.grid, system.a_matrix, system.b_matrix, model)
    assert np.array_equal(rebuilt.f_matrix, system.f_matrix)


def test_direct_system_fields():
    init = [f.name for f in dataclasses.fields(DiscreteSystem) if f.init]
    assert init == ["grid", "a_matrix", "b_matrix", "model_tag"]


def test_registry_row_is_assembler_and_step_route():
    assert [f.name for f in dataclasses.fields(systems.Model)] == ["assemble", "step"]
    assert {tag: row.step for tag, row in systems.MODELS.items()} == {
        "transport": "shift", "heat": "sine", "skew_damped": "expm"}


def test_operator_budget_is_the_module_constant(monkeypatch):
    # exercised on a small budget, so no test allocates near the real one:
    # 21 nodes take 3.5 kB per operator, 41 nodes 13.4 kB
    monkeypatch.setattr(grids, "MAX_OPERATOR_MB", 0.01)
    assert assemble_model("heat", make_uniform_grid(21)).n == 21
    with pytest.raises(GridError, match="MAX_OPERATOR_MB"):
        assemble_model("heat", make_uniform_grid(41))


def test_operator_budget_admits_the_largest_grid():
    assert 8 * 1601**2 / 1e6 <= grids.MAX_OPERATOR_MB
