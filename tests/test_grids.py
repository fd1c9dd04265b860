import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdiss import (assemble_model, boundary_trace, closability_probe,
                    control_signal, dissipation_rate, form_r,
                    energy_audit, make_uniform_grid, q_identity_residual)
from phdiss.grids import Grid, GridError, as_state, norm_sq
from phdiss.semigroup import ControlSignal, SignalError, final_state, run_blocks
from phdiss.systems import AssemblyError, assemble_custom, graph_norm


def test_uniform_grid_basics():
    g = make_uniform_grid(11)
    assert g.n == 11
    assert g.h == pytest.approx(0.1)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert np.allclose(np.diff(g.nodes), g.h)


def test_trapezoid_weights():
    g = make_uniform_grid(11)
    assert g.weights[0] == pytest.approx(g.h / 2)
    assert g.weights[-1] == pytest.approx(g.h / 2)
    assert np.allclose(g.weights[1:-1], g.h)
    # weights integrate the constant 1 exactly
    assert g.weights.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, -5])
def test_too_small_grid_rejected(n):
    with pytest.raises(GridError):
        make_uniform_grid(n)


def test_non_integer_grid_size_rejected():
    with pytest.raises(GridError, match="must be an integer, got 10.0"):
        make_uniform_grid(10.0)


def test_grid_is_fixed_by_its_size():
    assert [f.name for f in dataclasses.fields(Grid) if f.init] == ["n"]
    for bad, message in ((10.0, "must be an integer"), (2, "at least 3 nodes")):
        with pytest.raises(GridError, match=message):
            Grid(bad)
    # 10^7 nodes would take 160 MB of nodes and weights: refused before either exists
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="MAX_OPERATOR_MB"):
            Grid(10**7)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [3, 4, 201, 2000])
def test_grid_fields_are_the_former_formulas_bit_for_bit(n):
    h = 1.0 / (n - 1)
    nodes = np.linspace(0.0, 1.0, n)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0
    for grid in (make_uniform_grid(n), Grid(n), Grid(np.int64(n))):
        assert type(grid.n) is int and grid.n == n
        assert grid.h == h
        assert np.array_equal(grid.nodes, nodes) and np.array_equal(grid.weights, weights)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.h = 0.5


def test_norm_sq_is_trapezoid_rule():
    # trapezoid is exact on linear integrands: ||sqrt(w)||^2 = int_0^1 w dw = 1/2
    g = make_uniform_grid(37)
    assert norm_sq(g.weights, np.sqrt(g.nodes)) == pytest.approx(0.5, abs=1e-14)
    assert np.sqrt(norm_sq(g.weights, np.ones(g.n))) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("complex_values", [False, True])
def test_norm_sq_of_a_stack_is_the_norm_of_each_row(complex_values):
    # one kernel for one state and for a stack of rows, bit for bit
    g = make_uniform_grid(41)
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((7, g.n))
    if complex_values:
        rows = rows + 1j * rng.standard_normal((7, g.n))
    stacked = norm_sq(g.weights, rows)
    assert stacked.shape == (7,)
    np.testing.assert_array_equal(stacked, [norm_sq(g.weights, x) for x in rows])
    ref = np.real(np.sum(g.weights * np.abs(rows) ** 2, axis=1))
    np.testing.assert_allclose(stacked, ref, rtol=1e-14)


def test_norm_converges_second_order():
    # ||exp(w)||^2 = (e^2 - 1) / 2; trapezoid error is O(h^2).  Needs a
    # non-periodic integrand: on periodic ones trapezoid is spectrally exact
    # and leaves nothing to measure.
    exact = (np.exp(2.0) - 1.0) / 2.0
    errs = []
    for n in (51, 101, 201):
        g = make_uniform_grid(n)
        errs.append(abs(norm_sq(g.weights, np.exp(g.nodes)) - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 < o < 2.2 for o in orders)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-10, 10, allow_nan=False))
def test_norm_homogeneous_and_triangle(seed, scale):
    g = make_uniform_grid(21)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(g.n)
    b = rng.standard_normal(g.n)

    def norm(x):
        return np.sqrt(norm_sq(g.weights, x))

    assert norm(scale * a) == pytest.approx(abs(scale) * norm(a), rel=1e-12, abs=1e-12)
    assert norm(a + b) <= norm(a) + norm(b) + 1e-12


def test_grid_mismatch_rejected():
    # a state sampled on an 11-node grid does not fit a 21-node routine
    with pytest.raises(GridError):
        as_state(np.ones(11), 21)


def test_as_state_returns_the_samples():
    x = np.arange(101.0)
    assert as_state(x, 101) is not x or np.shares_memory(as_state(x, 101), x)
    np.testing.assert_array_equal(as_state(x, 101), x)
    np.testing.assert_array_equal(as_state(list(x), 101), x)
    with pytest.raises(ValueError):
        as_state(np.ones(7), 101)


def test_as_state_shape_checked():
    with pytest.raises(GridError):
        as_state(np.ones((101, 1)), 101)
    with pytest.raises(GridError):
        as_state(np.ones(7), 101)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_as_state_rejects_non_finite(bad):
    x = np.ones(11, dtype=complex if isinstance(bad, complex) else float)
    x[4] = bad
    with pytest.raises(GridError, match="non-finite"):
        as_state(x, 11)


@pytest.mark.parametrize("build, error", [
    (lambda: as_state(np.array(["a", "b", "c"]), 3), GridError),
    (lambda: as_state(np.array([1.0, 2.0, 3.0], dtype=object), 3), GridError),
    (lambda: ControlSignal(1.0, np.array(["a", "b"])), SignalError),
    (lambda: assemble_custom(Grid(11), np.full((11, 11), "a")), AssemblyError),
    (lambda: assemble_custom(Grid(11), -np.eye(11), np.full(11, "a")), AssemblyError),
], ids=["str_state", "object_state", "str_control", "str_generator", "str_input_map"])
def test_non_numeric_input_raises_the_package_error(build, error):
    with pytest.raises(error, match="must hold numbers, got dtype"):
        build()


def _state_routes(system):
    """Every public routine that takes a state, as state -> call."""
    grid = system.grid
    u = control_signal("zero", 0.1, grid.h, m=system.m_inputs)
    ok = np.zeros(grid.n)
    return {
        "form_r": lambda x: form_r(system, x),
        "form_r_y": lambda x: form_r(system, ok, x),
        "dissipation_rate": lambda x: dissipation_rate(system, x),
        "q_identity_residual": lambda x: q_identity_residual(system, x),
        "run_blocks": lambda x: run_blocks(system, x, u),
        "energy_audit": lambda x: energy_audit(system, x, u),
        "final_state": lambda x: final_state(system, x, u),
        "boundary_trace": lambda x: boundary_trace(system, x, u),
        "graph_norm": lambda x: graph_norm(system, x),
        "closability_probe": lambda x: closability_probe(
            system, "custom", 2, custom=lambda k, w: x),
    }


def test_every_state_route_rejects_nan():
    system = assemble_model("transport", make_uniform_grid(21))
    x = np.sin(np.pi * system.grid.nodes)
    x[3] = np.nan
    for name, route in _state_routes(system).items():
        with pytest.raises(GridError, match="non-finite"):
            route(x)
        with pytest.raises(GridError):
            route(np.ones(system.n + 1))
    # no root was built on the way to the rejection
    assert "_m_factors" not in vars(system) and "q_sqrt_hat" not in vars(system)
