import tracemalloc

import numpy as np
import pytest

from phdiss import (GridError, assemble_model, closability_probe, form_r,
                    make_uniform_grid, refinement_study)
from phdiss.probes import (VERDICT_CLOSABLE, VERDICT_NON_CLOSABLE,
                           VERDICT_PREMISE, probe_states)


def test_probe_state_families(grid101):
    states = probe_states("power", grid101, 4)
    assert len(states) == 4
    np.testing.assert_allclose(states[2], (1.0 - grid101.nodes) ** 3)
    states = probe_states("scaled_sine", grid101, 3)
    np.testing.assert_allclose(
        states[1], np.sin(2 * np.pi * grid101.nodes) / np.sqrt(2.0))
    custom = probe_states("ignored", grid101, 2,
                          custom=lambda n, w: n * np.ones_like(w))
    np.testing.assert_array_equal(custom[1], 2.0 * np.ones(101))
    assert states.shape == (3, 101) and custom.shape == (2, 101)


def test_custom_probe_rows_are_states(grid101):
    # every row passes as_state; the array takes the first row's type, so
    # integer rows become float and a complex row after a real one is refused
    ints = probe_states("power", grid101, 2, custom=lambda n, w: np.full(w.size, n))
    assert ints.dtype == float and ints[1, 0] == 2.0
    with pytest.raises(GridError, match="non-finite"):
        probe_states("power", grid101, 3, custom=lambda n, w: w if n < 3 else w * np.nan)
    with pytest.raises(GridError, match="expected 101 samples"):
        probe_states("power", grid101, 2, custom=lambda n, w: w[:-n])
    with pytest.raises(TypeError, match="same_kind"):
        probe_states("power", grid101, 2, custom=lambda n, w: w * (1j if n == 2 else 1))


def test_unknown_sequence_rejected(grid101):
    with pytest.raises(ValueError):
        probe_states("cosine", grid101, 4)


def test_probe_needs_two_states(systems101):
    with pytest.raises(ValueError):
        closability_probe(systems101["transport"], "power", n_max=1)


def test_transport_power_probe_values():
    sys = assemble_model("transport", make_uniform_grid(401))
    rep = closability_probe(sys, "power", 8)
    # ||x_n|| = (2n+1)^{-1/2}: spot value from the closed form
    assert rep.norms[3] == pytest.approx(1.0 / 3.0, abs=1e-3)
    # r[x_n] = x_n(0)^2 / 2 = 1/2 exactly, pairwise differences vanish
    np.testing.assert_allclose(rep.r_values, 0.5, atol=1e-12)
    assert float(np.max(rep.max_pairwise)) <= 1e-12
    assert rep.verdict == VERDICT_NON_CLOSABLE
    assert rep.norms_vanish and rep.form_cauchy


def test_heat_scaled_sine_probe():
    sys = assemble_model("heat", make_uniform_grid(201))
    rep = closability_probe(sys, "scaled_sine", 8)
    ns = np.arange(1, 9)
    np.testing.assert_allclose(rep.r_values, ns * np.pi**2 / 2, rtol=0.01)
    assert rep.verdict == VERDICT_PREMISE
    assert not rep.form_cauchy


def test_shrinking_sequence_reads_closable(systems101):
    base = np.sinh(1.0 - systems101["transport"].grid.nodes)
    rep = closability_probe(systems101["transport"], "custom", 8,
                            custom=lambda n, w: base / n)
    assert rep.verdict == VERDICT_CLOSABLE


def test_zero_sequence_all_scalars_zero(systems101):
    rep = closability_probe(systems101["transport"], "custom", 5,
                            custom=lambda n, w: np.zeros_like(w))
    np.testing.assert_array_equal(rep.norms, 0.0)
    np.testing.assert_array_equal(rep.r_values, 0.0)
    np.testing.assert_array_equal(rep.max_pairwise, 0.0)
    assert rep.verdict == VERDICT_CLOSABLE


def test_refinement_study_validation():
    with pytest.raises(ValueError):
        refinement_study("transport", [101, 201], "power")
    with pytest.raises(ValueError):
        refinement_study("transport", [101, 201, 151], "power")


def test_transport_power_study_stable():
    study = refinement_study("transport", (101, 201, 401), "power")
    assert study.verdict_stable
    assert set(study.verdicts) == {VERDICT_NON_CLOSABLE}
    r4 = [rep.r_values[3] for rep in study.reports]
    assert max(abs(v - 0.5) for v in r4) <= 1e-12
    # the boundary functional is grid-exact, so no order is estimable
    assert all(o is None for o in study.orders["r_value"][3])
    # norms carry the usual trapezoid error
    norm_orders = study.orders["norm"][3]
    assert all(o is not None and 1.5 < o < 2.5 for o in norm_orders)


def test_heat_scaled_sine_study_stable():
    study = refinement_study("heat", (101, 201, 401), "scaled_sine")
    assert study.verdict_stable
    assert set(study.verdicts) == {VERDICT_PREMISE}
    for rep in study.reports:
        ns = np.arange(1, 9)
        np.testing.assert_allclose(rep.r_values, ns * np.pi**2 / 2, rtol=0.01)


def _offset(n, w):
    # large common part, small differences: r_nn + r_mm - 2 Re r_nm would
    # lose every digit of r[x_n - x_m] here
    return 1e3 + np.cos(n * np.pi * w) / n


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
@pytest.mark.parametrize("sequence", ["power", "scaled_sine", "offset"])
def test_stacked_probe_matches_form_r(model, sequence):
    # n_max = 101 on 801 nodes has 5,050 differences (32.4 MB of float64); the
    # probe holds the sampled states once, at most n_max - 1 differences and
    # the rate products' work arrays of a block of the loop's rows at a time
    # (measured: 242 rows of n floats for a one-band F, 272 for heat's, at
    # n_max = 101, where the block is 20 rows); sampling
    # holds one array and the temporaries of the row being sampled
    custom = _offset if sequence == "offset" else None
    for n, n_max in ((201, 12), (801, 101)):
        sys = assemble_model(model, make_uniform_grid(n))
        closability_probe(sys, sequence, 2, custom=custom)  # lazy imports, caches
        tracemalloc.start()
        try:
            rep = closability_probe(sys, sequence, n_max, custom=custom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (2 * n_max + 4 * 64)
        tracemalloc.start()
        try:
            states = probe_states(sequence, sys.grid, n_max, custom=custom)
            sampled = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sampled <= 8 * n * (n_max + 4) and states.shape == (n_max, n)
        r_loop = np.array([form_r(sys, x) for x in states])
        pair_loop = np.zeros(n_max)
        for i in range(n_max - 1):
            pair_loop[i] = max(form_r(sys, states[i] - states[j])
                               for j in range(i + 1, n_max))
        # form_r is the probe's rate kernel on one row, so every rate has its bits
        np.testing.assert_array_equal(rep.r_values, r_loop)
        np.testing.assert_array_equal(rep.max_pairwise, pair_loop)
