import numpy as np
import pytest

from phdiss import (assemble_model, closability_probe, make_uniform_grid,
                    refinement_study)
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
