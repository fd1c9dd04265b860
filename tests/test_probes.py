import numpy as np
import pytest

from phdiss import (assemble_model, closability_probe, form_r, grids,
                    make_uniform_grid, probes, refinement_study)
from phdiss.probes import (VERDICT_CLOSABLE, VERDICT_NON_CLOSABLE,
                           VERDICT_PREMISE, ProbeError, probe_states)


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


def test_probe_budget_is_the_module_constant(systems101, monkeypatch):
    # exercised on a small budget: n_max = 8 stacks 28 differences of 101
    # nodes (22.6 kB), n_max = 9 stacks 36 (29.1 kB)
    monkeypatch.setattr(grids, "MAX_OPERATOR_MB", 0.025)
    assert closability_probe(systems101["heat"], "power", n_max=8).indices.size == 8
    with pytest.raises(ProbeError, match="MAX_OPERATOR_MB"):
        closability_probe(systems101["heat"], "power", n_max=9)


def test_probe_budget_admits_n_max_100_on_801_nodes(monkeypatch):
    # 4,950 differences of 801 nodes take 31.7 MB and are admitted, 5,050
    # (32.4 MB) are not; the sampler is stubbed, so no stack is allocated
    class Sampled(Exception):
        pass

    def sampled(*args, **kwargs):
        raise Sampled

    system = assemble_model("transport", make_uniform_grid(801))
    monkeypatch.setattr(probes, "probe_states", sampled)
    with pytest.raises(Sampled):
        closability_probe(system, "power", n_max=100)
    with pytest.raises(ProbeError, match="MAX_OPERATOR_MB"):
        closability_probe(system, "power", n_max=101)


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
    sys = assemble_model(model, make_uniform_grid(201))
    n_max = 12
    custom = _offset if sequence == "offset" else None
    rep = closability_probe(sys, sequence, n_max, custom=custom)
    states = probe_states(sequence, sys.grid, n_max, custom=custom)
    r_loop = np.array([form_r(sys, x) for x in states])
    pair_loop = np.zeros(n_max)
    for i in range(n_max - 1):
        pair_loop[i] = max(form_r(sys, states[i] - states[j])
                           for j in range(i + 1, n_max))
    if model == "transport" and custom is None:
        # F has two nonzeros; on these sequences every route sums the same
        # two products to the same bits
        np.testing.assert_array_equal(rep.r_values, r_loop)
        np.testing.assert_array_equal(rep.max_pairwise, pair_loop)
    else:
        np.testing.assert_allclose(rep.r_values, r_loop, rtol=1e-12)
        np.testing.assert_allclose(rep.max_pairwise, pair_loop, rtol=1e-12)
