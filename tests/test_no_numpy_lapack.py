"""No package path calls numpy's own LAPACK.

numpy.linalg reaches LAPACK through numpy.linalg._linalg._umath_linalg, whose
OpenBLAS build is separate from the one scipy.linalg loads, so the first call
maps a second library's routines into the run. The fixture swaps that module
for one that raises on any attribute; every run path, the probes, the
refinement study, the boundary trace, both scripts and the dense readers (the
M and Q roots, what reads them, verify-paper, the dense propagator and the
eigvalsh gate of a wide F) must then still pass.
"""

import numpy as np
import pytest
from numpy.linalg import _linalg

from phdiss import (assemble_model, control_signal, dissipation_rate, energy_audit,
                    initial_state, make_uniform_grid, q_identity_residual, rt_bound_check,
                    runner, systems)
from phdiss.config import ExperimentConfig
from phdiss.probes import refinement_study
from phdiss.semigroup import _band_step, boundary_trace
from phdiss.verify import verify_paper_values

from conftest import MODELS, custom_complex_system, random_state, script_main


class _NoLapack:
    def __getattr__(self, name):
        raise AssertionError(f"numpy's LAPACK reached: _umath_linalg.{name}")


@pytest.fixture
def no_numpy_lapack(monkeypatch):
    monkeypatch.setattr(_linalg, "_umath_linalg", _NoLapack())


def test_the_stub_stops_numpy_lapack_and_lets_the_frobenius_norm_through(no_numpy_lapack):
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    calls = (lambda: np.linalg.norm(a, 2), lambda: np.polyfit([0.0, 1.0, 2.0], [1.0, 2.0, 4.0], 1),
             lambda: np.linalg.eigh(a), lambda: np.linalg.cholesky(a))
    for call in calls:
        with pytest.raises(AssertionError, match="numpy's LAPACK reached"):
            call()
    assert np.linalg.norm(a, "fro") == pytest.approx(np.sqrt(15.0), rel=1e-15)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("probe", ["probe:power", "probe:scaled_sine"])
def test_run_config_keeps_off_numpy_lapack(no_numpy_lapack, tmp_path, model, probe):
    cfg = ExperimentConfig(model=model, n_grid=41, t_final=1.0, x0_preset="sine:1",
                           u_preset="const:0.5", out_dir=str(tmp_path),
                           tasks=("simulate", "audit", "rt_bound", "q_check", probe))
    res = runner.run_config(cfg)
    assert {c.name for c in res.checks} == {"rate_nonnegative", "rt_bound", "q_identity"}
    assert res.summary["rt_bound"]["b_norm"] > 0.0


@pytest.mark.parametrize("model", MODELS)
def test_refinement_study_keeps_off_numpy_lapack(no_numpy_lapack, model):
    study = refinement_study(model, (21, 41, 81), "power", n_max=8)
    assert len(study.verdicts) == 3


def test_boundary_trace_keeps_off_numpy_lapack(no_numpy_lapack):
    system = systems.assemble_model("transport", make_uniform_grid(41))
    u = control_signal("const:0.5", 1.5, system.grid.h)
    rep = boundary_trace(system, initial_state(system.grid, "sine:1"), u)
    assert np.isfinite(rep.max_discrepancy)


@pytest.mark.parametrize("name, argv", [
    ("transport_energy_audit.py", ["--n-grid", "41"]),
    ("closability_refinement.py",
     ["--model", "skew_damped", "--sequence", "power", "--sizes", "21", "41", "81"]),
])
def test_scripts_keep_off_numpy_lapack(no_numpy_lapack, tmp_path, capsys, name, argv):
    assert script_main(name)([*argv, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("model", MODELS)
def test_two_input_audit_and_bound_keep_off_numpy_lapack(no_numpy_lapack, model):
    grid = make_uniform_grid(41)
    b = np.stack([np.ones(grid.n), grid.nodes], axis=1)
    system = getattr(systems, f"assemble_{model}")(grid, input_profile=b)
    u = control_signal("const:0.5", 1.0, grid.h, m=2)
    rep = rt_bound_check(system, energy_audit(system, initial_state(grid, "sine:1"), u))
    assert rep.ok and rep.b_norm > 0.0


def test_verify_paper_keeps_off_numpy_lapack(no_numpy_lapack):
    assert verify_paper_values(41).ok


@pytest.mark.parametrize("model", [*MODELS, "complex"])
def test_dense_roots_and_their_readers_keep_off_numpy_lapack(no_numpy_lapack, model):
    system = (custom_complex_system(41) if model == "complex"
              else assemble_model(model, make_uniform_grid(41)))
    assert system.m_sqrt_hat.shape == system.q_sqrt_hat.shape == (41, 41)
    x = random_state(41, 3, model == "complex")
    assert dissipation_rate(system, x) >= 0.0
    assert q_identity_residual(system, x) <= 1e-10


def test_wide_form_gate_and_dense_propagator_keep_off_numpy_lapack(no_numpy_lapack):
    # the custom F spans the whole grid, wider than MAX_BAND: the gate takes
    # eigvalsh when the system is built, and its A takes the dense expm route
    system = custom_complex_system(41)
    assert systems._lapack_band(system.f_bands)[2] > systems.MAX_BAND
    u = control_signal("const:0.5", 1.0, system.grid.h)
    assert _band_step(system.a_bands, u.dt, complex) is None
    ledger = energy_audit(system, initial_state(system.grid, "sine:1"), u)
    assert np.isfinite(ledger.residual) and ledger.dissipated_total > 0.0
