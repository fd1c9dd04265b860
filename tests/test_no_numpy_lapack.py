"""No O(n) path calls numpy's own LAPACK.

numpy.linalg reaches LAPACK through numpy.linalg._linalg._umath_linalg, whose
OpenBLAS build is separate from the one scipy.linalg loads, so the first call
maps a second library's routines into the run. The fixture swaps that module
for one that raises on any attribute; every run path, the probes, the
refinement study, the boundary trace and both scripts must then still pass.
Only the dense readers (the M and Q roots) keep numpy's eigh and Cholesky.
"""

import numpy as np
import pytest
from numpy.linalg import _linalg

from phdiss import (control_signal, energy_audit, initial_state,
                    make_uniform_grid, rt_bound_check, runner, systems)
from phdiss.config import ExperimentConfig
from phdiss.probes import refinement_study
from phdiss.semigroup import boundary_trace

from conftest import MODELS, script_main


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
