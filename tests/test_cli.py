import csv
import dataclasses
import inspect
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import phdiss.dissipation
import phdiss.linalg
import phdiss.probes
import phdiss.runner
import phdiss.semigroup
import phdiss.systems
import phdiss.verify
from phdiss import (assemble_model, control_signal, energy_audit,
                    initial_state, make_uniform_grid, rt_bound_check)
from phdiss.cli import main
from phdiss.config import ConfigError, parse_config_text
from phdiss.grids import block_rows
from phdiss.linalg import NotPSDError, NotSelfAdjointError
from phdiss.presets import PresetError
from phdiss.semigroup import _outputs

from conftest import child_env, run_states

FULL_CONFIG = """\
# transport exit audit
model = transport
n_grid = 201
t_final = 1.0
dt = auto
x0_preset = one
u_preset = zero
tasks = simulate, audit, rt_bound, q_check
out_dir = {out}
"""


def _write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_config_text(FULL_CONFIG.format(out=tmp_path))
    assert cfg.model == "transport"
    assert cfg.n_grid == 201
    assert cfg.dt == "auto"
    assert cfg.tasks == ("simulate", "audit", "rt_bound", "q_check")


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="missing key: model"):
        parse_config_text("n_grid = 11\nt_final = 1.0\n")
    with pytest.raises(ConfigError, match="unknown key: colour"):
        parse_config_text("colour = red\n")
    with pytest.raises(ConfigError, match="malformed line 2"):
        parse_config_text("# fine\nnot an assignment\n")
    with pytest.raises(ConfigError, match="unsupported model"):
        parse_config_text(FULL_CONFIG.format(out=".").replace(
            "model = transport", "model = wave"))


def test_run_missing_config_is_usage_error(capsys, tmp_path):
    code = main(["run", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_bad_grid_is_usage_error(capsys, tmp_path):
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path).replace(
        "n_grid = 201", "n_grid = 2"))
    assert main(["run", cfg]) == 2
    assert "n_grid" in capsys.readouterr().err


@pytest.mark.parametrize("t_final, dt", [("1e6", "1e-6"), ("1e300", "1e-300")])
def test_oversized_control_is_usage_error(capsys, tmp_path, t_final, dt):
    # 10^12 steps, or a step count that overflows: refused before any sample
    # is allocated, not a MemoryError or OverflowError traceback
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path).replace(
        "t_final = 1.0", f"t_final = {t_final}").replace("dt = auto", f"dt = {dt}"))
    assert main(["run", cfg]) == 2
    assert "MAX_STEPS" in capsys.readouterr().err


def test_oversized_grid_is_usage_error(capsys, tmp_path):
    # a run at 50,000 nodes holds O(n) memory and is allowed; verify-paper's M
    # root is a dense reader, refused before its n x n operator is allocated
    assert main(["verify-paper", "--n-grid", "50000", "--out", str(tmp_path)]) == 2
    assert "MAX_OPERATOR_MB" in capsys.readouterr().err


def test_verify_paper_past_the_operator_budget_is_usage_error(capsys, tmp_path):
    # 2001 nodes: the M root's first n x n array (32.03 MB) would exceed the
    # budget, refused before it is allocated and before any file is written
    tracemalloc.start()
    try:
        assert main(["verify-paper", "--n-grid", "2001", "--out", str(tmp_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "MAX_OPERATOR_MB" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "probe"])
def test_huge_grid_refused_before_the_grid_allocates(capsys, tmp_path, command):
    # 10^7 nodes would take 160 MB of nodes and weights before any operator
    if command == "run":
        argv = ["run", _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path).replace(
            "n_grid = 201", "n_grid = 10000000"))]
    else:
        argv = ["probe", "transport", "power", "--n-grid", "10000000",
                "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "MAX_OPERATOR_MB" in capsys.readouterr().err


def _modules_after_run(tmp_path, model, x0, modules):
    """Which of modules a fresh interpreter holds after a FULL_CONFIG run of
    model from x0, one True or False per line."""
    code = (
        "import sys\n"
        "from phdiss.config import parse_config_text\n"
        "from phdiss.runner import run_config\n"
        f"cfg = parse_config_text({FULL_CONFIG!r}.format(out={str(tmp_path)!r})"
        f".replace('model = transport', 'model = {model}')"
        f".replace('x0_preset = one', 'x0_preset = {x0}'))\n"
        "assert run_config(cfg).status == 0\n"
        f"for name in {modules!r}: print(name in sys.modules)\n"
    )
    env = child_env()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_heat_run_does_not_import_scipy_fft(tmp_path):
    # heat's sine transform is built on numpy.fft; importing scipy.fft would
    # add to the start-up time and the resident memory of every run
    assert _modules_after_run(tmp_path, "heat", "sine:1", ["scipy.fft"]) == ["False"]


def test_skew_damped_run_does_not_import_scipy_sparse(tmp_path):
    # skew_damped steps on its periodic bands and solves its probe system
    # by solve_banded; importing scipy.sparse costs every run its start-up
    assert _modules_after_run(tmp_path, "skew_damped", "sine:1",
                              ["scipy.sparse", "phdiss.semigroup"]) == ["False", "True"]


def test_linalg_error_is_one_class_in_numpy_and_scipy():
    # cli catches scipy's LinAlgError; numpy's is the same class, so exit code 3
    # covers a LAPACK failure from either library
    assert sla.LinAlgError is np.linalg.LinAlgError


def test_numerical_failure_exits_three(capsys, tmp_path, monkeypatch):
    # LinAlgError is a ValueError, yet it is no usage error
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(phdiss.runner, "assemble_model", failing)
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path))
    assert main(["run", cfg]) == 3
    assert ("error: numerical failure: Matrix is not positive definite"
            in capsys.readouterr().err)


@pytest.mark.parametrize("tasks, message", [
    ("simulate, audit, rt_bound", "energy audit overflow: H is not finite at t = 0.05"),
    ("simulate", "Out of range float values are not JSON compliant"),
    ("probe:power, simulate", "Out of range float values are not JSON compliant"),
], ids=["audit", "simulate_only", "probe_then_simulate"])
def test_overflowing_energies_exit_three_and_write_nothing(capsys, tmp_path, tasks, message):
    # u = 1e307 drives heat's states past the float range in H = ||x||^2 / 2:
    # the audit refuses the ledger, and summary.json refuses an inf, before
    # anything is on disk, the probe.csv of an earlier task included; the
    # refusal is the one line on stderr, with no numpy warning before it
    text = FULL_CONFIG.format(out=tmp_path / "out").replace(
        "model = transport", "model = heat").replace("n_grid = 201", "n_grid = 21").replace(
        "t_final = 1.0", "t_final = 8").replace("u_preset = zero", "u_preset = const:1e307").replace(
        TASKS_LINE, f"tasks = {tasks}")
    assert main(["run", _write_config(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: ") and message in err
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def test_refused_allocation_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # numpy's MemoryError names the array it could not allocate
    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape "
                          "(199901, 2000) and data type float64")

    # the stepping loop's one entry, reached through the audit or a bare simulate
    monkeypatch.setattr(phdiss.semigroup, "_start", refused)
    monkeypatch.setattr(phdiss.dissipation, "_start", refused)
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path / "out"))
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: Unable to allocate 2.98 GiB for an array with shape (199901, 2000) "
        "and data type float64\n")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.parametrize("error", [NotPSDError, NotSelfAdjointError])
def test_root_failure_exits_three(capsys, tmp_path, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("eigenvalue -1.0e+00 below -1.0e-10")

    monkeypatch.setattr(phdiss.runner, "assemble_model", failing)
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path))
    assert main(["run", cfg]) == 3
    assert "error: numerical failure: eigenvalue" in capsys.readouterr().err


def test_program_bug_is_not_a_usage_error(tmp_path, monkeypatch):
    # a bare ValueError is a bug in the program, not bad input: no exit 2
    def failing(*args, **kwargs):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr(phdiss.runner, "assemble_model", failing)
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path))
    with pytest.raises(ValueError, match="internal inconsistency"):
        main(["run", cfg])


@pytest.mark.parametrize("argv, message", [
    (["transport", "power", "--n-max", "1"], "need at least two probe states"),
])
def test_probe_bad_input_is_usage_error(capsys, tmp_path, argv, message):
    assert main(["probe", *argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_damping_is_no_config_key(capsys, tmp_path):
    # a named model is fixed by its grid: skew_damped's damping is the
    # constant systems.DAMPING
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path).replace(
        "model = transport", "model = skew_damped\ndamping = 0.3"))
    assert main(["run", cfg]) == 2
    assert "unknown key: damping" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_probe_has_no_damping_option(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "skew_damped", "power", "--damping", "0.3",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--damping" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [("u_preset = zero", "u_preset = const:nan"),
                                  ("u_preset = zero", "u_preset = const:inf"),
                                  ("u_preset = zero", "u_preset = ramp:nan"),
                                  ("t_final = 1.0", "t_final = nan"),
                                  ("dt = auto", "dt = inf"),
                                  ("u_preset = zero", "u_preset = ramp:inf"),
                                  ("u_preset = zero", "u_preset = ramp:-inf")])
def test_non_finite_input_is_usage_error(capsys, tmp_path, edit):
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path).replace(*edit))
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "summary.json").exists()


TASKS_LINE = "tasks = simulate, audit, rt_bound, q_check"


@pytest.mark.parametrize("edit, message", [
    (("dt = auto", "dt ="), "empty value for dt (line 5)"),
    (("n_grid = 201", "n_grid = 2.5"), "invalid value for n_grid: '2.5'"),
    (("n_grid = 201", "n_grid = auto"), "invalid value for n_grid: 'auto'"),
    ((TASKS_LINE, "tasks = simulate, frobnicate"), "unknown task(s): frobnicate"),
    ((TASKS_LINE, "tasks = refine"), "unknown task(s): refine"),
    ((TASKS_LINE, "tasks = ,"), "tasks must not be empty"),
    ((TASKS_LINE, "tasks = audit, audit"), "a task is listed twice: audit, audit"),
    ((TASKS_LINE, "tasks = probe:power, probe:scaled_sine"), "at most one probe task"),
    (("model = transport", "model = transport\nmodel = heat"), "duplicate key: model (line 3)"),
    (("x0_preset = one", "x0_preset = wave"), "unknown initial-state preset 'wave'"),
    (("x0_preset = one", "x0_preset = poly:1.5"), "invalid parameter in preset 'poly:1.5'"),
    (("x0_preset = one", "x0_preset = sine:0"), "sine frequency must be >= 1, got 0"),
    (("u_preset = zero", "u_preset = pulse"), "unknown control preset 'pulse'"),
    (("u_preset = zero", "u_preset = const:abc"), "invalid parameter in preset 'const:abc'"),
], ids=["empty_value", "n_grid_float", "n_grid_auto", "unknown_task", "refine_task",
        "no_task", "task_twice", "two_probes", "key_twice", "unknown_x0", "poly_float",
        "sine_zero", "unknown_u", "const_text"])
def test_config_edit_is_usage_error(capsys, tmp_path, edit, message):
    # refused before any artifact is written: two probe tasks would write one
    # probe.csv, and of a key set twice only one value could be used
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path).replace(*edit))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.parametrize("edits, message", [
    ((("t_final = 1.0", "t_final = 0.75"), ("dt = auto", "dt = 0.0075"),
      (TASKS_LINE, "tasks = probe:power, simulate")), "is not aligned"),
    ((("x0_preset = one", "x0_preset = bogus"),), "unknown initial-state preset 'bogus'"),
], ids=["unaligned_dt_after_probe", "unknown_x0"])
def test_refused_run_writes_nothing(capsys, tmp_path, edits, message):
    # the run is built and stepped before any task writes: a clock the shift
    # cannot step leaves no probe.csv of an earlier task, and a bad preset
    # leaves no empty out dir
    text = FULL_CONFIG.format(out=tmp_path / "out")
    for edit in edits:
        text = text.replace(*edit)
    assert main(["run", _write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1, the exact-step ledger: the parabolic rule weights the "
    "rate of heat's boundary nodes at t = 0 as if it were smooth, so the "
    "dissipated total reads 1.82 where the run dissipates 0.56 and rt_bound "
    "fails on working code"))
def test_heat_rt_bound_holds_from_one(tmp_path):
    cfg = parse_config_text(FULL_CONFIG.format(out=tmp_path).replace(
        "model = transport", "model = heat").replace(
        "u_preset = zero", "u_preset = const:0.5").replace(
        TASKS_LINE, "tasks = simulate, audit, rt_bound"))
    res = phdiss.runner.run_config(cfg)
    assert [c.name for c in res.checks if not c.ok] == []


@pytest.mark.parametrize("preset", ["ramp:inf", "ramp:-inf", "const:inf", "ramp:nan"])
def test_non_finite_control_level_is_a_preset_error(preset):
    # ramp:inf used to multiply inf by t = 0, a RuntimeWarning, before the
    # control signal rejected the NaN sample
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PresetError, match="finite"):
            control_signal(preset, 1.0, 0.1)


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_full_run_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path))
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "status 0" in out

    with open(tmp_path / "ledger.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "H", "supply_rate", "dissipation_rate",
                       "supplied_cum", "dissipated_cum", "residual"]
    assert len(rows) == 202  # header + 201 samples at dt = h

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == 0
    assert summary["q_check"]["q_max_residual"] <= 1e-10
    assert abs(summary["audit"]["dissipated_total"] - 0.5) < 1e-3
    assert abs(summary["audit"]["residual"]) < 1e-3
    assert all(c["ok"] for c in summary["checks"])

    # the ledger holds full-precision decimals: first data row starts at t=0
    # with H = 1/2 and supply 0
    assert rows[1][0] == "0"
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-15)


def test_run_is_deterministic(tmp_path, monkeypatch):
    # identical config text both times; PHDISS_OUT redirects the artifacts so
    # the summaries embed the same out_dir and must agree byte for byte
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path / "unused"))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        monkeypatch.setenv("PHDISS_OUT", str(out))
        assert main(["run", cfg]) == 0
    for name in ("ledger.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_lists_its_files_in_task_order(tmp_path, capsys):
    # summary.json is written before the CSVs, yet named after them
    text = FULL_CONFIG.format(out=tmp_path / "out").replace(
        "n_grid = 201", "n_grid = 21").replace(TASKS_LINE, "tasks = probe:power, audit")
    assert main(["run", _write_config(tmp_path, text)]) == 0
    wrote = [line.split("/")[-1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == ["probe.csv", "ledger.csv", "summary.json"]


def test_summary_holds_no_classical_label(tmp_path):
    # whether a run is classical shows in its audit residual, not in a label
    cfg = parse_config_text(FULL_CONFIG.format(out=tmp_path).replace(
        "n_grid = 201", "n_grid = 21"))
    phdiss.runner.run_config(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == ["audit", "checks", "config", "dt", "grid",
                             "q_check", "rt_bound", "simulate", "status"]


def test_probe_verb_writes_schema(tmp_path, capsys):
    assert main(["probe", "transport", "power", "--n-grid", "101",
                 "--out", str(tmp_path)]) == 0
    assert "verdict: non-closable-evidence" in capsys.readouterr().out
    with open(tmp_path / "probe.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "norm_l2", "r_xn", "max_pairwise_r", "verdict"]
    assert len(rows) == 9
    assert rows[1][4] == "non-closable-evidence"
    assert float(rows[4][1]) == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_verify_paper_passes(tmp_path, capsys):
    assert main(["verify-paper", "--out", str(tmp_path)]) == 0
    assert "overall: pass" in capsys.readouterr().out
    with open(tmp_path / "verify_paper.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "computed", "reference", "tol", "status"]
    assert len(rows) == 9
    assert all(r[4] == "pass" for r in rows[1:])


@pytest.mark.parametrize("n_grid", [41, 101, 201, 401])
def test_verify_paper_tolerances_follow_the_grid(n_grid):
    # every row passes, and its tolerance stays below 1% of what the row
    # measures, so a 1% drift of any quantity fails on every grid
    measured = {"sinh_graph_norm_sq": math.sinh(2.0) / 2.0,
                "rate_sqrt_rank_one_rel_err": 1.0,  # a relative error
                "rate_sinh_bc": 0.5 * math.sinh(1.0) ** 2,
                "rate_poly2": 0.5, "rate_poly1": 0.5,
                "probe_norm_max_dev": 17 ** -0.5,
                "full_exit_dissipated": 0.5, "full_exit_residual": 0.5}
    report = phdiss.verify.verify_paper_values(n_grid)
    assert [r.name for r in report.rows] == list(measured)
    for r in report.rows:
        assert r.ok, r
        assert r.tol < 0.01 * measured[r.name], r


@pytest.mark.parametrize("n_grid", range(3, 9))
def test_verify_paper_passes_on_small_grids(n_grid):
    # on n = 3 the parabolic rule spans K = 2 steps, where it is Simpson's
    # rule, and the full exit dissipates 0.5 itself, not 0.5 - h/24
    assert phdiss.verify.verify_paper_values(n_grid).ok


def test_verify_paper_fails_on_a_one_percent_drift_at_n3(monkeypatch):
    # the full-exit and rate rows hold at round-off on the smallest grid too
    audit, rate = phdiss.verify.energy_audit, phdiss.verify.dissipation_rate

    def drifted_audit(system, x0, u):
        ledger = audit(system, x0, u)
        return dataclasses.replace(ledger, dissipated=1.01 * ledger.dissipated)

    monkeypatch.setattr(phdiss.verify, "energy_audit", drifted_audit)
    monkeypatch.setattr(phdiss.verify, "dissipation_rate",
                        lambda system, x: 1.01 * rate(system, x))
    report = phdiss.verify.verify_paper_values(3)
    assert {r.name for r in report.rows if not r.ok} == {
        "rate_sinh_bc", "rate_poly2", "rate_poly1",
        "full_exit_dissipated", "full_exit_residual"}


def test_verify_paper_fails_on_a_one_percent_rate_drift(tmp_path, capsys,
                                                        monkeypatch):
    # the rate rows reproduce their references at round-off, so a rate
    # that drifts by 1% must fail the battery and exit 1
    rate = phdiss.verify.dissipation_rate
    monkeypatch.setattr(phdiss.verify, "dissipation_rate",
                        lambda system, x: 1.01 * rate(system, x))
    report = phdiss.verify.verify_paper_values()
    assert not report.ok
    assert {r.name for r in report.rows if not r.ok} == {
        "rate_sinh_bc", "rate_poly2", "rate_poly1"}
    assert main(["verify-paper", "--out", str(tmp_path)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("PHDISS_OUT", str(target))
    cfg = _write_config(tmp_path, FULL_CONFIG.format(out=tmp_path / "ignored"))
    assert main(["run", cfg]) == 0
    assert (target / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_console_entry_point_runs(tmp_path):
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "phdiss.cli", "probe", "transport", "power",
         "--n-grid", "101", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "non-closable-evidence" in proc.stdout


def _count_calls(monkeypatch, name, *modules):
    """Count calls to `name` made through any of the given module globals."""
    calls = []
    for module in modules:
        def counted(*args, _fn=getattr(module, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_run_shares_one_trajectory_and_ledger(tmp_path, monkeypatch):
    text = """\
model = skew_damped
n_grid = 41
t_final = 1.0
x0_preset = sine:2
u_preset = const:0.5
tasks = {tasks}
out_dir = {out}
"""
    for tasks, ledger_written in (("simulate, audit, rt_bound", True),
                                  ("rt_bound", False)):
        out = tmp_path / tasks.replace(", ", "_")
        cfg = parse_config_text(text.format(tasks=tasks, out=out))
        sims = _count_calls(monkeypatch, "_start", phdiss.semigroup, phdiss.dissipation)
        audits = _count_calls(monkeypatch, "energy_audit", phdiss.runner,
                              phdiss.dissipation)
        res = phdiss.runner.run_config(cfg)
        monkeypatch.undo()
        assert res.status == 0
        assert len(sims) == 1 and len(audits) == 1
        assert (out / "ledger.csv").exists() == ledger_written

        grid = make_uniform_grid(cfg.n_grid)
        system = assemble_model(cfg.model, grid)
        x0 = initial_state(grid, cfg.x0_preset)
        u = control_signal(cfg.u_preset, cfg.t_final, grid.h, m=system.m_inputs)
        led = energy_audit(system, x0, u)
        rep = rt_bound_check(system, led)
        assert res.summary["rt_bound"] == {
            "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack,
            "b_norm": rep.b_norm, "u_norm": rep.u_norm,
            "x0_norm": rep.x0_norm, "t_final": rep.t_final,
        }


def test_audit_and_bound_read_the_control_of_the_run(tmp_path):
    # a driven run audited without passing its control again: the supply
    # is Re<u, y> of the control that drove it, and the bound agrees with
    # the runner's rt_bound block
    cfg = parse_config_text(f"""\
model = skew_damped
n_grid = 101
t_final = 0.5
x0_preset = sine:1
u_preset = ramp:0.8
tasks = audit, rt_bound
out_dir = {tmp_path}
""")
    res = phdiss.runner.run_config(cfg)
    assert res.status == 0
    grid = make_uniform_grid(cfg.n_grid)
    system = assemble_model(cfg.model, grid)
    x0 = initial_state(grid, cfg.x0_preset)
    u = control_signal(cfg.u_preset, cfg.t_final, grid.h, m=system.m_inputs)
    led = energy_audit(system, x0, u)
    y = _outputs(system.weights, system.b_matrix, run_states(system, x0, u))
    np.testing.assert_array_equal(led.supply_rate,
                                  np.sum(np.real(u.values * np.conj(y)), axis=1))
    assert led.supplied_total == pytest.approx(0.06195634323214575, rel=1e-12)
    # the value of the audit that was handed the same control explicitly
    assert abs(led.residual) == pytest.approx(5.304035626679804e-07, rel=1e-9)
    rep = rt_bound_check(system, led)
    assert res.summary["rt_bound"] == {
        "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack,
        "b_norm": rep.b_norm, "u_norm": rep.u_norm,
        "x0_norm": rep.x0_norm, "t_final": rep.t_final,
    }


def _q_blocks(n):
    # q_check draws its 100 states in blocks of the stepping loop's rows:
    # 64 + 36 on 41 nodes
    return -(-100 // block_rows(n))


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_run_builds_only_the_roots_its_tasks_read(tmp_path, monkeypatch, model):
    # the M core (gram_sqrt_factors on F and G) is read by no run task, so
    # no task forms G; nor is the Q core (psd_sqrt in systems): q_check
    # takes one solve with I - A_hat per block of its draws instead
    text = f"""\
model = {model}
n_grid = 41
t_final = 0.5
x0_preset = sine:1
u_preset = const:0.5
tasks = {{tasks}}
out_dir = {{out}}
"""
    base = "simulate, audit, rt_bound, probe:power"
    for tasks, q_solves in ((base, 0), (base + ", q_check", _q_blocks(41))):
        cfg = parse_config_text(text.format(tasks=tasks, out=tmp_path / str(q_solves)))
        m_calls = _count_calls(monkeypatch, "gram_sqrt_factors", phdiss.systems)
        g_calls = _count_calls(monkeypatch, "graph_gram", phdiss.systems)
        q_calls = _count_calls(monkeypatch, "psd_sqrt", phdiss.systems)
        solves = _count_calls(monkeypatch, "_probe_solve", phdiss.systems,
                              phdiss.dissipation)
        res = phdiss.runner.run_config(cfg)
        monkeypatch.undo()
        assert res.status == 0
        assert len(m_calls) == 0
        assert len(g_calls) == 0
        assert len(q_calls) == 0
        assert len(solves) == q_solves


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_run_forms_no_square_array(tmp_path, model):
    # every task of a run reads the bands of A and F: at n = 801 and K = 40
    # the run peaks below one dense n x n operator (5.1 MB)
    text = f"""\
model = {model}
n_grid = 801
t_final = 0.05
x0_preset = sine:1
u_preset = const:0.5
tasks = simulate, audit, rt_bound, q_check, probe:power
out_dir = {{out}}
"""
    warm = parse_config_text(text.format(out=tmp_path / "warm").replace("801", "21"))
    assert phdiss.runner.run_config(warm).status == 0  # lazy imports, caches
    cfg = parse_config_text(text.format(out=tmp_path / "run"))
    tracemalloc.start()
    try:
        res = phdiss.runner.run_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == 0 and res.summary["simulate"]["steps"] == 40
    assert peak < 8 * 801**2


# peak of a run past the dense cap in n floats: measured 36 / 42 / 112 at n = 25,601 and
# at n = 100,001 alike (q_check's blocks of 4 draws for transport and heat; skew_damped's
# build of T_m's 37 bands)
LARGE_RUN_FLOATS = {"transport": 64, "heat": 64, "skew_damped": 150}


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_run_past_the_dense_cap_holds_o_n_memory(tmp_path, model):
    # n = 25,601 and 100,001, K = 8, every task: no path of a run forms an n x n
    # array, and each block of states, q_check's draws included, is 4 rows at
    # these n. The peak per node agrees within 5% across the two sizes: O(n)
    text = """\
model = {model}
n_grid = {n}
t_final = {t!r}
x0_preset = sine:1
u_preset = const:0.5
tasks = simulate, audit, rt_bound, q_check, probe:power
out_dir = {out}
"""
    warm = parse_config_text(text.format(model=model, n=21, t=0.4, out=tmp_path / "warm"))
    assert phdiss.runner.run_config(warm).status == 0  # lazy imports, caches
    per_node = []
    for n in (25_601, 100_001):
        cfg = text.format(model=model, n=n, t=8 / (n - 1), out=tmp_path / str(n))
        cfg = parse_config_text(cfg)
        assert block_rows(n) == 4
        tracemalloc.start()
        try:
            res = phdiss.runner.run_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == 0 and res.summary["simulate"]["steps"] == 8
        assert peak <= LARGE_RUN_FLOATS[model] * 8 * n
        per_node.append(peak / n)
    assert abs(per_node[0] - per_node[1]) <= 0.05 * per_node[1]


@pytest.mark.parametrize("n", [201, 801, 2001])
@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_streamed_q_check_matches_one_draw(tmp_path, model, n):
    # q_check draws its 100 states in blocks of the stepping loop's rows from
    # one stream: its worst residual has the bits of one (100, n) draw's
    text = (f"model = {model}\nn_grid = {n}\nt_final = 1\nx0_preset = sine:1\n"
            f"u_preset = zero\ntasks = q_check\nout_dir = {tmp_path}\n")
    res = phdiss.runner.run_config(parse_config_text(text))
    system = assemble_model(model, make_uniform_grid(n))
    states = np.random.default_rng(20250819).standard_normal((100, n))
    whole = float(np.max(phdiss.dissipation._q_identity_rows(system, states)))
    assert block_rows(n) < 100  # two blocks of draws or more
    assert res.summary["q_check"]["q_max_residual"] == whole


@pytest.mark.parametrize("tasks", ["simulate, audit, rt_bound", "simulate"])
@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped"])
def test_long_run_holds_no_trajectory(tmp_path, monkeypatch, capsys, model, tasks):
    # n = 401, K = 3200: the run's states would take 10.3 MB, but it steps
    # once, in blocks of 40 states, through the audit when a task reads the
    # ledger and bare for simulate alone, and keeps per-sample scalars and
    # the final state (0.5-0.8 MB measured)
    text = f"""\
model = {model}
n_grid = 401
t_final = 8
x0_preset = sine:1
u_preset = ramp:0.5
tasks = {tasks}
out_dir = {{out}}
"""
    warm = text.format(out=tmp_path / "warm").replace("t_final = 8", "t_final = 0.01")
    assert main(["run", _write_config(tmp_path, warm)]) == 0  # lazy imports, caches
    cfg = _write_config(tmp_path, text.format(out=tmp_path / "run"))
    loops = _count_calls(monkeypatch, "_start", phdiss.semigroup, phdiss.dissipation)
    audits = _count_calls(monkeypatch, "energy_audit", phdiss.runner)
    tracemalloc.start()
    try:
        status = main(["run", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and "status 0" in capsys.readouterr().out
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["simulate"]["steps"] == 3200
    assert len(loops) == 1 and len(audits) == (1 if "audit" in tasks else 0)
    assert peak <= 3201 * 401 * 8 / 5


@pytest.mark.parametrize("model", ["transport", "skew_damped"])
def test_q_check_and_probe_stack_their_rates(tmp_path, monkeypatch, model):
    # one q_check evaluates its 100 states through one stacked rate call per
    # block of draws, its graph norms from the product with A; one probe rates its states
    # through one, then the differences x_i - x_m, m > i, through one per i
    text = f"""\
model = {model}
n_grid = 41
t_final = 0.5
x0_preset = sine:1
u_preset = zero
tasks = {{task}}
out_dir = {{out}}
"""
    n_max = inspect.signature(phdiss.probes.closability_probe).parameters["n_max"].default
    for task in ("q_check", "probe:power"):
        cfg = parse_config_text(text.format(task=task, out=tmp_path / task[:5]))
        rates = _count_calls(monkeypatch, "_form_rates", phdiss.dissipation,
                             phdiss.probes)
        forms = _count_calls(monkeypatch, "form_r", phdiss.dissipation)
        res = phdiss.runner.run_config(cfg)
        monkeypatch.undo()
        assert res.status == 0
        assert len(rates) == (_q_blocks(41) if task == "q_check" else 1 + (n_max - 1))
        assert len(forms) == 0


def test_verify_paper_factors_m_once(monkeypatch):
    # the rank-one row and three dissipation_rate calls share one
    # factorization of one G and one M core; no row reads the Q core
    factors = _count_calls(monkeypatch, "gram_sqrt_factors",
                           phdiss.systems, phdiss.linalg)
    grams = _count_calls(monkeypatch, "graph_gram", phdiss.systems)
    m_cores = _count_calls(monkeypatch, "psd_sqrt", phdiss.linalg)
    q_cores = _count_calls(monkeypatch, "psd_sqrt", phdiss.systems)
    rates = _count_calls(monkeypatch, "dissipation_rate", phdiss.verify)
    assert phdiss.verify.verify_paper_values().ok
    assert len(factors) == 1
    assert len(grams) == 1
    assert len(m_cores) == 1
    assert len(q_cores) == 0
    assert len(rates) == 3
