"""Execute an experiment config: build, run tasks, write artifacts.

Validation checks collected along the way decide the exit status:
0 when every check passes, 1 otherwise. Artifacts (ledger.csv, probe.csv,
summary.json) land in the config's out_dir unless overridden. A run is
computed whole before it writes: stepped once (by the audit if a task reads
the ledger), then every task, then summary.json, which refuses NaN and inf,
ahead of any CSV. So a clock the model cannot step or an energy that
overflows leaves nothing on disk.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .dissipation import _q_identity_rows, energy_audit, rt_bound_check
from .grids import make_uniform_grid, norm_sq
from .presets import control_signal, initial_state
from .probes import closability_probe
from .reporting import write_json, write_ledger_csv, write_probe_csv
from .semigroup import final_state
from .systems import assemble_model

RATE_FLOOR = -1e-10      # rate non-negativity margin
Q_RESIDUAL_TOL = 1e-10   # scaled probe-identity residual


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class RunResult:
    status: int
    checks: list[CheckResult]
    summary: dict
    out_dir: Path
    files: list[Path]


def run_config(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    grid = make_uniform_grid(cfg.n_grid)
    system = assemble_model(cfg.model, grid)
    dt = grid.h if cfg.dt == "auto" else float(cfg.dt)
    x0 = initial_state(grid, cfg.x0_preset)
    u = control_signal(cfg.u_preset, cfg.t_final, dt, m=system.m_inputs)
    # one stepping loop per run: the audit's, or a bare one for simulate alone
    ledger = energy_audit(system, x0, u) if {"audit", "rt_bound"} & set(cfg.tasks) else None
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)

    checks: list[CheckResult] = []
    csvs: list = []  # (writer, path, data) of each CSV, written after summary.json
    summary: dict = {
        "config": asdict(cfg),
        "grid": {"n": grid.n, "h": grid.h},
        "dt": dt,
    }

    for task in cfg.tasks:
        if task == "simulate":
            final = final_state(system, x0, u) if ledger is None else ledger.final_state
            summary["simulate"] = {
                "steps": int(u.values.shape[0] - 1),
                "h_initial": 0.5 * norm_sq(grid.weights, x0),
                "h_final": 0.5 * norm_sq(grid.weights, final),
                "final_sup": float(np.max(np.abs(final))),
            }
        elif task == "audit":
            csvs.append((write_ledger_csv, out / "ledger.csv", ledger))
            min_rate = float(np.min(ledger.dissipation_rate))
            checks.append(CheckResult(
                "rate_nonnegative", min_rate >= RATE_FLOOR,
                f"min rate {min_rate:.3e} (floor {RATE_FLOOR:.0e})"))
            summary["audit"] = {
                "supplied_total": ledger.supplied_total,
                "dissipated_total": ledger.dissipated_total,
                "h_drop": float(ledger.hamiltonian[0] - ledger.hamiltonian[-1]),
                "residual": ledger.residual,
                "max_abs_residual": ledger.max_abs_residual,
            }
        elif task == "rt_bound":
            rep = rt_bound_check(system, ledger)
            checks.append(CheckResult(
                "rt_bound", rep.ok,
                f"lhs {rep.lhs:.6g} vs rhs {rep.rhs:.6g}, slack {rep.slack:.3e}"))
            summary["rt_bound"] = {k: v for k, v in asdict(rep).items() if k != "ok"}
        elif task.startswith("probe:"):
            sequence = task.split(":", 1)[1]
            rep = closability_probe(system, sequence)
            csvs.append((write_probe_csv, out / "probe.csv", rep))
            summary[task] = {
                "verdict": rep.verdict,
                "norms_vanish": rep.norms_vanish,
                "form_cauchy": rep.form_cauchy,
                "last_norm": float(rep.norms[-1]),
                "last_r": float(rep.r_values[-1]),
                "detail": rep.detail,
            }
        elif task == "q_check":
            # every registry model has a real A, so real states suffice
            states = np.random.default_rng(20250819).standard_normal((100, grid.n))
            worst = float(np.max(_q_identity_rows(system, states)))
            checks.append(CheckResult(
                "q_identity", worst <= Q_RESIDUAL_TOL,
                f"worst scaled residual {worst:.3e} (tol {Q_RESIDUAL_TOL:.0e})"))
            summary["q_check"] = {"q_max_residual": worst, "samples": 100}
        else:  # config validation makes this unreachable
            raise ValueError(f"unknown task {task!r}")

    status = 0 if all(c.ok for c in checks) else 1
    summary["checks"] = [asdict(c) for c in checks]
    summary["status"] = status
    # summary.json goes first, as the one file that refuses a number (NaN,
    # inf); the list keeps the task order
    written = write_json(out / "summary.json", summary)
    files = [write(path, data) for write, path, data in csvs] + [written]
    return RunResult(status=status, checks=checks, summary=summary,
                     out_dir=out, files=files)
