"""Execute an experiment config: build, run tasks, write artifacts.

Validation checks collected along the way decide the exit status:
0 when every check passes, 1 otherwise. Artifacts (ledger.csv, probe.csv,
summary.json) land in the config's out_dir unless overridden.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .dissipation import _q_identity_rows, energy_audit, rt_bound_check
from .grids import as_state, make_uniform_grid, norm_sq
from .presets import control_signal, initial_state
from .probes import closability_probe, refinement_study
from .reporting import write_json, write_ledger_csv, write_probe_csv
from .semigroup import classical_check, mild_solution
from .systems import assemble_model

RATE_FLOOR = -1e-10      # rate non-negativity margin
BOUND_FLOOR = -1e-8      # dissipation bound slack margin
Q_RESIDUAL_TOL = 1e-10   # scaled probe-identity residual
REFINE_SIZES = (101, 201, 401)


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


def _random_states(n: int, count: int, complex_values: bool, seed: int = 20250819):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = rng.standard_normal(n)
        if complex_values:
            v = v + 1j * rng.standard_normal(n)
        yield v


def run_config(cfg: ExperimentConfig, out_dir=None) -> RunResult:
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = make_uniform_grid(cfg.n_grid)
    system = assemble_model(cfg.model, grid, damping=cfg.damping)
    dt = grid.h if cfg.dt == "auto" else float(cfg.dt)
    x0 = initial_state(grid, cfg.x0_preset)
    u = control_signal(cfg.u_preset, cfg.t_final, dt, m=system.m_inputs)

    checks: list[CheckResult] = []
    files: list[Path] = []
    gate = classical_check(system, x0, u)
    summary: dict = {
        "config": asdict(cfg),
        "grid": {"n": grid.n, "h": grid.h},
        "dt": dt,
        "classical": {
            "classical": gate.classical,
            "boundary_residual": gate.boundary_residual,
            "detail": gate.detail,
        },
    }

    traj = audited = None

    def _traj():
        nonlocal traj
        if traj is None:
            traj = mild_solution(system, x0, u)
        return traj

    def _ledger():
        nonlocal audited
        if audited is None:
            audited = energy_audit(system, _traj(), u)
        return audited

    for task in cfg.tasks:
        if task == "simulate":
            t = _traj()
            summary["simulate"] = {
                "steps": int(t.times.size - 1),
                "h_initial": 0.5 * norm_sq(grid.weights, t.states[0]),
                "h_final": 0.5 * norm_sq(grid.weights, t.states[-1]),
                "final_sup": float(np.max(np.abs(t.states[-1]))),
            }
        elif task == "audit":
            ledger = _ledger()
            files.append(write_ledger_csv(out / "ledger.csv", ledger))
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
            rep = rt_bound_check(system, _ledger(), x0, u, tol=-BOUND_FLOOR)
            checks.append(CheckResult(
                "rt_bound", rep.ok,
                f"lhs {rep.lhs:.6g} vs rhs {rep.rhs:.6g}, slack {rep.slack:.3e}"))
            summary["rt_bound"] = {
                "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack,
                "b_norm": rep.b_norm, "u_norm": rep.u_norm,
                "x0_norm": rep.x0_norm, "t_final": rep.t_final,
            }
        elif task.startswith("probe:"):
            sequence = task.split(":", 1)[1]
            rep = closability_probe(system, sequence)
            files.append(write_probe_csv(out / "probe.csv", rep))
            summary[task] = {
                "verdict": rep.verdict,
                "norms_vanish": rep.norms_vanish,
                "form_cauchy": rep.form_cauchy,
                "last_norm": float(rep.norms[-1]),
                "last_r": float(rep.r_values[-1]),
                "detail": rep.detail,
            }
        elif task == "q_check":
            states = np.array([as_state(v, grid.n) for v in _random_states(
                grid.n, 100, np.iscomplexobj(system.a_matrix))])
            worst = float(np.max(_q_identity_rows(system, states)[1]))
            checks.append(CheckResult(
                "q_identity", worst <= Q_RESIDUAL_TOL,
                f"worst scaled residual {worst:.3e} (tol {Q_RESIDUAL_TOL:.0e})"))
            summary["q_check"] = {"q_max_residual": worst, "samples": 100}
        elif task == "refine":
            study = refinement_study(cfg.model, REFINE_SIZES, "power",
                                     damping=cfg.damping)
            summary["refine"] = {
                "grid_sizes": list(study.grid_sizes),
                "verdicts": list(study.verdicts),
                "verdict_stable": study.verdict_stable,
                "orders": study.orders,
            }
        else:  # config validation makes this unreachable
            raise ValueError(f"unknown task {task!r}")

    status = 0 if all(c.ok for c in checks) else 1
    summary["checks"] = [asdict(c) for c in checks]
    summary["status"] = status
    files.append(write_json(out / "summary.json", summary))
    return RunResult(status=status, checks=checks, summary=summary,
                     out_dir=out, files=files)
