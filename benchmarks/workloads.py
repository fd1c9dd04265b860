"""Job lists of the benchmark workloads.

A job is one user-level call: a ``phdiss`` CLI verb (kinds ``run`` and
``verify``), one of the two ``scripts/`` (``audit_script``, ``refine``), or
one library call (``boundary_trace``). A workload is a fixed list of jobs. The
seed draws only preset parameters (the control level ``c`` and the profile
frequency ``k``), so grid sizes, step counts, ``n_max`` and the job list,
and with them the work per pass, do not depend on it.

``smoke=True`` keeps the job shapes but shrinks every grid, for the
benchmark's own smoke test.
"""

from __future__ import annotations

import random

MODELS = ("transport", "heat", "skew_damped")
SEQUENCES = ("power", "scaled_sine")

# why each workload was chosen; BENCHMARK.json carries the same lines
WHY = {
    "canonical_n801": (
        "phdiss run on the three models at n = 801, K = 800: 5.1 MB dense "
        "arrays exceed the 2 MiB L2 and time spreads over every dense layer"
    ),
    "long_horizon": (
        "n = 401, t_final = 8, K = 3200: stepping, per-step rates, "
        "boundary_trace and ledger writes dominate; toolkit builds are ~5%"
    ),
    "small_grids": (
        "n <= 401, arrays fit in L2: ~20 toolkit builds and ~10,000 form_r "
        "calls per pass, short trajectories, fixed per-call overhead"
    ),
}

CANONICAL_TASKS = "simulate, audit, rt_bound, q_check, probe:power"
LONG_TASKS = "simulate, audit, rt_bound"


def draw_parameters(seed: int) -> dict:
    """Control level c and profile frequency k, from fixed small ranges."""
    rng = random.Random(seed)
    return {"c": round(rng.uniform(0.25, 1.0), 3), "k": rng.randint(1, 4)}


def _x0(model: str, k: int) -> str:
    # initial data that meets each model's boundary condition
    return "sinh_bc" if model == "transport" else f"sine:{k}"


def _run_job(name, model, n, t_final, x0, u, tasks) -> dict:
    # dt = auto is dt = h, so K = t_final * (n - 1)
    config = (f"model = {model}\nn_grid = {n}\nt_final = {t_final}\n"
              f"dt = auto\nx0_preset = {x0}\nu_preset = {u}\n"
              f"tasks = {tasks}\nout_dir = {{out}}\n")
    return {"name": name, "kind": "run", "model": model, "config": config,
            "steps": round(t_final * (n - 1)), "n": n}


def jobs_for(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The job list of one workload for one seed."""
    p = draw_parameters(seed)
    c, k = p["c"], p["k"]
    if workload == "canonical_n801":
        n = 21 if smoke else 801
        return [_run_job(f"run_{m}", m, n, 1.0, _x0(m, k),
                         f"const:{c}", CANONICAL_TASKS) for m in MODELS]
    if workload == "long_horizon":
        n, t_final = (21 if smoke else 401), 8.0
        jobs = [_run_job(f"run_{m}", m, n, t_final, _x0(m, k),
                         f"ramp:{c}", LONG_TASKS) for m in ("heat", "skew_damped")]
        jobs.append({"name": "script_transport_energy_audit", "kind": "audit_script",
                     "script": "transport_energy_audit.py",
                     "argv": ["--n-grid", str(n), "--t-final", str(t_final),
                              "--out", "{out}"],
                     "steps": round(t_final * (n - 1)), "n": n})
        jobs.append({"name": "boundary_trace_transport", "kind": "boundary_trace",
                     "n": n, "t_final": t_final, "x0": "sinh_bc",
                     "u": f"ramp:{c}", "steps": round(t_final * (n - 1))})
        return jobs
    if workload == "small_grids":
        n = 21 if smoke else 201
        # below n = 41 some refinement verdicts flip between grids at n_max = 32
        sizes = ["41", "81", "161"] if smoke else ["101", "201", "401"]
        jobs = [_run_job(f"run_{m}", m, n, 1.0, _x0(m, k),
                         f"const:{c}", CANONICAL_TASKS) for m in MODELS]
        jobs.append({"name": "verify_paper", "kind": "verify", "n": 201})
        for m in MODELS:
            for s in SEQUENCES:
                jobs.append({"name": f"refine_{m}_{s}", "kind": "refine",
                             "script": "closability_refinement.py",
                             "model": m, "sequence": s,
                             "argv": ["--model", m, "--sequence", s,
                                      "--sizes", *sizes, "--n-max", "32"],
                             "n": int(sizes[-1])})
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def largest_dense_bytes(jobs: list[dict]) -> int:
    """Largest float64 array a job holds: an n x n operator or a (K+1) x n
    trajectory. Computed from the job sizes, not measured."""
    return max(8 * job["n"] * max(job["n"], job.get("steps", 0) + 1) for job in jobs)
