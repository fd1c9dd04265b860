"""Acceptance battery: one test per shipped claim, at the stated tolerance.

Each test prints a single pass/fail line (visible with -v as the test
outcome, and with -s as a detail line) and asserts the bound, so the
battery doubles as a numbered checklist of what this package promises.
"""

import subprocess
import sys

import numpy as np
import pytest

from phdiss import (assemble_model, closability_probe, control_signal,
                    dissipation_rate, energy_audit, form_r, make_uniform_grid,
                    q_identity_residual, rt_bound_check)
from phdiss.probes import VERDICT_NON_CLOSABLE, VERDICT_PREMISE
from phdiss.semigroup import ControlSignal, _outputs
from phdiss.systems import graph_gram, graph_norm

from conftest import apply_m_sqrt, child_env, free_control, free_run

MODELS = ("transport", "heat", "skew_damped")
SIZES = (101, 201, 401)


def _report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _sweep_draw(model, grid, rng):
    """Random (x0, u) with the heat draws kept resolvable by the clock."""
    if model == "heat":
        ks = np.arange(1, 6)
        x0 = np.sin(np.pi * np.outer(grid.nodes, ks)) @ rng.standard_normal(5)
        t_final, dt = 0.5, 1e-3
        t = np.linspace(0.0, t_final, round(t_final / dt) + 1)
        c = rng.standard_normal(3)
        u = c[0] + c[1] * np.cos(np.pi * t / t_final) + c[2] * np.sin(np.pi * t / t_final)
        return x0, ControlSignal(t_final, u)
    x0 = rng.standard_normal(grid.n)
    dt = grid.h if model == "transport" else 5e-3
    return x0, ControlSignal(0.5, rng.standard_normal(round(0.5 / dt) + 1))


def test_criterion_01_q_identity_all_models(systems101):
    rng = np.random.default_rng(1)
    worst = 0.0
    for model in MODELS:
        sys = systems101[model]
        g = graph_gram(sys.a_matrix, sys.weights)
        for _ in range(100):
            x = rng.standard_normal(101)
            graph_sq = float(np.real(np.conj(x) @ (g @ x)))
            ratio = q_identity_residual(sys, x) / (1e-10 * (1.0 + graph_sq))
            worst = max(worst, ratio)
    _report("1 q-identity", worst < 1.0,
            f"worst residual at {worst:.2e} of the 1e-10*(1+|x|_A^2) budget")


def test_criterion_02_sinh_graph_norm():
    ref = np.sinh(2.0) / 2.0
    vals = {}
    for n in SIZES:
        g = make_uniform_grid(n)
        sys = assemble_model("transport", g)
        vals[n] = graph_norm(sys, np.sinh(1.0 - g.nodes)) ** 2
    err = {n: abs(v - ref) for n, v in vals.items()}
    orders = [np.log2(err[101] / err[201]), np.log2(err[201] / err[401])]
    ok = err[201] < 2e-3 and all(1.8 < o < 2.2 for o in orders)
    _report("2 sinh graph norm", ok,
            f"|{vals[201]:.8f} - sinh(2)/2| = {err[201]:.2e} (tol 2e-3), "
            f"orders {orders[0]:.2f}, {orders[1]:.2f}")


def test_criterion_03_rank_one_sqrt():
    coeff = np.e * np.sqrt(2.0) / np.sqrt(np.exp(4.0) - 1.0)
    profiles = {
        "sinh(1-w)": lambda w: np.sinh(1.0 - w),
        "(1-w)^2": lambda w: (1.0 - w) ** 2,
        "1-w": lambda w: 1.0 - w,
    }
    worst_at_401 = 0.0
    all_monotone = True
    for name, fn in profiles.items():
        errs = []
        for n in SIZES:
            g = make_uniform_grid(n)
            sys = assemble_model("transport", g)
            x = fn(g.nodes)
            got = apply_m_sqrt(sys, x)
            ref = coeff * x[0] * np.sinh(1.0 - g.nodes)
            gram = graph_gram(sys.a_matrix, sys.weights)
            gn = lambda v: float(np.sqrt(np.real(np.conj(v) @ (gram @ v))))
            errs.append(gn(got - ref) / gn(got))
        worst_at_401 = max(worst_at_401, errs[-1])
        all_monotone = all_monotone and errs[0] > errs[1] > errs[2]
    ok = worst_at_401 < 0.05 and all_monotone
    _report("3 rank-one sqrt", ok,
            f"worst rel err at n=401: {worst_at_401:.2e} (tol 5e-2), "
            f"monotone={all_monotone}")


def test_criterion_04_energy_balance():
    g = make_uniform_grid(201)
    sys = assemble_model("transport", g)
    led = energy_audit(sys, np.ones(201), free_control(sys, 1.0, g.h))
    ok_t = abs(led.dissipated_total - 0.5) < 1e-3 and abs(led.residual) < 1e-3

    gh = make_uniform_grid(101)
    heat = assemble_model("heat", gh)
    ledh = energy_audit(heat, np.sin(np.pi * gh.nodes), free_control(heat, 0.2, 1e-3))
    ok_h = abs(ledh.residual) < 1e-6
    _report("4 energy balance", ok_t and ok_h,
            f"transport dissipated {led.dissipated_total:.6f}, residual "
            f"{led.residual:+.2e}; heat residual {ledh.residual:+.2e}")


def test_criterion_05_dissipation_bound():
    rng = np.random.default_rng(7)
    min_slack = np.inf
    for model in MODELS:
        g = make_uniform_grid(101)
        sys = assemble_model(model, g)
        for _ in range(50):
            x0, u = _sweep_draw(model, g, rng)
            led = energy_audit(sys, x0, u)
            rep = rt_bound_check(sys, led)
            min_slack = min(min_slack, rep.slack)
    sweep_ok = min_slack >= -1e-8

    g = make_uniform_grid(201)
    sys = assemble_model("transport", g)
    x0, u = np.ones(201), control_signal("zero", 1.0, g.h)
    rep = rt_bound_check(sys, energy_audit(sys, x0, u))
    near_ok = rep.slack < 1e-3 and abs(rep.lhs - 1.0 / np.sqrt(2.0)) <= 1e-3
    _report("5 dissipation bound", sweep_ok and near_ok,
            f"sweep min slack {min_slack:+.3e}; near-equality slack "
            f"{rep.slack:.2e}, lhs {rep.lhs:.6f} vs 1/sqrt(2)")


def test_criterion_06_non_closability_evidence():
    verdicts = {}
    for n in SIZES:
        sys = assemble_model("transport", make_uniform_grid(n))
        verdicts[n] = closability_probe(sys, "power", 8)
    rep = verdicts[401]
    ns = np.arange(1, 9)
    norm_dev = float(np.max(np.abs(rep.norms - (2.0 * ns + 1.0) ** -0.5)))
    r_ok = bool(np.all((rep.r_values >= 0.45) & (rep.r_values <= 0.55)))
    pair_ok = float(np.max(rep.max_pairwise)) < 0.05
    stable = all(v.verdict == VERDICT_NON_CLOSABLE for v in verdicts.values())
    ok = norm_dev < 1e-3 and r_ok and pair_ok and stable
    _report("6 non-closability", ok,
            f"norm dev {norm_dev:.2e}, r in [{rep.r_values.min():.3f}, "
            f"{rep.r_values.max():.3f}], pairwise {np.max(rep.max_pairwise):.1e}, "
            f"verdicts stable={stable}")


def test_criterion_07_closable_cases(systems101):
    sys = assemble_model("heat", make_uniform_grid(401))
    rep = closability_probe(sys, "scaled_sine", 8)
    ns = np.arange(1, 9)
    ref = ns * np.pi**2 / 2.0
    rel = float(np.max(np.abs(rep.r_values - ref) / ref))
    heat_ok = rep.verdict == VERDICT_PREMISE and rel < 0.01

    skew = systems101["skew_damped"]
    w = skew.weights
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(101)
        worst = max(worst, abs(form_r(skew, x) - 0.3 * float(np.sum(w * x**2))))
    skew_ok = worst < 1e-10
    _report("7 closable cases", heat_ok and skew_ok,
            f"heat verdict {rep.verdict}, r dev {rel:.2e}; "
            f"skew worst |r - 0.3|x|^2| = {worst:.2e}")


def test_criterion_08_rate_identity(systems101):
    rng = np.random.default_rng(5)
    worst = 0.0
    for model in MODELS:
        sys = systems101[model]
        for _ in range(100):
            x = rng.standard_normal(101)
            x = x / graph_norm(sys, x)  # identity tested on the unit graph sphere
            worst = max(worst, abs(dissipation_rate(sys, x) - form_r(sys, x)))
    _report("8 rate identity", worst < 1e-10,
            f"worst |rate - r| = {worst:.2e} (tol 1e-10)")


def test_criterion_09_output_adjoint(systems101):
    rng = np.random.default_rng(9)
    worst = 0.0
    for model in MODELS:
        sys = systems101[model]
        for _ in range(50):
            x = rng.standard_normal(sys.n)
            u0 = rng.standard_normal(sys.m_inputs)
            y0 = _outputs(sys.weights, sys.b_matrix, free_run(sys, x, 0.02, 0.02))[0]
            lhs = np.conj(x) @ (sys.weights * (sys.b_matrix @ u0))
            rhs = np.conj(y0) @ u0
            worst = max(worst, abs(lhs - rhs))
    _report("9 output adjoint", worst < 1e-12,
            f"worst |<Bu,x> - <u,y>| = {worst:.2e} (tol 1e-12)")


def test_criterion_10_verify_paper_deterministic(tmp_path):
    env = child_env()
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "phdiss.cli", "verify-paper",
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        table = "".join(line for line in proc.stdout.splitlines(keepends=True)
                        if not line.startswith("wrote "))
        outputs.append((table, (out / "verify_paper.csv").read_bytes()))
    same = outputs[0] == outputs[1]
    _report("10 determinism", same,
            "verify-paper report table and csv byte-identical across runs")
