"""Recompute the closed-form reference values of the transport example
and compare each within its discretization error on the grid. Two runs
on the same build produce byte-identical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .dissipation import dissipation_rate, energy_audit
from .grids import make_uniform_grid, norm_sq
from .presets import control_signal, initial_state
from .probes import probe_states
from .systems import assemble_transport, graph_norm


@dataclass
class VerifyRow:
    name: str
    computed: float
    reference: float
    tol: float
    ok: bool


@dataclass
class VerifyReport:
    n_grid: int
    rows: list[VerifyRow]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def table_text(self) -> str:
        width = max(len(r.name) for r in self.rows)
        lines = [f"reference battery on n={self.n_grid}"]
        for r in self.rows:
            lines.append(
                f"  {r.name:<{width}}  computed={r.computed: .12e}  "
                f"reference={r.reference: .12e}  tol={r.tol:.2e}  "
                f"{'pass' if r.ok else 'FAIL'}"
            )
        lines.append("overall: " + ("pass" if self.ok else "FAIL"))
        return "\n".join(lines)


def _row(name: str, computed: float, reference: float, tol: float) -> VerifyRow:
    return VerifyRow(name=name, computed=float(computed), reference=float(reference),
                     tol=tol, ok=bool(abs(computed - reference) <= tol))


def verify_paper_values(n_grid: int = 201) -> VerifyReport:
    """Run the battery on the transport model at one grid size."""
    grid = make_uniform_grid(n_grid)
    h = grid.h
    system = assemble_transport(grid)
    rows: list[VerifyRow] = []

    # (a) graph norm of the sinh profile: ||x||^2 + ||x'||^2 = sinh(2)/2,
    #     within 0.17-0.18 h^2 on every grid
    sinh_state = initial_state(grid, "sinh_bc")
    rows.append(_row("sinh_graph_norm_sq", graph_norm(system, sinh_state) ** 2,
                     math.sinh(2.0) / 2.0, h**2 / 4))

    # (b) the rate-operator square root acts as the rank-one map
    #     x -> x(0) sinh(1 - w) / sqrt(sinh 2); M^{1/2} x = L^{-H} s_hat L^H x,
    #     error measured in graph norm, about 0.3 h^{3/2}
    target = sinh_state[0] * np.sinh(1.0 - grid.nodes) / math.sqrt(math.sinh(2.0))
    lh = system.g_chol.conj().T
    got = sla.solve_triangular(lh, system.m_sqrt_hat @ (lh @ sinh_state), lower=False)
    rel = (graph_norm(system, got - target) / graph_norm(system, target))
    rows.append(_row("rate_sqrt_rank_one_rel_err", rel, 0.0, h**1.5))

    # (c) rates of outflow-compatible states equal |x(0)|^2 / 2 on every
    #     grid, so the tolerance is round-off: a 1% drift fails
    for preset in ("sinh_bc", "poly:2", "poly:1"):
        state = initial_state(grid, preset)
        ref = 0.5 * float(state[0]) ** 2
        rows.append(_row(f"rate_{preset.replace(':', '')}",
                         dissipation_rate(system, state), ref,
                         1e-12 * max(ref, 1.0)))

    # (d) probe norms ||(1 - w)^k|| = (2k + 1)^{-1/2}; by Euler-Maclaurin the
    #     trapezoid squared norm exceeds 1/(2k + 1) by at most k h^2/6 + 5 h^4
    exact = [(2 * k + 1) ** -0.5 for k in range(1, 9)]
    dev = max(abs(math.sqrt(norm_sq(grid.weights, s)) - e)
              for s, e in zip(probe_states("power", grid, 8), exact))
    tol = max(math.sqrt(e**2 + k * h**2 / 6 + 5 * h**4) - e for k, e in enumerate(exact, 1))
    rows.append(_row("probe_norm_max_dev", dev, 0.0, tol))

    # (e) full-exit audit: the balance closes and the parabolic rule dissipates
    #     exactly 0.5 - h/24, whose limit h -> 0 is 0.5; on n = 3 the rule
    #     spans K = 2 steps, where it is Simpson's rule and gives 0.5 itself
    x0 = initial_state(grid, "one")
    free = control_signal("zero", 1.0, h, m=system.m_inputs)
    ledger = energy_audit(system, x0, free)
    shortfall = h / 24 if grid.n > 3 else 0.0
    rows.append(_row("full_exit_dissipated", ledger.dissipated_total, 0.5 - shortfall, 1e-12))
    rows.append(_row("full_exit_residual", ledger.residual, -shortfall, 1e-12))

    return VerifyReport(n_grid=n_grid, rows=rows)
