"""Energy accounting on the outflow transport model.

    python3 scripts/transport_energy_audit.py [--n-grid N] [--t-final T] [--out DIR]

Two runs. First the free decay of the constant profile: every bit of the
initial energy H(0) = 1/2 leaves through the boundary within one unit of
time. The ledger's dissipated column integrates the rate by the parabolic
rule and reproduces that to the quadrature error of the rate's jump from
1/2 to 0 at t = 1: h/24 when t = 1 is the last sample (0 at n = 3, where
the rule is Simpson's), h/12 when later samples follow. Second a driven run
from the outflow-compatible sinh profile under constant input, which
exercises the supply side of the balance and the integral dissipation bound.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from phdiss import (assemble_model, control_signal, energy_audit,
                    initial_state, make_uniform_grid, rt_bound_check,
                    write_ledger_csv)


def _print_ledger(ledger, stride):
    print(f"  {'t':>8} {'H':>12} {'supplied':>12} {'dissipated':>12} {'residual':>12}")
    idx = list(range(0, len(ledger.times), stride))
    if idx[-1] != len(ledger.times) - 1:
        idx.append(len(ledger.times) - 1)
    for k in idx:
        print(f"  {ledger.times[k]:8.3f} {ledger.hamiltonian[k]:12.6f}"
              f" {ledger.supplied[k]:12.6f} {ledger.dissipated[k]:12.6f}"
              f" {ledger.residuals[k]:12.3e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-grid", type=int, default=201)
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument("--out", default=None, help="directory for ledger.csv")
    args = parser.parse_args(argv)

    grid = make_uniform_grid(args.n_grid)
    system = assemble_model("transport", grid)
    dt = grid.h

    print(f"transport model, n = {grid.n}, h = {grid.h:.6g}, dt = h")
    print()
    print("free decay of x0 = 1 (everything exits through the boundary)")
    x0 = initial_state(grid, "one")
    free = control_signal("zero", args.t_final, dt, m=system.m_inputs)
    # each audit steps its run in blocks; only the ledgers are kept
    ledger = energy_audit(system, x0, free)
    _print_ledger(ledger, max(1, len(ledger.times) // 10))
    print(f"  dissipated total = {ledger.dissipated_total:.10f} (exact: 0.5)")
    print(f"  final H          = {ledger.hamiltonian[-1]:.3e}")
    print(f"  max |residual|   = {ledger.max_abs_residual:.3e}")

    print()
    print("driven run: x0 = sinh(1 - w), u = 0.7, integral dissipation bound")
    x0 = initial_state(grid, "sinh_bc")
    u = control_signal("const:0.7", args.t_final, dt)
    driven = energy_audit(system, x0, u)
    print(f"  supplied total   = {driven.supplied_total:.10f}")
    print(f"  dissipated total = {driven.dissipated_total:.10f}")
    print(f"  max |residual|   = {driven.max_abs_residual:.3e}")
    bound = rt_bound_check(system, driven)
    print(f"  sqrt(int r dt)   = {bound.lhs:.6f}")
    print(f"  |x0| + t |B| |u| = {bound.rhs:.6f}")
    print(f"  slack            = {bound.slack:.6f} ({'ok' if bound.ok else 'VIOLATED'})")

    if args.out is not None:
        path = write_ledger_csv(Path(args.out) / "ledger.csv", ledger)
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
