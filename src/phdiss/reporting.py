"""Deterministic CSV and JSON writers.

Floats are rendered with %.17g so two runs of the same build produce
byte-identical artifacts; files use LF line endings unconditionally.
"""

from __future__ import annotations

import json
from pathlib import Path

from .dissipation import EnergyLedger
from .probes import ProbeReport


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return fmt_float(value)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    return path


LEDGER_HEADER = ["t", "H", "supply_rate", "dissipation_rate",
                 "supplied_cum", "dissipated_cum", "residual"]


def write_ledger_csv(path, ledger: EnergyLedger) -> Path:
    rows = zip(ledger.times, ledger.hamiltonian, ledger.supply_rate,
               ledger.dissipation_rate, ledger.supplied, ledger.dissipated,
               ledger.residuals)
    return write_csv(path, LEDGER_HEADER, rows)


PROBE_HEADER = ["n", "norm_l2", "r_xn", "max_pairwise_r", "verdict"]


def write_probe_csv(path, report: ProbeReport) -> Path:
    rows = [
        (int(n), norm, r, pair, report.verdict)
        for n, norm, r, pair in zip(report.indices, report.norms,
                                    report.r_values, report.max_pairwise)
    ]
    return write_csv(path, PROBE_HEADER, rows)
