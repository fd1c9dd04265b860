"""Deterministic CSV and JSON writers.

Each CSV file has one row format, a %-template applied to every data row
under a header line. Floats are rendered with FLOAT (%.17g), so two runs of
the same build on one BLAS thread count produce byte-identical artifacts;
files use LF line endings unconditionally.
"""

from __future__ import annotations

import json
from pathlib import Path

from .dissipation import EnergyLedger
from .probes import ProbeReport
from .verify import VerifyReport

FLOAT = "%.17g"


def write_csv(path, header, row_format, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = row_format + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)
    return path


def write_json(path, payload: dict) -> Path:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or inf, which JSON has no token for
        raise FloatingPointError(f"cannot write {path}: {exc}") from None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    return path


LEDGER_HEADER = ["t", "H", "supply_rate", "dissipation_rate",
                 "supplied_cum", "dissipated_cum", "residual"]
LEDGER_ROW = ",".join([FLOAT] * len(LEDGER_HEADER))


def write_ledger_csv(path, ledger: EnergyLedger) -> Path:
    rows = zip(ledger.times, ledger.hamiltonian, ledger.supply_rate,
               ledger.dissipation_rate, ledger.supplied, ledger.dissipated,
               ledger.residuals)
    return write_csv(path, LEDGER_HEADER, LEDGER_ROW, rows)


PROBE_HEADER = ["n", "norm_l2", "r_xn", "max_pairwise_r", "verdict"]
PROBE_ROW = f"%d,{FLOAT},{FLOAT},{FLOAT},%s"


def write_probe_csv(path, report: ProbeReport) -> Path:
    rows = ((n, norm, r, pair, report.verdict)
            for n, norm, r, pair in zip(report.indices, report.norms,
                                        report.r_values, report.max_pairwise))
    return write_csv(path, PROBE_HEADER, PROBE_ROW, rows)


VERIFY_HEADER = ["row", "computed", "reference", "tol", "status"]
VERIFY_ROW = f"%s,{FLOAT},{FLOAT},{FLOAT},%s"


def write_verify_csv(path, report: VerifyReport) -> Path:
    rows = ((r.name, r.computed, r.reference, r.tol, "pass" if r.ok else "fail")
            for r in report.rows)
    return write_csv(path, VERIFY_HEADER, VERIFY_ROW, rows)
