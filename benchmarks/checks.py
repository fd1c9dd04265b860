"""Output checks behind ``failed``: a job fails when it raises, returns a
nonzero status, or misses one of these checks.

Every seed: status 0, all of the run's own checks passing, round-off
quantities under their thresholds, ``verify-paper`` passing, refinement
verdicts stable under refinement, and the verdicts the README documents.
The default seed also compares against ``reference.json``, recorded on the
commit that introduced the benchmark: values at round-off-scale relative
tolerance, verdicts exactly.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

DEFAULT_SEED = 0
RTOL = 1e-9
ATOL = 1e-12                 # for values that are exactly zero, e.g. H after full exit
Q_RESIDUAL_MAX = 1e-10       # scaled probe-identity residual, per state
TRACE_DISCREPANCY_MAX = 1e-10  # boundary trace, stepped vs closed form
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# model/sequence pairs whose verdict the README documents
README_VERDICTS = {
    ("transport", "power"): "non-closable-evidence",
    ("heat", "scaled_sine"): "premise-not-met",
}

SUMMARY_VALUES = (("audit", "supplied_total"), ("audit", "dissipated_total"),
                  ("rt_bound", "lhs"), ("rt_bound", "rhs"),
                  ("simulate", "h_final"), ("probe:power", "last_r"),
                  ("probe:power", "verdict"))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_run(job, result, out: Path, stdout: str, problems: list) -> dict:
    summary = json.loads((out / "summary.json").read_text())
    if summary["status"] != 0:
        problems.append(f"summary status {summary['status']}")
    problems += [f"check {c['name']} failed: {c['detail']}"
                 for c in summary["checks"] if not c["ok"]]
    q = summary.get("q_check")
    if q is not None and not q["q_max_residual"] <= Q_RESIDUAL_MAX:
        problems.append(f"q_max_residual {q['q_max_residual']:.3e}")
    if "audit" in summary:
        rows = len(_read_csv(out / "ledger.csv"))
        if rows != job["steps"] + 1:
            problems.append(f"ledger.csv has {rows} rows, expected {job['steps'] + 1}")
    values = {f"{block}.{key}": summary[block][key]
              for block, key in SUMMARY_VALUES if block in summary}
    verdict = values.get("probe:power.verdict")
    expected = README_VERDICTS.get((job["model"], "power"))
    if verdict is not None and expected is not None and verdict != expected:
        problems.append(f"probe verdict {verdict}, README says {expected}")
    return values


def _check_verify(job, result, out: Path, stdout: str, problems: list) -> dict:
    rows = _read_csv(out / "verify_paper.csv")
    problems += [f"verify row {r['row']} {r['status']}"
                 for r in rows if r["status"] != "pass"]
    if not rows:
        problems.append("verify_paper.csv has no rows")
    return {f"verify.{r['row']}": float(r["computed"]) for r in rows}


def _check_audit_script(job, result, out: Path, stdout: str, problems: list) -> dict:
    if not re.search(r"^\s*slack\s*=.*\(ok\)$", stdout, re.M):
        problems.append("integral dissipation bound not reported ok")
    rows = _read_csv(out / "ledger.csv")
    if len(rows) != job["steps"] + 1:
        problems.append(f"ledger.csv has {len(rows)} rows, expected {job['steps'] + 1}")
    last = rows[-1]
    return {"free_decay.dissipated_total": float(last["dissipated_cum"]),
            "free_decay.h_final": float(last["H"])}


def _check_refine(job, result, out: Path, stdout: str, problems: list) -> dict:
    verdicts = re.findall(r"^\s*n_grid = \d+: (\S+)$", stdout, re.M)
    if len(verdicts) != 3:
        problems.append(f"expected 3 verdicts, found {len(verdicts)}")
    if not re.search(r"verdict under refinement: stable$", stdout, re.M):
        problems.append("verdict not stable under refinement")
    expected = README_VERDICTS.get((job["model"], job["sequence"]))
    if expected is not None and any(v != expected for v in verdicts):
        problems.append(f"verdicts {verdicts}, README says {expected}")
    return {"verdicts": ",".join(verdicts)}


def _check_trace(job, result, out: Path, stdout: str, problems: list) -> dict:
    if not result <= TRACE_DISCREPANCY_MAX:
        problems.append(f"boundary trace discrepancy {result:.3e}")
    return {}


_CHECKERS = {"run": _check_run, "verify": _check_verify,
             "boundary_trace": _check_trace, "refine": _check_refine,
             "audit_script": _check_audit_script}


def _close(got, ref) -> bool:
    if isinstance(ref, str) or isinstance(got, str):
        return got == ref
    return math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL)


def check_job(job: dict, status: int, result, out: Path, stdout: str,
              reference: dict | None) -> tuple[list[str], dict]:
    """Check one finished job: (problems, values). No problems means it
    passed. ``result`` is the returned value of a library call."""
    if status != 0:
        return [f"exit status {status}"], {}
    problems: list[str] = []
    try:
        values = _CHECKERS[job["kind"]](job, result, out, stdout, problems)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return problems + [f"outputs unreadable: {type(exc).__name__}: {exc}"], {}
    if reference is not None:
        ref = reference.get(job["name"], {})
        for key in sorted(set(ref) | set(values)):
            if key not in values or key not in ref:
                problems.append(f"{key}: present in only one of output and reference")
            elif not _close(values[key], ref[key]):
                problems.append(f"{key}: {values[key]!r} vs reference {ref[key]!r}")
    return problems, values


def load_reference(workload: str, seed: int, smoke: bool) -> dict | None:
    """Reference values for this workload, or None when the seed or the
    grid sizes differ from those the reference was recorded at."""
    if seed != DEFAULT_SEED or smoke:
        return None
    return json.loads(REFERENCE_PATH.read_text())[workload]
