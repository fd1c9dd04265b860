"""Command line entry point.

    phdiss run CONFIG
    phdiss verify-paper [--n-grid N] [--out DIR]
    phdiss probe MODEL SEQUENCE [--n-max K] [--n-grid N] [--out DIR]

The PHDISS_OUT environment variable overrides every output directory.
Exit codes: 0 success, 1 a validation check failed, 2 usage or config error
or an allocation the machine refused (MemoryError), 3 numerical failure (a
LAPACK routine gave up, a square root found a matrix that is not self-adjoint
or not positive semidefinite, or an energy overflowed: FloatingPointError).
Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from scipy.linalg import LinAlgError

from .config import ConfigError, parse_config
from .grids import GridError, make_uniform_grid
from .linalg import NotPSDError, NotSelfAdjointError
from .presets import PresetError
from .probes import SEQUENCE_TAGS, ProbeError, closability_probe
from .reporting import write_probe_csv, write_verify_csv
from .runner import run_config
from .semigroup import AlignmentError, SignalError
from .systems import MODELS, AssemblyError, assemble_model
from .verify import verify_paper_values

_USER_ERRORS = (ConfigError, GridError, AssemblyError, SignalError,
                AlignmentError, PresetError, ProbeError, OSError, MemoryError)
_NUMERICAL_ERRORS = (LinAlgError, NotPSDError, NotSelfAdjointError, FloatingPointError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phdiss",
        description="dissipation rates, energy audits and closability probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a key = value config file")

    p_verify = sub.add_parser("verify-paper",
                              help="recompute the closed-form reference values")
    p_verify.add_argument("--n-grid", type=int, default=201)
    p_verify.add_argument("--out", default=None, help="directory for verify_paper.csv")

    p_probe = sub.add_parser("probe", help="closability probe for one model")
    p_probe.add_argument("model", choices=tuple(MODELS))
    p_probe.add_argument("sequence", choices=SEQUENCE_TAGS)
    p_probe.add_argument("--n-max", type=int, default=8)
    p_probe.add_argument("--n-grid", type=int, default=201)
    p_probe.add_argument("--out", default=None, help="directory for probe.csv")
    return parser


def _out_dir(explicit, fallback: str = ".") -> Path:
    env = os.environ.get("PHDISS_OUT")
    if env:
        return Path(env)
    return Path(explicit) if explicit is not None else Path(fallback)


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(None, cfg.out_dir)
    result = run_config(cfg, out_dir=out)
    for check in result.checks:
        print(f"[{'ok' if check.ok else 'FAIL'}] {check.name}: {check.detail}")
    for path in result.files:
        print(f"wrote {path}")
    print(f"status {result.status}")
    return result.status


def _cmd_verify(args) -> int:
    report = verify_paper_values(n_grid=args.n_grid)
    print(report.table_text())
    out = _out_dir(args.out)
    path = write_verify_csv(out / "verify_paper.csv", report)
    print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_probe(args) -> int:
    grid = make_uniform_grid(args.n_grid)
    system = assemble_model(args.model, grid)
    report = closability_probe(system, args.sequence, n_max=args.n_max)
    for n, norm, r in zip(report.indices, report.norms, report.r_values):
        print(f"n={n}: |x_n| = {norm:.6g}, r[x_n] = {r:.6g}")
    print(f"verdict: {report.verdict} ({report.detail})")
    out = _out_dir(args.out)
    path = write_probe_csv(out / "probe.csv", report)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-paper":
            return _cmd_verify(args)
        return _cmd_probe(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
