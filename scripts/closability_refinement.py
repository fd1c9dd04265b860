"""Closability probe under grid refinement.

    python3 scripts/closability_refinement.py [--sizes N N N ...] [--n-max K]
    python3 scripts/closability_refinement.py --model heat --sequence scaled_sine

By default runs the two canonical studies side by side: the power family
on the transport model, where the norms shrink but the form values hold
at 1/2 (evidence against closability), and the scaled sine family on the
heat model, where the form blows up along the sequence so the probe's
premise is never met. Reruns across grids separate genuine operator
behaviour from discretization artifacts: a verdict that flips under
refinement is an artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from phdiss import refinement_study, write_probe_csv

DEFAULT_CASES = (("transport", "power"), ("heat", "scaled_sine"))


def _fmt_order(o):
    return "exact" if o is None else f"{o:5.2f}"


def _print_study(study):
    finest = study.reports[-1]
    print(f"{study.model_tag} / {study.sequence}, grids {study.grid_sizes}")
    print(f"  {'n':>3} {'|x_n|':>12} {'r[x_n]':>12} {'max pair r':>12}"
          f" {'norm order':>11} {'r order':>11}")
    for i, n in enumerate(finest.indices):
        norm_orders = study.orders["norm"][i]
        r_orders = study.orders["r_value"][i]
        print(f"  {n:>3} {finest.norms[i]:12.6g} {finest.r_values[i]:12.6g}"
              f" {finest.max_pairwise[i]:12.6g}"
              f" {_fmt_order(norm_orders[-1]):>11} {_fmt_order(r_orders[-1]):>11}")
    for size, verdict in zip(study.grid_sizes, study.verdicts):
        print(f"  n_grid = {size}: {verdict}")
    stability = "stable" if study.verdict_stable else "NOT STABLE"
    print(f"  verdict under refinement: {stability}")
    print(f"  detail (finest grid): {finest.detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[101, 201, 401])
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--model", default=None,
                        help="run a single model instead of the default pair")
    parser.add_argument("--sequence", default=None)
    parser.add_argument("--out", default=None,
                        help="directory for per-case probe CSVs (finest grid)")
    args = parser.parse_args(argv)

    if (args.model is None) != (args.sequence is None):
        parser.error("--model and --sequence go together")
    cases = DEFAULT_CASES if args.model is None else ((args.model, args.sequence),)

    for i, (model, sequence) in enumerate(cases):
        if i:
            print()
        study = refinement_study(model, args.sizes, sequence, n_max=args.n_max)
        _print_study(study)
        if args.out is not None:
            path = write_probe_csv(
                Path(args.out) / f"probe_{model}_{sequence}.csv",
                study.reports[-1])
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
