"""The phdiss benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py ... --smoke      tiny grids, same job shapes

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.bench_work/``. Workloads and the reasons
for them are in ``workloads.py`` and ``BENCHMARK.json``.

Every pass runs the workload's job list once, in a fresh single-process
worker (``worker.py``) with the BLAS thread count pinned to 1. Passes
repeat, closed loop, one at a time, for about ``--seconds``: a run stops
when one more pass would end farther from ``--seconds`` than stopping now.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of one pass, timed after ``import phdiss``;
* ``setup_s``: median time from spawning an interpreter to ``import
  phdiss`` done, over extra import-only workers and the pass workers;
* ``peak_rss_mb``: peak resident memory of a pass worker, import included,
  highest over the passes. Fresh processes do not always get the same
  heap layout, and about one ``canonical_n801`` pass in ten peaks 15 MB
  lower than the rest; a median would flip between the two levels.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (medians over the traced passes), plus
``trace.overhead_s``, the traced minus the untraced median ``wall_s``.

Every job's outputs are checked (``checks.py``). The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is the workload's fail ratio. The full
record (every pass, the seed, the environment) goes to
``.bench_work/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names
from workloads import WHY, draw_parameters, jobs_for, largest_dense_bytes

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 3        # import-only workers before the first pass
WORKER_TIMEOUT_S = 150   # one pass; a run must end within 180 s
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PHDISS_OUT", None)  # would redirect every job's outputs
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.update(dict.fromkeys(BLAS_PINS, "1"))
    return env


def _spawn(args: list[str], root: Path, env: dict) -> tuple[float, str]:
    """Run a worker to completion; return (spawn time, stdout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return t0, proc.stdout


def _setup_sample(root: Path, env: dict) -> float:
    t0, out = _spawn(["--setup"], root, env)
    return json.loads(out.splitlines()[-1])["t_import"] - t0


def pass_context(root: Path, run_dir: Path, workload: str, seed: int,
                 smoke: bool, record: bool = False) -> dict:
    """What every pass of one run shares: paths, worker environment, jobs.
    ``record`` skips the reference comparison, for re-recording it."""
    return {"root": root, "env": worker_env(root), "run_dir": run_dir,
            "spec": {"root": str(root), "workload": workload, "seed": seed,
                     "smoke": smoke, "record": record,
                     "jobs": jobs_for(workload, seed, smoke=smoke)}}


def spawn_pass(index: int, trace: bool, ctx: dict) -> dict:
    run_dir = ctx["run_dir"]
    result = run_dir / f"pass{index:02d}.json"
    spec = dict(ctx["spec"], trace=trace, out=str(run_dir / f"out{index:02d}"),
                result=str(result))
    spec_path = run_dir / f"pass{index:02d}.spec.json"
    spec_path.write_text(json.dumps(spec))
    t0, _ = _spawn([str(spec_path)], ctx["root"], ctx["env"])
    report = json.loads(result.read_text())
    report["setup_s"] = report.pop("t_import") - t0
    report["traced"] = trace
    return report


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _machine() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    return {"nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "python": sys.version.split()[0]}


def _print_table(passes: list[dict]) -> None:
    first_traced = True
    for i, p in enumerate(passes):
        bad = [j["name"] for j in p["jobs"] if j["problems"]]
        print(f"pass {i:2d} {'traced  ' if p['traced'] else 'untraced'} "
              f"wall {p['wall_s']:8.4f} s  setup {p['setup_s']:.4f} s  "
              f"peak rss {p['peak_rss_mb']:8.2f} MB"
              + (f"  FAILED: {', '.join(bad)}" if bad else ""))
        for j in p["jobs"]:
            for problem in j["problems"]:
                print(f"    {j['name']}: {problem}")
            if "calls" in j and first_traced:
                # rt_bound re-simulates: 2 calls per run job that has it
                print(f"    {j['name']}: semigroup.mild_solution calls "
                      f"{j['calls'].get('semigroup.mild_solution', 0)}")
        if p.get("missing"):
            print(f"    not found in phdiss, reported as 0: {', '.join(p['missing'])}")
        first_traced = first_traced and not p["traced"]


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "phdiss" / "__init__.py").is_file():
        raise BenchError(f"no phdiss sources under {root / 'src'}; "
                         "run from the root of a source checkout")
    if args.workload not in WHY:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WHY)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    run_dir = root / ".bench_work" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = pass_context(root, run_dir, args.workload, args.seed, args.smoke)
    env, jobs = ctx["env"], ctx["spec"]["jobs"]

    _setup_sample(root, env)  # warm-up: byte-compiles src, fills the page cache
    setup = [] if args.trace else [_setup_sample(root, env) for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    durations: list[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # untraced and traced passes alternate under --trace 1
        passes.append(spawn_pass(len(passes), bool(args.trace) and len(passes) % 2 == 1, ctx))
        if not args.trace:  # import-only samples spread over the run
            setup.append(_setup_sample(root, env))
        durations.append(time.perf_counter() - t0)
        # stop unless one more pass ends nearer to --seconds than now does;
        # --trace 1 needs one untraced and one traced pass
        elapsed = time.perf_counter() - t_start
        if (elapsed + 0.5 * statistics.median(durations) > args.seconds
                and len(passes) >= (2 if args.trace else 1)):
            break

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["problems"])
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    setup += [p["setup_s"] for p in passes]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name in metric_names():
            if name == "trace.overhead_s":
                value = (statistics.median(p["wall_s"] for p in traced)
                         - statistics.median(walls))
            elif unit(name) == "count":  # identical in every pass; stays whole
                value = statistics.median_low(p["layers"][name] for p in traced)
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = value
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": max(p["peak_rss_mb"] for p in plain)}
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "seconds": args.seconds,
            "parameters": draw_parameters(args.seed),
            "largest_dense_array_bytes": largest_dense_bytes(jobs),
            "machine": _machine(), "blas_pins": {k: "1" for k in BLAS_PINS},
            "environment": passes[0].get("environment"),
            "wall_s_quartiles": _quartiles(walls), "setup_s_samples": setup,
            "passes": passes, "metrics": metrics,
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted, "run_dir": str(run_dir)}


def _report(record: dict) -> None:
    m = record["machine"]
    env = record["environment"] or {}
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"parameters {record['parameters']}  trace {record['trace']}")
    print(f"machine: nproc {m['nproc']} (usable {m['nproc_usable']}), "
          f"L2 {m['l2_bytes']} B, L3 {m['l3_bytes']} B, python {m['python']}")
    print(f"blas: {env.get('blas')} {env.get('blas_version')}, "
          f"threads {env.get('blas_threads')}; numpy {env.get('numpy')}, "
          f"scipy {env.get('scipy')}")
    print(f"largest dense array {record['largest_dense_array_bytes']} B "
          f"vs L2 {m['l2_bytes']} B")
    _print_table(record["passes"])
    q1, q2, q3 = record["wall_s_quartiles"]
    n_plain = sum(1 for p in record["passes"] if not p["traced"])
    print(f"wall_s over {n_plain} untraced passes: median {q2:.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s (too few passes for a tail percentile)")
    for name, value in record["metrics"].items():
        print(f"{name} = {value:.6g} {unit(name)}")
    print(f"fail_ratio = {record['fail_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']} jobs)")
    if record["trace"]:
        print("*_mb layer counters are computed from array sizes, not measured")


def unit(name: str) -> str:
    """The unit of a metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "trace.coverage":
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids with the same job shapes")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    Path(record["run_dir"], "result.json").write_text(json.dumps(record, indent=1))
    _report(record)
    line = {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": unit(k)}
                        for k, v in record["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
