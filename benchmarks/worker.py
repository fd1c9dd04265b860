"""One benchmark pass in a fresh interpreter.

    python3 benchmarks/worker.py --setup        import phdiss, report, exit
    python3 benchmarks/worker.py SPEC.json      run the spec's jobs once

``import phdiss`` comes first so that the time from interpreter start to
import done can be read off ``time.perf_counter`` (system-wide monotonic
clock) against the parent's spawn time. The jobs run in this process, one
after another, in the order of the spec; the pass is not warmed up,
because CLI users pay every cost on each invocation. Output checks run
after the timed pass. The result goes to the spec's ``result`` path as
JSON; with ``--setup`` it is printed as the only line on stdout.
"""

import sys
import time

import phdiss

T_IMPORT = time.perf_counter()

import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import phdiss.cli  # noqa: E402

from checks import check_job, load_reference  # noqa: E402
from tracer import Tracer  # noqa: E402

_scripts: dict = {}


def _script_main(root: Path, name: str):
    # one module load per script per worker, as one interpreter would do
    if name not in _scripts:
        path = root / "scripts" / name
        spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _scripts[name] = module.main
    return _scripts[name]


def environment() -> dict:
    """Versions and the BLAS this worker runs with."""
    import ctypes
    import glob
    import os

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0],
            "nproc": os.cpu_count()}


def _boundary_trace(job) -> float:
    grid = phdiss.make_uniform_grid(job["n"])
    system = phdiss.assemble_model("transport", grid)
    x0 = phdiss.initial_state(grid, job["x0"])
    u = phdiss.control_signal(job["u"], job["t_final"], grid.h, m=system.m_inputs)
    return phdiss.boundary_trace(system, x0, u).max_discrepancy


def _call(root: Path, job: dict, out: Path):
    """Run one job; return (exit status, returned value)."""
    kind = job["kind"]
    if kind == "run":
        cfg = out / "job.cfg"
        return phdiss.cli.main(["run", str(cfg)]), None
    if kind == "verify":
        return phdiss.cli.main(["verify-paper", "--out", str(out)]), None
    if kind in ("audit_script", "refine"):
        argv = [str(out) if a == "{out}" else a for a in job["argv"]]
        return _script_main(root, job["script"])(argv), None
    if kind == "boundary_trace":
        return 0, _boundary_trace(job)
    raise ValueError(f"unknown job kind {kind!r}")


def _run_job(root: Path, job: dict, out: Path):
    buf = io.StringIO()
    result = None
    error = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            status, result = _call(root, job, out)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a failing job is counted, not fatal
            status, error = -1, traceback.format_exc()
    return status, result, buf.getvalue(), error


def run_pass(spec: dict) -> dict:
    root = Path(spec["root"])
    out_root = Path(spec["out"])
    shutil.rmtree(out_root, ignore_errors=True)
    outs = []
    for job in spec["jobs"]:
        out = out_root / job["name"]
        out.mkdir(parents=True)
        if job["kind"] == "run":
            (out / "job.cfg").write_text(job["config"].format(out=out))
        outs.append(out)
    reference = None if spec["record"] else load_reference(
        spec["workload"], spec["seed"], spec["smoke"])
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    finished = []
    t_start = time.perf_counter()
    for job, out in zip(spec["jobs"], outs):
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        status, result, stdout, error = _run_job(root, job, out)
        finished.append((job, out, status, result, stdout, error,
                         time.perf_counter() - t0, first))
    wall = time.perf_counter() - t_start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    jobs = []
    ends = [f[-1] for f in finished[1:]] + [len(tracer.spans) if tracer else 0]
    for (job, out, status, result, stdout, error, seconds, first), last in zip(finished, ends):
        problems, values = check_job(job, status, result, out, stdout, reference)
        if error:
            problems.append(error)
        jobs.append({"name": job["name"], "status": status, "seconds": seconds,
                     "problems": problems, "values": values})
        if tracer is not None:
            jobs[-1]["calls"] = tracer.calls(first, last)
    report = {"t_import": T_IMPORT, "wall_s": wall, "peak_rss_mb": peak_kb / 1024,
              "jobs": jobs, "environment": environment()}
    if tracer is not None:
        report["layers"] = tracer.summary(sum(j["seconds"] for j in jobs))
        report["missing"] = tracer.missing
        spans_path = Path(spec["result"]).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans))
    return report


def main() -> int:
    if sys.argv[1] == "--setup":
        print(json.dumps({"t_import": T_IMPORT}))
        return 0
    spec = json.loads(Path(sys.argv[1]).read_text())
    report = run_pass(spec)
    Path(spec["result"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
