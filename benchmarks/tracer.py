"""Span tracing of the ``phdiss`` layers from outside the package.

``Tracer.install`` replaces each function named in ``LAYERS`` with a wrapper
wherever the function object is bound in a ``phdiss.*`` module namespace,
matching by identity, so calls made inside the package are caught too.
Code that imports the package later (the scripts do ``from phdiss import
...``) picks the wrappers up from the namespace. Function objects held in
containers are not rebound: ``systems.assemble_model`` reaches the transport
and heat assemblers through its registry dict, so their work shows as
``assemble_model`` self time.

Each wrapped call records a span (name, start, end, parent) in memory. A
span's self time is its duration minus the time covered by its child spans.
The tracer also counts the bytes held by returned systems, toolkits and
trajectories. Those are computed from array sizes, not measured.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
import weakref

import numpy as np
import scipy.sparse

LAYERS = {
    "grids": ("make_uniform_grid",),
    "systems": ("assemble_model", "assemble_transport", "assemble_heat",
                "assemble_skew_damped", "assemble_custom", "dissipativity_gap"),
    "linalg": ("gram_sqrt_factors", "psd_sqrt", "gram_eigh"),
    "semigroup": ("mild_solution", "output_signal", "classical_check",
                  "boundary_trace"),
    "dissipation": ("build_toolkit", "form_r", "dissipation_rate",
                    "q_identity_residual", "q_identity_scaled", "energy_audit",
                    "rt_bound_check"),
    "probes": ("closability_probe", "refinement_study"),
    "verify": ("verify_paper_values",),
    "reporting": ("write_csv", "write_json"),
    "runner": ("run_config",),
    "config": ("parse_config",),
    "presets": ("initial_state", "control_signal"),
}

# returned object class -> computed-bytes counter
BYTES_COUNTERS = {
    "DiscreteSystem": "systems.system_mb",
    "DissipationToolkit": "dissipation.toolkit_mb",
    "Trajectory": "semigroup.trajectory_mb",
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names += [f"{module}.{fn}.self_s", f"{module}.{fn}.calls"]
        names.append(f"{module}.self_s")
    names += ["semigroup.steps", *BYTES_COUNTERS.values(),
              "trace.coverage", "trace.overhead_s", "trace.errors"]
    return names


def held_bytes(obj) -> int:
    """Bytes of the arrays an object holds as attributes. A scipy.sparse
    array counts its stored data plus its index arrays."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif scipy.sparse.issparse(value):
            total += sum(a.nbytes for a in vars(value).values()
                         if isinstance(a, np.ndarray))
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.errors = 0
        self.missing: list[str] = []
        self.bytes = dict.fromkeys(BYTES_COUNTERS.values(), 0)
        self.steps = 0
        self._stack: list[int] = []
        self._seen = weakref.WeakSet()

    def install(self) -> None:
        """Wrap every listed function in every loaded ``phdiss`` module."""
        wrappers = {}
        for module, functions in LAYERS.items():
            mod = sys.modules.get(f"phdiss.{module}")
            for fn in functions:
                target = getattr(mod, fn, None) if mod is not None else None
                if target is None:
                    self.missing.append(f"{module}.{fn}")
                    continue
                wrappers[id(target)] = (target, self._wrap(f"{module}.{fn}", target))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "phdiss" or name.startswith("phdiss.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            self._count(result)
            return result

        return wrapper

    def _count(self, result) -> None:
        counter = BYTES_COUNTERS.get(type(result).__name__)
        if counter is None or result in self._seen:
            return
        self._seen.add(result)
        self.bytes[counter] += held_bytes(result)
        if counter == "semigroup.trajectory_mb":
            self.steps += int(result.times.size) - 1

    def calls(self, first: int, last: int) -> dict:
        """Calls per function among spans first..last-1 (one job's spans)."""
        return dict(collections.Counter(span[0] for span in self.spans[first:last]))

    def summary(self, job_seconds: float) -> dict:
        """Per-function self time and calls, module rollups, counters.

        ``job_seconds`` is the traced time of the jobs; coverage is the
        share of it spent inside a wrapped call.
        """
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        out = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                out[f"{module}.{fn}.self_s"] = 0.0
                out[f"{module}.{fn}.calls"] = 0
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.self_s"] += end - start - inner
            out[f"{name}.calls"] += 1
        for module, functions in LAYERS.items():
            out[f"{module}.self_s"] = sum(out[f"{module}.{fn}.self_s"] for fn in functions)
        out["semigroup.steps"] = self.steps
        for counter, nbytes in self.bytes.items():
            out[counter] = nbytes / 2**20
        out["trace.coverage"] = top / job_seconds if job_seconds > 0 else 0.0
        out["trace.errors"] = self.errors
        return out
