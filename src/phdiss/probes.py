"""Numerical closability probes.

The dissipation form r[x] is only closable when vanishing states force
vanishing form values. The probe feeds a test sequence x_n with
||x_n|| -> 0 into the form and watches whether r[x_n] lets go. Verdicts:

* ``non-closable-evidence``: the norms decay and the differences are
  form-Cauchy, yet r[x_n] stays bounded away from zero;
* ``closable-consistent``: same premise but the form values die out too;
* ``premise-not-met``: the sequence does not actually vanish in norm, or
  the pairwise form values do not settle, so the test says nothing.

The verdict is a statement about the discretized form at one resolution;
refinement_study reruns the probe across grids and reports whether the
verdict and the sampled quantities are stable under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dissipation import _form_rates
from .grids import Grid, as_state, make_uniform_grid, norm_sq
from .systems import DiscreteSystem, assemble_model

SEQUENCE_TAGS = ("power", "scaled_sine")

VERDICT_NON_CLOSABLE = "non-closable-evidence"
VERDICT_CLOSABLE = "closable-consistent"
VERDICT_PREMISE = "premise-not-met"


class ProbeError(ValueError):
    """Unusable probe or refinement-study parameters."""


def probe_states(sequence: str, grid: Grid, n_max: int,
                 custom: Callable[[int, np.ndarray], np.ndarray] | None = None) -> list[np.ndarray]:
    """Sample the test sequence x_1, ..., x_{n_max} on the grid.

    ``power`` is (1 - w)^n (vanishing in norm, boundary value pinned at 1);
    ``scaled_sine`` is n^{-1/2} sin(n pi w) (vanishing amplitude, growing
    oscillation). A callable custom(n, nodes) overrides both.
    """
    if custom is not None:
        return [np.asarray(custom(n, grid.nodes)) for n in range(1, n_max + 1)]
    if sequence == "power":
        return [(1.0 - grid.nodes) ** n for n in range(1, n_max + 1)]
    if sequence == "scaled_sine":
        return [np.sin(n * np.pi * grid.nodes) / np.sqrt(n) for n in range(1, n_max + 1)]
    raise ProbeError(f"unknown probe sequence {sequence!r}")


@dataclass(eq=False)
class ProbeReport:
    model_tag: str
    sequence: str
    indices: np.ndarray
    norms: np.ndarray
    r_values: np.ndarray
    max_pairwise: np.ndarray
    verdict: str
    norms_vanish: bool
    form_cauchy: bool
    detail: str = ""


def _norms_vanish(norms: np.ndarray, eps_norm: float) -> bool:
    if np.all(norms < 1e-14):
        return True
    if not np.all(np.diff(norms) < 0):
        return False
    if norms[-1] < eps_norm:
        return True
    # power-law decay shows as a negative log-log slope over the indices
    idx = np.arange(1, norms.size + 1, dtype=float)
    slope = np.polyfit(np.log(idx), np.log(np.maximum(norms, 1e-300)), 1)[0]
    return bool(slope <= -0.25)


def _form_cauchy(stats: np.ndarray, eps_form: float) -> bool:
    return bool(np.max(stats) < eps_form
                or (np.all(np.diff(stats) <= 1e-14) and stats[-1] < eps_form))


def closability_probe(system: DiscreteSystem, sequence: str, n_max: int = 8,
                      custom: Callable | None = None) -> ProbeReport:
    """Run the probe sequence through the system's dissipation form. The differences
    x_i - x_m, m > i, are formed explicitly (r_ii + r_mm - 2 Re r_im cancels) and
    rated in one product per i: n_max - 1 rows at most, O(n_max n) memory."""
    if n_max < 2:
        raise ProbeError(f"need at least two probe states, got n_max={n_max}")
    states = np.array([as_state(x, system.n) for x in
                       probe_states(sequence, system.grid, n_max, custom=custom)])
    norms = np.sqrt(norm_sq(system.weights, states))
    r_vals = _form_rates(system.f_bands, states)
    pair = np.zeros(n_max)
    for i in range(n_max - 1):
        pair[i] = _form_rates(system.f_bands, states[i] - states[i + 1:]).max()
    r1 = max(float(r_vals[0]), 0.0)
    eps_norm = 0.05
    eps_form = 0.05 * max(1.0, r1)
    delta = max(0.1 * r1, 1e-8)
    vanish = _norms_vanish(norms, eps_norm)
    cauchy = _form_cauchy(pair[:-1], eps_form)
    if not (vanish and cauchy):
        verdict = VERDICT_PREMISE
        why = []
        if not vanish:
            why.append("norms do not vanish")
        if not cauchy:
            why.append("pairwise form values do not settle")
        detail = "; ".join(why)
    elif float(r_vals[-1]) > delta:
        verdict = VERDICT_NON_CLOSABLE
        detail = (f"norms decay but r stays at {r_vals[-1]:.6g} "
                  f"(threshold {delta:.3g})")
    else:
        verdict = VERDICT_CLOSABLE
        detail = f"form values decay with the norms (last r = {r_vals[-1]:.3g})"
    return ProbeReport(model_tag=system.model_tag, sequence=sequence,
                       indices=np.arange(1, n_max + 1), norms=norms,
                       r_values=r_vals, max_pairwise=pair, verdict=verdict,
                       norms_vanish=vanish, form_cauchy=cauchy, detail=detail)


def _order_estimates(samples: np.ndarray, spacings: np.ndarray) -> list[float | None]:
    """Observed convergence orders from successive grid differences.

    None marks a difference at roundoff level, i.e. the quantity is exact
    on both grids.
    """
    orders: list[float | None] = []
    scale = max(float(np.max(np.abs(samples))), 1.0)
    for i in range(samples.size - 2):
        d1 = abs(samples[i] - samples[i + 1])
        d2 = abs(samples[i + 1] - samples[i + 2])
        if d1 < 1e-12 * scale or d2 < 1e-12 * scale:
            orders.append(None)
            continue
        orders.append(float(np.log(d1 / d2) / np.log(spacings[i] / spacings[i + 1])))
    return orders


@dataclass(eq=False)
class StudyReport:
    model_tag: str
    sequence: str
    grid_sizes: tuple[int, ...]
    reports: list[ProbeReport]
    verdicts: tuple[str, ...]
    verdict_stable: bool
    orders: dict = field(default_factory=dict)


def refinement_study(model_tag: str, grid_sizes: Sequence[int], sequence: str,
                     n_max: int = 8) -> StudyReport:
    """Rerun the probe across grids; report verdict stability and orders.

    Orders are estimated per probe index for the norm and the form value;
    quantities that the discretization reproduces exactly come back None.
    """
    sizes = tuple(int(s) for s in grid_sizes)
    if len(sizes) < 3:
        raise ProbeError("a refinement study needs at least three grid sizes")
    if any(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ProbeError("grid sizes must be strictly increasing")
    reports = []
    for size in sizes:
        system = assemble_model(model_tag, make_uniform_grid(size))
        reports.append(closability_probe(system, sequence, n_max=n_max))
    verdicts = tuple(r.verdict for r in reports)
    spacings = np.array([1.0 / (s - 1) for s in sizes])
    orders = {
        "norm": [_order_estimates(np.array([r.norms[i] for r in reports]), spacings)
                 for i in range(n_max)],
        "r_value": [_order_estimates(np.array([r.r_values[i] for r in reports]), spacings)
                    for i in range(n_max)],
    }
    return StudyReport(model_tag=model_tag, sequence=sequence, grid_sizes=sizes,
                       reports=reports, verdicts=verdicts,
                       verdict_stable=len(set(verdicts)) == 1, orders=orders)
