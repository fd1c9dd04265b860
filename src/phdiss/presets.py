"""Named initial states and controls used by the CLI, scripts and tests."""

from __future__ import annotations

import math

import numpy as np

from .grids import Grid
from .semigroup import ControlSignal, SignalError


# The most steps a named control may take: its (steps + 1) x m samples are
# allocated at once, and 10^7 steps of one channel already take 80 MB.
MAX_STEPS = 10**7


class PresetError(ValueError):
    pass


def _split(preset: str):
    parts = preset.split(":", 1)
    return parts[0], (parts[1] if len(parts) == 2 else None)


def initial_state(grid: Grid, preset: str) -> np.ndarray:
    """Sample a named initial profile as a float64 array on the grid nodes.

    ``one``, ``zero``, ``sinh_bc`` (sinh(1 - w), outflow-compatible),
    ``poly:k`` for (1 - w)^k, ``sine:k`` for sin(k pi w).
    """
    base, param = _split(preset)
    if base == "one":
        return np.ones(grid.n)
    if base == "zero":
        return np.zeros(grid.n)
    if base == "sinh_bc":
        return np.sinh(1.0 - grid.nodes)
    if base not in ("poly", "sine"):
        raise PresetError(f"unknown initial-state preset {preset!r}")
    try:
        k = int(param)
    except (TypeError, ValueError):
        raise PresetError(f"invalid parameter in preset {preset!r}") from None
    if k < 1:
        what = "poly exponent" if base == "poly" else "sine frequency"
        raise PresetError(f"{what} must be >= 1, got {k}")
    return (1.0 - grid.nodes) ** k if base == "poly" else np.sin(k * np.pi * grid.nodes)


def control_signal(preset: str, t_final: float, dt: float, m: int = 1) -> ControlSignal:
    """Build a named control on the clock 0, dt, ..., t_final: ``zero``,
    ``const:c`` (u = c) or ``ramp:c`` (u = c t), each in all m channels.

    It refuses more than MAX_STEPS steps before allocating any sample.
    """
    base, param = _split(preset)
    if base not in ("zero", "const", "ramp"):
        raise PresetError(f"unknown control preset {preset!r}")
    level = 0.0
    if base != "zero":
        try:
            level = float(param)
        except (TypeError, ValueError):
            raise PresetError(f"invalid parameter in preset {preset!r}") from None
        if not math.isfinite(level):
            raise PresetError(f"control level must be finite, got {preset!r}")
    if not (0 < t_final < math.inf and 0 < dt < math.inf):
        raise SignalError(
            f"t_final and dt must be positive and finite, got {t_final} and {dt}")
    ratio = t_final / dt  # inf when it overflows, so refused here too
    if not ratio <= MAX_STEPS:
        raise SignalError(f"t_final / dt = {ratio:.3g} steps exceeds the cap of "
                          f"{MAX_STEPS} steps (presets.MAX_STEPS)")
    steps = round(ratio)
    if steps < 1 or abs(steps * dt - t_final) > 1e-9 * max(dt, t_final):
        raise SignalError(f"t_final={t_final} is not an integer multiple of dt={dt}")
    values = np.full((steps + 1, m), level)
    if base == "ramp":
        values *= np.linspace(0.0, t_final, steps + 1)[:, None]
    return ControlSignal(t_final, values)
