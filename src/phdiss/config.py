"""Flat key = value experiment configs.

Example::

    # transport full-exit audit
    model = transport
    n_grid = 201
    t_final = 1.0
    dt = auto
    x0_preset = one
    u_preset = zero
    tasks = simulate, audit, rt_bound
    out_dir = out/transport
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .probes import SEQUENCE_TAGS
from .systems import MODELS


class ConfigError(ValueError):
    pass


SUPPORTED_TASKS = ("simulate", "audit", "rt_bound", "q_check", "refine",
                   *(f"probe:{tag}" for tag in SEQUENCE_TAGS))
REQUIRED_KEYS = ("model", "n_grid", "t_final", "x0_preset", "u_preset",
                 "tasks", "out_dir")
OPTIONAL_KEYS = ("dt",)


@dataclass
class ExperimentConfig:
    model: str
    n_grid: int
    t_final: float
    x0_preset: str
    u_preset: str
    tasks: tuple[str, ...]
    out_dir: str
    dt: float | str = "auto"

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unsupported model: {self.model!r}")
        if self.n_grid < 3:
            raise ConfigError(f"n_grid must be at least 3, got {self.n_grid}")
        if not 0 < self.t_final < math.inf:
            raise ConfigError(f"t_final must be positive and finite, got {self.t_final}")
        if self.dt != "auto":
            if not isinstance(self.dt, float) or not 0 < self.dt < math.inf:
                raise ConfigError(f"dt must be 'auto' or a positive number, got {self.dt!r}")
        bad = [t for t in self.tasks if t not in SUPPORTED_TASKS]
        if bad:
            raise ConfigError(f"unknown task(s): {', '.join(bad)}")
        if not self.tasks:
            raise ConfigError("tasks must not be empty")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value format; raises ConfigError with the line."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"malformed line {lineno}: {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in REQUIRED_KEYS + OPTIONAL_KEYS:
            raise ConfigError(f"unknown key: {key} (line {lineno})")
        if not value:
            raise ConfigError(f"empty value for {key} (line {lineno})")
        raw[key] = value
    for key in REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing key: {key}")

    def _num(key: str, cast):
        try:
            return cast(raw[key])
        except ValueError:
            raise ConfigError(f"invalid value for {key}: {raw[key]!r}") from None

    dt: float | str = "auto"
    if raw.get("dt", "auto") != "auto":
        dt = _num("dt", float)
    tasks = tuple(t.strip() for t in raw["tasks"].split(",") if t.strip())
    return ExperimentConfig(
        model=raw["model"],
        n_grid=_num("n_grid", int),
        t_final=_num("t_final", float),
        x0_preset=raw["x0_preset"],
        u_preset=raw["u_preset"],
        tasks=tasks,
        out_dir=raw["out_dir"],
        dt=dt,
    )


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())
