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
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .probes import SEQUENCE_TAGS
from .systems import MODELS


class ConfigError(ValueError):
    pass


SUPPORTED_TASKS = ("simulate", "audit", "rt_bound", "q_check",
                   *(f"probe:{tag}" for tag in SEQUENCE_TAGS))


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
        if len(set(self.tasks)) < len(self.tasks):
            raise ConfigError(f"a task is listed twice: {', '.join(self.tasks)}")
        if sum(t.startswith("probe:") for t in self.tasks) > 1:
            raise ConfigError("a run takes at most one probe task: each writes probe.csv")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value format; the keys are the ExperimentConfig
    fields, required unless they have a default. Raises ConfigError."""
    keys = {f.name: f.default is MISSING for f in fields(ExperimentConfig)}
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"malformed line {lineno}: {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in keys:
            raise ConfigError(f"unknown key: {key} (line {lineno})")
        if not value:
            raise ConfigError(f"empty value for {key} (line {lineno})")
        if key in raw:
            raise ConfigError(f"duplicate key: {key} (line {lineno})")
        raw[key] = value
    for key, required in keys.items():
        if required and key not in raw:
            raise ConfigError(f"missing key: {key}")
    for key, cast in (("dt", float), ("n_grid", int), ("t_final", float)):
        if key in raw and not (key == "dt" and raw[key] == "auto"):
            try:
                raw[key] = cast(raw[key])
            except ValueError:
                raise ConfigError(f"invalid value for {key}: {raw[key]!r}") from None
    raw["tasks"] = tuple(t.strip() for t in raw["tasks"].split(",") if t.strip())
    return ExperimentConfig(**raw)


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())
