"""The README Quickstart runs as printed and prints what its comments say,
the README's `run` config parses with the keys, presets and tasks it
documents, its CLI synopsis lists the options the parser defines, and each
dotted phdiss name it cites resolves."""

import argparse
import contextlib
import importlib
import io
import re
import tomllib
from dataclasses import fields
from pathlib import Path

import pytest

from phdiss import (cli, control_signal, energy_audit, grids, initial_state,
                    make_uniform_grid, systems)
from phdiss.config import SUPPORTED_TASKS, ExperimentConfig, parse_config_text
from phdiss.systems import MODELS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _quickstart_source() -> str:
    text = README.read_text()
    section = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Quickstart"
    return match.group(1)


def test_readme_quickstart_runs_and_prints_the_documented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quickstart_source(), str(README), "exec"), {})
    lines = out.getvalue().split("\n")
    form, rate, q_res, dissipated, max_res = (float(v) for v in lines[:5])
    lhs, rhs = (float(v) for v in lines[5].split())
    # three routes to the same rate: sinh(1)^2 / 2 for the transport model
    assert rate == pytest.approx(form, rel=1e-12)
    assert form == pytest.approx(0.5 * 1.1752011936438014**2, rel=1e-12)
    assert abs(q_res) <= 1e-12
    # the README shows 0.4997916..., 0.6385 and 1.1510; pinned here at round-off
    assert str(dissipated).startswith("0.4997916")
    assert dissipated == pytest.approx(0.4997916666666671, rel=1e-12)
    assert 0.0 < max_res < 1e-2
    assert (f"{lhs:.4f}", f"{rhs:.4f}") == ("0.6385", "1.1510")
    assert lhs == pytest.approx(0.6384857263754418, rel=1e-12)
    assert rhs == pytest.approx(1.1509560166514825, rel=1e-12)
    assert lhs <= rhs
    assert lines[6:] == [""]


def _section(title: str) -> str:
    return README.read_text().split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _run_config_block() -> str:
    blocks = re.findall(r"```\n(.*?)```", _section("Command line"), re.DOTALL)
    found = [b for b in blocks if "model =" in b]
    assert len(found) == 1, "expected one key = value config block"
    return found[0]


def _documented_choices(block: str) -> dict[str, list[str]]:
    # "key = value   # a | b | c" lists the values the key accepts
    choices = {}
    for line in block.splitlines():
        setting, _, comment = line.partition("#")
        if "=" in setting and "|" in comment:
            key = setting.split("=", 1)[0].strip()
            choices[key] = [c.strip() for c in comment.split("|")]
    return choices


def test_readme_run_config_parses_as_documented():
    block = _run_config_block()
    cfg = parse_config_text(block)
    assert (cfg.model, cfg.n_grid, cfg.t_final, cfg.dt) == ("transport", 201, 1.0, "auto")
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]}
    assert keys == {f.name for f in fields(ExperimentConfig)}


def test_readme_run_config_choices_match_the_parser():
    block = _run_config_block()
    choices = _documented_choices(block)
    assert set(choices) == {"model", "x0_preset", "u_preset"}
    assert choices["model"] == list(MODELS)
    grid = make_uniform_grid(11)
    for key, values in choices.items():
        for value in values:
            # k and c stand for a number in the documented presets
            value = value.replace(":k", ":2").replace(":c", ":0.5")
            current = re.search(rf"^{key} = (\S+)", block, re.MULTILINE).group(1)
            cfg = parse_config_text(block.replace(f"{key} = {current}", f"{key} = {value}"))
            if key == "x0_preset":
                assert initial_state(grid, cfg.x0_preset).shape == (grid.n,)
            elif key == "u_preset":
                assert control_signal(cfg.u_preset, 1.0, 0.1).values.shape == (11, 1)


def test_readme_documents_every_task():
    tasks = _section("Command line").split("Tasks:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`([a-z_]+(?::[a-z_]+)?)`", tasks))
    assert documented == set(SUPPORTED_TASKS)


def test_readme_audit_residual_tells_classical_data_apart():
    # heat's free run at n = 101, dt = h: x0 = 1 breaks the Dirichlet
    # condition, sin(pi w) meets it
    tasks = _section("Command line").split("Tasks:", 1)[1].split("\n\n", 1)[0]
    assert "`audit.max_abs_residual` = 1.56, above H(0) = 0.5" in tasks
    assert "`x0_preset = sine:1` it reads 5.7e-5" in tasks
    grid = make_uniform_grid(101)
    heat = systems.assemble_model("heat", grid)
    u = control_signal("zero", 1.0, grid.h)
    read = {}
    for x0 in ("one", "sine:1"):
        read[x0] = energy_audit(heat, initial_state(grid, x0), u).max_abs_residual
    assert f"{read['one']:.2f}" == "1.56" and read["one"] > 0.5
    assert f"{read['sine:1']:.1e}" == "5.7e-05" and read["sine:1"] < 1e-4


@pytest.mark.parametrize("name", ["MAX_BAND", "MAX_OPERATOR_MB", "DAMPING", "BLOCK_BYTES"])
def test_readme_states_the_assembly_limits(name):
    module = {"MAX_OPERATOR_MB": grids, "BLOCK_BYTES": grids}.get(name, systems)
    assert f"`{module.__name__}.{name}` = {getattr(module, name)}" in README.read_text()


def test_readme_dotted_names_resolve():
    # every phdiss.<module>.<name> the README cites is still there to read, and
    # every system.<attr> on an assembled system
    text = README.read_text()
    names = set(re.findall(r"phdiss\.(\w+)\.(\w+(?:\.\w+)*)", text))
    assert names
    for module, attrs in sorted(names):
        obj = importlib.import_module(f"phdiss.{module}")
        for attr in attrs.split("."):
            assert hasattr(obj, attr), f"phdiss.{module}.{attrs}"
            obj = getattr(obj, attr)
    system = systems.assemble_model("transport", make_uniform_grid(5))
    attrs = set(re.findall(r"\bsystem\.(\w+)", text))
    assert attrs
    for attr in sorted(attrs):
        assert hasattr(system, attr), f"system.{attr}"


def _synopsis_options(text: str, verb: str) -> set[str]:
    line = next(line for line in text.splitlines()
                if line.strip().startswith(f"phdiss {verb}"))
    return set(re.findall(r"--[a-z][a-z-]*", line))


@pytest.mark.parametrize("source", ["README", "cli docstring"])
def test_cli_synopsis_lists_the_parser_options(source):
    text = _section("Command line") if source == "README" else cli.__doc__
    verbs = next(action for action in cli._build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)).choices
    for verb, parser in verbs.items():
        defined = {opt for action in parser._actions for opt in action.option_strings
                   if opt.startswith("--")} - {"--help"}
        assert _synopsis_options(text, verb) == defined, verb


def test_readme_states_the_python_floor_of_pyproject():
    # the dense roots free their temporaries only from CPython 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        floor = tomllib.load(fh)["project"]["requires-python"]
    assert re.fullmatch(r">=3\.\d+", floor)
    assert int(floor.split(".")[1]) >= 11
    install = " ".join(_section("Install").split())
    assert f"phdiss needs Python {floor[2:]} or newer" in install
