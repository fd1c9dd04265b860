"""The README Quickstart runs as printed and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


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
