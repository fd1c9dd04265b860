"""The two scripts in scripts/ run at small sizes and print the lines that
benchmarks/checks.py parses."""

import csv
import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_transport_energy_audit_script(tmp_path, capsys):
    main = _main("transport_energy_audit.py")
    assert main(["--n-grid", "41", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^\s*slack\s*=.*\(ok\)$", out, re.M)
    free = re.search(r"^\s*dissipated total = (\S+) \(exact: 0\.5\)$", out, re.M)
    assert abs(float(free.group(1)) - 0.5) < 1e-2
    with open(tmp_path / "ledger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41  # K + 1 samples at dt = h, t_final = 1
    # the ledger holds the printed total, which is rounded to 10 decimals
    assert float(rows[-1]["dissipated_cum"]) == pytest.approx(
        float(free.group(1)), abs=1e-10)


@pytest.mark.parametrize("model, sequence, verdict", [
    ("transport", "power", "non-closable-evidence"),
    ("heat", "scaled_sine", "premise-not-met"),
])
def test_closability_refinement_script(capsys, model, sequence, verdict):
    main = _main("closability_refinement.py")
    argv = ["--model", model, "--sequence", sequence, "--sizes", "41", "81", "161"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    verdicts = re.findall(r"^\s*n_grid = (\d+): (\S+)$", out, re.M)
    assert verdicts == [("41", verdict), ("81", verdict), ("161", verdict)]
    assert re.search(r"verdict under refinement: stable$", out, re.M)
