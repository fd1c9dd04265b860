"""The two scripts in scripts/ run at small sizes and print the lines that
benchmarks/checks.py parses."""

import csv
import importlib.util
import re
import tracemalloc
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


def test_transport_energy_audit_script_holds_no_trajectory(tmp_path, capsys):
    # n = 401, t_final = 8: each of the two audits steps its 3,201 states in
    # blocks of 64 and keeps its ledger, not the 10.3 MB of stacked states
    # (1.4 MB measured)
    main = _main("transport_energy_audit.py")
    assert main(["--n-grid", "21", "--out", str(tmp_path)]) == 0  # lazy imports
    tracemalloc.start()
    try:
        status = main(["--n-grid", "401", "--t-final", "8", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and "(ok)" in capsys.readouterr().out
    assert peak <= 3201 * 401 * 8 / 5


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


@pytest.mark.parametrize("name, argv, message", [
    ("closability_refinement.py", ["--sizes", "41", "81"],
     "a refinement study needs at least three grid sizes"),
    ("transport_energy_audit.py", ["--n-grid", "2"], "need at least 3 nodes, got 2"),
], ids=["two_sizes", "two_nodes"])
def test_script_refuses_bad_input_as_a_usage_error(capsys, name, argv, message):
    # the package's error becomes argparse's one-line message and exit status 2,
    # as phdiss gives, before the script prints anything
    with pytest.raises(SystemExit) as exc:
        _main(name)(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f": error: {message}")
