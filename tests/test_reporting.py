"""The CSV writers write each row through their file's row format: a float
cell is the %.17g text of the float and reads back as the same float, an
int cell is the integer and a str cell the string as given, under one
header line, with LF line endings."""

import math
import string
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phdiss.probes import ProbeReport
from phdiss.reporting import (LEDGER_HEADER, PROBE_HEADER, VERIFY_HEADER,
                              write_ledger_csv, write_probe_csv, write_verify_csv)
from phdiss.verify import VerifyReport, VerifyRow

# the edges of %.17g spelled out: signed zeros, the least subnormal, the
# least normal, values near the largest finite float, NaN and the infinities
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
         1.7976931348623157e308, math.nan, math.inf, -math.inf]
FLOATS = st.sampled_from(EDGES) | st.floats(allow_nan=True, allow_infinity=True)
# ASCII without the separators; '%' shows a str cell is not itself a format
WORDS = st.text(string.ascii_letters + string.digits + "-_:. %", max_size=12)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def _float_text(x) -> str:
    return format(float(x), ".17g")


def _reads_back(text: str, x: float) -> bool:
    y = float(text)
    if math.isnan(x):
        return math.isnan(y)
    return y == x and math.copysign(1.0, y) == math.copysign(1.0, x)


def _check(path, header, cells):
    """The file holds exactly the header and the given cells, one row a line."""
    lines = [",".join(header)] + [",".join(row) for row in cells]
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()


@given(rows=st.lists(st.tuples(*[FLOATS] * 7), max_size=6))
@example(rows=[tuple(EDGES[:7]), tuple(EDGES[4:])])
def test_ledger_rows_are_17g_floats(out, rows):
    cols = np.array(rows, dtype=float).reshape(-1, 7).T
    ledger = SimpleNamespace(times=cols[0], hamiltonian=cols[1], supply_rate=cols[2],
                             dissipation_rate=cols[3], supplied=cols[4],
                             dissipated=cols[5], residuals=cols[6])
    path = write_ledger_csv(out / "ledger.csv", ledger)
    _check(path, LEDGER_HEADER, [[_float_text(x) for x in row] for row in rows])
    data = path.read_text().splitlines()[1:]
    assert all(_reads_back(t, x) for line, row in zip(data, rows)
               for t, x in zip(line.split(","), row))


@given(rows=st.lists(st.tuples(st.integers(0, 2**53), FLOATS, FLOATS, FLOATS),
                     max_size=6),
       index_dtype=st.sampled_from([np.int64, np.float64]), verdict=WORDS)
@example(rows=[(1, -0.0, 5e-324, math.nan), (2**53, 1.7e308, -1.7e308, math.inf)],
         index_dtype=np.float64, verdict="non-closable-evidence")
def test_probe_rows_keep_ints_and_strings(out, rows, index_dtype, verdict):
    # the index column holds integers whatever dtype the indices arrive in
    cols = [np.array(c, dtype=float) for c in zip(*rows)] or [np.empty(0)] * 4
    report = ProbeReport(model_tag="transport", sequence="power",
                         indices=cols[0].astype(index_dtype), norms=cols[1],
                         r_values=cols[2], max_pairwise=cols[3], verdict=verdict,
                         norms_vanish=True, form_cauchy=True)
    path = write_probe_csv(out / "probe.csv", report)
    _check(path, PROBE_HEADER,
           [[str(n), *map(_float_text, floats), verdict] for n, *floats in rows])


@given(rows=st.lists(st.tuples(WORDS, FLOATS, FLOATS, FLOATS, st.booleans()),
                     max_size=6))
@example(rows=[("full_exit_residual", -0.0, 5e-324, 1e-12, True),
               ("rate_poly1", math.nan, -1.7e308, 1.7e308, False)])
def test_verify_rows_pass_raw_floats(out, rows):
    report = VerifyReport(n_grid=3, rows=[VerifyRow(*row) for row in rows])
    path = write_verify_csv(out / "verify_paper.csv", report)
    _check(path, VERIFY_HEADER,
           [[name, *map(_float_text, floats), "pass" if ok else "fail"]
            for name, *floats, ok in rows])
