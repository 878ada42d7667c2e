"""Step records of the whole corpus, pinned against a recorded run.

`golden/builtin_all.json` is the output of
`derivkit builtin --all --seed 42 --json` with each report's `ms`
dropped. Every other field must come out the same: verdict, soundness,
failure, each step's printed goal and obligation list, and the numeric
report. The residual is float noise from sampled evaluation, so it is
compared to a tight tolerance rather than bit for bit.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from derivkit.cli import main

GOLDEN = Path(__file__).with_name("golden") / "builtin_all.json"


@pytest.fixture(scope="module")
def reports():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["builtin", "--all", "--seed", "42", "--json"])
    assert code == 0
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_names_in_order(reports, golden):
    assert [r["theory"] for r in reports] == [g["theory"] for g in golden]


@pytest.mark.parametrize("index", range(19))
def test_report_matches_golden(reports, golden, index):
    want = dict(golden[index])
    got = dict(reports[index])
    assert isinstance(got.pop("ms"), int)
    got_numeric = got.pop("numeric", None)
    want_numeric = want.pop("numeric", None)
    assert got == want
    assert (got_numeric is None) == (want_numeric is None)
    if want_numeric is not None:
        assert got_numeric["seed"] == want_numeric["seed"]
        assert got_numeric["samples"] == want_numeric["samples"]
        assert got_numeric["worst_residual"] == pytest.approx(
            want_numeric["worst_residual"], rel=1e-6, abs=1e-15)
