"""Golden bytes: CSV output pinned by sha256 across code changes.

Acceptance test C8 compares two runs of one build with each other; these
hashes pin the bytes themselves, so a refactor or optimisation of the
estimation path that changes any kept point, estimate, step, bound or error
fails here. The hashes were recorded before the stencil mask was vectorised;
the grid-signal and grid-report hashes before the CSV writer went bulk; the
challenge hash before the study and challenge tables moved onto that writer.
The study and CLI reports go through ``np.sin``/``np.cos``; the library and
grid cases use only correctly rounded arithmetic (+, -, *, /, sqrt) and the
splitmix hash, so their bytes do not depend on the platform's libm.

The last tests pin the input format of ``GridSignal.from_csv``: what it
accepts, with which values, what it refuses, and which of two defects it
reports.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from stablederiv import (
    Domain,
    FunctionOracle,
    GridSignal,
    NoisyOracle,
    ParameterError,
    SmoothnessSpec,
    UniformHashNoise,
    estimate,
)
from stablederiv.cli import cli_dispatch
from stablederiv.function_model import _CSV_BLOCK

STUDY_SHA256 = "8b3d0d5356886ed5cbef3c2d217eb81f1638ab96dec5fdd1ca3b8a5b54ad2034"
ESTIMATE_SHA256 = "1e14a055c36a11b490302821114a95a17f608b1600429a7f1926eff9b65d0ed3"
LIBRARY_SHA256 = "838a668a1e30e401867f06aa65578c1b5e76693eedf06dd32607f04ddfedc134"
GRID_SIGNAL_SHA256 = "a609d5fde5da210e44239bac64c9b98f67643595a8e5c93a5bb6183dfbecf519"
GRID_REPORT_SHA256 = "b4702e02889cc8cd8d6ed85c76620df2ae847e9b33902d09811d35918ea9782b"
CHALLENGE_SHA256 = "c4054a828449e0a2c52008e2073677799f8e36083a5223695013cfe0b10cdbb6"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_study_csv(tmp_path):
    out = tmp_path / "study.csv"
    code = cli_dispatch(
        [
            "study", "--fn", "sin", "--spec", "c2:m2=1",
            "--deltas", "1e-2:1e-5:4", "--noise", "uniform-hash",
            "--seed", "123", "--grid-points", "501", "--out", str(out),
        ]
    )
    assert code == 0
    assert _sha256(out) == STUDY_SHA256


def test_golden_estimate_report_csv(tmp_path):
    out = tmp_path / "report.csv"
    code = cli_dispatch(
        [
            "estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "1e-4",
            "--noise", "uniform-hash", "--seed", "7", "--points=-1:1:21",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,estimate,h,bound,abs_error"
    assert _sha256(out) == ESTIMATE_SHA256


def test_golden_library_report_drops_both_ends(tmp_path):
    cube = FunctionOracle(
        eval=lambda x: x * x * x,
        derivative_eval=lambda x: 3.0 * x * x,
        domain=Domain.interval(0.0, 1.0),
        name="cube",
    )
    oracle = NoisyOracle(base=cube, delta=1e-3, noise=UniformHashNoise(seed=11))
    report = estimate(oracle, SmoothnessSpec.c2(m2=6.0), np.linspace(0.0, 1.0, 101))
    # h = sqrt(2e-3/6) = 0.018...: 0 and 0.01 fall off the left end, 0.99 and 1 the right
    assert report.dropped_points == 4
    assert report.points[0] == 0.02 and report.points[-1] == 0.98
    out = tmp_path / "library.csv"
    report.to_csv(out)
    assert _sha256(out) == LIBRARY_SHA256


def test_golden_grid_signal_and_grid_report(tmp_path):
    n, x0, spacing, delta = 401, -1.0, 0.005, 1e-3
    xs = x0 + spacing * np.arange(n)
    values = xs * xs * xs - 0.5 * xs + delta * UniformHashNoise(seed=5).unit(xs)
    signal_csv = tmp_path / "signal.csv"
    GridSignal(x0=x0, spacing=spacing, values=values, delta=delta).to_csv(signal_csv)
    assert _sha256(signal_csv) == GRID_SIGNAL_SHA256

    out = tmp_path / "grid-report.csv"
    code = cli_dispatch(
        [
            "estimate", "--grid-csv", str(signal_csv), "--delta", repr(delta),
            "--spec", "c2:m2=6", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,estimate,h,bound"
    assert _sha256(out) == GRID_REPORT_SHA256


def test_golden_challenge_csv(tmp_path):
    out = tmp_path / "challenges.csv"
    code = cli_dispatch(["adversary", "--delta", "0.005", "--M", "1", "--out", str(out)])
    assert code == 0
    assert _sha256(out) == CHALLENGE_SHA256


_PLAIN_GRID = "x,value\n0.0,1.0\n0.1,10.0\n0.2,2.5\n0.3,2.0\n"


@pytest.mark.parametrize(
    "text",
    [
        _PLAIN_GRID,
        _PLAIN_GRID.replace("x,value", " x , value "),
        "x,value\n# note\n0.0,1.0\n\n0.1,10.0\n#,junk\n0.2,2.5\n0.3,2.0\n\n",
        _PLAIN_GRID.replace("\n", "\r\n"),
        _PLAIN_GRID.replace("0.1,10.0", '"0.1","10.0"'),
        _PLAIN_GRID.replace("10.0", "1_0"),
        _PLAIN_GRID.replace("0.2,2.5", " 0.2 , 2.5 "),
        _PLAIN_GRID.replace("1.0\n", "1.0,extra\n").replace("2.5", "2.5,,"),
        "\ufeff" + _PLAIN_GRID,  # the UTF-8 byte-order mark spreadsheets write
    ],
    ids=["plain", "padded-header", "comments-and-blanks", "crlf", "quoted",
         "underscore-digits", "padded-cells", "extra-columns", "bom"],
)
def test_grid_csv_accepted_inputs(tmp_path, text):
    path = tmp_path / "grid.csv"
    path.write_bytes(text.encode())
    signal = GridSignal.from_csv(path, delta=0.0)
    assert signal.x0 == 0.0
    assert signal.spacing == 0.3 / 3
    assert signal.values.tolist() == [1.0, 10.0, 2.5, 2.0]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x,value\n",
        "\nx,value\n0.0,1.0\n0.1,10.0\n0.2,2.5\n",
        "# note\n" + _PLAIN_GRID,
        _PLAIN_GRID.replace("x,value", "x,value,note"),
        _PLAIN_GRID.replace("0.2,2.5", "0.2"),
        _PLAIN_GRID.replace("2.5", "abc"),
        _PLAIN_GRID.replace("2.5", ""),
        _PLAIN_GRID.replace("\n0.3,2.0", "\n   "),
        "x,value\n0.0,1.0\n0.1,10.0\n",
        "x,value\n0.0,0.0\n0.1,0.0\n0.35,0.0\n",
        _PLAIN_GRID.encode().replace(b"2.5", b"2\xff5"),
        _PLAIN_GRID.replace("2.5", "2" * 131_073),
        _PLAIN_GRID.replace("10.0", "nan"),
        _PLAIN_GRID.replace("10.0", "inf"),
        _PLAIN_GRID.replace("0.1,", "nan,"),
        _PLAIN_GRID.replace("0.3,", "inf,"),
        "x,value\n-1e308,0.0\n0,0.0\n1e308,0.0\n",
        # f(x) = x on steps of 1e-10 to 8e-10: within 1e-9 absolute, far off 1e-9 of the step
        "x,value\n" + "".join(f"{x},{x}\n" for x in ("0.0", "1e-10", "9e-10", "1e-09", "1.1e-09",
                                                       "1.5e-09")),
    ],
    ids=["empty-file", "header-only", "blank-before-header", "comment-before-header",
         "extra-header-column", "one-column-row", "non-numeric-cell", "empty-cell",
         "whitespace-row", "two-samples", "non-uniform", "not-utf-8", "oversized-cell",
         "nan-value", "inf-value", "nan-middle-x", "inf-last-x", "overflowing-span",
         "non-uniform-small-steps"],
)
def test_grid_csv_refused_inputs(tmp_path, text):
    path = tmp_path / "grid.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: "):
        GridSignal.from_csv(path, delta=0.0)


def test_grid_csv_allows_rounding_in_the_x_cells(tmp_path):
    # steps of 1e-8 at x = 1 are uniform only to an ulp of 1.0, far above 1e-9 of the step
    xs = [1.0 + k * 1e-8 for k in range(5)]
    assert max(abs(b - a - 1e-8) for a, b in zip(xs, xs[1:])) > 1e-9 * 1e-8
    path = tmp_path / "grid.csv"
    path.write_text("x,value\n" + "".join(f"{x!r},0.0\n" for x in xs))
    assert GridSignal.from_csv(path, delta=0.0).spacing == (xs[-1] - xs[0]) / 4


def test_grid_csv_two_defects_report_the_earlier_block(tmp_path):
    # the malformed row opens the first block and the undecodable byte ends the second,
    # far past the decoder's read-ahead, so the file is refused for the malformed row
    rows = "".join(f"{k / 10!r},0.0\n" for k in range(2, 2 * _CSV_BLOCK))
    path = tmp_path / "grid.csv"
    path.write_bytes(b"x,value\n0.0,abc\n" + rows.encode() + b"0.5,\xff\n")
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: malformed row"):
        GridSignal.from_csv(path, delta=0.0)
