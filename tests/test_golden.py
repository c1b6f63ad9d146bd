"""Golden bytes: CSV output pinned by sha256 across code changes.

Acceptance test C8 compares two runs of one build with each other; these
hashes pin the bytes themselves, so a refactor or optimisation of the
estimation path that changes any kept point, estimate, step, bound or error
fails here. The hashes were recorded before the stencil mask was vectorised.
The study and CLI reports go through ``np.sin``/``np.cos``; the library case
uses only correctly rounded arithmetic (+, -, *, /, sqrt) and the splitmix
hash, so its bytes do not depend on the platform's libm.
"""

from __future__ import annotations

import hashlib

import numpy as np

from stablederiv import (
    Domain,
    FunctionOracle,
    NoisyOracle,
    SmoothnessSpec,
    UniformHashNoise,
    estimate,
)
from stablederiv.cli import cli_dispatch

STUDY_SHA256 = "8b3d0d5356886ed5cbef3c2d217eb81f1638ab96dec5fdd1ca3b8a5b54ad2034"
ESTIMATE_SHA256 = "1e14a055c36a11b490302821114a95a17f608b1600429a7f1926eff9b65d0ed3"
LIBRARY_SHA256 = "838a668a1e30e401867f06aa65578c1b5e76693eedf06dd32607f04ddfedc134"


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
