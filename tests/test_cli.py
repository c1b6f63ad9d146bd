"""Flag parsing, studies, slope fitting, and the exit-code contract."""

from __future__ import annotations

import argparse
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stablederiv import (
    ConfigurationError,
    Domain,
    EstimateReport,
    InsufficientDataError,
    NoisyOracle,
    SmoothnessSpec,
    SpecKind,
    StepRule,
    UnstableFamilyError,
    optimal_step_c2,
)
from stablederiv import cli
from stablederiv.cli import (
    StudyConfig,
    StudyRow,
    build_parser,
    cli_dispatch,
    fit_slope,
    parse_deltas,
    parse_domain,
    parse_points,
    parse_spec,
    parse_window,
    run_study,
    theory_slope,
    write_study_csv,
)


# ---------------------------------------------------------------------------
# flag-value parsing
# ---------------------------------------------------------------------------


def test_parse_window():
    assert parse_window("-1:2.5") == (-1.0, 2.5)
    for bad in ("1", "2:1", "a:b", "1:2:3", "-inf:inf", "0:nan", "-inf:0", "-1e308:1e308"):
        with pytest.raises(ConfigurationError):
            parse_window(bad)


def test_parse_points():
    pts = parse_points("-1:1:5")
    assert np.allclose(pts, [-1.0, -0.5, 0.0, 0.5, 1.0])
    for bad in ("1:2", "2:1:5", "0:1:0", "0:1:x"):
        with pytest.raises(ConfigurationError):
            parse_points(bad)


def test_parse_deltas_log_spacing():
    deltas = parse_deltas("1e-2:1e-7:6")
    assert len(deltas) == 6
    assert deltas[0] == pytest.approx(1e-2, rel=1e-12)
    assert deltas[-1] == pytest.approx(1e-7, rel=1e-12)
    ratios = [deltas[i] / deltas[i + 1] for i in range(5)]
    assert all(r == pytest.approx(10.0, rel=1e-9) for r in ratios)
    for bad in ("1e-2:1e-7", "0:1e-7:6", "1e-2:-1:6", "1e-2:1e-7:0", "inf:1e-5:4"):
        with pytest.raises(ConfigurationError):
            parse_deltas(bad)


def test_parse_spec_forms():
    c2 = parse_spec("c2:m2=1")
    assert c2.kind is SpecKind.C2 and c2.bound == 1.0

    holder = parse_spec("holder:a=0.5,m=2")
    assert holder.kind is SpecKind.HOLDER
    assert holder.exponent == 0.5 and holder.bound == 2.0

    for unstable in ("m0:0.5", "m1:m1=0.25", "M1:oops"):  # refused before parameters are read
        with pytest.raises(UnstableFamilyError):
            parse_spec(unstable)

    for bad in ("c3:m2=1", "c2", "holder:a=0.5", "holder:a=2,m=1", "c2:m2=oops", "c2:1",
                "c2:m2=1,a=9", "holder:a=0.5,m=1,m2=0.001", "c2:m2=1,m2=4", "c2:m=1"):
        with pytest.raises(ConfigurationError):
            parse_spec(bad)


@pytest.mark.parametrize("text", ["c2:1", "holder:0.5", "holder:a=0.5,1"])
def test_parse_spec_asks_for_key_value(text):
    with pytest.raises(ConfigurationError, match="expected key=value"):
        parse_spec(text)


@pytest.mark.parametrize(
    "fn, text, message",
    [
        ("sin", "c2:m2=1,a=9", "unknown key 'a'; c2 takes m2"),
        ("holder:a=0.5", "holder:a=0.5,m=1,m2=0.001", "unknown key 'm2'; holder takes a, m"),
        ("sin", "c2:m2=1,m2=4", "key 'm2' is given twice"),
        ("holder:a=0.5", "holder:a=0.25,m=1, a=0.5", "key 'a' is given twice"),
    ],
)
@pytest.mark.parametrize("command", ["estimate", "study"])
def test_dispatch_refuses_an_unknown_or_repeated_spec_key(capsys, fn, text, message, command):
    # each ran with exit 0, the extra key ignored or the last value kept
    rest = ["--delta", "1e-4"] if command == "estimate" else ["--deltas", "1e-2:1e-5:4"]
    code = cli_dispatch([command, "--fn", fn, "--spec", text, *rest])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert message in captured.err


def test_parse_domain_forms():
    assert parse_domain("real") == Domain.real_line()
    assert parse_domain("half") == Domain.half_line()
    assert parse_domain("interval:2.5") == Domain.interval(0.0, 2.5)
    # the rule names printed by `bound` are not domain names
    for bad in ("circle", "interval", "interval:-1", "whole-line", "line", "r", "half-line",
                "intervalx:1", "intervals:2"):
        with pytest.raises(ConfigurationError):
            parse_domain(bad)


# ---------------------------------------------------------------------------
# study configuration and slope fitting
# ---------------------------------------------------------------------------


def _config(**overrides):
    defaults = dict(
        function="sin",
        spec=SmoothnessSpec.c2(1.0),
        deltas=(1e-2, 1e-3, 1e-4, 1e-5),
        noise_name="none",
        seed=0,
        window=(-3.0, 3.0),
        grid_points=301,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


def test_study_config_validation():
    with pytest.raises(ConfigurationError):
        _config(deltas=(1e-2, 1e-3, 1e-4))  # too few
    with pytest.raises(ConfigurationError):
        _config(deltas=(1e-2, 1e-2, 1e-3, 1e-4))  # not strictly decreasing
    with pytest.raises(ConfigurationError):
        _config(deltas=(1e-2, 1e-3, 1e-4, 0.0))
    with pytest.raises(ConfigurationError):
        _config(grid_points=2)
    with pytest.raises(ConfigurationError):
        _config(window=(1.0, -1.0))
    with pytest.raises(ConfigurationError):
        _config(window=(-math.inf, math.inf))
    with pytest.raises(ConfigurationError):
        _config(window=(-1e308, 1e308))  # finite ends, but hi - lo overflows


def _rows_for(law):
    deltas = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    return [
        StudyRow(delta=d, h_used=0.1, theory_bound=1.0, measured_sup_error=law(d),
                 n_points=100, seed=0)
        for d in deltas
    ]


def test_fit_slope_recovers_exact_power_laws():
    assert fit_slope(_rows_for(lambda d: 2.0 * d**0.5)) == pytest.approx(0.5, abs=1e-12)
    assert fit_slope(_rows_for(lambda d: 0.7 * d ** (1 / 3))) == pytest.approx(1 / 3, abs=1e-12)
    # flat data: the no-convergence signature
    assert fit_slope(_rows_for(lambda d: 0.25)) == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_skips_zero_rows_and_requires_two():
    rows = _rows_for(lambda d: 0.0)
    with pytest.raises(InsufficientDataError):
        fit_slope(rows)
    rows[0] = StudyRow(1e-2, 0.1, 1.0, 0.5, 100, 0)
    with pytest.raises(InsufficientDataError):
        fit_slope(rows)  # only one usable row


def test_theory_slope():
    assert theory_slope(SmoothnessSpec.c2(1.0)) == 0.5
    assert theory_slope(SmoothnessSpec.holder(0.5, 1.0)) == pytest.approx(1 / 3)


def test_run_study_basic_contract():
    rows, slope = run_study(_config())
    assert len(rows) == 4
    assert [r.delta for r in rows] == sorted((r.delta for r in rows), reverse=True)
    for r in rows:
        assert r.h_used == pytest.approx(optimal_step_c2(r.delta, 1.0), rel=1e-15)
        assert r.theory_bound == pytest.approx(math.sqrt(2 * r.delta), rel=1e-15)
        assert r.measured_sup_error <= r.theory_bound
        assert r.n_points == 301
        assert r.seed == 0
    # zero injected noise: pure truncation, slope near 1 (not 1/2)
    assert slope == pytest.approx(1.0, abs=0.05)


def test_run_study_rejects_underdeclared_curvature():
    with pytest.raises(ConfigurationError):
        run_study(_config(spec=SmoothnessSpec.c2(0.5)))  # sin has sup|f''| = 1


def test_run_study_rejects_underdeclared_holder_seminorm():
    with pytest.raises(ConfigurationError):
        run_study(
            _config(
                function="holder:a=0.5",
                spec=SmoothnessSpec.holder(0.5, 0.3),  # true seminorm is 1
            )
        )


def test_run_study_cosine_noise_tracks_theory_rate():
    rows, slope = run_study(
        _config(
            noise_name="cosine-adversarial",
            deltas=tuple(parse_deltas("1e-2:1e-6:5")),
            grid_points=1001,
        )
    )
    assert slope == pytest.approx(0.5, abs=0.1)
    for r in rows:
        assert r.measured_sup_error <= r.theory_bound


def test_write_study_csv_layout(tmp_path):
    rows, slope = run_study(_config())
    path = tmp_path / "study.csv"
    write_study_csv(rows, slope, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "delta,h_used,theory_bound,measured_sup_error,n_points,seed"
    assert len(lines) == 1 + len(rows) + 1
    assert lines[-1].startswith("# slope,")
    assert float(lines[-1].split(",")[1]) == slope
    first = lines[1].split(",")
    assert float(first[0]) == rows[0].delta
    assert int(first[4]) == rows[0].n_points


# ---------------------------------------------------------------------------
# dispatch and exit codes
# ---------------------------------------------------------------------------


def test_dispatch_bound_example(capsys):
    code = cli_dispatch(["bound", "--m0", "1", "--m2", "1", "--domain", "real"])
    out = capsys.readouterr().out
    assert code == 0
    assert "m1_bound=1.4142135623730951" in out
    assert "rule=whole-line" in out
    assert "threshold_length=2.0" in out


def test_dispatch_bound_interval(capsys):
    code = cli_dispatch(["bound", "--m0", "1", "--m2", "1", "--domain", "interval:1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "m1_bound=2.5" in out and "rule=short-interval" in out


# recorded before m1_bound took a Domain; every accepted --domain keeps these bytes
_THRESHOLD = " threshold_length=2.9277002188455996\n"
_BOUND_STDOUT = {
    "real": "m1_bound=1.4491376746189437 rule=whole-line" + _THRESHOLD,
    "half": "m1_bound=2.0493901531919194 rule=half-line" + _THRESHOLD,
    "interval:0.5": "m1_bound=6.175 rule=short-interval" + _THRESHOLD,
    "interval:1e-300": "m1_bound=2.9999999999999996e+300 rule=short-interval" + _THRESHOLD,
    "interval:inf": "m1_bound=2.0493901531919194 rule=half-line" + _THRESHOLD,
}


@pytest.mark.parametrize(
    "domain", [*_BOUND_STDOUT, "interval", "interval:0", "interval:-1", "interval:nan", "circle"]
)
def test_dispatch_bound_stdout_is_pinned(capsys, domain):
    code = cli_dispatch(["bound", "--m0", "1.5", "--m2", "0.7", "--domain", domain])
    out = capsys.readouterr().out
    if domain in _BOUND_STDOUT:
        assert (code, out) == (0, _BOUND_STDOUT[domain])
    else:
        assert (code, out) == (1, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--m0", "nan", "--m2", "1"],
        ["bound", "--m0", "1", "--m2", "nan", "--domain", "interval:1"],
        ["adversary", "--delta", "inf", "--M", "1"],
        ["adversary", "--delta", "1e-3", "--M", "inf"],
        ["estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "inf"],
        ["study", "--fn", "sin", "--spec", "c2:m2=1", "--deltas", "1e-2:1e-5:4",
         "--window=-inf:inf"],
        ["study", "--fn", "sin", "--spec", "c2:m2=1", "--deltas", "1e-2:1e-5:4",
         "--window=-1e308:1e308"],
        ["bound", "--m0", "inf", "--m2", "0", "--domain", "real"],
    ],
)
def test_dispatch_refuses_non_finite_inputs(capsys, argv):
    # a non-finite input is refused up front, never turned into a nan/inf result
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--fn", "sin", "--spec", "c2:m2=inf", "--delta", "1e-4"],
        ["estimate", "--fn", "sin", "--spec", "holder:a=0.5,m=inf", "--delta", "1e-4"],
        ["study", "--fn", "sin", "--spec", "c2:m2=inf", "--deltas", "1e-2:1e-5:4"],
        ["study", "--fn", "holder:a=0.5", "--spec", "holder:a=0.5,m=inf",
         "--deltas", "1e-2:1e-5:4"],
    ],
)
def test_dispatch_refuses_an_infinite_smoothness_bound(capsys, argv):
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "smoothness bound must be finite" in captured.err and "got inf" in captured.err


@pytest.mark.parametrize("source", ["fn", "grid-csv"])
def test_dispatch_estimate_refuses_zero_delta_in_cli_terms(tmp_path, capsys, source):
    from stablederiv import GridSignal

    signal = tmp_path / "sig.csv"
    GridSignal(x0=0.0, spacing=0.01, values=np.zeros(11), delta=0.0).to_csv(signal)
    given = ["--fn", "sin"] if source == "fn" else ["--grid-csv", str(signal)]
    code = cli_dispatch(["estimate", *given, "--spec", "c2:m2=1", "--delta", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "optimal step" in captured.err and "delta > 0" in captured.err
    assert "StepRule" not in captured.err


def test_dispatch_adversary_zero_estimator(capsys):
    code = cli_dispatch(
        ["adversary", "--delta", "0.005", "--M", "1", "--estimator", "zero", "--scan"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "estimator=zero" in out
    assert "worst=0.1" in out and "lower=0.1" in out and "beaten=false" in out
    assert "scan_best_b=0.0" in out


def test_dispatch_adversary_unknown_estimator(capsys):
    code = cli_dispatch(["adversary", "--delta", "0.005", "--M", "1", "--estimator", "oracle"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_dispatch_usage_errors_exit_one(capsys):
    assert cli_dispatch([]) == 1
    assert cli_dispatch(["estimate", "--frequency", "9"]) == 1
    assert cli_dispatch(["bound", "--m0", "1"]) == 1  # missing --m2
    capsys.readouterr()  # swallow argparse chatter


def test_dispatch_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert cli_dispatch(["study", "--help"]) == 0
    capsys.readouterr()


def test_dispatch_estimate_writes_report(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code = cli_dispatch(
        [
            "estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "1e-4",
            "--noise", "uniform-hash", "--seed", "7", "--points=-1:1:21",
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "measured_sup_error=" in stdout
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,estimate,h,bound,abs_error"
    assert len(lines) == 22


def test_dispatch_estimate_grid_csv(tmp_path, capsys):
    from stablederiv import GridSignal

    xs = np.linspace(0.0, 1.0, 101)
    GridSignal(x0=0.0, spacing=0.01, values=xs**2, delta=1e-4).to_csv(tmp_path / "sig.csv")
    out_csv = tmp_path / "deriv.csv"
    code = cli_dispatch(
        [
            "estimate", "--grid-csv", str(tmp_path / "sig.csv"), "--delta", "1e-4",
            "--spec", "c2:m2=2", "--out", str(out_csv),
        ]
    )
    assert code == 0
    assert "h=0.01" in capsys.readouterr().out
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "x,estimate,h,bound"
    assert len(rows) == 100  # header + 99 interior points


def test_dispatch_estimate_guarantee_violation_exits_two(capsys):
    # deliberately under-declared curvature: the run must fail loudly
    code = cli_dispatch(
        [
            "estimate", "--fn", "sin", "--spec", "c2:m2=1e-8", "--delta", "1e-4",
            "--noise", "none", "--points=-1:1:11",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "guarantee violation" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points", ["-inf:inf:3", "-inf:0:3", "0:inf:3", "nan:1:3",
                                    "-1e308:1e308:5"])
def test_dispatch_estimate_refuses_infinite_points(capsys, points):
    # refused before linspace, which would warn and return [nan, nan, inf] for -inf:inf:3;
    # -1e308:1e308 has finite ends, but its span hi - lo overflows
    code = cli_dispatch(
        ["estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "1e-4", f"--points={points}"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "points need finite lo < hi" in captured.err


def test_dispatch_estimate_refuses_a_collapsed_stencil(capsys):
    # x +- h rounds to x at |x| = 1e300: an honest declaration used to end in exit 2
    code = cli_dispatch(
        ["estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "1e-4",
         "--points=1e300:2e300:2"]
    )
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: the stencil at x = 1e+300 has width 0")
    assert "h = 0.01414213562373095" in captured.err


@pytest.mark.parametrize(
    "case", ["missing-grid", "not-utf-8", "oversized-cell", "nan-value", "estimate-out",
             "study-out", "adversary-out"],
)
def test_dispatch_reports_file_errors_in_one_line(tmp_path, capsys, case):
    grid = tmp_path / "grid.csv"
    if case == "not-utf-8":
        grid.write_bytes(b"x,value\n0.0,1.0\n0.1,\xff\n0.2,2.0\n")
    elif case == "oversized-cell":
        grid.write_text("x,value\n0.0," + "1" * 131_073 + "\n")
    elif case == "nan-value":  # once accepted with exit 0 and a "certified" bound
        grid.write_text("x,value\n0.0,1.0\n0.1,nan\n0.2,2.5\n0.3,2.0\n")
    unwritable = str(tmp_path / "no-such-dir" / "out.csv")
    argv = {
        "estimate-out": [*_ESTIMATE, "--out", unwritable],
        "study-out": [*_STUDY, "--out", unwritable],
        "adversary-out": [*_ADVERSARY, "--out", unwritable],
    }.get(case, ["estimate", "--grid-csv", str(grid), "--delta", "1e-3", "--spec", "c2:m2=1"])
    code = cli_dispatch(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert (unwritable if case.endswith("-out") else str(grid)) in err


def test_dispatch_estimate_prints_plain_float_reprs(monkeypatch, tmp_path, capsys):
    real_estimate = cli.estimate

    def with_numpy_scalars(oracle, spec, points):
        oracle = NoisyOracle(base=oracle.base, delta=np.float64(oracle.delta), noise=oracle.noise)
        h, _ = StepRule().resolve(oracle.delta, spec)
        return real_estimate(oracle, spec, points, StepRule.fixed(np.float64(h)))

    monkeypatch.setattr(cli, "estimate", with_numpy_scalars)
    out_csv = tmp_path / "report.csv"
    code = cli_dispatch(
        [
            "estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "1e-4",
            "--noise", "none", "--points=-1:1:5", "--out", str(out_csv),
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    values = dict(item.split("=") for line in stdout.splitlines() for item in line.split())
    for key in ("h", "bound", "measured_sup_error"):
        assert repr(float(values[key])) == values[key]
    for row in out_csv.read_text().splitlines()[1:]:
        assert row.split(",")[2:4] == [values["h"], values["bound"]]


@pytest.mark.parametrize("command", ["estimate", "study"])
def test_nan_measured_error_is_a_guarantee_violation(monkeypatch, capsys, command):
    nan_report = EstimateReport(
        points=[0.0], estimates=[0.0], h_used=0.1, guaranteed_bound=1.0,
        measured_sup_error=math.nan,
    )
    nan_rows = [
        StudyRow(delta=d, h_used=0.1, theory_bound=1.0, measured_sup_error=e, n_points=1, seed=0)
        for d, e in ((1e-2, 0.5), (1e-3, 0.1), (1e-4, math.nan))
    ]
    monkeypatch.setattr(cli, "estimate", lambda *args, **kwargs: nan_report)
    monkeypatch.setattr(cli, "run_study", lambda config: (nan_rows, 0.5))
    argv = {
        "estimate": ["estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "1e-4"],
        "study": ["study", "--fn", "sin", "--spec", "c2:m2=1", "--deltas", "1e-2:1e-5:4"],
    }[command]
    assert cli_dispatch(argv) == 2
    assert "guarantee violation" in capsys.readouterr().err


def test_dispatch_estimate_unstable_spec_exits_one(capsys):
    code = cli_dispatch(
        ["estimate", "--fn", "sin", "--spec", "m1:1", "--delta", "1e-4"]
    )
    assert code == 1
    assert "no stable derivative estimator" in capsys.readouterr().err


def test_dispatch_study_validation_failure_exits_one(capsys):
    code = cli_dispatch(
        [
            "study", "--fn", "sin", "--spec", "c2:m2=0.25",
            "--deltas", "1e-2:1e-5:4", "--noise", "none",
        ]
    )
    assert code == 1
    assert "too small" in capsys.readouterr().err


def test_dispatch_study_writes_csv_and_slope(tmp_path, capsys):
    out_csv = tmp_path / "study.csv"
    code = cli_dispatch(
        [
            "study", "--fn", "sin", "--spec", "c2:m2=1", "--deltas", "1e-2:1e-5:4",
            "--noise", "cosine-adversarial", "--grid-points", "501", "--out", str(out_csv),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "slope=" in stdout and "theory=0.5" in stdout
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 4 + 1


def test_study_csv_is_deterministic(tmp_path):
    argv_for = lambda name: [
        "study", "--fn", "exp-decay", "--spec", "c2:m2=2", "--deltas", "1e-2:1e-5:4",
        "--noise", "uniform-hash", "--seed", "42", "--grid-points", "401",
        "--out", str(tmp_path / name),
    ]
    assert cli_dispatch(argv_for("a.csv")) == 0
    assert cli_dispatch(argv_for("b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

_BOUND = ["bound", "--m0", "1", "--m2", "1"]
_ESTIMATE = ["estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "1e-4", "--points=-1:1:5"]
_STUDY = ["study", "--fn", "sin", "--spec", "c2:m2=1", "--deltas", "1e-2:1e-5:4",
          "--grid-points", "101"]
_ADVERSARY = ["adversary", "--delta", "0.005", "--M", "1"]


def test_dispatch_builds_no_parser_after_the_first_call(monkeypatch, capsys):
    cli_dispatch(_BOUND)
    built = []  # every ArgumentParser constructed from here on, subparsers included
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = [
        _ESTIMATE, [*_ESTIMATE, "--noise", "none"], [*_ESTIMATE, "--seed", "9"],
        _STUDY, [*_STUDY, "--noise", "none"], [*_STUDY, "--seed", "9"],
        _ADVERSARY, [*_ADVERSARY, "--estimator", "zero"], [*_ADVERSARY, "--M", "2"],
        _BOUND, [*_BOUND, "--domain", "half"], [*_BOUND, "--domain", "interval:1"],
    ]
    codes = [cli_dispatch(argv) for argv in calls]
    capsys.readouterr()
    assert codes == [0] * 12
    assert built == []


def _fresh_interpreter(code: str) -> str:
    path = [str(Path(cli.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return done.stdout


def test_import_builds_no_parser():
    # importing the package must stay free of CLI set-up work
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import stablederiv\n"
        "print(len(built))\n"
    )
    assert _fresh_interpreter(probe) == "0\n"
    # the probe above loads argparse itself, so a second interpreter checks what the import loads
    loaded = (
        "import sys\n"
        "import stablederiv\n"
        "print(sorted({'argparse', 'stablederiv.cli', 'stablederiv.corpus'} & set(sys.modules)))\n"
    )
    assert _fresh_interpreter(loaded) == "[]\n"


def test_every_public_name_resolves():
    import stablederiv

    namespace: dict = {}
    exec("from stablederiv import *", namespace)
    assert len(set(stablederiv.__all__)) == len(stablederiv.__all__)
    assert set(stablederiv.__all__) <= namespace.keys()


def test_dispatch_results_do_not_depend_on_call_order(capsys):
    # the call with default --noise/--seed runs before the one that sets them in
    # the first order and after it in the second, so a value left in the shared
    # parser shows
    argvs = [
        _ESTIMATE,
        ["estimate", "--fn", "sin", "--delta", "1e-4"],  # usage error: no --spec
        ["study", "--help"],
        [*_ADVERSARY, "--scan"],
        [*_ADVERSARY, "--estimator", "zero"],
        [*_BOUND, "--domain", "half"],
        _BOUND,
        [*_ESTIMATE, "--noise", "cosine-adversarial", "--seed", "3"],
    ]

    def run_each(order):
        results = {}
        for argv in order:
            code = cli_dispatch(argv)
            captured = capsys.readouterr()
            results[tuple(argv)] = (code, captured.out, captured.err)
        return results

    forward, backward = run_each(argvs), run_each(argvs[::-1])
    assert forward == backward
    assert {code for code, _, _ in forward.values()} == {0, 1}


def test_dispatch_out_does_not_carry_over_to_the_next_call(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch([*_ESTIMATE, "--out", "report.csv"]) == 0
    (tmp_path / "report.csv").unlink()
    assert cli_dispatch(_ESTIMATE) == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# one declaration probe per process
# ---------------------------------------------------------------------------


@pytest.fixture
def probes(monkeypatch):
    """Empty the probe cache, then record each call into the brute-force probes."""
    cli._probe.cache_clear()
    calls = []
    for name in ("estimate_holder_seminorm", "estimate_second_derivative_sup"):
        def counting(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls.append((_name, args[-1] if _name == "estimate_holder_seminorm"
                          else kwargs["window"]))
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    yield calls
    cli._probe.cache_clear()


def _holder_config(m=1.0, **overrides):
    return _config(function="holder:a=0.5", spec=SmoothnessSpec.holder(0.5, m), **overrides)


def test_study_probes_each_declaration_once(probes):
    # delta, seed, noise and the declared m differ; function, family and window do not
    run_study(_holder_config())
    run_study(_holder_config(m=2.0, deltas=(1e-3, 1e-4, 1e-5, 1e-6), seed=5,
                             noise_name="cosine-adversarial"))
    run_study(_config())
    run_study(_config(spec=SmoothnessSpec.c2(3.0), seed=9, noise_name="uniform-hash"))
    assert probes == [("estimate_holder_seminorm", (-3.0, 3.0)),
                      ("estimate_second_derivative_sup", (-3.0, 3.0))]


@pytest.mark.parametrize("order", ["honest-first", "dishonest-first"])
def test_cached_probe_still_judges_every_declared_bound(probes, order):
    def outcome(m):
        try:
            run_study(_holder_config(m=m))
        except ConfigurationError as exc:
            return str(exc)
        return "accepted"

    cold = {}
    for m in (1.0, 0.3):
        cli._probe.cache_clear()
        cold[m] = outcome(m)
    assert cold[1.0] == "accepted" and "is too small for 'holder:a=0.5'" in cold[0.3]
    cli._probe.cache_clear()
    probes.clear()
    ms = (1.0, 0.3) if order == "honest-first" else (0.3, 1.0)
    assert {m: outcome(m) for m in ms} == cold
    assert len(probes) == 1


def test_distinct_names_and_windows_probe_separately(probes):
    # CorpusEntry.key prints both exponents as 'holder:a=0.5'; the cache key must not
    run_study(_holder_config())
    run_study(_config(function="holder:a=0.5000001", spec=SmoothnessSpec.holder(0.5, 1.0)))
    run_study(_holder_config(window=(-2.0, 3.0)))
    run_study(_holder_config(window=[-2, 3]))  # the same window, given as ints
    assert [window for _, window in probes] == [(-3.0, 3.0), (-3.0, 3.0), (-2.0, 3.0)]
    assert cli._probe.cache_info().currsize == 3


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """Every ``stablederiv ...`` line of README.md, with ``\\`` continuations joined."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.strip().startswith("stablederiv ")]


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example no longer parses: {command}")
