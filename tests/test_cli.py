"""Flag parsing, studies, slope fitting, and the exit-code contract."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stablederiv import (
    ConfigurationError,
    Domain,
    EstimateReport,
    InsufficientDataError,
    NoisyOracle,
    ParameterError,
    SmoothnessSpec,
    SpecKind,
    StepRule,
    StudyConfig,
    StudyRow,
    cli_dispatch,
    fit_slope,
    optimal_step_c2,
    run_study,
    theory_slope,
    write_study_csv,
)
from stablederiv import cli
from stablederiv.cli import (
    DEFAULT_STUDY_WINDOW,
    parse_deltas,
    parse_domain,
    parse_points,
    parse_spec,
    parse_window,
    resolve_probe_window,
)


# ---------------------------------------------------------------------------
# flag-value parsing
# ---------------------------------------------------------------------------


def test_parse_window():
    assert parse_window("-1:2.5") == (-1.0, 2.5)
    for bad in ("1", "2:1", "a:b", "1:2:3"):
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
    for bad in ("1e-2:1e-7", "0:1e-7:6", "1e-2:-1:6", "1e-2:1e-7:0"):
        with pytest.raises(ConfigurationError):
            parse_deltas(bad)


def test_parse_spec_forms():
    c2 = parse_spec("c2:m2=1")
    assert c2.kind is SpecKind.C2 and c2.bound == 1.0

    holder = parse_spec("holder:a=0.5,m=2")
    assert holder.kind is SpecKind.HOLDER
    assert holder.exponent == 0.5 and holder.bound == 2.0

    assert parse_spec("m0:0.5").kind is SpecKind.M0
    assert parse_spec("m1:m1=0.25").bound == 0.25

    for bad in ("c3:m2=1", "c2", "holder:a=0.5", "holder:a=2,m=1", "c2:m2=oops"):
        with pytest.raises(ConfigurationError):
            parse_spec(bad)


def test_parse_domain_forms():
    assert parse_domain("real") == Domain.real_line()
    assert parse_domain("whole-line") == Domain.real_line()
    assert parse_domain("half") == Domain.half_line()
    assert parse_domain("interval:2.5") == Domain.interval(0.0, 2.5)
    for bad in ("circle", "interval", "interval:-1"):
        with pytest.raises(ConfigurationError):
            parse_domain(bad)


def test_probe_window_precedence(monkeypatch):
    monkeypatch.delenv("STABLEDERIV_PROBE_WINDOW", raising=False)
    assert resolve_probe_window(None) == DEFAULT_STUDY_WINDOW
    monkeypatch.setenv("STABLEDERIV_PROBE_WINDOW", "-5:5")
    assert resolve_probe_window(None) == (-5.0, 5.0)
    assert resolve_probe_window("-1:1") == (-1.0, 1.0)  # flag wins over env


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
    with pytest.raises(ParameterError):
        theory_slope(SmoothnessSpec.m0(1.0))


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
@pytest.mark.parametrize("points", ["-inf:inf:3", "-inf:0:3", "0:inf:3", "nan:1:3"])
def test_dispatch_estimate_refuses_infinite_points(capsys, points):
    # refused before linspace, which would warn and return [nan, nan, inf] for -inf:inf:3
    code = cli_dispatch(
        ["estimate", "--fn", "sin", "--spec", "c2:m2=1", "--delta", "1e-4", f"--points={points}"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "points need finite lo < hi" in captured.err


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
            "--noise", "cosine", "--grid-points", "501", "--out", str(out_csv),
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
