"""Command-line front end: estimation runs, convergence studies, challenges.

Subcommands
-----------
estimate   one differentiation run (corpus function + synthetic noise, or a
           sampled ``x,value`` CSV), report written as CSV
study      a delta-sweep convergence study with log-log slope fitting
adversary  challenge estimators against the two-function counterexample
bound      first-derivative bound from (m0, m2) on a chosen domain

Exit codes: 0 on success, 1 on any configuration problem (bad flags, bad
files, failed smoothness validation), 2 when a measured error exceeds its
certified bound -- that contract is the product, so a violation fails loudly
instead of warning.

Float formatting in CSV and stdout uses ``repr`` round-tripping, so identical
configurations produce bit-identical output (seeds included).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import corpus
from .adversary import build_zoo, challenge, pointwise_bound_scan, write_challenges_csv
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    ParameterError,
    StableDerivError,
)
from .estimator import StepRule, estimate, estimate_on_grid
from .function_model import (
    Domain,
    FunctionOracle,
    GridSignal,
    NoisyOracle,
    SmoothnessSpec,
    SpecKind,
    estimate_holder_seminorm,
    estimate_second_derivative_sup,
    noise_from_name,
)
from .inequalities import m1_bound

# Experiments measure sup error over this window unless overridden by the
# --window flag or the STABLEDERIV_PROBE_WINDOW environment variable.
DEFAULT_STUDY_WINDOW = (-3.0, 3.0)
PROBE_WINDOW_ENV = "STABLEDERIV_PROBE_WINDOW"

# Validation slack for declared smoothness bounds: the brute-force probes
# slightly undershoot true sups, so only a clear excess is a refusal.
_VALIDATION_RTOL = 1e-4
_VALIDATION_ATOL = 1e-9


# ---------------------------------------------------------------------------
# flag-value parsers
# ---------------------------------------------------------------------------


def parse_window(text: str) -> tuple[float, float]:
    """``lo:hi`` -> (lo, hi) with lo < hi."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigurationError(f"expected a window 'lo:hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigurationError(f"bad window {text!r}: {exc}") from exc
    if not lo < hi:
        raise ConfigurationError(f"window must satisfy lo < hi, got {text!r}")
    return lo, hi


def parse_points(text: str) -> np.ndarray:
    """``lo:hi:count`` -> ``count`` equispaced points on [lo, hi]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"expected points 'lo:hi:count', got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigurationError(f"bad points {text!r}: {exc}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi) or count < 1:
        raise ConfigurationError(f"points need finite lo < hi and count >= 1, got {text!r}")
    return np.linspace(lo, hi, count)


def parse_deltas(text: str) -> tuple[float, ...]:
    """``start:stop:count`` -> ``count`` log-spaced noise amplitudes.

    The sweep must run downward (start > stop) since a study tracks the
    error as the data improve.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"expected deltas 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigurationError(f"bad deltas {text!r}: {exc}") from exc
    if not (start > 0 and stop > 0):
        raise ConfigurationError("deltas must be positive")
    if count < 1:
        raise ConfigurationError("delta count must be >= 1")
    return tuple(float(d) for d in np.logspace(np.log10(start), np.log10(stop), count))


def parse_spec(text: str) -> SmoothnessSpec:
    """Parse a smoothness declaration.

    Forms: ``c2:m2=<v>``, ``holder:a=<a>,m=<m>``, ``m0:<v>``, ``m1:<v>``
    (the last two exist so the refusal path is reachable from the CLI).
    """
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    params: dict[str, float] = {}
    if sep:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            try:
                if not eq:  # bare value, e.g. "m0:0.5"
                    params["bound"] = float(key)
                else:
                    params[key.strip()] = float(val)
            except ValueError as exc:
                raise ConfigurationError(f"bad spec {text!r}: {exc}") from exc
    try:
        if kind == "c2":
            return SmoothnessSpec.c2(params["m2"] if "m2" in params else params["bound"])
        if kind == "holder":
            return SmoothnessSpec.holder(params["a"], params["m"])
        if kind == "m0":
            return SmoothnessSpec.m0(params["bound"] if "bound" in params else params["m0"])
        if kind == "m1":
            return SmoothnessSpec.m1(params["bound"] if "bound" in params else params["m1"])
    except KeyError as exc:
        raise ConfigurationError(f"spec {text!r} is missing parameter {exc}") from exc
    except ParameterError as exc:
        raise ConfigurationError(str(exc)) from exc
    raise ConfigurationError(
        f"unknown spec kind {kind!r}; use c2:m2=<v>, holder:a=<a>,m=<m>, m0:<v>, m1:<v>"
    )


def parse_domain(text: str) -> Domain:
    """``real``/``whole-line``, ``half``/``half-line``, or ``interval:<L>`` = [0, L]."""
    key = text.strip().lower()
    if key in ("real", "whole-line", "line", "r"):
        return Domain.real_line()
    if key in ("half", "half-line"):
        return Domain.half_line()
    if key.startswith("interval"):
        _, sep, rest = key.partition(":")
        if not sep:
            raise ConfigurationError("interval domains are written 'interval:<length>'")
        try:
            return Domain.interval(0.0, float(rest))
        except ValueError as exc:  # float() or Domain (ParameterError is a ValueError)
            raise ConfigurationError(f"bad interval length in {text!r}: {exc}") from exc
    raise ConfigurationError(
        f"unknown domain {text!r}; use real, half, or interval:<length>"
    )


def resolve_probe_window(flag_value: str | None) -> tuple[float, float]:
    """Window precedence: --window flag, then the environment, then default."""
    if flag_value:
        return parse_window(flag_value)
    env = os.environ.get(PROBE_WINDOW_ENV)
    if env:
        return parse_window(env)
    return DEFAULT_STUDY_WINDOW


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    """One convergence study: a function, a declaration, and a delta sweep."""

    function: str
    spec: SmoothnessSpec
    deltas: tuple[float, ...]
    noise_name: str = "uniform-hash"
    seed: int = 0
    window: tuple[float, float] = DEFAULT_STUDY_WINDOW
    grid_points: int = 2001

    def __post_init__(self) -> None:
        if len(self.deltas) < 4:
            raise ConfigurationError(
                f"a study needs >= 4 deltas for a trustworthy slope, got {len(self.deltas)}"
            )
        if any(not d > 0 for d in self.deltas):
            raise ConfigurationError("all deltas must be > 0")
        if any(a <= b for a, b in zip(self.deltas, self.deltas[1:])):
            raise ConfigurationError("deltas must be strictly decreasing")
        if self.grid_points < 3:
            raise ConfigurationError(f"grid_points must be >= 3, got {self.grid_points}")
        if not self.window[0] < self.window[1]:
            raise ConfigurationError(f"bad window {self.window}")


@dataclass(frozen=True)
class StudyRow:
    delta: float
    h_used: float
    theory_bound: float
    measured_sup_error: float
    n_points: int
    seed: int


def _validate_declaration(
    entry: corpus.CorpusEntry, spec: SmoothnessSpec, window: tuple[float, float]
) -> None:
    """Refuse a study whose declared bound the brute-force oracles contradict.

    A declared bound that is too small would void the guarantee before the
    run starts; a clear excess of the probe over the declaration is a
    configuration error, not a later "violation".
    """
    if spec.kind is SpecKind.C2:
        probe = estimate_second_derivative_sup(entry.oracle, window=window)
        label = "sup|f''|"
    elif spec.kind is SpecKind.HOLDER:
        derivative = FunctionOracle(
            eval=entry.oracle.derivative_eval,
            domain=entry.oracle.domain,
            name=f"{entry.key} derivative",
        )
        probe = estimate_holder_seminorm(derivative, spec.exponent, window)
        label = f"Holder({spec.exponent:g}) seminorm of f'"
    else:
        return  # M0/M1 declarations are refused downstream, nothing to validate
    if probe > spec.bound * (1.0 + _VALIDATION_RTOL) + _VALIDATION_ATOL:
        raise ConfigurationError(
            f"declared {label} = {spec.bound} is too small for {entry.key!r}: "
            f"a brute-force probe on {window} measures {probe:.6g}; raise the "
            f"declared bound (or declare a different smoothness family)"
        )


def run_study(config: StudyConfig) -> tuple[list[StudyRow], float]:
    """Run the sweep and fit the log-log error slope.

    For each delta: resolve the optimal step, build the noise profile at
    that step (the cosine profile needs the step as its reference), estimate
    on the window grid, and record measured sup error against the exact
    derivative. Rows come out sorted by descending delta regardless of
    execution order.
    """
    entry = corpus.get(config.function)
    if entry.oracle.derivative_eval is None:
        raise ConfigurationError(
            f"corpus function {config.function!r} has no exact derivative; "
            "studies need one to measure true errors"
        )
    _validate_declaration(entry, config.spec, config.window)

    points = np.linspace(config.window[0], config.window[1], config.grid_points)
    rows = []
    for delta in config.deltas:
        h, _ = StepRule().resolve(delta, config.spec)
        noise = noise_from_name(config.noise_name, seed=config.seed, h_ref=h)
        oracle = NoisyOracle(base=entry.oracle, delta=delta, noise=noise)
        report = estimate(oracle, config.spec, points)
        rows.append(
            StudyRow(
                delta=delta,
                h_used=report.h_used,
                theory_bound=report.guaranteed_bound,
                measured_sup_error=float(report.measured_sup_error),
                n_points=len(report.points),
                seed=config.seed,
            )
        )
    rows.sort(key=lambda r: -r.delta)
    return rows, fit_slope(rows)


def fit_slope(rows: Sequence[StudyRow]) -> float:
    """Least-squares slope of log(measured error) against log(delta).

    Rows with zero measured error carry no log-log information and are
    skipped; fewer than two usable rows cannot pin down a slope.
    """
    usable = [r for r in rows if r.measured_sup_error > 0]
    if len(usable) < 2:
        raise InsufficientDataError(
            f"slope fitting needs >= 2 rows with positive measured error, got {len(usable)}"
        )
    xs = np.log([r.delta for r in usable])
    ys = np.log([r.measured_sup_error for r in usable])
    return float(np.polyfit(xs, ys, 1)[0])


def theory_slope(spec: SmoothnessSpec) -> float:
    """The exponent of the guaranteed bound in delta: 1/2 or a/(1+a)."""
    if spec.kind is SpecKind.C2:
        return 0.5
    if spec.kind is SpecKind.HOLDER:
        return spec.exponent / (1.0 + spec.exponent)
    raise ParameterError(f"no convergence rate exists for spec kind {spec.kind}")


def write_study_csv(rows: Sequence[StudyRow], slope: float, path: str | Path) -> None:
    """Header row, one row per delta, and a trailing ``# slope,<value>`` line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("delta,h_used,theory_bound,measured_sup_error,n_points,seed\n")
        for r in rows:
            fh.write(f"{r.delta!r},{r.h_used!r},{r.theory_bound!r},"
                     f"{r.measured_sup_error!r},{r.n_points},{r.seed}\n")
        fh.write(f"# slope,{slope!r}\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    if args.grid_csv is not None:
        signal = GridSignal.from_csv(args.grid_csv, delta=args.delta)
        report = estimate_on_grid(signal, spec)
    else:
        entry = corpus.get(args.fn)
        h, _ = StepRule().resolve(args.delta, spec)
        noise = noise_from_name(args.noise, seed=args.seed, h_ref=h)
        oracle = NoisyOracle(base=entry.oracle, delta=args.delta, noise=noise)
        if args.points is not None:
            points = parse_points(args.points)
        else:
            lo, hi = resolve_probe_window(args.window)
            points = np.linspace(lo, hi, 201)
        report = estimate(oracle, spec, points)

    if args.out:
        report.to_csv(args.out)
    print(
        f"h={report.h_used!r} bound={report.guaranteed_bound!r} "
        f"points={len(report.points)} dropped={report.dropped_points}"
    )
    if report.measured_sup_error is not None:
        print(f"measured_sup_error={report.measured_sup_error!r}")
        if not report.measured_sup_error <= report.guaranteed_bound:  # NaN fails too
            print(
                "guarantee violation: measured error exceeds the certified bound; "
                "either the declared smoothness bound is too small for this "
                "function or there is a bug",
                file=sys.stderr,
            )
            return 2
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    config = StudyConfig(
        function=args.fn,
        spec=parse_spec(args.spec),
        deltas=parse_deltas(args.deltas),
        noise_name=args.noise,
        seed=args.seed,
        window=resolve_probe_window(args.window),
        grid_points=args.grid_points,
    )
    rows, slope = run_study(config)
    if args.out:
        write_study_csv(rows, slope, args.out)
    for r in rows:
        print(
            f"delta={r.delta!r} h={r.h_used!r} bound={r.theory_bound!r} "
            f"measured={r.measured_sup_error!r} n={r.n_points}"
        )
    print(f"slope={slope!r} theory={theory_slope(config.spec)!r}")
    violations = [r for r in rows if not r.measured_sup_error <= r.theory_bound]
    if violations:
        print(
            f"guarantee violation in {len(violations)} of {len(rows)} rows: "
            "measured error exceeds the certified bound",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    zoo = build_zoo()
    if args.estimator is not None:
        zoo = [e for e in zoo if e.name == args.estimator]
        if not zoo:
            known = ", ".join(e.name for e in build_zoo())
            raise ConfigurationError(f"unknown estimator {args.estimator!r}; known: {known}")
    records = challenge(zoo, args.delta, args.M)
    for r in records:
        print(
            f"estimator={r.estimator} b={r.answer!r} worst={r.worst!r} "
            f"lower={r.lower!r} beaten={str(r.beaten).lower()}"
        )
    if args.scan:
        best_b, best_worst = pointwise_bound_scan(args.delta, args.M)
        print(f"scan_best_b={best_b!r} scan_best_worst={best_worst!r}")
    if args.out:
        write_challenges_csv(records, args.out)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    result = m1_bound(args.m0, args.m2, parse_domain(args.domain))
    print(
        f"m1_bound={result.bound_m1!r} rule={result.rule_applied} "
        f"threshold_length={result.threshold_length!r}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablederiv",
        description="Stable numerical differentiation of noisy data with certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="one differentiation run, CSV report")
    src = p_est.add_mutually_exclusive_group(required=True)
    src.add_argument("--fn", help=f"corpus function ({', '.join(corpus.list_names())})")
    src.add_argument("--grid-csv", help="sampled signal as CSV with header x,value")
    p_est.add_argument("--delta", type=float, required=True, help="noise amplitude")
    p_est.add_argument("--spec", required=True, help="e.g. c2:m2=1 or holder:a=0.5,m=1")
    p_est.add_argument("--noise", default="uniform-hash",
                       help="none | uniform-hash | cosine-adversarial | constant-sign:+/-")
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--points", help="evaluation points lo:hi:count")
    p_est.add_argument("--window", help="fallback window lo:hi when --points is absent")
    p_est.add_argument("--out", help="write the report CSV here")
    p_est.set_defaults(handler=_cmd_estimate)

    p_study = sub.add_parser("study", help="delta sweep with log-log slope fit")
    p_study.add_argument("--fn", required=True)
    p_study.add_argument("--spec", required=True)
    p_study.add_argument("--deltas", required=True, help="log-spaced sweep start:stop:count")
    p_study.add_argument("--noise", default="uniform-hash")
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--window", help="sup-error window lo:hi (default -3:3)")
    p_study.add_argument("--grid-points", type=int, default=2001)
    p_study.add_argument("--out", help="write the study CSV here")
    p_study.set_defaults(handler=_cmd_study)

    p_adv = sub.add_parser("adversary", help="challenge estimators on the counterexample pair")
    p_adv.add_argument("--delta", type=float, required=True)
    p_adv.add_argument("--M", type=float, required=True, help="derivative-scale budget")
    p_adv.add_argument("--estimator", help="run a single zoo estimator by name")
    p_adv.add_argument("--scan", action="store_true",
                       help="also scan constant answers b for the minimax reply")
    p_adv.add_argument("--out", help="write challenge records CSV here")
    p_adv.set_defaults(handler=_cmd_adversary)

    p_bound = sub.add_parser("bound", help="derivative bound from (m0, m2)")
    p_bound.add_argument("--m0", type=float, required=True, help="bound on sup|f|")
    p_bound.add_argument("--m2", type=float, required=True, help="bound on sup|f''|")
    p_bound.add_argument("--domain", default="real", help="real | half | interval:<length>")
    p_bound.set_defaults(handler=_cmd_bound)

    return parser


def cli_dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run one subcommand, mapping failures to exit codes.

    argparse exits with its own code 2 on usage errors; that collides with
    this tool's "guarantee violation" meaning, so usage problems are remapped
    to the configuration-error code 1 (--help stays 0).
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.handler(args)
    except StableDerivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
