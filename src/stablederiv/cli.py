"""Command-line front end: estimation runs, convergence studies, challenges.

Subcommands
-----------
estimate   one differentiation run (corpus function + synthetic noise, or a
           sampled ``x,value`` CSV), report written as CSV
study      a delta-sweep convergence study with log-log slope fitting
adversary  challenge estimators against the two-function counterexample
bound      first-derivative bound from (m0, m2) on a chosen domain

The module also holds the study runner and the two declaration probes that
``study`` runs before a sweep: a brute-force Holder seminorm of f' and a
difference probe of sup|f''|. Both sample a uniform grid on a given window
inside the oracle's domain, so they read at most the true value there; both
refuse a non-finite sample. ``import stablederiv`` does not load this module.

Exit codes: 0 on success, 1 on any configuration problem (bad flags, bad
files, failed smoothness validation), 2 when a measured error exceeds its
certified bound -- that contract is the product, so a violation fails loudly
instead of warning.

Float formatting in CSV and stdout uses ``repr`` round-tripping, so identical
configurations produce bit-identical output (seeds included).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import corpus
from .adversary import build_zoo, challenge, pointwise_bound_scan, write_challenges_csv
from .errors import (
    CapabilityError,
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    StableDerivError,
    UnstableFamilyError,
)
from .estimator import StepRule, estimate, estimate_on_grid
from .function_model import (
    Domain,
    FunctionOracle,
    GridSignal,
    NoisyOracle,
    SmoothnessSpec,
    SpecKind,
    noise_from_name,
)
from .inequalities import m1_bound

# A study's sup-error window when none is given (the CLI's --window default).
DEFAULT_STUDY_WINDOW = (-3.0, 3.0)


# ---------------------------------------------------------------------------
# flag-value parsers
# ---------------------------------------------------------------------------


def _fields(text: str, what: str, form: str, *types: type) -> tuple:
    """Split ``text`` on ':' into one field per entry of ``types``, converted by it."""
    parts = text.split(":")
    if len(parts) != len(types):
        raise ConfigurationError(f"expected {what} {form!r}, got {text!r}")
    try:
        return tuple(convert(part) for convert, part in zip(types, parts))
    except ValueError as exc:
        raise ConfigurationError(f"bad {what} {text!r}: {exc}") from exc


def parse_window(text: str) -> tuple[float, float]:
    """``lo:hi`` -> (lo, hi) with lo < hi and a finite hi - lo (so finite ends)."""
    lo, hi = _fields(text, "window", "lo:hi", float, float)
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ConfigurationError(f"window needs finite lo < hi and hi - lo, got {text!r}")
    return lo, hi


def parse_points(text: str) -> np.ndarray:
    """``lo:hi:count`` -> ``count`` equispaced points on [lo, hi]."""
    lo, hi, count = _fields(text, "points", "lo:hi:count", float, float, int)
    if not (lo < hi and np.isfinite(hi - lo)) or count < 1:
        raise ConfigurationError(f"points need finite lo < hi and hi - lo, and count >= 1, "
                                 f"got {text!r}")
    return np.linspace(lo, hi, count)


def parse_deltas(text: str) -> tuple[float, ...]:
    """``start:stop:count`` -> ``count`` log-spaced noise amplitudes.

    The sweep must run downward (start > stop) since a study tracks the
    error as the data improve.
    """
    start, stop, count = _fields(text, "deltas", "start:stop:count", float, float, int)
    if not (np.isfinite(start) and np.isfinite(stop) and start > 0 and stop > 0) or count < 1:
        raise ConfigurationError(f"deltas need finite ends > 0 and count >= 1, got {text!r}")
    return tuple(float(d) for d in np.logspace(np.log10(start), np.log10(stop), count))


def parse_spec(text: str) -> SmoothnessSpec:
    """Parse a smoothness declaration: ``c2:m2=<v>`` or ``holder:a=<a>,m=<m>``.

    ``m0:...`` and ``m1:...`` (sup|f| or sup|f'| alone) raise
    :class:`UnstableFamilyError`, so the refusal is reachable from the CLI.
    A key the kind does not take, or one given twice, is refused.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind in ("m0", "m1"):
        raise UnstableFamilyError()
    keys = {"c2": ("m2",), "holder": ("a", "m")}.get(kind)
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigurationError(f"bad spec {text!r}: expected key=value, got {item!r}")
            if keys is not None and key not in keys:
                raise ConfigurationError(f"bad spec {text!r}: unknown key {key!r}; "
                                         f"{kind} takes {', '.join(keys)}")
            if key in params:
                raise ConfigurationError(f"bad spec {text!r}: key {key!r} is given twice")
            try:
                params[key] = float(val)
            except ValueError as exc:
                raise ConfigurationError(f"bad spec {text!r}: {exc}") from exc
    try:
        if kind == "c2":
            return SmoothnessSpec.c2(params["m2"])
        if kind == "holder":
            return SmoothnessSpec.holder(params["a"], params["m"])
    except KeyError as exc:
        raise ConfigurationError(f"spec {text!r} is missing parameter {exc}") from exc
    except ParameterError as exc:
        raise ConfigurationError(str(exc)) from exc
    raise ConfigurationError(
        f"unknown spec kind {kind!r}; use c2:m2=<v> or holder:a=<a>,m=<m>"
    )


def parse_domain(text: str) -> Domain:
    """``real``, ``half``, or ``interval:<L>`` = [0, L]."""
    key = text.strip().lower()
    if key == "real":
        return Domain.real_line()
    if key == "half":
        return Domain.half_line()
    name, sep, rest = key.partition(":")
    if name == "interval":
        if not sep:
            raise ConfigurationError("interval domains are written 'interval:<length>'")
        try:
            return Domain.interval(0.0, float(rest))
        except ValueError as exc:  # float() or Domain (ParameterError is a ValueError)
            raise ConfigurationError(f"bad interval length in {text!r}: {exc}") from exc
    raise ConfigurationError(
        f"unknown domain {text!r}; use real, half, or interval:<length>"
    )


# ---------------------------------------------------------------------------
# declaration probes
# ---------------------------------------------------------------------------

_C2_PROBE_POINTS = 2001  # centres of the sup|f''| probe
_C2_PROBE_STEP = 1e-3  # half-width of its difference of f'

# Validation slack for declared smoothness bounds: the brute-force probes
# slightly undershoot true sups, so only a clear excess is a refusal.
_VALIDATION_RTOL = 1e-4
_VALIDATION_ATOL = 1e-9


def _probe_window(oracle: FunctionOracle, window: tuple[float, float]) -> tuple[float, float]:
    """``window`` as floats; refused unless ``lo < hi``, finite ``hi - lo``, inside the domain."""
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ParameterError(f"probe window [{lo}, {hi}] needs finite lo < hi and hi - lo")
    oracle.domain.require(np.array([lo, hi]), "probe window")
    return lo, hi


def _finite_samples(vals: np.ndarray, oracle: FunctionOracle, lo: float, hi: float) -> np.ndarray:
    if not np.isfinite(vals).all():
        raise DomainError(f"{oracle.name or 'the function'} is not finite everywhere on the "
                          f"probe window [{lo}, {hi}]")
    return vals


def estimate_holder_seminorm(
    g: FunctionOracle,
    a: float,
    window: tuple[float, float],
    grid_points: int = 512,
) -> float:
    """Brute-force Holder seminorm: max over grid pairs of |g(x)-g(y)| / |x-y|**a.

    It compares each pair of distinct grid points once, one lag at a time, in
    O(grid_points) memory, so it never exceeds the true seminorm on ``window``.
    """
    if not 0.0 < a <= 1.0:
        raise ParameterError(f"Holder exponent must lie in (0, 1], got {a}")
    if grid_points < 2:
        raise ParameterError(f"grid_points must be >= 2, got {grid_points}")
    lo, hi = _probe_window(g, window)
    # on a window a few ulps wide linspace repeats points, can reorder subnormal ones and
    # can step past hi; np.unique would also sort and dedupe, but it imports numpy.ma
    xs = np.sort(np.clip(np.linspace(lo, hi, grid_points), lo, hi))
    xs = xs[np.diff(xs, prepend=-np.inf) > 0]
    vals = _finite_samples(g.values(xs), g, lo, hi)
    best = 0.0
    for d in range(1, len(xs)):
        ratios = np.abs(vals[d:] - vals[:-d]) / (xs[d:] - xs[:-d]) ** a
        best = max(best, float(np.max(ratios)))
    return best


def estimate_second_derivative_sup(oracle: FunctionOracle, window: tuple[float, float]) -> float:
    """Probe sup|f''| on ``window`` via central differences of the exact derivative.

    (f'(x+t) - f'(x-t)) / (2t) is an average of f'' over [x-t, x+t], so the
    probe never exceeds the true sup (up to roundoff); it may undershoot by
    O(t**2) for smooth f. Requires derivative access.
    """
    if oracle.derivative_eval is None:
        raise CapabilityError("sup|f''| probe needs exact-derivative access")
    lo, hi = _probe_window(oracle, window)
    step = _C2_PROBE_STEP
    # keep the probe stencil inside the window (and hence the domain)
    if hi - lo <= 2.0 * step:
        raise ParameterError(f"probe window [{lo}, {hi}] shorter than the stencil 2*{step}")
    xs = np.linspace(lo + step, hi - step, _C2_PROBE_POINTS)
    left = _finite_samples(oracle.derivative_values(xs - step), oracle, lo, hi)
    right = _finite_samples(oracle.derivative_values(xs + step), oracle, lo, hi)
    return float(np.max(np.abs(right - left))) / (2.0 * step)


@functools.lru_cache(maxsize=64)
def _probe(function: str, kind: SpecKind, exponent: float | None,
           window: tuple[float, float]) -> float:
    """The brute-force probe value for a declaration, computed once per process.

    It depends only on these arguments (not on delta, seed, noise or the
    declared bound), so it is cached; the verdict is not. ``function`` is the
    name given to ``corpus.get``, because ``CorpusEntry.key`` rounds the exponent.
    """
    oracle = corpus.get(function).oracle
    if kind is SpecKind.C2:
        return estimate_second_derivative_sup(oracle, window=window)
    derivative = FunctionOracle(
        eval=oracle.derivative_eval, domain=oracle.domain, name=f"{oracle.name} derivative"
    )
    return estimate_holder_seminorm(derivative, exponent, window)


def _validate_declaration(
    function: str, spec: SmoothnessSpec, window: tuple[float, float]
) -> None:
    """Refuse a study whose declared bound the brute-force oracles contradict.

    A declared bound that is too small would void the guarantee before the
    run starts; a clear excess of the probe over the declaration is a
    configuration error, not a later "violation".
    """
    probe = _probe(function, spec.kind, spec.exponent, tuple(map(float, window)))
    label = "sup|f''|" if spec.kind is SpecKind.C2 else f"Holder({spec.exponent:g}) seminorm of f'"
    if probe > spec.bound * (1.0 + _VALIDATION_RTOL) + _VALIDATION_ATOL:
        raise ConfigurationError(
            f"declared {label} = {spec.bound} is too small for {corpus.get(function).key!r}: "
            f"a brute-force probe on {window} measures {probe:.6g}; raise the "
            f"declared bound (or declare a different smoothness family)"
        )


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
        lo, hi = map(float, self.window)
        if not (lo < hi and np.isfinite(hi - lo)):
            raise ConfigurationError(f"window needs finite lo < hi and hi - lo, got {self.window}")


@dataclass(frozen=True)
class StudyRow:
    delta: float
    h_used: float
    theory_bound: float
    measured_sup_error: float
    n_points: int
    seed: int


def _noisy_oracle(
    base: FunctionOracle, spec: SmoothnessSpec, delta: float, noise_name: str, seed: int
) -> NoisyOracle:
    """One run's noisy oracle, its noise built at the run's optimal step (cosine needs it)."""
    h, _ = StepRule().resolve(delta, spec)
    noise = noise_from_name(noise_name, seed=seed, h_ref=h)
    return NoisyOracle(base=base, delta=delta, noise=noise)


def run_study(config: StudyConfig) -> tuple[list[StudyRow], float]:
    """Run the sweep and fit the log-log error slope.

    For each delta: resolve the optimal step, build the noise profile at
    that step (the cosine profile needs the step as its reference), estimate
    on the window grid, and record measured sup error against the exact
    derivative. Rows follow the deltas, which ``StudyConfig`` requires
    strictly decreasing.
    """
    entry = corpus.get(config.function)
    _validate_declaration(config.function, config.spec, config.window)

    points = np.linspace(config.window[0], config.window[1], config.grid_points)
    rows = []
    for delta in config.deltas:
        oracle = _noisy_oracle(entry.oracle, config.spec, delta, config.noise_name, config.seed)
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
    return spec.exponent / (1.0 + spec.exponent)


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
    if not args.delta > 0:
        raise ConfigurationError(f"--delta must be > 0, got {args.delta!r}: the CLI "
                                 "always takes the optimal step, which needs delta > 0")
    spec = parse_spec(args.spec)
    if args.grid_csv is not None:
        signal = GridSignal.from_csv(args.grid_csv, delta=args.delta)
        report = estimate_on_grid(signal, spec)
    else:
        oracle = _noisy_oracle(corpus.get(args.fn).oracle, spec, args.delta, args.noise, args.seed)
        report = estimate(oracle, spec, parse_points(args.points))

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
        window=parse_window(args.window),
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
    if args.out:
        write_challenges_csv(records, args.out)
    for r in records:
        print(
            f"estimator={r.estimator} b={r.answer!r} worst={r.worst!r} "
            f"lower={r.lower!r} beaten={str(r.beaten).lower()}"
        )
    if args.scan:
        best_b, best_worst = pointwise_bound_scan(args.delta, args.M)
        print(f"scan_best_b={best_b!r} scan_best_worst={best_worst!r}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after: do not change it."""
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
    p_est.add_argument("--points", default="-3:3:201", help="evaluation points lo:hi:count")
    p_est.add_argument("--out", help="write the report CSV here")
    p_est.set_defaults(handler=_cmd_estimate)

    p_study = sub.add_parser("study", help="delta sweep with log-log slope fit")
    p_study.add_argument("--fn", required=True)
    p_study.add_argument("--spec", required=True)
    p_study.add_argument("--deltas", required=True, help="log-spaced sweep start:stop:count")
    p_study.add_argument("--noise", default="uniform-hash")
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--window", default="-3:3", help="sup-error window lo:hi")
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
    except (StableDerivError, OSError) as exc:  # OSError: a missing input or unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
