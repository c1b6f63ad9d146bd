"""Stable differentiation core: central differences with optimal steps.

Differentiating noisy data is ill posed: shrinking the step amplifies the
data error as delta/h while growing it lets the truncation error m*h**p in.
The closed forms below balance the two terms exactly.

For f with sup|f''| <= m2 (Taylor remainder):

    error(h) <= delta/h + m2*h/2,   minimized at h = sqrt(2*delta/m2),
    giving the guarantee sqrt(2*m2*delta).

For f whose derivative is Holder-continuous, |f'(y)-f'(x)| <= m*|y-x|**a:

    error(h) <= delta/h + m*h**a,   minimized at h = (delta/(a*m))**(1/(1+a)),
    giving  c_a * delta**(a/(1+a))  with
    c_a = (a*m)**(1/(1+a)) + m/(a*m)**(a/(1+a)).

The two step rules are dispatched on the declared :class:`SmoothnessSpec`;
C2 data always gets the Taylor route because its constant beats the a=1
Holder constant by a factor sqrt(2)/2. Declaring only sup|f| or sup|f'| is
refused outright (:class:`UnstableFamilyError`): under that information no
estimator whatsoever has a worst-case error that vanishes with delta (the
``adversary`` module makes that failure executable).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    GridTooShortError,
    ParameterError,
    UnstableFamilyError,
)
from .function_model import Domain, GridSignal, NoisyOracle, SmoothnessSpec, SpecKind
from .function_model import write_float_csv

_UNSTABLE_EXPLANATION = (
    "no stable derivative estimator exists under this declaration: knowing only "
    "sup|f| (or sup|f'|) leaves two functions that match the observed data to "
    "within delta yet whose derivatives differ by a fixed amount at a point, so "
    "the worst-case error of every estimator stays bounded away from 0 as delta "
    "shrinks; declare a second-derivative bound (C2) or a Holder bound on f'"
)


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not v > 0:
            raise ParameterError(f"{name} must be > 0, got {v}")


def optimal_step_c2(delta: float, m2: float) -> float:
    """Step sqrt(2*delta/m2) minimizing delta/h + m2*h/2."""
    _require_positive(delta=delta, m2=m2)
    return float(np.sqrt(2.0 * delta / m2))


def error_bound_c2(delta: float, m2: float) -> float:
    """Guaranteed sup error sqrt(2*m2*delta) at the optimal C2 step."""
    _require_positive(delta=delta, m2=m2)
    return float(np.sqrt(2.0 * m2 * delta))


def optimal_step_holder(delta: float, a: float, m1a: float) -> float:
    """Step (delta/(a*m1a))**(1/(1+a)) minimizing delta/h + m1a*h**a."""
    _require_positive(delta=delta, m1a=m1a)
    if not 0.0 < a <= 1.0:
        raise ParameterError(f"Holder exponent must lie in (0, 1], got {a}")
    return float((delta / (a * m1a)) ** (1.0 / (1.0 + a)))


def error_bound_holder(delta: float, a: float, m1a: float) -> float:
    """Guaranteed sup error c_a * delta**(a/(1+a)) at the optimal Holder step.

    Algebraically identical to delta/h_opt + m1a*h_opt**a.
    """
    _require_positive(delta=delta, m1a=m1a)
    if not 0.0 < a <= 1.0:
        raise ParameterError(f"Holder exponent must lie in (0, 1], got {a}")
    am = a * m1a
    c_a = am ** (1.0 / (1.0 + a)) + m1a / am ** (a / (1.0 + a))
    return float(c_a * delta ** (a / (1.0 + a)))


def _stencil_in_domain(domain: Domain, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """True where both stencil ends, left = x-h and right = x+h, are finite and in the domain.

    Equals ``domain.contains(x - h) and domain.contains(x + h)`` restricted to finite
    ends: NaN and ±inf fail ``isfinite``; as h > 0 gives left <= right, ``left >= lo``
    and ``right <= hi`` imply the other two bounds. An end exactly on lo or hi is kept.
    """
    return np.isfinite(left) & np.isfinite(right) & (left >= domain.lo) & (right <= domain.hi)


def central_difference(oracle: NoisyOracle, x: float | np.ndarray, h: float):
    """(f_delta(x+h) - f_delta(x-h)) / (2h); the whole stencil must be in-domain."""
    _require_positive(h=h)
    xs = np.asarray(x, dtype=float)
    left, right = xs - h, xs + h
    if not np.all(_stencil_in_domain(oracle.base.domain, left, right)):
        raise DomainError(
            f"central-difference stencil of half-width {h} leaves the domain "
            f"[{oracle.base.domain.lo}, {oracle.base.domain.hi}]"
        )
    out = (oracle.eval_noisy(right) - oracle.eval_noisy(left)) / (2.0 * h)
    return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# step rules and reports
# ---------------------------------------------------------------------------

STEP_C2_OPTIMAL = "c2-optimal"
STEP_HOLDER_OPTIMAL = "holder-optimal"
STEP_FIXED = "fixed"


@dataclass(frozen=True)
class StepRule:
    """How the half-width h is chosen: a closed-form optimum or a fixed value."""

    kind: str
    fixed_h: float | None = None
    resolved_h: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (STEP_C2_OPTIMAL, STEP_HOLDER_OPTIMAL, STEP_FIXED):
            raise ParameterError(f"unknown step rule kind {self.kind!r}")
        if self.kind == STEP_FIXED and not (self.fixed_h or 0) > 0:
            raise ParameterError("a fixed step rule needs fixed_h > 0")
        if self.resolved_h is not None and not self.resolved_h > 0:
            raise ParameterError(f"resolved_h must be > 0, got {self.resolved_h}")

    @classmethod
    def for_spec(cls, spec: SmoothnessSpec) -> "StepRule":
        if spec.kind is SpecKind.C2:
            return cls(STEP_C2_OPTIMAL)
        if spec.kind is SpecKind.HOLDER:
            return cls(STEP_HOLDER_OPTIMAL)
        raise UnstableFamilyError(_UNSTABLE_EXPLANATION)

    @classmethod
    def fixed(cls, h: float) -> "StepRule":
        return cls(STEP_FIXED, fixed_h=h, resolved_h=h)

    def resolve(self, delta: float, spec: SmoothnessSpec) -> "StepRule":
        """Return a copy with resolved_h filled in against (delta, spec)."""
        if self.kind == STEP_FIXED:
            return self
        if self.kind == STEP_C2_OPTIMAL:
            h = optimal_step_c2(delta, spec.bound)
        else:
            h = optimal_step_holder(delta, spec.exponent, spec.bound)
        return StepRule(self.kind, resolved_h=h)


@dataclass(eq=False)
class EstimateReport:
    """Derivative estimates plus the guarantee they were produced under.

    ``measured_sup_error``/``abs_errors`` are only present when the base
    oracle exposes its exact derivative (test configurations); the standing
    contract is measured_sup_error <= guaranteed_bound whenever the declared
    smoothness bound is honest.
    """

    points: np.ndarray
    estimates: np.ndarray
    h_used: float
    guaranteed_bound: float
    measured_sup_error: float | None = None
    abs_errors: np.ndarray | None = None
    dropped_points: int = 0

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        self.estimates = np.asarray(self.estimates, dtype=float)
        if self.points.shape != self.estimates.shape:
            raise ParameterError("points and estimates must have equal length")
        self.h_used, self.guaranteed_bound = float(self.h_used), float(self.guaranteed_bound)
        if self.measured_sup_error is not None:
            self.measured_sup_error = float(self.measured_sup_error)

    def to_csv(self, path: str | Path) -> None:
        """Write rows ``x,estimate,h,bound[,abs_error]`` (header included)."""
        header = ["x", "estimate", "h", "bound"]
        columns = [self.points, self.estimates, self.h_used, self.guaranteed_bound]
        if self.abs_errors is not None:
            header.append("abs_error")
            columns.append(self.abs_errors)
        write_float_csv(path, header, columns)


def _bound_at_step(spec: SmoothnessSpec, delta: float, h: float) -> float:
    """The worst-case error at an arbitrary step h, not only at the optimum.

    delta/h + m2*h/2 for C2 and delta/h + m*h**a for Holder; at the optimal
    step this equals error_bound_c2 / error_bound_holder up to rounding.
    """
    if spec.kind is SpecKind.C2:
        return delta / h + spec.bound * h / 2.0
    return delta / h + spec.bound * h**spec.exponent


def _gate_spec_and_delta(spec: SmoothnessSpec, delta: float) -> None:
    if spec.kind in (SpecKind.M0, SpecKind.M1):
        raise UnstableFamilyError(_UNSTABLE_EXPLANATION)
    if delta == 0:
        raise DegenerateInputError(
            "delta = 0 gives a degenerate optimal step; with exact data use a plain "
            "central difference at a step of your choosing (StepRule.fixed)"
        )


def estimate(
    oracle: NoisyOracle,
    spec: SmoothnessSpec,
    points,
    step_rule: StepRule | None = None,
) -> EstimateReport:
    """Estimate f' at ``points`` from noisy data with a guaranteed sup bound.

    Resolves the optimal step for the declared family (C2 or Holder), applies
    the central difference, and reports the matching worst-case bound. A
    step rule other than the family's optimum (``StepRule.fixed``) gets the
    bound recomputed at the h it uses. Points whose stencil [x-h, x+h] is
    not finite and inside the closed domain (NaN, ±inf) are dropped and
    counted, not switched to one-sided differences. When the base oracle carries an
    exact derivative, per-point absolute errors and their max are filled in.
    """
    _gate_spec_and_delta(spec, oracle.delta)
    optimal = StepRule.for_spec(spec)
    rule = (step_rule or optimal).resolve(oracle.delta, spec)
    h = rule.resolved_h

    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim != 1:
        raise ParameterError(f"points must be a scalar or a 1-D array, got shape {pts.shape}")
    kept = pts[_stencil_in_domain(oracle.base.domain, pts - h, pts + h)]
    dropped = int(len(pts) - len(kept))

    if rule.kind != optimal.kind:
        bound = _bound_at_step(spec, oracle.delta, h)
    elif spec.kind is SpecKind.C2:
        bound = error_bound_c2(oracle.delta, spec.bound)
    else:
        bound = error_bound_holder(oracle.delta, spec.exponent, spec.bound)

    if len(kept) == 0:
        return EstimateReport(
            points=kept, estimates=kept.copy(), h_used=h,
            guaranteed_bound=bound, dropped_points=dropped,
        )

    estimates = central_difference(oracle, kept, h)

    measured = None
    abs_errors = None
    if oracle.base.derivative_eval is not None:
        truth = oracle.base.derivative_values(kept)
        abs_errors = np.abs(estimates - truth)
        measured = float(np.max(abs_errors))

    return EstimateReport(
        points=kept,
        estimates=estimates,
        h_used=h,
        guaranteed_bound=bound,
        measured_sup_error=measured,
        abs_errors=abs_errors,
        dropped_points=dropped,
    )


def estimate_on_grid(signal: GridSignal, spec: SmoothnessSpec) -> EstimateReport:
    """Differentiate a uniformly sampled signal, snapping the step to the grid.

    The ideal step h* is snapped to h = k*spacing with k = max(1,
    round-half-up(h*/spacing)); ties round to the larger k because a larger h
    shrinks the noise term delta/h, the dominant risk when delta is only an
    upper estimate. Since h != h* in general, the reported bound is recomputed
    at the snapped h (delta/h + m2*h/2 for C2, delta/h + m*h**a for Holder)
    rather than quoting the closed-form optimum.
    """
    _gate_spec_and_delta(spec, signal.delta)
    ideal = StepRule.for_spec(spec).resolve(signal.delta, spec).resolved_h

    k = max(1, int(np.floor(ideal / signal.spacing + 0.5)))
    n = len(signal)
    if k > (n - 1) // 2:
        raise GridTooShortError(
            f"snapped stencil needs {2 * k + 1} samples but the signal has {n}"
        )
    h = k * signal.spacing

    values = signal.values
    estimates = (values[2 * k :] - values[: n - 2 * k]) / (2.0 * h)
    points = signal.xs[k : n - k]

    return EstimateReport(
        points=points,
        estimates=estimates,
        h_used=float(h),
        guaranteed_bound=float(_bound_at_step(spec, signal.delta, h)),
        dropped_points=2 * k,  # the boundary samples that get no estimate
    )
