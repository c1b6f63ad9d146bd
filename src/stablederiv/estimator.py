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

:meth:`StepRule.resolve` is the one place that picks h and its bound, at the
optimum above or at a fixed h; it dispatches on the declared
:class:`SmoothnessSpec`, and C2 data always gets the Taylor route because its
constant beats the a=1 Holder constant by a factor sqrt(2)/2. Declaring only
sup|f| or sup|f'| is refused (``SmoothnessSpec.m0``/``m1`` raise
:class:`UnstableFamilyError`): under that information no estimator whatsoever
has a worst-case error that vanishes with delta. The ``adversary`` module's
C2 wave pair does not show this (its derivative gap sqrt(2*delta*M) vanishes
with delta); it shows that the C2 bound is optimal. An executable witness of
the impossibility result itself is ROADMAP item 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DomainError, GridTooShortError, ParameterError
from .function_model import Domain, GridSignal, NoisyOracle, SmoothnessSpec, SpecKind
from .function_model import write_float_csv


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
    collapsed = left == right  # x - h and x + h round to the same float
    if np.any(collapsed):
        raise ParameterError(f"the stencil at x = {xs[collapsed].flat[0]} has width 0 in "
                             f"floating point for h = {h}; |x| is too large for this step")
    out = (oracle.eval_noisy(right) - oracle.eval_noisy(left)) / (2.0 * h)
    return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# step rule and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRule:
    """How the half-width h is chosen.

    ``StepRule()`` takes the declared family's closed-form optimum and
    ``StepRule.fixed(h)`` a given finite h > 0.
    """

    fixed_h: float | None = None

    def __post_init__(self) -> None:
        h = self.fixed_h
        if h is not None and not (math.isfinite(h) and h > 0):
            raise ParameterError(f"a fixed step must be finite and > 0, got {h}")

    @classmethod
    def fixed(cls, h: float) -> "StepRule":
        return cls(fixed_h=h)

    def resolve(self, delta: float, spec: SmoothnessSpec) -> tuple[float, float]:
        """(h, bound): the step and the worst-case sup error of the central difference at it.

        At the optimum the bound is error_bound_c2 / error_bound_holder; at a fixed
        h it is delta/h + m2*h/2 (C2) or delta/h + m*h**a (Holder), which stays
        valid for exact data (delta = 0). Only the optimum refuses delta = 0.
        """
        if not 0 <= delta < math.inf:
            raise ParameterError(f"delta must be finite and >= 0, got {delta}")
        h = self.fixed_h
        if h is not None:
            if spec.kind is SpecKind.C2:
                return h, delta / h + spec.bound * h / 2.0
            return h, delta / h + spec.bound * h**spec.exponent
        if delta == 0:
            raise DegenerateInputError(
                "delta = 0 gives a degenerate optimal step; with exact data use a plain "
                "central difference at a step of your choosing (StepRule.fixed)"
            )
        if spec.kind is SpecKind.C2:
            return optimal_step_c2(delta, spec.bound), error_bound_c2(delta, spec.bound)
        return (optimal_step_holder(delta, spec.exponent, spec.bound),
                error_bound_holder(delta, spec.exponent, spec.bound))


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


def estimate(
    oracle: NoisyOracle,
    spec: SmoothnessSpec,
    points,
    step_rule: StepRule | None = None,
) -> EstimateReport:
    """Estimate f' at ``points`` from noisy data with a guaranteed sup bound.

    ``step_rule.resolve`` (default ``StepRule()``, the declared family's optimum)
    gives the step h and the worst-case bound at that h; the central difference
    does the rest. Points whose stencil [x-h, x+h] is not finite and inside the
    closed domain (NaN, ±inf) are dropped and counted, not switched to one-sided
    differences. When the base oracle carries an exact derivative, per-point
    absolute errors and their max are filled in.
    """
    h, bound = (step_rule or StepRule()).resolve(oracle.delta, spec)

    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim != 1:
        raise ParameterError(f"points must be a scalar or a 1-D array, got shape {pts.shape}")
    kept = pts[_stencil_in_domain(oracle.base.domain, pts - h, pts + h)]
    dropped = int(len(pts) - len(kept))

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
    upper estimate. Since h != h* in general, the reported bound is the one
    at the snapped h (``StepRule.fixed(h)``), not the closed-form optimum.
    """
    ideal, _ = StepRule().resolve(signal.delta, spec)

    k = max(1, int(np.floor(ideal / signal.spacing + 0.5)))
    n = len(signal)
    if k > (n - 1) // 2:
        raise GridTooShortError(
            f"snapped stencil needs {2 * k + 1} samples but the signal has {n}"
        )
    h, bound = StepRule.fixed(k * signal.spacing).resolve(signal.delta, spec)

    values = signal.values
    estimates = (values[2 * k :] - values[: n - 2 * k]) / (2.0 * h)
    points = signal.xs[k : n - k]

    return EstimateReport(
        points=points,
        estimates=estimates,
        h_used=h,
        guaranteed_bound=bound,
        dropped_points=2 * k,  # the boundary samples that get no estimate
    )
