"""Executable lower bound: the C2 wave pair behind the optimality of the C2 bound.

Given a curvature budget M and a data accuracy delta, two functions f1 and
f2 = -f1 exist with |f1|, |f2| <= delta everywhere (so the all-zero
observation is delta-consistent with both), |f1''| <= M, and yet
f1'(0) = -f2'(0) = sqrt(2*delta*M). Any estimator fed the zero data stream
returns one number b and must be wrong by at least sqrt(2*delta*M) against
one of them.

That gap goes to 0 with delta, so this pair does not show the paper's
impossibility result (no estimate from sup|f| and sup|f'| alone is stable);
it shows that the C2 bound is optimal (:func:`optimality_witness`, ratio 1).
A witness for the paper's own pair, whose derivative gap does not shrink
with delta, is ROADMAP item 5.

The construction: with h = sqrt(2*delta/M), take the odd, 4h-periodic C1
wave of piecewise parabolas

    f1(x) = (M/2) * u * (2h - |u|),   u = ((x + 2h) mod 4h) - 2h,

which has |f1''| = M on parabola interiors, sup|f1| = M*h**2/2 = delta, and
f1'(0) = M*h exactly. This module turns that argument into a harness: a zoo
of plausible estimators, a challenge runner, and a scan showing b = 0 is the
minimax reply -- making the matching upper bound sqrt(2*m2*delta) of the C2
estimator provably unimprovable beyond its constant.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import EstimatorFailure, ParameterError
from .estimator import central_difference, error_bound_c2
from .function_model import FunctionOracle, NoisyOracle, NoNoise, write_csv

_SCAN_CANDIDATES = 10001  # answers b tried by pointwise_bound_scan; odd, so b = 0 is one


def _wave(x: np.ndarray, big_m: float, h: float) -> np.ndarray:
    u = np.mod(x + 2.0 * h, 4.0 * h) - 2.0 * h
    return 0.5 * big_m * u * (2.0 * h - np.abs(u))


def _wave_prime(x: np.ndarray, big_m: float, h: float) -> np.ndarray:
    # d/dx of (M/2) u (2h - |u|) with du/dx = 1: (M/2)(2h - 2|u|) = M(h - |u|)
    u = np.mod(x + 2.0 * h, 4.0 * h) - 2.0 * h
    return big_m * (h - np.abs(u))


@dataclass(frozen=True)
class AdversarialPair:
    """Two delta-indistinguishable functions whose derivatives split at 0."""

    f1: FunctionOracle
    f2: FunctionOracle
    observed: NoisyOracle
    delta: float
    derivative_budget: float
    step: float
    derivative_gap: float  # f1'(0) = -f2'(0) = sqrt(2*delta*M)


def make_pair(delta: float, derivative_budget: float) -> AdversarialPair:
    """Build the two-function counterexample for accuracy delta, budget M."""
    if not 0 < delta < math.inf:
        raise ParameterError(f"delta must be finite and > 0, got {delta}")
    if not 0 < derivative_budget < math.inf:
        raise ParameterError(f"derivative budget must be finite and > 0, got {derivative_budget}")
    big_m = derivative_budget
    h = math.sqrt(2.0 * delta / big_m)

    f1 = FunctionOracle(
        eval=lambda x: _wave(np.asarray(x, dtype=float), big_m, h),
        derivative_eval=lambda x: _wave_prime(np.asarray(x, dtype=float), big_m, h),
        name="adversarial-wave",
    )
    zero = FunctionOracle(
        eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        derivative_eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name="zero-observation",
    )
    return AdversarialPair(
        f1=f1,
        f2=f1.negated(),
        observed=NoisyOracle(base=zero, delta=delta, noise=NoNoise()),
        delta=delta,
        derivative_budget=big_m,
        step=h,
        derivative_gap=big_m * h,
    )


def lower_bound(delta: float, derivative_budget: float) -> float:
    """Error floor sqrt(2*delta*M): no estimator beats this on the pair."""
    if not (0 < delta < math.inf and 0 < derivative_budget < math.inf):
        raise ParameterError("delta and derivative budget must both be finite and > 0")
    return math.sqrt(2.0 * delta * derivative_budget)


# ---------------------------------------------------------------------------
# estimator zoo and the challenge runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorHandle:
    """A black-box derivative estimator.

    ``apply(observed, at)`` may query the observed noisy oracle anywhere but
    sees nothing else; it returns its estimate of the derivative at ``at``.
    """

    name: str
    apply: Callable[[NoisyOracle, float], float]


def build_zoo() -> list[EstimatorHandle]:
    """Plausible estimators to throw at the pair.

    All read only the observed (noisy) function. None of them can win; the
    point of the zoo is that failure is structural, not an artifact of one
    bad scheme.
    """

    def smoothed5(h: float) -> Callable[[NoisyOracle, float], float]:
        # least-squares slope through 5 equispaced noisy samples
        def run(obs: NoisyOracle, at: float) -> float:
            ys = [float(obs.eval_noisy(at + k * h)) for k in (-2, -1, 0, 1, 2)]
            return (-2 * ys[0] - ys[1] + ys[3] + 2 * ys[4]) / (10.0 * h)

        return run

    zoo = [EstimatorHandle("zero", lambda obs, at: 0.0)]
    for h in (0.01, 0.1, 1.0):
        zoo.append(EstimatorHandle(f"central-h={h}",
                                   lambda obs, at, h=h: central_difference(obs, at, h)))
    zoo.append(EstimatorHandle("smoothed5-h=0.1", smoothed5(0.1)))
    return zoo


@dataclass(frozen=True)
class ChallengeRecord:
    estimator: str
    delta: float
    derivative_budget: float
    answer: float
    err_f1: float
    err_f2: float
    worst: float
    lower: float
    beaten: bool


def challenge(
    estimators: Sequence[EstimatorHandle],
    delta: float,
    derivative_budget: float,
) -> list[ChallengeRecord]:
    """Run each estimator against the pair and score its worst-case error.

    ``beaten`` records whether the estimator got under the floor (up to a
    1e-12 rounding allowance) -- by construction it never happens, and the
    harness exists so that claim is checked, not assumed. An estimator that
    raises is wrapped in :class:`EstimatorFailure` rather than scored.
    """
    pair = make_pair(delta, derivative_budget)
    floor = lower_bound(delta, derivative_budget)
    truth = pair.derivative_gap  # f1'(0); f2'(0) is its negative

    records = []
    for est in estimators:
        try:
            b = float(est.apply(pair.observed, 0.0))
        except Exception as exc:  # noqa: BLE001 - scored harness, not control flow
            raise EstimatorFailure(f"estimator {est.name!r} raised: {exc}") from exc
        err1 = abs(b - truth)
        err2 = abs(b + truth)
        worst = max(err1, err2)
        records.append(
            ChallengeRecord(
                estimator=est.name,
                delta=delta,
                derivative_budget=derivative_budget,
                answer=b,
                err_f1=err1,
                err_f2=err2,
                worst=worst,
                lower=floor,
                beaten=worst < floor - 1e-12,
            )
        )
    return records


def pointwise_bound_scan(delta: float, derivative_budget: float) -> tuple[float, float]:
    """Scan answers b for the minimax reply; returns (best_b, best_worst).

    The scan covers [-2*M*h, 2*M*h]; since max(|b - Mh|, |b + Mh|) =
    Mh + |b|, the minimum sits at b = 0 with value Mh = the lower bound,
    and the grid contains 0 so the scan finds it exactly.
    """
    pair = make_pair(delta, derivative_budget)
    gap = pair.derivative_gap
    bs = np.linspace(-2.0 * gap, 2.0 * gap, _SCAN_CANDIDATES)
    worst = np.maximum(np.abs(bs - gap), np.abs(bs + gap))
    i = int(np.argmin(worst))
    return float(bs[i]), float(worst[i])


def optimality_witness(delta: float, m2: float) -> tuple[float, float, float]:
    """(lower, upper, ratio) comparing the floor to the C2 guarantee.

    The wave pair built with constant m2 satisfies |f''| = m2 on parabola
    interiors, so it lives inside the C2 family the estimator is certified
    on, and it forces every estimator's worst case up to its derivative gap
    f1'(0) = m2*h, which ``lower`` reads from the pair itself. That floor
    equals the guarantee sqrt(2*m2*delta) up to rounding: ratio 1, i.e. the
    method is optimal among all estimators, not merely among difference
    schemes.
    """
    low = float(make_pair(delta, m2).f1.derivative_values(0.0))
    up = error_bound_c2(delta, m2)
    return low, up, up / low


def write_challenges_csv(records: Sequence[ChallengeRecord], path: str | Path) -> None:
    """Rows ``estimator,delta,M,b,err_f1,err_f2,worst,lower,beaten``: each record's fields."""
    rows = [astuple(r)[:-1] + (str(r.beaten).lower(),) for r in records]
    header = ["estimator", "delta", "M", "b", "err_f1", "err_f2", "worst", "lower", "beaten"]
    write_csv(path, header, list(zip(*rows)))
