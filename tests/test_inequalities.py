"""Derivative bounds from (m0, m2) and their numerical verification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stablederiv import (
    CapabilityError,
    Domain,
    FunctionOracle,
    ParameterError,
    m1_bound,
    make_pair,
    verify_against,
)


def test_worked_examples():
    whole = m1_bound(1.0, 1.0, Domain.real_line())
    assert whole.bound_m1 == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert whole.rule_applied == "whole-line"
    assert whole.threshold_length == pytest.approx(2.0, rel=1e-15)

    half = m1_bound(1.0, 1.0, Domain.half_line())
    assert half.bound_m1 == pytest.approx(2.0, rel=1e-15)
    assert half.rule_applied == "half-line"

    short = m1_bound(1.0, 1.0, Domain.interval(0.0, 1.0))
    # 2/L * m0 + L/2 * m2 with L = 1
    assert short.bound_m1 == pytest.approx(2.5, rel=1e-15)
    assert short.rule_applied == "short-interval"
    assert short.threshold_length == pytest.approx(2.0, rel=1e-15)

    # only the ends count: the mirrored half line (-inf, 0] takes the half-line
    # rule, and an interval anywhere on the line the rule of its length hi - lo
    mirrored = m1_bound(1.0, 1.0, Domain(hi=0.0))
    assert (mirrored.bound_m1, mirrored.rule_applied) == (2.0, "half-line")
    shifted = m1_bound(1.0, 1.0, Domain.interval(-3.0, -2.0))
    assert (shifted.bound_m1, shifted.rule_applied) == (2.5, "short-interval")


def test_long_intervals_use_the_half_line_rule():
    res = m1_bound(1.0, 1.0, Domain.interval(0.0, 5.0))
    assert res.rule_applied == "half-line"
    assert res.bound_m1 == pytest.approx(2.0, rel=1e-15)
    # exactly at the threshold, too
    at = m1_bound(1.0, 1.0, Domain.interval(0.0, 2.0))
    assert at.rule_applied == "half-line"


def test_continuity_at_the_threshold():
    m0, m2 = 0.7, 3.1
    threshold = 2.0 * math.sqrt(m0 / m2)
    below = m1_bound(m0, m2, Domain.interval(0.0, threshold * (1 - 1e-9)))
    at = m1_bound(m0, m2, Domain.interval(0.0, threshold))
    assert below.rule_applied == "short-interval"
    assert at.rule_applied == "half-line"
    assert below.bound_m1 == pytest.approx(at.bound_m1, rel=1e-7)


def test_interval_formula_is_minimized_at_the_threshold():
    # grid search independent of the closed form
    m0, m2 = 1.3, 0.4
    floor = 2.0 * math.sqrt(m0 * m2)
    lengths = np.linspace(0.01, 20.0, 20000)
    values = (2.0 / lengths) * m0 + (lengths / 2.0) * m2
    assert np.all(values >= floor * (1 - 1e-12))
    best = lengths[np.argmin(values)]
    assert best == pytest.approx(2.0 * math.sqrt(m0 / m2), abs=2e-3)
    assert np.min(values) == pytest.approx(floor, rel=1e-5)


@pytest.mark.parametrize(
    "domain",
    [Domain.real_line(), Domain.half_line(), Domain.interval(0.0, 0.8)],
)
def test_bound_monotone_in_both_norms(domain):
    m0s = [0.1, 0.5, 1.0, 4.0]
    m2s = [0.1, 0.5, 1.0, 4.0]
    for m2 in m2s:
        vals = [m1_bound(m0, m2, domain).bound_m1 for m0 in m0s]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    for m0 in m0s:
        vals = [m1_bound(m0, m2, domain).bound_m1 for m2 in m2s]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_parameter_errors():
    with pytest.raises(ParameterError):
        m1_bound(-1.0, 1.0, Domain.real_line())
    with pytest.raises(ParameterError):
        m1_bound(1.0, -1.0, Domain.half_line())
    with pytest.raises(ParameterError):
        m1_bound(1.0, 0.0, Domain.interval(0.0, 1.0))  # threshold undefined


def test_zero_curvature_on_unbounded_domains():
    # bounded with f'' = 0 means constant, so f' = 0 and the formula agrees
    res = m1_bound(1.0, 0.0, Domain.real_line())
    assert res.bound_m1 == 0.0
    assert res.threshold_length == math.inf
    trivial = m1_bound(0.0, 0.0, Domain.half_line())
    assert trivial.bound_m1 == 0.0
    assert trivial.threshold_length == 0.0


def test_verify_against_sin():
    sin = FunctionOracle(eval=np.sin, derivative_eval=np.cos, name="sin")
    holds, measured, result = verify_against(sin, 1.0, 1.0)
    assert holds
    assert measured <= 1.0
    assert measured == pytest.approx(1.0, abs=1e-4)
    assert result.bound_m1 == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_verify_against_constant():
    const = FunctionOracle(eval=lambda x: 0.7, derivative_eval=lambda x: 0.0)
    holds, measured, _ = verify_against(const, 0.7, 0.0)
    assert holds
    assert measured == 0.0


def test_verify_against_needs_derivative():
    f = FunctionOracle(eval=np.sin)
    with pytest.raises(CapabilityError):
        verify_against(f, 1.0, 1.0)


def test_extremal_pair_attains_the_whole_line_bound():
    # the two-function counterexample built at (delta, M) = (0.005, 1) has
    # sup|f| = 0.005, sup|f''| = 1, sup|f'| = 0.1 = sqrt(2*0.005*1): equality
    pair = make_pair(0.005, 1.0)
    holds, measured, result = verify_against(
        pair.f1, 0.005, 1.0, window=(-0.2, 0.2), grid_points=4001
    )
    assert holds
    assert result.bound_m1 == pytest.approx(0.1, rel=1e-15)
    assert measured / result.bound_m1 >= 0.999
    assert measured / result.bound_m1 <= 1.0
