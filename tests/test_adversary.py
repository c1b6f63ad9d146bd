"""The two-function counterexample and the estimator challenge harness."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from stablederiv import (
    EstimatorFailure,
    EstimatorHandle,
    NoisyOracle,
    ParameterError,
    build_zoo,
    central_difference,
    challenge,
    error_bound_c2,
    lower_bound,
    make_pair,
    optimality_witness,
    pointwise_bound_scan,
    write_challenges_csv,
)


def test_make_pair_rejects_nonpositive_inputs():
    with pytest.raises(ParameterError):
        make_pair(0.0, 1.0)
    with pytest.raises(ParameterError):
        make_pair(1e-3, -2.0)
    for delta, big_m in ((math.inf, 1.0), (math.nan, 1.0), (1e-3, math.inf), (1e-3, math.nan)):
        with pytest.raises(ParameterError):
            make_pair(delta, big_m)


def test_pair_parameter_coupling():
    pair = make_pair(0.005, 1.0)
    assert pair.step == pytest.approx(0.1, rel=1e-15)
    assert pair.derivative_budget * pair.step**2 / 2.0 == pytest.approx(pair.delta, rel=1e-12)
    assert pair.derivative_gap == pytest.approx(0.1, rel=1e-15)

    other = make_pair(0.02, 4.0)
    assert other.step == pytest.approx(0.1, rel=1e-15)
    assert other.derivative_gap == pytest.approx(0.4, rel=1e-15)


def test_pair_vertex_value_and_slope_at_origin():
    pair = make_pair(0.005, 1.0)
    assert float(pair.f1.values(0.1)) == pytest.approx(0.005, abs=1e-12)
    assert float(pair.f1.derivative_values(0.0)) == 0.1  # exactly M*h


def test_pair_is_odd_and_periodic():
    pair = make_pair(2e-3, 0.7)
    period = 4.0 * pair.step
    xs = np.linspace(-3.0, 3.0, 1001)
    assert np.allclose(pair.f1.values(xs + period), pair.f1.values(xs), atol=1e-12)
    assert np.allclose(pair.f1.values(-xs), -pair.f1.values(xs), atol=1e-12)


def test_pair_sup_norms():
    delta, big_m = 0.005, 1.0
    pair = make_pair(delta, big_m)
    xs = np.linspace(-1.0, 1.0, 40001)  # several periods, dense
    vals = pair.f1.values(xs)
    slopes = pair.f1.derivative_values(xs)
    assert np.max(np.abs(vals)) <= delta * (1 + 1e-12)
    assert np.max(np.abs(vals)) == pytest.approx(delta, rel=1e-6)
    assert np.max(np.abs(slopes)) <= big_m * pair.step * (1 + 1e-12)
    assert np.max(np.abs(slopes)) == pytest.approx(big_m * pair.step, rel=1e-6)


def test_pair_first_derivative_continuous_at_joints():
    # C1 regularity: a central probe of f1 at each segment joint matches the
    # attached derivative to O(probe step)
    pair = make_pair(0.005, 1.0)
    h, t = pair.step, 1e-7
    for joint in (-2 * h, -h, 0.0, h, 2 * h, 3 * h):
        probe = (float(pair.f1.values(joint + t)) - float(pair.f1.values(joint - t))) / (2 * t)
        exact = float(pair.f1.derivative_values(joint))
        assert probe == pytest.approx(exact, abs=2 * pair.derivative_budget * t + 1e-12)


def test_pair_curvature_on_segment_interiors():
    pair = make_pair(0.005, 1.0)
    h, t = pair.step, 1e-5
    # interior points well away from the joints at multiples of h
    for x in (0.3 * h, 0.7 * h, -0.4 * h, 1.5 * h):
        second = (
            float(pair.f1.values(x + t))
            - 2.0 * float(pair.f1.values(x))
            + float(pair.f1.values(x - t))
        ) / t**2
        assert abs(second) == pytest.approx(pair.derivative_budget, rel=1e-4)


def test_pair_f2_is_pointwise_negation():
    pair = make_pair(1e-4, 3.0)
    xs = np.linspace(-0.5, 0.5, 10001)
    assert np.array_equal(pair.f2.values(xs), -pair.f1.values(xs))
    assert np.array_equal(pair.f2.derivative_values(xs), -pair.f1.derivative_values(xs))


def test_observed_oracle_is_identically_zero_and_consistent_with_both():
    pair = make_pair(0.005, 1.0)
    xs = np.linspace(-2, 2, 101)
    assert np.all(pair.observed.eval_noisy(xs) == 0.0)
    # delta-consistency: both hidden candidates stay within delta of the data
    assert np.max(np.abs(pair.f1.values(xs) - 0.0)) <= pair.delta * (1 + 1e-12)
    assert np.max(np.abs(pair.f2.values(xs) - 0.0)) <= pair.delta * (1 + 1e-12)


def test_lower_bound_closed_form_and_limits():
    assert lower_bound(0.005, 1.0) == pytest.approx(0.1, rel=1e-15)
    assert lower_bound(0.005, 100.0) > lower_bound(0.005, 1.0)  # grows with M
    # fixing a target derivative budget c and back-solving M = c^2/(2 delta)
    # pins the floor at c: stability cannot be bought with sup|f'| alone
    c, delta = 0.3, 1e-3
    big_m = c**2 / (2 * delta)
    assert lower_bound(delta, big_m) == pytest.approx(c, rel=1e-12)
    with pytest.raises(ParameterError):
        lower_bound(-1.0, 1.0)
    for delta, big_m in ((math.inf, 1.0), (1e-3, math.inf)):
        with pytest.raises(ParameterError):
            lower_bound(delta, big_m)


def test_zoo_composition():
    names = [e.name for e in build_zoo()]
    assert names[0] == "zero"
    assert sum(n.startswith("central-h=") for n in names) == 3
    assert any(n.startswith("smoothed5") for n in names)


def test_challenge_zoo_never_beats_the_floor():
    records = challenge(build_zoo(), 0.005, 1.0)
    assert len(records) == len(build_zoo())
    for rec in records:
        # every zoo member sees only zeros, answers 0, and lands on the floor
        assert rec.answer == 0.0
        assert rec.worst == pytest.approx(rec.lower, rel=1e-12)
        assert not rec.beaten


def test_challenge_arithmetic_for_a_biased_answer():
    fixed = EstimatorHandle("biased", lambda obs, at: 0.05)
    (rec,) = challenge([fixed], 0.005, 1.0)
    assert rec.err_f1 == pytest.approx(0.05, rel=1e-12)  # |0.05 - 0.1|
    assert rec.err_f2 == pytest.approx(0.15, rel=1e-12)  # |0.05 + 0.1|
    assert rec.worst == pytest.approx(0.15, rel=1e-12)
    assert not rec.beaten


def test_challenge_with_the_librarys_own_central_difference():
    def library_cd(obs: NoisyOracle, at: float) -> float:
        return central_difference(obs, at, 0.05)

    (rec,) = challenge([EstimatorHandle("library-cd", library_cd)], 1e-4, 2.0)
    assert rec.answer == 0.0
    assert rec.worst == pytest.approx(math.sqrt(2 * 1e-4 * 2.0), rel=1e-12)
    assert not rec.beaten


def test_challenge_wraps_estimator_exceptions():
    def boom(obs, at):
        raise RuntimeError("no answer")

    with pytest.raises(EstimatorFailure):
        challenge([EstimatorHandle("boom", boom)], 1e-3, 1.0)


def test_pointwise_scan_confirms_the_minimax_reply():
    best_b, best_worst = pointwise_bound_scan(0.005, 1.0)
    assert best_b == 0.0
    assert best_worst == pytest.approx(0.1, rel=1e-12)
    # identity behind it: max(|b-g|, |b+g|) = g + |b| on the scanned range
    gap = 0.1
    bs = np.linspace(-2 * gap, 2 * gap, 1001)
    worst = np.maximum(np.abs(bs - gap), np.abs(bs + gap))
    assert np.allclose(worst, gap + np.abs(bs), atol=1e-15)


def test_optimality_witness_ratio_is_one():
    for delta in (1e-6, 0.005, 0.3):
        for m2 in (0.1, 1.0, 20.0):
            low, up, ratio = optimality_witness(delta, m2)
            assert low == pytest.approx(up, rel=1e-15)
            assert ratio == pytest.approx(1.0, abs=1e-15)
            assert up == pytest.approx(error_bound_c2(delta, m2), rel=1e-15)
    low, up, _ = optimality_witness(1e-6, 2.0)
    assert up == pytest.approx(0.002, rel=1e-12)


def test_write_challenges_csv(tmp_path):
    records = challenge(build_zoo(), 0.005, 1.0)
    path = tmp_path / "challenges.csv"
    write_challenges_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["estimator", "delta", "M", "b", "err_f1", "err_f2", "worst", "lower", "beaten"]
    assert len(rows) == 1 + len(records)
    assert rows[1][0] == "zero"
    assert rows[1][-1] == "false"
    assert float(rows[1][6]) == records[0].worst
