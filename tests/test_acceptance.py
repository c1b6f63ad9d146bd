"""The acceptance gate: eight end-to-end checks with their stated tolerances.

Each check prints one ``[acceptance] C<n> ...: PASS`` (or FAIL) line; run
``pytest -s tests/test_acceptance.py`` to see them interleaved with the dots.

C1  certified sup-norm bound holds under adversarial cosine noise, zero
    tolerance, in under 5 seconds
C2  measured log-log convergence slopes within 0.10 of 1/2 (C2 declaration)
    and a/(1+a) (Holder declarations, a in {1/4, 1/2, 3/4}), in under 30 s
C3  optimality witness: adversarial floor / certified bound == 1 within
    1e-12 across a 5x5 grid of (delta, m2)
C4  no zoo estimator gets below sqrt(2*delta*M) on the counterexample pair,
    and a 10^4-step scan of constant answers bottoms out at the floor
C5  the worked counterexample at (delta, M) = (0.005, 1): step 0.1, sup
    norms 0.005 and 0.1, exact vertex slope, exact mirror symmetry
C6  derivative bounds from (m0, m2): worked values sqrt(2), 2, 2.5; holds
    on corpus functions with known norms; attained by the extremal pair
C7  the closed-form step beats a 100-point log grid search on 100 random
    (delta, a, m) configurations
C8  identical configuration and seed give byte-identical study CSV
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np
import pytest

from stablederiv import (
    Domain,
    SmoothnessSpec,
    build_zoo,
    challenge,
    m1_bound,
    make_pair,
    optimal_step_holder,
    optimality_witness,
    pointwise_bound_scan,
)
from stablederiv import corpus
from stablederiv.cli import StudyConfig, cli_dispatch, parse_deltas, run_study


@contextlib.contextmanager
def reported(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


@pytest.fixture(scope="module")
def adversarial_c2_study():
    """The C1/C2 workhorse: sin under cosine noise tuned to each step."""
    config = StudyConfig(
        function="sin",
        spec=SmoothnessSpec.c2(1.0),
        deltas=tuple(parse_deltas("1e-2:1e-7:6")),
        noise_name="cosine-adversarial",
        seed=0,
        window=(-3.0, 3.0),
        grid_points=2001,
    )
    start = time.perf_counter()
    rows, slope = run_study(config)
    return rows, slope, time.perf_counter() - start


def test_c1_certified_bound_never_violated(adversarial_c2_study):
    rows, _slope, elapsed = adversarial_c2_study
    with reported("C1 certified bound under adversarial noise (zero tolerance)"):
        assert len(rows) == 6
        for row in rows:
            # independent form of the guarantee, not the value the run reports
            assert row.measured_sup_error <= math.sqrt(2.0 * row.delta)
        assert elapsed < 5.0


def test_c2_convergence_slopes_match_theory(adversarial_c2_study):
    _rows, slope, elapsed_c1 = adversarial_c2_study
    with reported("C2 convergence slopes match 1/2 and a/(1+a) within 0.10"):
        start = time.perf_counter()
        assert 0.4 <= slope <= 0.6
        for a in (0.25, 0.5, 0.75):
            config = StudyConfig(
                function=f"holder:a={a}",
                spec=SmoothnessSpec.holder(a, 1.0),
                deltas=tuple(parse_deltas("1e-2:1e-6:5")),
                noise_name="cosine-adversarial",
                seed=0,
                window=(-3.0, 3.0),
                grid_points=2001,
            )
            _, holder_slope = run_study(config)
            assert abs(holder_slope - a / (1.0 + a)) <= 0.10, (
                f"a={a}: slope {holder_slope} vs theory {a / (1.0 + a)}"
            )
        assert elapsed_c1 + (time.perf_counter() - start) < 30.0


def test_c3_guarantee_is_unimprovable():
    with reported("C3 witness ratio floor/bound == 1 within 1e-12 on 5x5 grid"):
        for delta in np.logspace(-7.0, -1.0, 5):
            for m2 in np.logspace(-2.0, 2.0, 5):
                lower, upper, ratio = optimality_witness(float(delta), float(m2))
                assert lower > 0.0 and upper > 0.0
                assert abs(ratio - 1.0) <= 1e-12


def test_c4_no_estimator_beats_the_floor():
    with reported("C4 estimator zoo never beats the adversarial floor"):
        zoo = build_zoo()
        assert len(zoo) >= 5
        for delta in (1e-4, 1e-2):
            for budget in (0.1, 1.0, 10.0):
                floor = math.sqrt(2.0 * delta * budget)
                records = challenge(zoo, delta, budget)
                assert len(records) == len(zoo)
                for rec in records:
                    assert rec.worst >= floor - 1e-12, rec
                    assert rec.beaten is False
                # minimax over constant answers: best b sits at 0 (one grid
                # cell of slack), best worst-case error at the floor itself
                step = math.sqrt(2.0 * delta / budget)
                cell = 4.0 * budget * step / 1e4
                best_b, best_worst = pointwise_bound_scan(delta, budget)
                assert abs(best_b) <= cell
                assert floor - 1e-12 <= best_worst <= floor + cell + 1e-12


def test_c5_worked_counterexample_pair():
    with reported("C5 worked counterexample pair at delta=0.005, M=1"):
        pair = make_pair(0.005, 1.0)
        assert pair.step == 0.1

        probe = np.linspace(-0.2, 0.2, 10001)
        sup_f = np.max(np.abs(pair.f1.values(probe)))
        assert abs(sup_f - 0.005) <= 1e-9
        sup_fp = np.max(np.abs(pair.f1.derivative_values(probe)))
        assert abs(sup_fp - 0.1) <= 1e-6
        assert float(pair.f1.derivative_values(0.0)) == 0.1

        xs = np.linspace(-0.5, 0.5, 10001)
        assert np.array_equal(pair.f2.values(xs), -pair.f1.values(xs))
        assert np.array_equal(pair.f2.derivative_values(xs), -pair.f1.derivative_values(xs))
        # both functions are delta-consistent with the all-zero observation
        assert float(pair.observed.eval_noisy(0.0)) == 0.0
        assert np.max(np.abs(pair.f1.values(xs))) <= 0.005 + 1e-12


def test_c6_first_derivative_bounds():
    with reported("C6 (m0,m2) -> m1 bounds: worked values, corpus, extremal pair"):
        assert m1_bound(1.0, 1.0, Domain.real_line()).bound_m1 == math.sqrt(2.0)
        assert m1_bound(1.0, 1.0, Domain.half_line()).bound_m1 == 2.0
        assert m1_bound(1.0, 1.0, Domain.interval(0.0, 1.0)).bound_m1 == 2.5

        for key in ("sin", "exp-decay"):
            entry = corpus.get(key)
            measured = np.max(np.abs(entry.oracle.derivative_values(np.linspace(-10, 10, 2001))))
            bound = m1_bound(entry.m0, entry.m2, entry.oracle.domain).bound_m1
            assert measured <= bound, f"{key}: measured {measured} vs bound {bound}"

        # the counterexample wave attains the whole-line bound up to probe error
        pair = make_pair(0.005, 1.0)
        bound = m1_bound(0.005, 1.0, Domain.real_line()).bound_m1
        measured = np.max(np.abs(pair.f1.derivative_values(np.linspace(-0.2, 0.2, 4001))))
        assert 0.999 <= measured / bound <= 1.0


def test_c7_closed_form_step_beats_grid_search():
    with reported("C7 closed-form step beats a 100-point grid search, 100 cases"):
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = float(10.0 ** rng.uniform(-8.0, -1.0))
            a = float(rng.uniform(0.05, 1.0))
            m = float(10.0 ** rng.uniform(-3.0, 3.0))
            h_opt = optimal_step_holder(delta, a, m)
            grid = h_opt * np.logspace(-2.0, 2.0, 100)
            best_on_grid = float(np.min(delta / grid + m * grid**a))
            assert delta / h_opt + m * h_opt**a < best_on_grid


def test_c8_identical_config_gives_identical_bytes(tmp_path):
    with reported("C8 same configuration and seed give byte-identical CSV"):

        def run(name: str) -> bytes:
            code = cli_dispatch(
                [
                    "study", "--fn", "sin", "--spec", "c2:m2=1",
                    "--deltas", "1e-2:1e-5:4", "--noise", "uniform-hash",
                    "--seed", "123", "--grid-points", "501",
                    "--out", str(tmp_path / name),
                ]
            )
            assert code == 0
            return (tmp_path / name).read_bytes()

        first, second = run("first.csv"), run("second.csv")
        assert len(first) > 0
        assert first == second
