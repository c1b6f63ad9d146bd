"""Closed-form steps/bounds, the central difference, and the guarantee itself."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablederiv import (
    ConstantSignNoise,
    CosineAdversarialNoise,
    DegenerateInputError,
    Domain,
    DomainError,
    EstimateReport,
    FunctionOracle,
    GridSignal,
    GridTooShortError,
    NoNoise,
    NoisyOracle,
    ParameterError,
    SmoothnessSpec,
    StepRule,
    UniformHashNoise,
    UnstableFamilyError,
    central_difference,
    error_bound_c2,
    error_bound_holder,
    estimate,
    estimate_on_grid,
    get_corpus_function,
    optimal_step_c2,
    optimal_step_holder,
)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_optimal_step_c2_closed_form():
    assert optimal_step_c2(0.02, 1.0) == pytest.approx(0.2, rel=1e-15)
    assert optimal_step_c2(0.005, 0.1) == pytest.approx(math.sqrt(0.1), rel=1e-15)


def test_optimal_step_c2_scaling_symmetry():
    base = optimal_step_c2(0.02, 1.0)
    for lam in (0.5, 2.0, 7.3):
        assert optimal_step_c2(lam**2 * 0.02, 1.0) == pytest.approx(lam * base, rel=1e-12)


def test_error_bound_c2_closed_form():
    assert error_bound_c2(0.02, 1.0) == pytest.approx(0.2, rel=1e-15)
    # the value that equals the adversary floor in the optimality argument
    assert error_bound_c2(0.005, 1.0) == pytest.approx(0.1, rel=1e-15)
    assert error_bound_c2(1e-12, 1.0) < 1e-5  # -> 0 with delta


def test_optimal_step_holder_closed_form():
    assert optimal_step_holder(0.01, 1.0, 1.0) == pytest.approx(0.1, rel=1e-15)
    expected = (1e-3 / 0.5) ** (1.0 / 1.5)
    assert optimal_step_holder(1e-3, 0.5, 1.0) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.015874, abs=1e-6)


def test_error_bound_holder_closed_form():
    # a = 1, m = 1: the constant is 1 + 1 = 2
    assert error_bound_holder(0.01, 1.0, 1.0) == pytest.approx(0.2, rel=1e-15)
    # a = 0.5, m = 1 computed from scratch
    a, m, delta = 0.5, 1.0, 1e-3
    c = (a * m) ** (1 / (1 + a)) + m / (a * m) ** (a / (1 + a))
    assert c == pytest.approx(1.8898815748423098, rel=1e-12)
    assert error_bound_holder(delta, a, m) == pytest.approx(c * delta ** (a / (1 + a)), rel=1e-15)


@pytest.mark.parametrize(
    "delta,a,m",
    [(1e-2, 1.0, 1.0), (1e-3, 0.5, 2.0), (1e-5, 0.25, 0.3), (1e-7, 0.75, 10.0)],
)
def test_holder_bound_equals_decomposition_at_optimum(delta, a, m):
    h = optimal_step_holder(delta, a, m)
    assert error_bound_holder(delta, a, m) == pytest.approx(delta / h + m * h**a, rel=1e-12)


def test_closed_form_parameter_errors():
    with pytest.raises(ParameterError):
        optimal_step_c2(0.0, 1.0)
    with pytest.raises(ParameterError):
        optimal_step_c2(1e-3, -1.0)
    with pytest.raises(ParameterError):
        error_bound_c2(-1e-3, 1.0)
    with pytest.raises(ParameterError):
        optimal_step_holder(1e-3, 1.2, 1.0)
    with pytest.raises(ParameterError):
        error_bound_holder(1e-3, 0.0, 1.0)
    with pytest.raises(ParameterError):
        error_bound_holder(1e-3, 0.5, 0.0)


def test_bound_rates_on_closed_forms():
    # log-log slope of the guaranteed bound is exactly 1/2 (C2), a/(1+a) (Holder)
    d1, d2 = 1e-3, 1e-6
    slope_c2 = math.log(error_bound_c2(d2, 3.0) / error_bound_c2(d1, 3.0)) / math.log(d2 / d1)
    assert slope_c2 == pytest.approx(0.5, abs=1e-12)
    for a in (0.25, 0.5, 0.75, 1.0):
        s = math.log(
            error_bound_holder(d2, a, 2.0) / error_bound_holder(d1, a, 2.0)
        ) / math.log(d2 / d1)
        assert s == pytest.approx(a / (1 + a), abs=1e-12)


def test_c2_bound_beats_holder_a1_by_sqrt2():
    for delta, m in [(1e-2, 1.0), (1e-5, 4.0), (1e-8, 0.2)]:
        c2 = error_bound_c2(delta, m)
        h1 = error_bound_holder(delta, 1.0, m)
        assert c2 < h1
        assert c2 / h1 == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the central difference
# ---------------------------------------------------------------------------


def _noisefree(fn, dfn=None, domain=None) -> NoisyOracle:
    base = FunctionOracle(eval=fn, derivative_eval=dfn, domain=domain or Domain.real_line())
    return NoisyOracle(base=base, delta=0.0, noise=NoNoise())


def test_central_difference_exact_on_quadratics():
    quad = _noisefree(lambda x: np.asarray(x, dtype=float) ** 2)
    assert central_difference(quad, 1.0, 0.1) == pytest.approx(2.0, rel=1e-14)
    xs = np.linspace(-5, 5, 41)
    got = central_difference(quad, xs, 0.37)
    assert np.allclose(got, 2 * xs, rtol=1e-12, atol=1e-12)


def test_central_difference_zero_function():
    zero = _noisefree(lambda x: 0.0)
    assert central_difference(zero, 3.0, 0.5) == 0.0


def test_central_difference_sin_value():
    sin = _noisefree(np.sin)
    assert central_difference(sin, 0.0, 0.1) == pytest.approx(math.sin(0.1) / 0.1, rel=1e-15)
    assert central_difference(sin, 0.0, 0.1) == pytest.approx(0.99833, abs=1e-5)


def test_central_difference_linearity():
    f = lambda x: np.sin(np.asarray(x, dtype=float))
    g = lambda x: np.asarray(x, dtype=float) ** 2
    combo = _noisefree(lambda x: 2.0 * f(x) + 3.0 * g(x))
    xs = np.linspace(-1, 1, 11)
    lhs = central_difference(combo, xs, 0.05)
    rhs = 2.0 * central_difference(_noisefree(f), xs, 0.05) + 3.0 * central_difference(
        _noisefree(g), xs, 0.05
    )
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_central_difference_stencil_domain_check():
    root = _noisefree(np.sqrt, domain=Domain.half_line())
    with pytest.raises(DomainError):
        central_difference(root, 0.05, 0.1)
    with pytest.raises(ParameterError):
        central_difference(root, 1.0, 0.0)


# ---------------------------------------------------------------------------
# step rules
# ---------------------------------------------------------------------------


def test_step_rule_resolution():
    spec = SmoothnessSpec.c2(1.0)
    h, bound = StepRule().resolve(0.02, spec)
    assert h == pytest.approx(0.2, rel=1e-15)
    assert bound == error_bound_c2(0.02, 1.0)

    hspec = SmoothnessSpec.holder(0.5, 1.0)
    h, bound = StepRule().resolve(1e-3, hspec)
    assert h == optimal_step_holder(1e-3, 0.5, 1.0)
    assert bound == error_bound_holder(1e-3, 0.5, 1.0)

    assert StepRule.fixed(0.25).resolve(123.0, spec) == (0.25, 123.0 / 0.25 + 0.25 / 2.0)
    assert StepRule.fixed(0.25).resolve(123.0, hspec) == (0.25, 123.0 / 0.25 + 0.25**0.5)


def test_step_rule_validation():
    for bad_h in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            StepRule.fixed(bad_h)
    for rule in (StepRule(), StepRule.fixed(0.1)):
        with pytest.raises(UnstableFamilyError):
            rule.resolve(1e-3, SmoothnessSpec.m0(1.0))
        with pytest.raises(ParameterError):
            rule.resolve(-1e-3, SmoothnessSpec.c2(1.0))


# ---------------------------------------------------------------------------
# estimate()
# ---------------------------------------------------------------------------


def test_estimate_rejects_weak_information():
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=1e-3, noise=NoNoise())
    for spec in (SmoothnessSpec.m0(1.0), SmoothnessSpec.m1(1.0)):
        with pytest.raises(UnstableFamilyError):
            estimate(noisy, spec, [0.0])


def test_estimate_rejects_zero_delta():
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=0.0, noise=NoNoise())
    with pytest.raises(DegenerateInputError):
        estimate(noisy, SmoothnessSpec.c2(1.0), [0.0])


@pytest.mark.parametrize(
    "spec,bound", [(SmoothnessSpec.c2(1.0), 5e-4), (SmoothnessSpec.holder(1.0, 1.0), 1e-3)]
)
def test_fixed_step_runs_on_exact_data(spec, bound):
    # delta = 0 leaves only the truncation term: m2*h/2 (C2) or m*h**a (Holder)
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=0.0, noise=NoNoise())
    pts = np.linspace(-3, 3, 301)
    report = estimate(noisy, spec, pts, step_rule=StepRule.fixed(1e-3))
    assert report.h_used == 1e-3
    assert report.guaranteed_bound == pytest.approx(bound, rel=1e-15)
    assert 0 < report.measured_sup_error < 2e-7


def test_estimate_sin_within_bound():
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=1e-4, noise=NoNoise())
    report = estimate(noisy, SmoothnessSpec.c2(1.0), np.linspace(-3, 3, 301))
    assert report.h_used == pytest.approx(math.sqrt(2e-4), rel=1e-15)
    assert report.guaranteed_bound == pytest.approx(math.sqrt(2e-4), rel=1e-15)
    assert report.measured_sup_error is not None
    assert report.measured_sup_error <= report.guaranteed_bound
    assert report.abs_errors.shape == report.points.shape
    assert report.dropped_points == 0


def test_estimate_at_parabola_vertex_with_constant_noise():
    # f(x) = -(1/2) x (x - 0.4) on [0, 0.4]; at the vertex x = 0.2 the
    # stencil is symmetric, so a constant offset cancels and the estimate is
    # (numerically) zero -- as is the true derivative there.
    def f(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * (x - 0.4)

    def df(x):
        return 0.2 - np.asarray(x, dtype=float)

    base = FunctionOracle(eval=f, derivative_eval=df, domain=Domain.interval(0.0, 0.4))
    noisy = NoisyOracle(base=base, delta=0.005, noise=ConstantSignNoise(+1))
    report = estimate(noisy, SmoothnessSpec.c2(1.0), [0.2])
    assert report.h_used == pytest.approx(0.1, rel=1e-15)
    assert abs(report.estimates[0]) < 1e-14
    assert report.measured_sup_error < 1e-14
    assert report.guaranteed_bound == pytest.approx(0.1, rel=1e-15)


def test_estimate_drops_points_whose_stencil_leaves_the_domain():
    base = FunctionOracle(
        eval=lambda x: np.asarray(x, dtype=float) ** 2,
        derivative_eval=lambda x: 2.0 * np.asarray(x, dtype=float),
        domain=Domain.interval(0.0, 1.0),
    )
    noisy = NoisyOracle(base=base, delta=0.005, noise=NoNoise())
    # h = sqrt(2*0.005/1) = 0.1: stencils at 0.005 and 0.995 poke outside
    report = estimate(noisy, SmoothnessSpec.c2(1.0), [0.005, 0.5, 0.995])
    assert report.dropped_points == 2
    assert np.array_equal(report.points, [0.5])
    assert report.estimates[0] == pytest.approx(1.0, rel=1e-12)


def test_estimate_all_points_dropped_gives_empty_report():
    base = FunctionOracle(eval=lambda x: 0.0, domain=Domain.interval(0.0, 0.01))
    noisy = NoisyOracle(base=base, delta=0.005, noise=NoNoise())
    report = estimate(noisy, SmoothnessSpec.c2(1.0), [0.005])
    assert len(report.points) == 0
    assert report.dropped_points == 1
    assert report.measured_sup_error is None


def test_estimate_empty_input_gives_empty_report():
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=1e-4, noise=NoNoise())
    report = estimate(noisy, SmoothnessSpec.c2(1.0), [])
    assert len(report.points) == 0 and len(report.estimates) == 0
    assert report.dropped_points == 0
    assert report.measured_sup_error is None


def test_estimate_refuses_multidimensional_points():
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=1e-4, noise=NoNoise())
    with pytest.raises(ParameterError):
        estimate(noisy, SmoothnessSpec.c2(1.0), np.zeros((2, 3)))


def test_estimate_fixed_step_reports_the_bound_at_that_step():
    # at the optimal step h* = 0.0141 the bound is 0.0141; at h = 1e-3 the
    # cosine profile costs delta/h = 0.1 at the odd multiples of h, so the
    # bound must be recomputed at h
    sin = get_corpus_function("sin").oracle
    delta, h = 1e-4, 1e-3
    noisy = NoisyOracle(base=sin, delta=delta, noise=CosineAdversarialNoise(h_ref=h))
    odd_multiples = np.linspace(-2.999, 2.999, 2999)
    report = estimate(noisy, SmoothnessSpec.c2(1.0), odd_multiples, step_rule=StepRule.fixed(h))
    assert report.h_used == h
    assert report.guaranteed_bound == pytest.approx(delta / h + h / 2.0, rel=1e-15)
    assert report.measured_sup_error == pytest.approx(0.1, rel=1e-3)
    assert report.measured_sup_error <= report.guaranteed_bound

    hspec = SmoothnessSpec.holder(0.5, 1.0)
    report = estimate(noisy, hspec, [0.0], step_rule=StepRule.fixed(h))
    assert report.guaranteed_bound == pytest.approx(delta / h + h**0.5, rel=1e-15)


def test_estimate_mask_calls_do_not_grow_with_the_point_count(monkeypatch):
    calls = []
    contains = Domain.contains

    def counting(self, x):
        calls.append(1)
        return contains(self, x)

    monkeypatch.setattr(Domain, "contains", counting)
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=1e-4, noise=UniformHashNoise(seed=1))
    counts = []
    for n in (10, 10_000):
        calls.clear()
        estimate(noisy, SmoothnessSpec.c2(1.0), np.linspace(-3, 3, n))
        counts.append(len(calls))
    assert counts[0] == counts[1]


_EDGE_DOMAINS = [Domain.real_line(), Domain.half_line(), Domain.interval(-1.5, 2.0)]


@st.composite
def _domain_step_points(draw):
    domain = draw(st.sampled_from(_EDGE_DOMAINS))
    h = draw(st.floats(min_value=1e-6, max_value=4.0))
    edges = [-0.0, math.nan, math.inf, -math.inf]
    for end in (domain.lo + h, domain.hi - h):
        if math.isfinite(end):
            edges += [end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)]
    points = draw(
        st.lists(
            st.one_of(st.sampled_from(edges), st.floats(allow_nan=True, allow_infinity=True)),
            max_size=40,
        )
    )
    return domain, h, points


@settings(max_examples=300, deadline=None)
@given(_domain_step_points())
def test_estimate_mask_matches_the_per_point_rule(case):
    domain, h, points = case
    noisy = NoisyOracle(base=FunctionOracle(eval=lambda x: 0.0, domain=domain), delta=1e-3)
    report = estimate(noisy, SmoothnessSpec.c2(1.0), points, step_rule=StepRule.fixed(h))
    expected = [
        p for p in points
        if domain.contains(p - h) and domain.contains(p + h)
        and math.isfinite(p - h) and math.isfinite(p + h)
    ]
    assert report.points.tobytes() == np.array(expected, dtype=float).tobytes()
    assert report.dropped_points == len(points) - len(expected)


def test_estimate_without_derivative_oracle_reports_no_measured_error():
    base = FunctionOracle(eval=np.sin)
    noisy = NoisyOracle(base=base, delta=1e-4, noise=NoNoise())
    report = estimate(noisy, SmoothnessSpec.c2(1.0), [0.0, 1.0])
    assert report.measured_sup_error is None
    assert report.abs_errors is None


def test_minimizer_property_both_rules():
    # the resolved step beats a wide log grid of alternatives under the
    # matching worst-case decomposition
    delta, m2 = 3e-4, 2.0
    h_c2 = optimal_step_c2(delta, m2)
    grid = h_c2 * np.logspace(-2, 2, 100)
    scores = delta / grid + m2 * grid / 2.0
    assert delta / h_c2 + m2 * h_c2 / 2.0 <= np.min(scores)

    a, m = 0.6, 0.7
    h_h = optimal_step_holder(delta, a, m)
    grid = h_h * np.logspace(-2, 2, 100)
    scores = delta / grid + m * grid**a
    assert delta / h_h + m * h_h**a <= np.min(scores)


class TestGuaranteeMatrix:
    """The central property: honest declaration => measured <= guaranteed.

    Every corpus function is paired with the specs its exact norms justify
    and driven with every noise profile at several amplitudes.
    """

    CASES = [
        ("sin", SmoothnessSpec.c2(1.0)),
        ("sin", SmoothnessSpec.holder(1.0, 1.0)),
        ("quadratic", SmoothnessSpec.c2(2.0)),
        ("quadratic", SmoothnessSpec.holder(1.0, 2.0)),
        ("exp-decay", SmoothnessSpec.c2(2.0)),
        ("holder:a=0.25", SmoothnessSpec.holder(0.25, 1.0)),
        ("holder:a=0.5", SmoothnessSpec.holder(0.5, 1.0)),
        ("holder:a=0.75", SmoothnessSpec.holder(0.75, 1.0)),
        ("holder:a=1", SmoothnessSpec.c2(1.0)),
    ]

    @pytest.mark.parametrize("name,spec", CASES, ids=[f"{n}/{s.kind.value}" for n, s in CASES])
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_measured_error_never_exceeds_bound(self, name, spec, delta):
        entry = get_corpus_function(name)
        h, _ = StepRule().resolve(delta, spec)
        noises = [
            NoNoise(),
            UniformHashNoise(seed=3),
            ConstantSignNoise(+1),
            ConstantSignNoise(-1),
            CosineAdversarialNoise(h_ref=h),
        ]
        points = np.linspace(-3, 3, 301)
        for noise in noises:
            noisy = NoisyOracle(base=entry.oracle, delta=delta, noise=noise)
            report = estimate(noisy, spec, points)
            assert report.measured_sup_error <= report.guaranteed_bound, (
                f"{name} under {noise.name} at delta={delta}"
            )


# ---------------------------------------------------------------------------
# estimate_on_grid()
# ---------------------------------------------------------------------------


def _signal_of(fn, x0, spacing, n, delta):
    xs = x0 + spacing * np.arange(n)
    return GridSignal(x0=x0, spacing=spacing, values=fn(xs), delta=delta)


def test_grid_snapping_rounds_to_nearest():
    # ideal h* = sqrt(2*0.0144/2) = 0.12 over spacing 0.05 -> k = 2, h = 0.1
    sig = _signal_of(lambda x: x**2, 0.0, 0.05, 41, delta=0.0144)
    report = estimate_on_grid(sig, SmoothnessSpec.c2(2.0))
    assert report.h_used == pytest.approx(0.1, rel=1e-15)
    assert report.guaranteed_bound == pytest.approx(0.0144 / 0.1 + 2.0 * 0.1 / 2.0, rel=1e-12)


def test_grid_snapping_clamps_to_one_spacing():
    # ideal h* = 0.02 < spacing 0.05 -> k = 1
    sig = _signal_of(lambda x: x**2, 0.0, 0.05, 41, delta=0.0004)
    report = estimate_on_grid(sig, SmoothnessSpec.c2(2.0))
    assert report.h_used == pytest.approx(0.05, rel=1e-15)


def test_grid_snapping_ties_round_up():
    # dyadic numbers make the tie exact: h* = 0.375, spacing 0.25 -> ratio 1.5
    delta = 0.375**2  # with m2 = 2: h* = sqrt(delta) = 0.375
    sig = _signal_of(lambda x: x**2, -4.0, 0.25, 33, delta=delta)
    report = estimate_on_grid(sig, SmoothnessSpec.c2(2.0))
    assert report.h_used == pytest.approx(0.5, rel=1e-15)  # k = 2, not 1


def test_grid_too_short():
    sig = _signal_of(lambda x: x**2, 0.0, 0.01, 5, delta=0.25)  # wants k >> 2
    with pytest.raises(GridTooShortError):
        estimate_on_grid(sig, SmoothnessSpec.c2(2.0))


def test_grid_estimates_match_truth_within_recomputed_bound():
    sig = _signal_of(lambda x: x**2, 0.0, 0.01, 101, delta=1e-4)
    report = estimate_on_grid(sig, SmoothnessSpec.c2(2.0))
    truth = 2.0 * report.points
    assert np.max(np.abs(report.estimates - truth)) <= report.guaranteed_bound
    # central differences are exact on quadratics, so much tighter in fact
    assert np.allclose(report.estimates, truth, atol=1e-11)
    assert report.dropped_points == 2  # one boundary sample each side at k = 1


def test_grid_bound_recomputed_not_optimal():
    # when the snapped h differs from the ideal one, the honest bound at the
    # snapped h is strictly worse than the closed-form optimum
    sig = _signal_of(lambda x: x**2, 0.0, 0.05, 41, delta=0.0144)
    report = estimate_on_grid(sig, SmoothnessSpec.c2(2.0))
    assert report.guaranteed_bound > error_bound_c2(0.0144, 2.0)


def test_grid_holder_bound_form():
    sig = _signal_of(lambda x: np.abs(x) ** 0.5, -1.0, 0.01, 201, delta=1e-3)
    spec = SmoothnessSpec.holder(0.5, 1.0)
    report = estimate_on_grid(sig, spec)
    h = report.h_used
    assert report.guaranteed_bound == pytest.approx(1e-3 / h + 1.0 * h**0.5, rel=1e-12)


def test_grid_rejects_zero_delta_and_weak_specs():
    sig = _signal_of(lambda x: x**2, 0.0, 0.1, 11, delta=0.0)
    with pytest.raises(DegenerateInputError):
        estimate_on_grid(sig, SmoothnessSpec.c2(1.0))
    sig2 = _signal_of(lambda x: x**2, 0.0, 0.1, 11, delta=0.01)
    with pytest.raises(UnstableFamilyError):
        estimate_on_grid(sig2, SmoothnessSpec.m1(1.0))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_length_mismatch_rejected():
    with pytest.raises(ParameterError):
        EstimateReport(points=np.zeros(3), estimates=np.zeros(4), h_used=0.1, guaranteed_bound=1.0)


def test_report_csv_round_trip(tmp_path):
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=1e-4, noise=UniformHashNoise(seed=11))
    report = estimate(noisy, SmoothnessSpec.c2(1.0), np.linspace(-1, 1, 9))
    path = tmp_path / "report.csv"
    report.to_csv(path)

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "estimate", "h", "bound", "abs_error"]
    assert len(rows) == 1 + 9
    for text_row, x, est, err in zip(rows[1:], report.points, report.estimates, report.abs_errors):
        assert float(text_row[0]) == x
        assert float(text_row[1]) == est
        assert float(text_row[2]) == report.h_used
        assert float(text_row[3]) == report.guaranteed_bound
        assert float(text_row[4]) == err


def test_report_coerces_numpy_scalars_to_plain_floats(tmp_path):
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=np.float64(1e-4))
    rule = StepRule.fixed(np.float64(0.01))
    report = estimate(noisy, SmoothnessSpec.c2(1.0), [0.0, 0.5], step_rule=rule)
    assert type(report.h_used) is float
    assert type(report.guaranteed_bound) is float
    assert type(report.measured_sup_error) is float
    path = tmp_path / "report.csv"
    report.to_csv(path)
    for row in path.read_text().splitlines()[1:]:
        cells = row.split(",")
        assert cells[2] == "0.01"
        assert cells[3] == repr(report.guaranteed_bound) == repr(1e-4 / 0.01 + 0.01 / 2.0)


def test_infinite_points_are_dropped_and_refused_by_central_difference():
    sin = get_corpus_function("sin").oracle
    noisy = NoisyOracle(base=sin, delta=1e-4, noise=UniformHashNoise(seed=3))
    report = estimate(noisy, SmoothnessSpec.c2(1.0), [-np.inf, 0.0, np.inf, np.nan])
    assert report.points.tolist() == [0.0]
    assert report.dropped_points == 3
    assert math.isfinite(report.measured_sup_error)
    for x in (-np.inf, np.inf, np.array([0.0, np.inf])):
        with pytest.raises(DomainError):
            central_difference(noisy, x, 1e-2)


def test_report_csv_without_truth_omits_error_column(tmp_path):
    base = FunctionOracle(eval=np.sin)
    noisy = NoisyOracle(base=base, delta=1e-4, noise=NoNoise())
    report = estimate(noisy, SmoothnessSpec.c2(1.0), [0.0, 0.5])
    path = tmp_path / "plain.csv"
    report.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x,estimate,h,bound"
