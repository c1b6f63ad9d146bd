"""Oracles, noise models, smoothness declarations, and the norm probes."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from stablederiv import (
    CapabilityError,
    ConstantSignNoise,
    CosineAdversarialNoise,
    Domain,
    DomainError,
    FunctionOracle,
    GridSignal,
    NoNoise,
    NoisyOracle,
    ParameterError,
    SmoothnessSpec,
    SpecKind,
    UniformHashNoise,
    estimate_holder_seminorm,
    estimate_second_derivative_sup,
    estimate_sup_norm,
    noise_from_name,
)
from stablederiv import function_model
from stablederiv.function_model import write_float_csv


def _sin_oracle() -> FunctionOracle:
    return FunctionOracle(eval=np.sin, derivative_eval=np.cos, name="sin")


# ---------------------------------------------------------------------------
# domains and oracles
# ---------------------------------------------------------------------------


def test_domain_kinds_and_containment():
    line = Domain.real_line()
    assert line.contains(-1e300) and line.contains(1e300)
    assert not line.is_bounded

    half = Domain.half_line()
    assert half.contains(0.0) and half.contains(5.0)
    assert not half.contains(-1e-12)

    box = Domain.interval(-1.0, 2.0)
    assert box.is_bounded
    assert box.contains(np.array([-1.0, 0.0, 2.0]))
    assert not box.contains(np.array([0.0, 2.0000001]))


def test_domain_rejects_empty_interval():
    with pytest.raises(ParameterError):
        Domain.interval(1.0, 1.0)


def test_domain_require_raises_domain_error():
    with pytest.raises(DomainError):
        Domain.interval(0.0, 1.0).require(1.5)


def test_oracle_values_broadcast_scalar_returns():
    const = FunctionOracle(eval=lambda x: 0.25)
    out = const.values(np.linspace(0, 1, 7))
    assert out.shape == (7,)
    assert np.all(out == 0.25)


def test_oracle_derivative_requires_capability():
    f = FunctionOracle(eval=np.sin)
    with pytest.raises(CapabilityError):
        f.derivative_values(0.0)


def test_oracle_negated_flips_values_and_derivative():
    f = _sin_oracle()
    g = f.negated()
    xs = np.linspace(-2, 2, 11)
    assert np.array_equal(g.values(xs), -np.sin(xs))
    assert np.array_equal(g.derivative_values(xs), -np.cos(xs))


def test_derivative_matches_finite_difference():
    # the documented compatibility contract between eval and derivative_eval
    f = _sin_oracle()
    t = 1e-6
    for x in (-1.3, 0.0, 0.7):
        fd = (f.values(x + t) - f.values(x - t)) / (2 * t)
        assert fd == pytest.approx(float(f.derivative_values(x)), abs=1e-9)


# ---------------------------------------------------------------------------
# smoothness declarations
# ---------------------------------------------------------------------------


def test_spec_constructors():
    assert SmoothnessSpec.c2(2.0).kind is SpecKind.C2
    holder = SmoothnessSpec.holder(0.5, 3.0)
    assert holder.kind is SpecKind.HOLDER
    assert holder.exponent == 0.5 and holder.bound == 3.0
    assert SmoothnessSpec.m0(1.0).kind is SpecKind.M0
    assert SmoothnessSpec.m1(1.0).kind is SpecKind.M1


@pytest.mark.parametrize("bad_a", [0.0, -0.5, 1.0001, None])
def test_spec_holder_exponent_range(bad_a):
    with pytest.raises(ParameterError):
        SmoothnessSpec(SpecKind.HOLDER, 1.0, exponent=bad_a)


def test_spec_rejects_negative_bound_and_stray_exponent():
    with pytest.raises(ParameterError):
        SmoothnessSpec.c2(-1.0)
    with pytest.raises(ParameterError):
        SmoothnessSpec(SpecKind.C2, 1.0, exponent=0.5)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------


def test_no_noise_and_constant_sign_profiles():
    xs = np.linspace(-5, 5, 11)
    assert np.all(NoNoise().unit(xs) == 0.0)
    assert np.all(ConstantSignNoise(+1).unit(xs) == 1.0)
    assert np.all(ConstantSignNoise(-1).unit(xs) == -1.0)
    with pytest.raises(ParameterError):
        ConstantSignNoise(0)


def test_cosine_noise_is_antiperiodic_over_its_reference_step():
    # the property that makes it worst-case for the central difference:
    # n(x + h_ref) = -n(x - h_ref) for every x
    h_ref = 0.037
    noise = CosineAdversarialNoise(h_ref=h_ref)
    xs = np.linspace(-2, 2, 401)
    left = noise.unit(xs - h_ref)
    right = noise.unit(xs + h_ref)
    assert np.allclose(right, -left, atol=1e-12)
    assert np.max(np.abs(noise.unit(xs))) <= 1.0 + 1e-12


def test_cosine_noise_needs_positive_reference():
    with pytest.raises(ParameterError):
        CosineAdversarialNoise(h_ref=0.0)


class TestUniformHashNoise:
    def test_pure_in_query_order(self):
        noise = UniformHashNoise(seed=42)
        xs = np.linspace(-3, 3, 257)
        forward = noise.unit(xs)
        backward = noise.unit(xs[::-1])[::-1]
        assert np.array_equal(forward, backward)
        # point-by-point scalar queries agree with the vectorized pass
        singles = np.array([float(noise.unit(x)) for x in xs])
        assert np.array_equal(forward, singles)

    def test_range_and_spread(self):
        noise = UniformHashNoise(seed=0)
        vals = noise.unit(np.linspace(-100, 100, 10001))
        assert np.all(vals >= -1.0) and np.all(vals < 1.0)
        # hash output should not be wildly lopsided
        assert abs(float(np.mean(vals))) < 0.05

    def test_seed_changes_values(self):
        xs = np.linspace(0, 1, 64)
        a = UniformHashNoise(seed=1).unit(xs)
        b = UniformHashNoise(seed=2).unit(xs)
        assert not np.array_equal(a, b)

    def test_negative_zero_is_canonicalized(self):
        noise = UniformHashNoise(seed=9)
        assert float(noise.unit(-0.0)) == float(noise.unit(0.0))

    def test_huge_seeds_accepted(self):
        UniformHashNoise(seed=2**64 - 1).unit(np.array([0.5]))
        UniformHashNoise(seed=-3).unit(np.array([0.5]))


def test_noise_from_name_aliases():
    assert isinstance(noise_from_name("none"), NoNoise)
    assert isinstance(noise_from_name("uniform"), UniformHashNoise)
    assert isinstance(noise_from_name("uniform-hash", seed=5), UniformHashNoise)
    cos = noise_from_name("cosine", h_ref=0.25)
    assert isinstance(cos, CosineAdversarialNoise) and cos.h_ref == 0.25
    assert noise_from_name("constant-sign:+").unit(np.zeros(1))[0] == 1.0
    assert noise_from_name("minus").unit(np.zeros(1))[0] == -1.0
    with pytest.raises(ParameterError):
        noise_from_name("cosine")  # no reference step
    with pytest.raises(ParameterError):
        noise_from_name("gaussian")


# ---------------------------------------------------------------------------
# noisy observations
# ---------------------------------------------------------------------------


def test_eval_noisy_zero_noise_identity():
    square = FunctionOracle(eval=lambda x: np.asarray(x, dtype=float) ** 2)
    noisy = NoisyOracle(base=square, delta=0.0, noise=NoNoise())
    assert noisy.eval_noisy(1.5) == 2.25


def test_eval_noisy_constant_sign_offset():
    zero = FunctionOracle(eval=lambda x: 0.0)
    noisy = NoisyOracle(base=zero, delta=0.1, noise=ConstantSignNoise(+1))
    for x in (-2.0, 0.0, 17.5):
        assert noisy.eval_noisy(x) == 0.1


def test_eval_noisy_respects_amplitude():
    base = _sin_oracle()
    delta = 1e-3
    noisy = NoisyOracle(base=base, delta=delta, noise=UniformHashNoise(seed=7))
    v = noisy.eval_noisy(0.25)
    assert abs(v - math.sin(0.25)) <= delta


def test_noise_bound_holds_on_point_sets():
    base = _sin_oracle()
    for delta in (0.0, 1e-6, 0.05):
        noisy = NoisyOracle(base=base, delta=delta, noise=UniformHashNoise(seed=3))
        xs = np.linspace(-4, 4, 1001)
        gap = np.max(np.abs(noisy.eval_noisy(xs) - np.sin(xs)))
        assert gap <= delta


def test_eval_noisy_outside_domain():
    f = FunctionOracle(eval=np.sqrt, domain=Domain.half_line())
    noisy = NoisyOracle(base=f, delta=0.0)
    with pytest.raises(DomainError):
        noisy.eval_noisy(-1.0)


def test_noisy_oracle_rejects_negative_delta():
    with pytest.raises(ParameterError):
        NoisyOracle(base=_sin_oracle(), delta=-0.1)


# ---------------------------------------------------------------------------
# grid signals
# ---------------------------------------------------------------------------


def test_grid_signal_validation():
    with pytest.raises(ParameterError):
        GridSignal(x0=0.0, spacing=0.1, values=np.array([1.0, 2.0]), delta=0.0)
    with pytest.raises(ParameterError):
        GridSignal(x0=0.0, spacing=0.0, values=np.zeros(5), delta=0.0)
    with pytest.raises(ParameterError):
        GridSignal(x0=0.0, spacing=0.1, values=np.zeros(5), delta=-1.0)


def test_grid_signal_xs():
    sig = GridSignal(x0=1.0, spacing=0.5, values=np.zeros(4), delta=0.0)
    assert np.allclose(sig.xs, [1.0, 1.5, 2.0, 2.5])
    assert len(sig) == 4


def test_grid_signal_csv_round_trip(tmp_path):
    xs = np.linspace(-1.0, 1.0, 21)
    sig = GridSignal(x0=-1.0, spacing=0.1, values=np.sin(xs), delta=1e-3)
    path = tmp_path / "sig.csv"
    sig.to_csv(path)
    back = GridSignal.from_csv(path, delta=1e-3)
    assert back.x0 == sig.x0
    assert back.spacing == pytest.approx(sig.spacing, rel=1e-12)
    assert np.array_equal(back.values, sig.values)


@pytest.mark.parametrize("block", [1, 7, 65536])
@pytest.mark.parametrize("n", [0, 1, 300])
def test_write_float_csv_matches_the_csv_writer_loop(tmp_path, monkeypatch, n, block):
    monkeypatch.setattr(function_model, "_CSV_BLOCK", block)
    rng = np.random.default_rng(n)
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 1.0 / 3.0]
    xs = np.concatenate([special, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)])[:n]
    ys = rng.standard_normal(n)
    got = tmp_path / "bulk.csv"
    write_float_csv(got, ["x", "y", "h", "bound"], [xs, ys, np.float64(0.01), 2.5])
    want = tmp_path / "loop.csv"
    with open(want, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["x", "y", "h", "bound"])
        for x, y in zip(xs, ys):
            w.writerow([repr(float(x)), repr(float(y)), repr(0.01), repr(2.5)])
    assert got.read_bytes() == want.read_bytes()


def test_write_float_csv_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError):
        write_float_csv(path, ["x", "y"], [np.zeros(3), np.zeros(2)])
    assert not path.exists()


def test_grid_signal_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,reading\n0.0,1.0\n0.1,1.1\n0.2,1.2\n")
    with pytest.raises(ParameterError):
        GridSignal.from_csv(path, delta=0.0)


def test_grid_signal_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "nonuniform.csv"
    path.write_text("x,value\n0.0,0.0\n0.1,0.0\n0.35,0.0\n")
    with pytest.raises(ParameterError):
        GridSignal.from_csv(path, delta=0.0)


# ---------------------------------------------------------------------------
# norm probes
# ---------------------------------------------------------------------------


def test_sup_norm_of_sin_approaches_one():
    got = estimate_sup_norm(_sin_oracle(), "f", grid_points=2001)
    assert got <= 1.0
    assert got == pytest.approx(1.0, abs=1e-5)


def test_sup_norm_of_zero():
    assert estimate_sup_norm(FunctionOracle(eval=lambda x: 0.0), "f", 101) == 0.0


def test_sup_norm_monotone_under_refinement():
    f = _sin_oracle()
    coarse = estimate_sup_norm(f, "f'", grid_points=101)
    fine = estimate_sup_norm(f, "f'", grid_points=201)  # superset grid
    assert fine >= coarse


def test_sup_norm_argument_checks():
    with pytest.raises(ParameterError):
        estimate_sup_norm(_sin_oracle(), "f''", 101)
    with pytest.raises(CapabilityError):
        estimate_sup_norm(FunctionOracle(eval=np.sin), "f'", 101)


def test_holder_seminorm_constant_is_zero():
    g = FunctionOracle(eval=lambda x: 3.0)
    assert estimate_holder_seminorm(g, 0.5, (-1.0, 1.0), 65) == 0.0


def test_holder_seminorm_identity_is_one():
    g = FunctionOracle(eval=lambda x: np.asarray(x, dtype=float))
    got = estimate_holder_seminorm(g, 1.0, (-1.0, 1.0), 129)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_holder_seminorm_odd_square_root():
    # sign(x)*sqrt(|x|) against exponent 1/2: every symmetric pair (-t, t)
    # yields 2*sqrt(t)/(2t)**0.5 = sqrt(2), the true seminorm
    def odd_root(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.sqrt(np.abs(x))

    got = estimate_holder_seminorm(FunctionOracle(eval=odd_root), 0.5, (-1.0, 1.0), 513)
    assert got <= math.sqrt(2.0) * (1 + 1e-12)
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-3)


def test_holder_seminorm_monotone_under_refinement():
    g = FunctionOracle(eval=lambda x: np.abs(np.asarray(x, dtype=float)) ** 0.3)
    coarse = estimate_holder_seminorm(g, 0.3, (-1.0, 1.0), 129)
    fine = estimate_holder_seminorm(g, 0.3, (-1.0, 1.0), 257)  # superset grid
    assert fine >= coarse


def test_holder_seminorm_argument_checks():
    g = FunctionOracle(eval=lambda x: np.asarray(x, dtype=float))
    with pytest.raises(ParameterError):
        estimate_holder_seminorm(g, 1.5, (-1, 1), 65)
    with pytest.raises(ParameterError):
        estimate_holder_seminorm(g, 0.5, (1, -1), 65)
    with pytest.raises(ParameterError):
        estimate_holder_seminorm(g, 0.5, (-1, 1), 1)


def test_second_derivative_probe_on_sin_and_quadratic():
    probe = estimate_second_derivative_sup(_sin_oracle(), window=(-5.0, 5.0))
    assert probe <= 1.0
    assert probe == pytest.approx(1.0, abs=1e-4)

    square = FunctionOracle(
        eval=lambda x: np.asarray(x, dtype=float) ** 2,
        derivative_eval=lambda x: 2.0 * np.asarray(x, dtype=float),
    )
    # first differences of 2x are exact: the probe is exactly 2
    assert estimate_second_derivative_sup(square, window=(-1.0, 1.0)) == pytest.approx(
        2.0, rel=1e-12
    )


def test_second_derivative_probe_argument_checks():
    with pytest.raises(CapabilityError):
        estimate_second_derivative_sup(FunctionOracle(eval=np.sin))
    with pytest.raises(ParameterError):
        estimate_second_derivative_sup(_sin_oracle(), window=(0.0, 1e-4))
