"""Oracles, noise models, smoothness declarations, and the norm probes."""

from __future__ import annotations

import csv
import math
import tracemalloc

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
    UnstableFamilyError,
    noise_from_name,
)
from stablederiv import corpus, function_model
from stablederiv.cli import estimate_holder_seminorm, estimate_second_derivative_sup
from stablederiv.function_model import write_csv


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
    for weak in (SmoothnessSpec.m0, SmoothnessSpec.m1):
        with pytest.raises(UnstableFamilyError):
            weak(1.0)
    assert SmoothnessSpec("c2", 1.0).kind is SpecKind.C2
    assert SmoothnessSpec("holder", 1.0, exponent=0.5).kind is SpecKind.HOLDER
    with pytest.raises(ParameterError):
        SmoothnessSpec("bogus", 1.0)


@pytest.mark.parametrize("bad_a", [0.0, -0.5, 1.0001, None])
def test_spec_holder_exponent_range(bad_a):
    with pytest.raises(ParameterError):
        SmoothnessSpec(SpecKind.HOLDER, 1.0, exponent=bad_a)


@pytest.mark.parametrize(
    "build", [lambda: SmoothnessSpec.c2(math.inf), lambda: SmoothnessSpec.holder(0.5, math.inf)]
)
def test_spec_refuses_an_infinite_bound(build):
    # an infinite bound would resolve to the degenerate step h = 0
    with pytest.raises(ParameterError, match="bound must be finite and >= 0, got inf"):
        build()


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

    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
    def test_unit_is_bit_identical_to_the_reference_formula(self, seed):
        def splitmix64(z):  # the reference: the same finalizer, without in-place updates
            with np.errstate(over="ignore"):
                z = z + np.uint64(0x9E3779B97F4A7C15)
                z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
                z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
                return z ^ (z >> np.uint64(31))

        def reference(x):
            seed_bits = splitmix64(np.asarray(seed % 2**64, dtype=np.uint64))
            bits = np.atleast_1d(np.asarray(x, dtype=np.float64) + 0.0).view(np.uint64)
            u = (splitmix64(bits ^ seed_bits) >> np.uint64(11)).astype(np.float64) * 2.0**-53
            return (2.0 * u - 1.0).reshape(np.shape(x))

        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, -1e-310]
        xs = np.concatenate([special, np.random.default_rng(seed % 97).standard_normal(4096) * 3])
        noise = UniformHashNoise(seed=seed)
        assert noise.unit(xs).tobytes() == reference(xs).tobytes()
        for x in special:
            assert np.asarray(noise.unit(x)).tobytes() == np.asarray(reference(x)).tobytes()


def test_noise_from_name_aliases():
    assert isinstance(noise_from_name("none"), NoNoise)
    assert isinstance(noise_from_name("uniform-hash", seed=5), UniformHashNoise)
    cos = noise_from_name("cosine-adversarial", h_ref=0.25)
    assert isinstance(cos, CosineAdversarialNoise) and cos.h_ref == 0.25
    assert noise_from_name("constant-sign:+").unit(np.zeros(1))[0] == 1.0
    assert noise_from_name("constant-sign:-").unit(np.zeros(1))[0] == -1.0
    with pytest.raises(ParameterError):
        noise_from_name("cosine-adversarial")  # no reference step
    # only the canonical names are accepted; the old aliases are refused
    for bad in ("gaussian", "uniform", "cosine", "plus", "minus"):
        with pytest.raises(ParameterError):
            noise_from_name(bad)


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


@pytest.mark.parametrize("domain",
                         [Domain.real_line(), Domain.half_line(), Domain.interval(0.0, 1.0)])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.array([0.5, math.inf])])
def test_eval_noisy_refuses_non_finite_points(domain, x):
    # +-inf passes lo <= x <= hi on the real line; membership also asks for a finite x
    assert not domain.contains(x)
    noisy = NoisyOracle(FunctionOracle(eval=np.sin, domain=domain), 1e-3)
    with pytest.raises(DomainError):
        noisy.eval_noisy(x)


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
    for x0, spacing, bad in [(math.nan, 0.1, 0.0), (math.inf, 0.1, 0.0), (0.0, math.inf, 0.0),
                             (0.0, 0.1, math.nan), (0.0, 0.1, -math.inf)]:
        with pytest.raises(ParameterError, match="finite x0, spacing and values"):
            GridSignal(x0=x0, spacing=spacing, values=[0.0, bad, 0.0], delta=0.0)


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
def test_write_csv_matches_the_csv_writer_loop(tmp_path, monkeypatch, n, block):
    monkeypatch.setattr(function_model, "_CSV_BLOCK", block)
    rng = np.random.default_rng(n)
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 1.0 / 3.0]
    xs = np.concatenate([special, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)])[:n]
    ys = rng.standard_normal(n)
    counts = rng.integers(-2**62, 2**62, n)
    words = ["plain", "a,b", 'say "hi"', "", ' ,"', "line\nbreak", "x y", "#"]
    names = [words[k % len(words)] for k in range(n)]
    header = ["x", "y", "h", "bound", "count", "seed", "name", "tag", "a,b"]
    got = tmp_path / "bulk.csv"
    write_csv(got, header, [xs, ys, np.float64(0.01), 2.5, counts, 7, names, 'q"t'])
    want = tmp_path / "loop.csv"
    with open(want, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for x, y, c, name in zip(xs, ys, counts, names):
            w.writerow([repr(float(x)), repr(float(y)), repr(0.01), repr(2.5), int(c), 7, name,
                        'q"t'])
    assert got.read_bytes() == want.read_bytes()


def test_write_csv_str_cells_read_back_through_csv_reader(tmp_path):
    words = ["plain", "a,b", 'say "hi"', "", "line\nbreak", "bare\rreturn", "\r\n", " pad "]
    path = tmp_path / "words.csv"
    write_csv(path, ["word", "n"], [words, np.arange(len(words))])
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh))[1:] == [[w, str(k)] for k, w in enumerate(words)]


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["x", "y"], [np.zeros(3), np.zeros(2)])
    assert not path.exists()


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_from_csv_gives_the_same_arrays_at_any_block_size(tmp_path, monkeypatch, block):
    xs = np.linspace(-1.0, 1.0, 21)
    path = tmp_path / "sig.csv"
    GridSignal(x0=-1.0, spacing=0.1, values=np.sin(xs), delta=0.0).to_csv(path)
    lines = path.read_text().splitlines()
    # comments and blank rows on both sides of every small block boundary
    path.write_text("\n".join(lines[:1] + ["# c", ""] + lines[1:5] + ["", "#"] + lines[5:] + [""]))
    want = GridSignal.from_csv(path, delta=0.0)
    monkeypatch.setattr(function_model, "_CSV_BLOCK", block)
    got = GridSignal.from_csv(path, delta=0.0)
    assert (got.x0, got.spacing) == (want.x0, want.spacing)
    assert got.values.tobytes() == want.values.tobytes() == np.sin(xs).tobytes()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_csv_memory_does_not_grow_with_objects_per_row(tmp_path):
    """Reading holds two float buffers (16 bytes a row); writing holds one block of cells."""
    peaks = {}
    for n in (20_000, 80_000):
        xs = -5.0 + 2e-4 * np.arange(n)
        ys = np.sin(xs)
        path = tmp_path / f"grid-{n}.csv"
        write_csv(path, ["x", "value"], [xs, ys])
        out = tmp_path / f"out-{n}.csv"
        peaks[n] = (_traced_peak(lambda: GridSignal.from_csv(path, delta=0.0)),
                    _traced_peak(lambda: write_csv(out, ["x", "y", "h"], [xs, ys, 0.01])))
    read_per_row, write_per_row = ((b - a) / 60_000 for a, b in zip(peaks[20_000], peaks[80_000]))
    assert read_per_row < 64, f"from_csv peak grows {read_per_row:.0f} bytes a row"
    assert write_per_row < 32, f"write_csv peak grows {write_per_row:.0f} bytes a row"


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


def _derivative_of(name: str) -> FunctionOracle:
    oracle = corpus.get(name).oracle
    return FunctionOracle(eval=oracle.derivative_eval, domain=oracle.domain, name=name)


def _all_pairs_holder(g: FunctionOracle, a: float, window, grid_points: int) -> float:
    """The plain reference: every pair i < j of an n x n matrix, repeated points skipped."""
    xs = np.clip(np.linspace(window[0], window[1], grid_points), *window)
    vals = g.values(xs)
    dx = np.abs(xs[None, :] - xs[:, None])
    dv = np.abs(vals[None, :] - vals[:, None])
    pairs = np.triu(np.ones((grid_points, grid_points), dtype=bool), k=1) & (dx > 0)
    return float(np.max(dv[pairs] / dx[pairs] ** a, initial=0.0))


_NARROW = (1.0, 1.0 + 16 * 2.0**-52)  # 17 floats, so linspace repeats points
_SUBNORMAL = (0.0, 9 * 5e-324)  # 7 points: linspace rounds the step up and reorders them


@pytest.mark.parametrize("name", ["sin", "quadratic", "exp-decay", "holder:a=0.25",
                                  "holder:a=0.5", "holder:a=1"])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("window, grid_points", [
    ((-3.0, 3.0), 2), ((-3.0, 3.0), 3), ((-3.0, 3.0), 200), ((0.0, 1.0), 97), (_NARROW, 64),
    (_SUBNORMAL, 7),
])
def test_holder_seminorm_equals_the_all_pairs_maximum(name, a, window, grid_points):
    g = _derivative_of(name)
    assert estimate_holder_seminorm(g, a, window, grid_points) == _all_pairs_holder(
        g, a, window, grid_points)


def test_linspace_repeats_and_reorders_points_on_narrow_windows():
    # guards the cases above: the probe must cope with both
    assert len(np.unique(np.linspace(*_NARROW, 64))) == 17
    assert not (np.diff(np.linspace(*_SUBNORMAL, 7)) > 0).all()
    assert np.linspace(*_SUBNORMAL, 7).max() > _SUBNORMAL[1]


def test_holder_seminorm_samples_only_inside_its_window():
    # linspace(0, 9 * 5e-324, 7) has a point at 10 * 5e-324, past hi
    seen = []

    def recording(x):
        seen.extend(np.ravel(x).tolist())
        return np.asarray(x, dtype=float)

    lo, hi = _SUBNORMAL
    estimate_holder_seminorm(FunctionOracle(eval=recording), 1.0, _SUBNORMAL, 7)
    assert seen and lo <= min(seen) and max(seen) <= hi


def test_holder_seminorm_memory_is_linear_in_grid_points():
    # one row of lags at a time; a 256-row block scan would hold 256 x 511 temporaries (~4 MiB)
    g = _derivative_of("holder:a=0.5")
    estimate_holder_seminorm(g, 0.5, (-3.0, 3.0))  # first call: numpy's one-off allocations
    peak = _traced_peak(lambda: estimate_holder_seminorm(g, 0.5, (-3.0, 3.0)))
    assert peak < 128 * 1024, f"512-point Holder probe peaks at {peak / 1024:.0f} KiB"


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
        estimate_second_derivative_sup(FunctionOracle(eval=np.sin), window=(-1.0, 1.0))
    with pytest.raises(ParameterError):
        estimate_second_derivative_sup(_sin_oracle(), window=(0.0, 1e-4))


def _half_line_identity() -> FunctionOracle:
    return FunctionOracle(eval=lambda x: np.asarray(x, dtype=float),
                          derivative_eval=lambda x: np.ones(np.shape(x)), domain=Domain.half_line())


@pytest.mark.parametrize("probe", ["holder", "c2"])
@pytest.mark.parametrize("window, error", [
    ((1.0, -1.0), ParameterError),
    ((-math.inf, 1.0), ParameterError),
    ((0.0, math.nan), ParameterError),
    ((-1.0, 1.0), DomainError),  # the Holder probe sampled g off its domain and read 0.0
    ((-1e308, 1e308), ParameterError),  # finite ends, but hi - lo overflows
], ids=["reversed", "infinite", "nan", "off-domain", "overflowing-span"])
def test_probes_share_one_window_rule(probe, window, error):
    with pytest.raises(error, match="probe window"):
        if probe == "holder":
            estimate_holder_seminorm(_half_line_identity(), 1.0, window)
        else:
            estimate_second_derivative_sup(_half_line_identity(), window)


def test_probes_refuse_non_finite_samples():
    # 50x with NaN above 0.999: the Holder probe skipped the NaN chunk and read 0.0,
    # the C2 probe read nan, which a declaration check `probe > bound` lets through
    def steep(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.999, np.nan, 50.0 * x)

    g = FunctionOracle(eval=steep, name="steep")
    with pytest.raises(DomainError, match=r"steep is not finite .* \[-1.0, 1.0\]"):
        estimate_holder_seminorm(g, 1.0, (-1.0, 1.0))
    f = FunctionOracle(eval=np.sin, derivative_eval=lambda x: steep(x) ** 2 / 100.0)
    with pytest.raises(DomainError, match=r"probe window \[-1.0, 1.0\]"):
        estimate_second_derivative_sup(f, (-1.0, 1.0))
    assert estimate_holder_seminorm(g, 1.0, (-1.0, 0.99)) == pytest.approx(50.0, rel=1e-9)
