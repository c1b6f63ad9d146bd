"""The built-in corpus: exact norms cross-checked by dense sampling and the probes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stablederiv import (
    FunctionOracle,
    ParameterError,
    SmoothnessSpec,
    SpecKind,
)
from stablederiv import corpus
from stablederiv.cli import estimate_holder_seminorm, estimate_second_derivative_sup

_XS = np.linspace(-10.0, 10.0, 2001)  # where the corpus functions attain their sups
_WINDOW = (-10.0, 10.0)


def test_list_names_mentions_all_families():
    names = corpus.list_names()
    assert "sin" in names and "quadratic" in names and "exp-decay" in names
    assert any(n.startswith("holder:") for n in names)


def test_every_corpus_name_has_derivative_access():
    # studies measure true errors against f', so run_study has no refusal for its absence
    for name in corpus.list_names():
        for key in [name.replace("<a>", a) for a in ("0.1", "0.5", "1")] if "<a>" in name else [name]:
            oracle = corpus.get(key).oracle
            assert oracle.derivative_eval is not None, key
            assert np.isfinite(oracle.derivative_values(_XS)).all(), key


def test_unknown_names_rejected():
    with pytest.raises(ParameterError):
        corpus.get("cos")
    with pytest.raises(ParameterError):
        corpus.get("holder:b=0.5")
    with pytest.raises(ParameterError):
        corpus.get("holder:a=nope")
    with pytest.raises(ParameterError):
        corpus.get("holder:a=1.5")


def test_sin_entry_norms_probe_below_declared():
    entry = corpus.get("sin")
    assert (entry.m0, entry.m1, entry.m2) == (1.0, 1.0, 1.0)
    assert np.max(np.abs(entry.oracle.values(_XS))) <= entry.m0
    assert np.max(np.abs(entry.oracle.derivative_values(_XS))) <= entry.m1
    assert estimate_second_derivative_sup(entry.oracle, _WINDOW) <= entry.m2
    # and all three are nearly attained, so the declarations are tight
    assert np.max(np.abs(entry.oracle.values(_XS))) == pytest.approx(1.0, abs=1e-4)


def test_quadratic_entry():
    entry = corpus.get("quadratic")
    assert entry.m0 is None and entry.m1 is None  # unbounded on the line
    assert entry.m2 == 2.0
    xs = np.linspace(-2, 2, 9)
    assert np.array_equal(entry.oracle.values(xs), xs**2)
    assert np.array_equal(entry.oracle.derivative_values(xs), 2 * xs)
    assert estimate_second_derivative_sup(entry.oracle, window=(-3, 3)) == pytest.approx(
        2.0, rel=1e-12
    )
    # f' = 2x is exactly 2-Lipschitz
    assert entry.holder_exponent == 1.0 and entry.holder_seminorm == 2.0
    deriv = FunctionOracle(eval=entry.oracle.derivative_eval)
    assert estimate_holder_seminorm(deriv, 1.0, (-3, 3), 257) == pytest.approx(2.0, rel=1e-12)


def test_exp_decay_entry():
    entry = corpus.get("exp-decay")
    # f = exp(-x^2): peak 1 at 0; |f'| peaks at x = 1/sqrt(2); |f''| peaks at 0 with value 2
    assert entry.m0 == 1.0
    expected_m1 = math.sqrt(2.0) * math.exp(-0.5)
    assert entry.m1 == pytest.approx(expected_m1, rel=1e-15)
    assert entry.m2 == 2.0

    measured_m0 = np.max(np.abs(entry.oracle.values(_XS)))
    assert measured_m0 == pytest.approx(1.0, abs=1e-12)  # grid contains 0
    assert measured_m0 <= 1.0

    measured_m1 = np.max(np.abs(entry.oracle.derivative_values(_XS)))
    assert measured_m1 <= entry.m1 + 1e-12
    assert measured_m1 == pytest.approx(expected_m1, rel=2e-4)

    assert estimate_second_derivative_sup(entry.oracle, _WINDOW) <= entry.m2
    assert estimate_second_derivative_sup(entry.oracle, _WINDOW) == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 1.0])
def test_holder_entries(a):
    entry = corpus.get(f"holder:a={a}")
    assert entry.holder_exponent == a
    assert entry.holder_seminorm == 1.0
    # f(1) = 1/(1+a) and f is odd
    assert float(entry.oracle.values(1.0)) == pytest.approx(1.0 / (1.0 + a), rel=1e-15)
    assert float(entry.oracle.values(-1.0)) == pytest.approx(-1.0 / (1.0 + a), rel=1e-15)
    # derivative is |x|^a
    xs = np.linspace(-2, 2, 41)
    assert np.allclose(entry.oracle.derivative_values(xs), np.abs(xs) ** a, atol=1e-15)
    # brute-force seminorm stays at or below the declared 1 and nearly attains
    # it (the extreme pair is (x, 0), and the probe grid contains 0)
    deriv = FunctionOracle(eval=entry.oracle.derivative_eval)
    probe = estimate_holder_seminorm(deriv, a, (-1.0, 1.0), 513)
    assert probe <= 1.0 + 1e-12
    assert probe == pytest.approx(1.0, abs=1e-6)


def test_holder_spec_and_c2_spec_availability():
    # an honest C2 declaration needs a finite m2, a Holder one both Holder fields
    smooth = corpus.get("holder:a=1")
    assert smooth.m2 == 1.0  # a = 1 means f'' = sign(x), bounded
    assert SmoothnessSpec.c2(smooth.m2).bound == 1.0

    rough = corpus.get("holder:a=0.5")
    assert rough.m2 is None  # f'' blows up at 0
    spec = SmoothnessSpec.holder(rough.holder_exponent, rough.holder_seminorm)
    assert spec.kind is SpecKind.HOLDER
    assert spec.exponent == 0.5 and spec.bound == 1.0

    exp_decay = corpus.get("exp-decay")
    assert exp_decay.holder_exponent is None and exp_decay.holder_seminorm is None


def test_sin_specs():
    entry = corpus.get("sin")
    assert SmoothnessSpec.c2(entry.m2).kind is SpecKind.C2
    assert entry.m2 == 1.0
    assert (entry.holder_exponent, entry.holder_seminorm) == (1.0, 1.0)
