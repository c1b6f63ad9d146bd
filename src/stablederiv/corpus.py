"""Built-in test-function corpus, addressable by name.

Names understood by :func:`get`:

* ``sin``        -- f(x) = sin x
* ``quadratic``  -- f(x) = x**2
* ``exp-decay``  -- f(x) = exp(-x**2)
* ``holder:a=<a>`` -- f(x) = sign(x)*|x|**(1+a) / (1+a), whose derivative
  |x|**a has Holder exponent exactly ``a`` (seminorm 1, attained against 0).

Every entry carries exact-derivative access plus whichever derivative norms
are finite in closed form, so tests can validate the numerical norm oracles
and feed honest smoothness declarations to the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .function_model import FunctionOracle, SmoothnessSpec

__all__ = ["CorpusEntry", "get", "list_names"]


@dataclass(frozen=True)
class CorpusEntry:
    """A corpus function with its exactly known derivative norms.

    Norm fields are None when the quantity is infinite or does not exist
    (e.g. sup|f| for the quadratic on the whole line, or sup|f''| for the
    Holder functions with a < 1, whose second derivative blows up at 0).
    ``holder_exponent``/``holder_seminorm`` describe f', not f.
    """

    key: str
    oracle: FunctionOracle
    m0: float | None = None
    m1: float | None = None
    m2: float | None = None
    holder_exponent: float | None = None
    holder_seminorm: float | None = None

    def c2_spec(self) -> SmoothnessSpec:
        if self.m2 is None:
            raise ParameterError(f"{self.key!r} has no finite sup|f''|; declare a Holder bound")
        return SmoothnessSpec.c2(self.m2)

    def holder_spec(self) -> SmoothnessSpec:
        if self.holder_exponent is None or self.holder_seminorm is None:
            raise ParameterError(f"{self.key!r} carries no Holder description of f'")
        return SmoothnessSpec.holder(self.holder_exponent, self.holder_seminorm)


def _sin_entry() -> CorpusEntry:
    return CorpusEntry(
        key="sin",
        oracle=FunctionOracle(eval=np.sin, derivative_eval=np.cos, name="sin"),
        m0=1.0,
        m1=1.0,
        m2=1.0,
        holder_exponent=1.0,  # cos is 1-Lipschitz
        holder_seminorm=1.0,
    )


def _quadratic_entry() -> CorpusEntry:
    return CorpusEntry(
        key="quadratic",
        oracle=FunctionOracle(
            eval=lambda x: np.asarray(x, dtype=float) ** 2,
            derivative_eval=lambda x: 2.0 * np.asarray(x, dtype=float),
            name="quadratic",
        ),
        m0=None,  # unbounded on the line
        m1=None,
        m2=2.0,
        holder_exponent=1.0,
        holder_seminorm=2.0,
    )


def _exp_decay_entry() -> CorpusEntry:
    def f(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    def df(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x * np.exp(-(x**2))

    return CorpusEntry(
        key="exp-decay",
        oracle=FunctionOracle(eval=f, derivative_eval=df, name="exp-decay"),
        m0=1.0,
        m1=math.sqrt(2.0) * math.exp(-0.5),  # at x = 1/sqrt(2)
        m2=2.0,  # |f''| peaks at x = 0
    )


def _holder_entry(a: float) -> CorpusEntry:
    if not 0.0 < a <= 1.0:
        raise ParameterError(f"Holder exponent must lie in (0, 1], got {a}")

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.abs(x) ** (1.0 + a) / (1.0 + a)

    def df(x):
        return np.abs(np.asarray(x, dtype=float)) ** a

    return CorpusEntry(
        key=f"holder:a={a:g}",
        oracle=FunctionOracle(eval=f, derivative_eval=df, name=f"holder:a={a:g}"),
        m0=None,  # ~ |x|**(1+a)/(1+a), unbounded
        m1=None,
        m2=(1.0 if a == 1.0 else None),  # f'' = sign(x) a |x|**(a-1): bounded only at a=1
        holder_exponent=a,
        holder_seminorm=1.0,  # | |x|**a - |y|**a | <= |x-y|**a, equality against y=0
    )


_FIXED = {
    "sin": _sin_entry,
    "quadratic": _quadratic_entry,
    "exp-decay": _exp_decay_entry,
}


def get(name: str) -> CorpusEntry:
    """Look up a corpus function by name; see the module docstring for names."""
    key = name.strip()
    if key in _FIXED:
        return _FIXED[key]()
    if key.startswith("holder:"):
        params = key[len("holder:") :]
        if not params.startswith("a="):
            raise ParameterError(f"expected 'holder:a=<a>', got {name!r}")
        try:
            a = float(params[2:])
        except ValueError as exc:
            raise ParameterError(f"bad Holder exponent in {name!r}") from exc
        return _holder_entry(a)
    raise ParameterError(
        f"unknown corpus function {name!r}; known: {', '.join(list_names())}"
    )


def list_names() -> list[str]:
    return [*_FIXED, "holder:a=<a>"]
