"""Exact functions, noisy observations of them, and smoothness declarations.

The data model mirrors how the problem is actually posed: an unknown exact
function ``f`` (here a :class:`FunctionOracle`, with optional exact-derivative
access so tests can measure true errors), a noisy observation ``f_delta``
with a hard sup-norm guarantee ``sup|f_delta - f| <= delta``
(:class:`NoisyOracle`), and an a priori smoothness declaration
(:class:`SmoothnessSpec`) saying which derivative norm is bounded and by how
much.

Noise is always a pure function of position: evaluating the same point twice,
in any order, returns the identical value. Random-looking noise is produced by
hashing the bit pattern of the query point together with a seed, never by a
stateful stream, so a :class:`NoisyOracle` is a well-defined function and
every experiment is reproducible bit for bit.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import CapabilityError, DomainError, ParameterError, UnstableFamilyError

_CSV_BLOCK = 4096  # rows read by GridSignal.from_csv, or written by write_csv, at a time


# ---------------------------------------------------------------------------
# domains and exact functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A closed evaluation domain: the whole line, a half line, or an interval."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ParameterError(f"empty domain: lo={self.lo} must be < hi={self.hi}")

    @classmethod
    def real_line(cls) -> "Domain":
        return cls()

    @classmethod
    def half_line(cls) -> "Domain":
        """The nonnegative half line [0, inf)."""
        return cls(lo=0.0)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Domain":
        return cls(lo=lo, hi=hi)

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float | np.ndarray) -> bool:
        """True when every x is finite and inside [lo, hi]; NaN and +-inf never are."""
        x = np.asarray(x)
        return bool(np.all(np.isfinite(x) & (x >= self.lo) & (x <= self.hi)))

    def require(self, x: float | np.ndarray, what: str = "point") -> None:
        if not self.contains(x):
            raise DomainError(f"{what} outside domain [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class FunctionOracle:
    """An exact function evaluable at any point of its domain.

    ``eval`` must be pure and vectorized in the numpy sense: it accepts a
    float or an ndarray and returns values of matching shape (a scalar
    return against an array argument is broadcast, so ``lambda x: 0.0`` is
    fine). ``derivative_eval``, when present, gives exact f' access for
    measuring true errors; estimation never touches it.
    """

    eval: Callable[[float | np.ndarray], float | np.ndarray]
    derivative_eval: Callable[[float | np.ndarray], float | np.ndarray] | None = None
    domain: Domain = field(default_factory=Domain.real_line)
    name: str = ""

    def values(self, xs: float | np.ndarray) -> np.ndarray:
        """Evaluate f on ``xs``, broadcasting scalar-returning callables."""
        out = np.asarray(self.eval(xs), dtype=float)
        if out.shape != np.shape(xs):
            out = np.broadcast_to(out, np.shape(xs)).copy()
        return out

    def derivative_values(self, xs: float | np.ndarray) -> np.ndarray:
        if self.derivative_eval is None:
            raise CapabilityError(
                f"oracle {self.name or '<anonymous>'!r} has no exact-derivative access"
            )
        out = np.asarray(self.derivative_eval(xs), dtype=float)
        if out.shape != np.shape(xs):
            out = np.broadcast_to(out, np.shape(xs)).copy()
        return out

    def negated(self) -> "FunctionOracle":
        """The pointwise negation, preserving derivative access."""
        f = self.eval
        df = self.derivative_eval
        return FunctionOracle(
            eval=lambda x: -np.asarray(f(x), dtype=float),
            derivative_eval=None if df is None else (lambda x: -np.asarray(df(x), dtype=float)),
            domain=self.domain,
            name=f"-({self.name})" if self.name else "",
        )


# ---------------------------------------------------------------------------
# smoothness declarations
# ---------------------------------------------------------------------------


class SpecKind(str, Enum):
    """Which a priori norm is declared bounded: the two families with a stable estimate."""

    C2 = "c2"        # sup|f''|
    HOLDER = "holder"  # Holder seminorm of f' with exponent a in (0, 1]


@dataclass(frozen=True)
class SmoothnessSpec:
    """The a priori information: which norm is bounded and its value.

    For ``HOLDER`` the bound is the Holder *seminorm* of f' (the estimator
    only ever uses |f'(y) - f'(x)| <= bound * |y - x|**a; supplying the full
    norm, seminorm + sup, keeps every guarantee valid but slightly loose).
    C2 is handled separately from Holder a=1 because the Taylor-remainder
    route gives a tighter constant. ``kind`` may be a string ("c2", "holder").
    """

    kind: SpecKind
    bound: float
    exponent: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in tuple(SpecKind):
            raise ParameterError(f"unknown smoothness kind {self.kind!r}; use 'c2' or 'holder'")
        object.__setattr__(self, "kind", SpecKind(self.kind))
        if not 0 <= self.bound < math.inf:
            raise ParameterError(f"smoothness bound must be finite and >= 0, got {self.bound}")
        if self.kind is SpecKind.HOLDER:
            if self.exponent is None or not 0.0 < self.exponent <= 1.0:
                raise ParameterError(
                    f"Holder exponent must lie in (0, 1], got {self.exponent}"
                )
        elif self.exponent is not None:
            raise ParameterError("exponent is only meaningful for Holder specs")

    @classmethod
    def c2(cls, m2: float) -> "SmoothnessSpec":
        return cls(SpecKind.C2, m2)

    @classmethod
    def holder(cls, a: float, m1a: float) -> "SmoothnessSpec":
        return cls(SpecKind.HOLDER, m1a, exponent=a)

    @classmethod
    def m0(cls, bound: float) -> "SmoothnessSpec":
        """Always raises UnstableFamilyError: sup|f| alone admits no stable estimate."""
        raise UnstableFamilyError()

    @classmethod
    def m1(cls, bound: float) -> "SmoothnessSpec":
        """Always raises UnstableFamilyError: sup|f'| alone admits no stable estimate."""
        raise UnstableFamilyError()


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------


class NoiseModel(ABC):
    """A deterministic bounded perturbation profile.

    ``unit(x)`` returns values in [-1, 1] as a pure function of x (and any
    fixed parameters such as a seed); the noisy oracle scales it by delta.
    """

    name: str = "noise"

    @abstractmethod
    def unit(self, x: np.ndarray) -> np.ndarray:
        """Normalized noise profile in [-1, 1], elementwise over ``x``."""


class NoNoise(NoiseModel):
    name = "none"

    def unit(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(x))


class ConstantSignNoise(NoiseModel):
    """Constant offset of +delta or -delta everywhere."""

    def __init__(self, sign: int = +1):
        if sign not in (+1, -1):
            raise ParameterError(f"sign must be +1 or -1, got {sign}")
        self.sign = sign
        self.name = "constant-sign:+" if sign > 0 else "constant-sign:-"

    def unit(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x), float(self.sign))


class CosineAdversarialNoise(NoiseModel):
    """Worst-case profile for a central difference of half-width ``h_ref``.

    unit(x) = cos(pi*x / (2*h_ref)) has period 4*h_ref, so it takes opposite
    signs at x-h_ref and x+h_ref for every x; at the stencil half-width
    h = h_ref the noise contribution to the central difference reaches its
    ceiling delta/h on a dense point set.
    """

    def __init__(self, h_ref: float):
        if not h_ref > 0:
            raise ParameterError(f"h_ref must be > 0, got {h_ref}")
        self.h_ref = h_ref
        self.name = f"cosine-adversarial(h_ref={h_ref!r})"

    def unit(self, x: np.ndarray) -> np.ndarray:
        return np.cos(np.pi * np.asarray(x, dtype=float) / (2.0 * self.h_ref))


_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # 64-bit finalizer, in place on z; uint64 arithmetic wraps mod 2**64 by design.
    with np.errstate(over="ignore"):
        z += _SPLITMIX_GAMMA
        for shift, mult in ((30, _SPLITMIX_M1), (27, _SPLITMIX_M2)):
            z ^= z >> np.uint64(shift)
            z *= mult
        z ^= z >> np.uint64(31)
        return z


class UniformHashNoise(NoiseModel):
    """Pseudo-random noise in [-delta, delta), pure in (seed, x).

    The bit pattern of each query point is mixed with the seed through a
    splitmix64 finalizer, so the value at a point never depends on query
    order or on any other point. -0.0 is canonicalized to +0.0 first.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed) % 2**64
        self.name = f"uniform-hash(seed={self.seed})"
        self._seed_bits = _splitmix64(np.asarray(self.seed, dtype=np.uint64))

    def unit(self, x: np.ndarray) -> np.ndarray:
        xs = np.asarray(x, dtype=np.float64) + 0.0
        k = _splitmix64(np.atleast_1d(xs).view(np.uint64) ^ self._seed_bits)
        k >>= np.uint64(11)  # top 53 bits; k * 2**-52 - 1 is exactly 2*(k * 2**-53) - 1
        return (k.astype(np.float64) * 2.0**-52 - 1.0).reshape(np.shape(x))


def noise_from_name(
    name: str, *, seed: int = 0, h_ref: float | None = None
) -> NoiseModel:
    """Build a noise model from its CLI-facing name.

    Accepted names: ``none``, ``uniform-hash``, ``cosine-adversarial``
    (requires ``h_ref``), ``constant-sign:+`` and ``constant-sign:-``.
    """
    key = name.strip().lower()
    if key == "none":
        return NoNoise()
    if key == "uniform-hash":
        return UniformHashNoise(seed=seed)
    if key == "cosine-adversarial":
        if h_ref is None:
            raise ParameterError("cosine-adversarial noise needs a reference step h_ref")
        return CosineAdversarialNoise(h_ref=h_ref)
    if key == "constant-sign:+":
        return ConstantSignNoise(+1)
    if key == "constant-sign:-":
        return ConstantSignNoise(-1)
    raise ParameterError(f"unknown noise model {name!r}; use none, uniform-hash, "
                         "cosine-adversarial, constant-sign:+ or constant-sign:-")


# ---------------------------------------------------------------------------
# noisy observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoisyOracle:
    """A noisy observation f_delta = f + n with sup|n| <= delta by construction."""

    base: FunctionOracle
    delta: float
    noise: NoiseModel = field(default_factory=NoNoise)

    def __post_init__(self) -> None:
        if not self.delta >= 0:
            raise ParameterError(f"delta must be >= 0, got {self.delta}")

    def eval_noisy(self, x: float | np.ndarray) -> float | np.ndarray:
        """f_delta(x); raises DomainError off-domain. Scalar in, scalar out."""
        self.base.domain.require(x)
        out = self.base.values(x) + self.delta * np.asarray(self.noise.unit(x))
        return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# sampled signals
# ---------------------------------------------------------------------------


def _csv_str(s: str) -> str:
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a header row, then one row per array element: the package's one table writer.

    Each cell comes from its column's Python scalar: a float as its ``repr``, an int as its
    digits, a str as ``csv.writer`` writes it, quoted only when it holds a comma, a quote or a
    line break (a lone carriage return too, so ``csv.reader`` reads it back). Array columns
    must share one length (else ValueError, before the file is opened); a scalar column
    repeats one cell. Rows go out in blocks, so memory stays bounded.
    """
    arrays = [np.asarray(c) for c in columns]
    n = max((len(a) for a in arrays if a.ndim), default=0)
    if any(a.ndim and len(a) != n for a in arrays):
        raise ValueError(f"array columns differ in length: {[len(a) for a in arrays if a.ndim]}")
    formats = [_csv_str if a.dtype.kind == "U" else repr for a in arrays]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_csv_str, header)) + "\n")
        for i in range(0, n, _CSV_BLOCK):
            m = min(_CSV_BLOCK, n - i)
            cells = [map(f, a[i : i + m].tolist()) if a.ndim else [f(a.tolist())] * m
                     for f, a in zip(formats, arrays)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


@dataclass(eq=False)
class GridSignal:
    """Samples of f_delta on the uniform grid x0 + k*spacing, k = 0..n-1."""

    x0: float
    spacing: float
    values: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) < 3:
            raise ParameterError(
                f"a grid signal needs >= 3 samples in one row, got shape {self.values.shape}"
            )
        if not self.spacing > 0:
            raise ParameterError(f"grid spacing must be > 0, got {self.spacing}")
        if not (math.isfinite(self.x0) and math.isfinite(self.spacing)
                and np.isfinite(self.values).all()):
            raise ParameterError("a grid signal needs a finite x0, spacing and values")
        if not self.delta >= 0:
            raise ParameterError(f"delta must be >= 0, got {self.delta}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.spacing * np.arange(len(self.values))

    def to_csv(self, path: str | Path) -> None:
        """Write as CSV with header ``x,value`` (full-precision reprs)."""
        write_csv(path, ["x", "value"], [self.xs, self.values])

    @classmethod
    def from_csv(cls, path: str | Path, delta: float) -> "GridSignal":
        """Read a ``x,value`` CSV; each step must be within 1e-9 relative of the mean step.

        Rows are read ``_CSV_BLOCK`` at a time, so of several defects the first in file order
        wins: the header, then each block, where non-UTF-8 bytes or an oversized cell (also in the
        decoder's few KiB of read-ahead) beat a malformed row. Count, finiteness, spacing come last.
        A step may also be off by 4 ulps of max|x|, for the rounding of the x cells themselves.
        """
        xs, vals = array("d"), array("d")
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [c.strip() for c in next(reader, [])]
                while header == ["x", "value"] and (rows := list(islice(reader, _CSV_BLOCK))):
                    body = [r for r in rows if r and not r[0].startswith("#")]
                    xs.extend([float(r[0]) for r in body])
                    vals.extend([float(r[1]) for r in body])
            except (UnicodeDecodeError, csv.Error) as exc:
                raise ParameterError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc
            except (ValueError, IndexError) as exc:
                raise ParameterError(f"{path}: malformed row ({exc})") from exc
        if header != ["x", "value"]:
            raise ParameterError(f"{path}: expected CSV header 'x,value'")
        if len(xs) < 3:
            raise ParameterError(f"{path}: need >= 3 samples, got {len(xs)}")
        xs, vals = np.frombuffer(xs), np.frombuffer(vals)
        if not (np.isfinite(xs).all() and np.isfinite(vals).all()):
            raise ParameterError(f"{path}: every x and value must be finite")
        x0, x1 = float(xs[0]), float(xs[-1])
        spacing = (x1 - x0) / (len(xs) - 1)  # Python floats overflow to inf without a warning
        if spacing == math.inf:
            raise ParameterError(f"{path}: the x span {x0!r} to {x1!r} overflows a float")
        with np.errstate(over="ignore"):  # an overflowing step is inf, so it is refused
            off = np.max(np.abs(np.diff(xs) - spacing))
        if spacing <= 0 or off > 1e-9 * spacing + 4.0 * math.ulp(max(abs(x0), abs(x1))):
            raise ParameterError(f"{path}: grid is not uniformly spaced")
        return cls(x0=x0, spacing=spacing, values=vals, delta=delta)
