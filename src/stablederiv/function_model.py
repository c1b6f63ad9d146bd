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

The module also houses the numerical oracles used to *verify* declared norms
on test functions: dense-grid sup-norm estimation and a brute-force Holder
seminorm maximizer. These are deliberately simple (uniform probe grids, no
adaptivity); they are test instruments, not shipped guarantees.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import CapabilityError, DomainError, ParameterError

# Probe window used for sup-norm style estimation when the oracle domain is
# unbounded. All built-in test functions attain their sups well inside it.
DEFAULT_PROBE_WINDOW = (-10.0, 10.0)

_CSV_BLOCK = 65536  # rows formatted and written at a time by write_float_csv


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
        return bool(np.all((np.asarray(x) >= self.lo) & (np.asarray(x) <= self.hi)))

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
    """Which a priori norm is declared bounded."""

    M0 = "m0"        # sup|f|
    M1 = "m1"        # sup|f'|
    C2 = "c2"        # sup|f''|
    HOLDER = "holder"  # Holder seminorm of f' with exponent a in (0, 1]


@dataclass(frozen=True)
class SmoothnessSpec:
    """The a priori information: which norm is bounded and its value.

    For ``HOLDER`` the bound is the Holder *seminorm* of f' (the estimator
    only ever uses |f'(y) - f'(x)| <= bound * |y - x|**a; supplying the full
    norm, seminorm + sup, keeps every guarantee valid but slightly loose).
    C2 is handled separately from Holder a=1 because the Taylor-remainder
    route gives a tighter constant.
    """

    kind: SpecKind
    bound: float
    exponent: float | None = None

    def __post_init__(self) -> None:
        if not self.bound >= 0:
            raise ParameterError(f"smoothness bound must be >= 0, got {self.bound}")
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
        return cls(SpecKind.M0, bound)

    @classmethod
    def m1(cls, bound: float) -> "SmoothnessSpec":
        return cls(SpecKind.M1, bound)


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
    # 64-bit finalizer; uint64 arithmetic wraps mod 2**64 by design.
    with np.errstate(over="ignore"):
        z = z + _SPLITMIX_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_M1
        z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_M2
        return z ^ (z >> np.uint64(31))


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
        bits = np.atleast_1d(xs).view(np.uint64)
        mixed = _splitmix64(bits ^ self._seed_bits)
        # top 53 bits -> [0, 1), then map onto [-1, 1)
        u = (mixed >> np.uint64(11)).astype(np.float64) * 2.0**-53
        out = 2.0 * u - 1.0
        return out.reshape(np.shape(x))


def noise_from_name(
    name: str, *, seed: int = 0, h_ref: float | None = None
) -> NoiseModel:
    """Build a noise model from its CLI-facing name.

    Accepted names: ``none``, ``uniform-hash`` (alias ``uniform``),
    ``cosine-adversarial`` (alias ``cosine``; requires ``h_ref``),
    ``constant-sign:+`` / ``constant-sign:-`` (aliases ``plus`` / ``minus``).
    """
    key = name.strip().lower()
    if key == "none":
        return NoNoise()
    if key in ("uniform-hash", "uniform"):
        return UniformHashNoise(seed=seed)
    if key in ("cosine-adversarial", "cosine"):
        if h_ref is None:
            raise ParameterError("cosine-adversarial noise needs a reference step h_ref")
        return CosineAdversarialNoise(h_ref=h_ref)
    if key in ("constant-sign:+", "plus"):
        return ConstantSignNoise(+1)
    if key in ("constant-sign:-", "minus"):
        return ConstantSignNoise(-1)
    raise ParameterError(f"unknown noise model {name!r}")


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


def write_float_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a header row, then one row per array element, each cell a float ``repr``.

    Array columns must share one length (else ValueError, before the file is opened);
    a scalar column repeats one repr. Rows go out in blocks, so memory stays bounded.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    n = max((len(a) for a in arrays if a.ndim), default=0)
    if any(a.ndim and len(a) != n for a in arrays):
        raise ValueError(f"array columns differ in length: {[len(a) for a in arrays if a.ndim]}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n, _CSV_BLOCK):
            m = min(_CSV_BLOCK, n - i)
            cells = [map(repr, a[i : i + m].tolist()) if a.ndim else [repr(float(a))] * m
                     for a in arrays]
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
        if not self.delta >= 0:
            raise ParameterError(f"delta must be >= 0, got {self.delta}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.spacing * np.arange(len(self.values))

    def to_csv(self, path: str | Path) -> None:
        """Write as CSV with header ``x,value`` (full-precision reprs)."""
        write_float_csv(path, ["x", "value"], [self.xs, self.values])

    @classmethod
    def from_csv(cls, path: str | Path, delta: float) -> "GridSignal":
        """Read a ``x,value`` CSV; the grid must be uniform to ~1e-9 relative."""
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or [c.strip() for c in rows[0]] != ["x", "value"]:
            raise ParameterError(f"{path}: expected CSV header 'x,value'")
        body = [r for r in rows[1:] if r and not r[0].startswith("#")]
        try:
            xs = np.array([float(r[0]) for r in body])
            vals = np.array([float(r[1]) for r in body])
        except (ValueError, IndexError) as exc:
            raise ParameterError(f"{path}: malformed row ({exc})") from exc
        if len(xs) < 3:
            raise ParameterError(f"{path}: need >= 3 samples, got {len(xs)}")
        steps = np.diff(xs)
        spacing = (xs[-1] - xs[0]) / (len(xs) - 1)
        if spacing <= 0 or np.max(np.abs(steps - spacing)) > 1e-9 * max(abs(spacing), 1.0):
            raise ParameterError(f"{path}: grid is not uniformly spaced")
        return cls(x0=float(xs[0]), spacing=float(spacing), values=vals, delta=delta)


# ---------------------------------------------------------------------------
# norm oracles (test instruments)
# ---------------------------------------------------------------------------


def _resolve_window(
    oracle: FunctionOracle, window: tuple[float, float] | None
) -> tuple[float, float]:
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise ParameterError(f"empty probe window [{lo}, {hi}]")
        oracle.domain.require(np.array([lo, hi]), "probe window")
        return lo, hi
    if oracle.domain.is_bounded:
        return oracle.domain.lo, oracle.domain.hi
    lo, hi = DEFAULT_PROBE_WINDOW
    # clip the default window into a half-line domain
    lo = max(lo, oracle.domain.lo)
    hi = min(hi, oracle.domain.hi)
    return lo, hi


def estimate_sup_norm(
    oracle: FunctionOracle,
    which: str = "f",
    grid_points: int = 2001,
    window: tuple[float, float] | None = None,
) -> float:
    """Dense-grid estimate of sup|f| (``which="f"``) or sup|f'| (``which="f'"``).

    The estimate is a max over a uniform probe grid, hence monotone
    nondecreasing under grid refinement and always <= the true sup. For
    unbounded domains the window defaults to ``DEFAULT_PROBE_WINDOW``.
    """
    if which not in ("f", "f'"):
        raise ParameterError(f"which must be 'f' or \"f'\", got {which!r}")
    if grid_points < 1:
        raise ParameterError(f"grid_points must be >= 1, got {grid_points}")
    lo, hi = _resolve_window(oracle, window)
    xs = np.linspace(lo, hi, grid_points)
    vals = oracle.values(xs) if which == "f" else oracle.derivative_values(xs)
    return float(np.max(np.abs(vals)))


def estimate_holder_seminorm(
    g: FunctionOracle,
    a: float,
    probe_window: tuple[float, float],
    grid_points: int = 512,
) -> float:
    """Brute-force Holder seminorm: max over grid pairs of |g(x)-g(y)| / |x-y|**a.

    This is the independent oracle used to validate declared Holder bounds;
    it scans every pair of distinct grid points (chunked to bound memory).
    """
    if not 0.0 < a <= 1.0:
        raise ParameterError(f"Holder exponent must lie in (0, 1], got {a}")
    if grid_points < 2:
        raise ParameterError(f"grid_points must be >= 2, got {grid_points}")
    lo, hi = float(probe_window[0]), float(probe_window[1])
    if not lo < hi:
        raise ParameterError(f"empty probe window [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_points)
    vals = g.values(xs)
    best = 0.0
    chunk = 256
    for start in range(0, grid_points - 1, chunk):
        stop = min(start + chunk, grid_points - 1)
        dx = np.abs(xs[start:stop, None] - xs[None, start + 1 :])
        dv = np.abs(vals[start:stop, None] - vals[None, start + 1 :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(dx > 0, dv / dx**a, 0.0)
        best = max(best, float(np.max(ratios)))
    return best


def estimate_second_derivative_sup(
    oracle: FunctionOracle,
    window: tuple[float, float] | None = None,
    grid_points: int = 2001,
    step: float = 1e-3,
) -> float:
    """Probe sup|f''| via central differences of the exact derivative.

    (f'(x+t) - f'(x-t)) / (2t) is an average of f'' over [x-t, x+t], so the
    probe never exceeds the true sup (up to roundoff); it may undershoot by
    O(t**2) for smooth f. Requires derivative access.
    """
    if oracle.derivative_eval is None:
        raise CapabilityError("sup|f''| probe needs exact-derivative access")
    lo, hi = _resolve_window(oracle, window)
    # keep the probe stencil inside the window (and hence the domain)
    if hi - lo <= 2.0 * step:
        raise ParameterError(f"probe window [{lo}, {hi}] shorter than the stencil 2*{step}")
    xs = np.linspace(lo + step, hi - step, grid_points)
    left = oracle.derivative_values(xs - step)
    right = oracle.derivative_values(xs + step)
    return float(np.max(np.abs(right - left))) / (2.0 * step)
