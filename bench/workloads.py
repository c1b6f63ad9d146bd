"""The four benchmark workloads: seeded inputs, one operation each, and checks.

Every workload builds a small pool of inputs from its seed before any timing
starts, runs one operation per pool entry through the public API or the CLI
entry point ``cli_dispatch``, and checks each output against numbers the
benchmark computes on its own with numpy (it re-derives h, the bound, the
stencil mask, the noise and the central difference from the documented
formulas, never from the library). Each pool entry is run once untimed as its
reference; every later run of the same entry must give byte-identical output.

A check returns a list of failure reasons; an empty list means the operation
passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from stablederiv import cli, estimator, function_model as fm

# Estimates may differ from the benchmark's own central difference by at most
# this share of the certified bound (rounding is ~1e-10 of it here).
TOL_SHARE_OF_BOUND = 1e-6
# Closed-form quantities (h, bound, slope) must agree to this relative error.
RTOL_CLOSED_FORM = 1e-12

# ---------------------------------------------------------------------------
# independent reference formulas (README and module docstrings, not the code)
# ---------------------------------------------------------------------------

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        return z ^ (z >> np.uint64(31))


def hash_unit(x: np.ndarray, seed: int) -> np.ndarray:
    """Splitmix64 of the bits of x (with -0.0 folded to 0.0) and the seed, in [-1, 1)."""
    bits = (np.asarray(x, dtype=np.float64) + 0.0).view(np.uint64)
    mixed = _splitmix64(bits ^ _splitmix64(np.asarray(seed % 2**64, dtype=np.uint64)))
    return 2.0 * ((mixed >> np.uint64(11)).astype(np.float64) * 2.0**-53) - 1.0


def _holder_f(a: float):
    return (
        lambda x: np.sign(x) * np.abs(x) ** (1.0 + a) / (1.0 + a),
        lambda x: np.abs(x) ** a,
    )


# corpus name -> (f, f', sup|f''|)
CORPUS = {
    "sin": (np.sin, np.cos, 1.0),
    "quadratic": (lambda x: x**2, lambda x: 2.0 * x, 2.0),
    "exp-decay": (lambda x: np.exp(-(x**2)), lambda x: -2.0 * x * np.exp(-(x**2)), 2.0),
}


def c2_step(delta: float, m2: float) -> float:
    return math.sqrt(2.0 * delta / m2)


def c2_bound(delta: float, m2: float) -> float:
    return math.sqrt(2.0 * m2 * delta)


def holder_step(delta: float, a: float, m: float) -> float:
    return (delta / (a * m)) ** (1.0 / (1.0 + a))


def holder_bound(delta: float, a: float, m: float) -> float:
    am = a * m
    return (am ** (1.0 / (1.0 + a)) + m / am ** (a / (1.0 + a))) * delta ** (a / (1.0 + a))


def central(f, noise, delta: float, x: np.ndarray, h: float) -> np.ndarray:
    """(f_delta(x+h) - f_delta(x-h)) / (2h) with f_delta = f + delta*noise."""
    up, down = x + h, x - h
    return ((f(up) + delta * noise(up)) - (f(down) + delta * noise(down))) / (2.0 * h)


def _close(a: float, b: float, rtol: float = RTOL_CLOSED_FORM) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _kv(line: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in line.split())


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """A pool of seeded inputs and one operation per pool entry.

    ``run(i)`` is the timed call and ``finish(i, out)`` completes its output
    after the timer stops; ``check(i, out)`` returns failure reasons,
    ``points(out)`` the derivative estimates produced, ``digest(out)`` the
    bytes the repeat check compares and ``io_bytes(i, out)`` the bytes of
    arrays or files going in and out.
    """

    name = ""
    pool_size = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def finish(self, i: int, out):
        """Complete an output after the timer stops (e.g. read the file it wrote)."""
        return out


class CliWorkload(Workload):
    """Operations that go through ``cli_dispatch`` with captured output."""

    def dispatch(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_dispatch(argv)
        return code, out.getvalue(), err.getvalue()

    def digest(self, out):
        return digest(*out)

    @staticmethod
    def exit_failures(out) -> list[str]:
        code, _, err = out
        return [] if code == 0 else [f"exit code {code}: {err.strip()[:200]}"]


class EstimateDense(Workload):
    """Library ``estimate()`` on sin restricted to [-3, 3], about 2e4 points."""

    name = "estimate-dense"
    pool_size = 4
    n_points = 20_000
    n_outside = 1_000  # points whose stencil leaves [-3, 3], split between both ends
    delta, m2, lo, hi = 1e-6, 1.0, -3.0, 3.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = fm.SmoothnessSpec.c2(self.m2)
        self.h = c2_step(self.delta, self.m2)
        self.bound = c2_bound(self.delta, self.m2)
        base = fm.FunctionOracle(eval=np.sin, derivative_eval=np.cos,
                                 domain=fm.Domain.interval(self.lo, self.hi), name="sin")
        gap = 1e-9  # keep generated points off the exact stencil edges
        inner = (self.lo + self.h + gap, self.hi - self.h - gap)
        self.inputs = []
        for _ in range(self.pool_size):
            noise_seed = int(self.rng.integers(0, 2**63))
            half = self.n_outside // 2
            pts = np.concatenate([
                self.rng.uniform(*inner, self.n_points - self.n_outside),
                self.rng.uniform(self.lo - 0.2, self.lo + self.h - gap, half),
                self.rng.uniform(self.hi - self.h + gap, self.hi + 0.2, self.n_outside - half),
            ])
            pts.sort()
            oracle = fm.NoisyOracle(base=base, delta=self.delta,
                                    noise=fm.UniformHashNoise(seed=noise_seed))
            keep = ((pts - self.h >= self.lo) & (pts - self.h <= self.hi)
                    & (pts + self.h >= self.lo) & (pts + self.h <= self.hi))
            kept = pts[keep]
            ref = central(np.sin, lambda x: hash_unit(x, noise_seed), self.delta, kept, self.h)
            self.inputs.append((oracle, pts, kept, ref))

    def run(self, i):
        oracle, pts, _, _ = self.inputs[i]
        return estimator.estimate(oracle, self.spec, pts)

    def check(self, i, rep):
        _, pts, kept, ref = self.inputs[i]
        if rep.measured_sup_error is None:
            return ["no measured_sup_error although the oracle has a derivative"]
        bad = []
        if rep.measured_sup_error > rep.guaranteed_bound:
            bad.append(f"measured {rep.measured_sup_error} > bound {rep.guaranteed_bound}")
        if not (_close(rep.h_used, self.h) and _close(rep.guaranteed_bound, self.bound)):
            bad.append(f"h/bound {rep.h_used}/{rep.guaranteed_bound} != {self.h}/{self.bound}")
        if len(rep.points) != len(kept) or rep.dropped_points != len(pts) - len(kept):
            bad.append(f"kept/dropped {len(rep.points)}/{rep.dropped_points} != "
                       f"{len(kept)}/{len(pts) - len(kept)}")
        elif not np.array_equal(rep.points, kept):
            bad.append("kept points differ from the benchmark mask")
        elif np.max(np.abs(rep.estimates - ref)) > TOL_SHARE_OF_BOUND * self.bound:
            bad.append("estimates differ from the reference central difference")
        elif not _close(rep.measured_sup_error, float(np.max(np.abs(ref - np.cos(kept)))), 1e-9):
            bad.append("measured_sup_error differs from the reference")
        return bad

    def points(self, rep):
        return len(rep.estimates)

    def digest(self, rep):
        return digest(rep.points.tobytes(), rep.estimates.tobytes(), rep.h_used,
                      rep.guaranteed_bound, rep.measured_sup_error, rep.dropped_points)

    def io_bytes(self, i, rep):
        return self.inputs[i][1].nbytes + rep.points.nbytes + rep.estimates.nbytes + (
            rep.abs_errors.nbytes if rep.abs_errors is not None else 0)


class StudySweep(CliWorkload):
    """``study`` on holder:a=0.5 with cosine-adversarial noise, 12 deltas."""

    name = "study-sweep"
    pool_size = 3
    n_deltas = 12
    a, m, window, grid = 0.5, 1.0, (-3.0, 3.0), 2001

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        f, df = _holder_f(self.a)
        xs = np.linspace(*self.window, self.grid)
        self.inputs = []
        for i in range(self.pool_size):
            start = log_uniform(self.rng, 1e-3, 1e-2)
            stop = start * 10.0 ** -self.rng.uniform(4.0, 5.0)
            study_seed = int(self.rng.integers(0, 2**31))
            out = workdir / f"study-{i}.csv"
            argv = ["study", "--fn", f"holder:a={self.a:g}", "--spec",
                    f"holder:a={self.a:g},m={self.m:g}", "--deltas", f"{start!r}:{stop!r}:{self.n_deltas}",
                    "--noise", "cosine-adversarial", "--seed", str(study_seed), "--out", str(out)]
            deltas = np.logspace(np.log10(start), np.log10(stop), self.n_deltas)
            rows = []
            for d in sorted((float(d) for d in deltas), reverse=True):
                h = holder_step(d, self.a, self.m)
                est = central(f, lambda x, h=h: np.cos(np.pi * x / (2.0 * h)), d, xs, h)
                rows.append((d, h, holder_bound(d, self.a, self.m),
                             float(np.max(np.abs(est - df(xs))))))
            slope = float(np.polyfit(np.log([r[0] for r in rows]), np.log([r[3] for r in rows]), 1)[0])
            self.inputs.append((argv, out, rows, slope))

    def run(self, i):
        return self.dispatch(self.inputs[i][0])

    def finish(self, i, out):
        return *out, self.inputs[i][1].read_bytes() if out[0] == 0 else b""

    def check(self, i, out):
        bad = self.exit_failures(out[:3])
        if bad:
            return bad
        _, _, rows, slope = self.inputs[i]
        lines = out[3].decode().splitlines()
        if lines[0] != "delta,h_used,theory_bound,measured_sup_error,n_points,seed" \
                or len(lines) != len(rows) + 2:
            return ["study CSV has the wrong shape"]
        for line, (d, h, bound, measured) in zip(lines[1:], rows):
            cols = line.split(",")
            got_d, got_h, got_b, got_m = (float(c) for c in cols[:4])
            if got_m > got_b:
                bad.append(f"delta={got_d!r}: measured {got_m!r} > bound {got_b!r}")
            if not (_close(got_d, d) and _close(got_h, h) and _close(got_b, bound)):
                bad.append(f"delta={got_d!r}: delta/h/bound differ from the closed forms")
            if int(cols[4]) != self.grid:  # the real line drops no stencil point
                bad.append(f"delta={got_d!r}: kept {cols[4]} != {self.grid}")
            if abs(got_m - measured) > TOL_SHARE_OF_BOUND * bound:
                bad.append(f"delta={got_d!r}: measured error differs from the reference")
        got_slope = float(lines[-1].split(",")[1])
        if abs(got_slope - slope) > 1e-9:
            bad.append(f"slope {got_slope!r} != reference {slope!r}")
        return bad

    def points(self, out):
        return self.n_deltas * self.grid if out[0] == 0 else 0

    def io_bytes(self, i, out):
        return len(out[3]) + len(out[1])


class GridCsv(CliWorkload):
    """``estimate --grid-csv F --out O`` on 5e4 rows of sin plus hash noise."""

    name = "grid-csv"
    pool_size = 3
    n_rows = 50_000
    m2 = 1.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = []
        for i in range(self.pool_size):
            x0 = float(self.rng.uniform(-6.0, -4.0))
            spacing = float(self.rng.uniform(1.8e-4, 2.2e-4))
            delta = log_uniform(self.rng, 1e-6, 1e-4)
            noise_seed = int(self.rng.integers(0, 2**63))
            xs = x0 + spacing * np.arange(self.n_rows)
            vals = np.sin(xs) + delta * hash_unit(xs, noise_seed)
            src = workdir / f"grid-{i}.csv"
            src.write_text("x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in
                                                  zip(xs.tolist(), vals.tolist())))
            out = workdir / f"grid-{i}-out.csv"
            argv = ["estimate", "--grid-csv", str(src), "--delta", repr(delta),
                    "--spec", f"c2:m2={self.m2:g}", "--out", str(out)]
            # the reference reads the CSV back with numpy's own parser
            read = np.loadtxt(src, delimiter=",", skiprows=1)
            rx, rv = read[:, 0], read[:, 1]
            n = len(rx)
            step = (rx[-1] - rx[0]) / (n - 1)
            k = max(1, int(math.floor(c2_step(delta, self.m2) / step + 0.5)))
            h = k * step
            ref_x = (rx[0] + step * np.arange(n))[k:n - k]
            ref_est = (rv[2 * k:] - rv[:n - 2 * k]) / (2.0 * h)
            bound = delta / h + self.m2 * h / 2.0
            self.inputs.append((argv, src, out, k, h, bound, ref_x, ref_est))

    def run(self, i):
        return self.dispatch(self.inputs[i][0])

    def finish(self, i, out):
        return *out, self.inputs[i][2].read_bytes() if out[0] == 0 else b""

    def check(self, i, out):
        bad = self.exit_failures(out[:3])
        if bad:
            return bad
        _, _, _, k, h, bound, ref_x, ref_est = self.inputs[i]
        kv = _kv(out[1].splitlines()[0])
        if int(kv["points"]) != self.n_rows - 2 * k or int(kv["dropped"]) != 2 * k:
            bad.append(f"kept/dropped {kv['points']}/{kv['dropped']} != {self.n_rows - 2 * k}/{2 * k}")
        text = out[3].decode()
        if not text.startswith("x,estimate,h,bound\n"):
            return bad + ["report CSV header is wrong"]
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (len(ref_x), 4):
            return bad + [f"report has {table.shape[0]} rows, expected {len(ref_x)}"]
        got_x, got_est, got_h, got_b = table.T
        if not (_close(got_h[0], h) and _close(got_b[0], bound) and _close(float(kv["bound"]), bound)):
            bad.append(f"h/bound {got_h[0]!r}/{got_b[0]!r} != {h!r}/{bound!r}")
        if np.max(np.abs(got_x - ref_x)) > 1e-12 or \
                np.max(np.abs(got_est - ref_est)) > TOL_SHARE_OF_BOUND * bound:
            bad.append("estimates differ from the reference central difference")
        measured = float(np.max(np.abs(got_est - np.cos(got_x))))
        if measured > bound:
            bad.append(f"measured {measured!r} > bound {bound!r}")
        return bad

    def points(self, out):
        return max(0, out[3].count(b"\n") - 1)

    def io_bytes(self, i, out):
        return self.inputs[i][1].stat().st_size + len(out[3])


class CliSmall(CliWorkload):
    """Passes of short CLI calls: estimate --fn, adversary --scan, bound.

    One operation is one pass of ``calls_per_pass`` calls, made one at a time
    (estimate, adversary, bound, estimate, ...). The three kinds of call differ
    in cost by 3x, so percentiles of single calls would land on one kind or
    another; those of a pass describe the mix.
    """

    name = "cli-small"
    pool_size = 3
    calls_per_pass = 24
    window_points = 201
    noises = ("uniform-hash", "cosine-adversarial", "constant-sign:+", "constant-sign:-")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        kinds = ("estimate", "adversary", "bound")
        self.inputs = [[getattr(self, f"_make_{kinds[j % 3]}")() for j in range(self.calls_per_pass)]
                       for _ in range(self.pool_size)]

    def _make_estimate(self):
        rng = self.rng
        fn = ["sin", "quadratic", "exp-decay", "holder"][int(rng.integers(4))]
        delta = log_uniform(rng, 1e-10, 1e-2)
        noise = self.noises[int(rng.integers(len(self.noises)))]
        noise_seed = int(rng.integers(0, 2**31))
        if fn == "holder":
            a = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            fn, (f, df) = f"holder:a={a:g}", _holder_f(a)
            spec = f"holder:a={a:g},m=1"
            h, bound = holder_step(delta, a, 1.0), holder_bound(delta, a, 1.0)
        else:
            f, df, m2 = CORPUS[fn]
            spec = f"c2:m2={m2:g}"
            h, bound = c2_step(delta, m2), c2_bound(delta, m2)
        unit = {
            "uniform-hash": lambda x: hash_unit(x, noise_seed),
            "cosine-adversarial": lambda x: np.cos(np.pi * x / (2.0 * h)),
            "constant-sign:+": lambda x: np.ones_like(x),
            "constant-sign:-": lambda x: -np.ones_like(x),
        }[noise]
        xs = np.linspace(-3.0, 3.0, self.window_points)
        measured = float(np.max(np.abs(central(f, unit, delta, xs, h) - df(xs))))
        argv = ["estimate", "--fn", fn, "--spec", spec, "--delta", repr(delta),
                "--noise", noise, "--seed", str(noise_seed)]
        return "estimate", argv, (h, bound, measured)

    def _make_adversary(self):
        delta = log_uniform(self.rng, 1e-8, 1e-2)
        big_m = log_uniform(self.rng, 0.5, 10.0)
        argv = ["adversary", "--delta", repr(delta), "--M", repr(big_m), "--scan"]
        return "adversary", argv, (math.sqrt(2.0 * delta * big_m),)

    def _make_bound(self):
        m0, m2 = log_uniform(self.rng, 0.1, 10.0), log_uniform(self.rng, 0.1, 10.0)
        length = log_uniform(self.rng, 0.1, 10.0)
        threshold = 2.0 * math.sqrt(m0 / m2)
        if length < threshold:
            expect = (2.0 / length * m0 + length / 2.0 * m2, "short-interval")
        else:
            expect = (2.0 * math.sqrt(m0 * m2), "half-line")
        argv = ["bound", "--m0", repr(m0), "--m2", repr(m2), "--domain", f"interval:{length!r}"]
        return "bound", argv, (*expect, threshold)

    def run(self, i):
        return [self.dispatch(argv) for _, argv, _ in self.inputs[i]]

    def check(self, i, outs):
        return [f"call {j}: {reason}" for j, (call, out) in enumerate(zip(self.inputs[i], outs))
                for reason in self._check_call(call, out)]

    def _check_call(self, call, out):
        bad = self.exit_failures(out)
        if bad:
            return bad
        kind, _, expect = call
        lines = out[1].splitlines()
        if kind == "estimate":
            h, bound, measured = expect
            kv = {**_kv(lines[0]), **_kv(lines[1])}
            got_m, got_b = float(kv["measured_sup_error"]), float(kv["bound"])
            if got_m > got_b:
                bad.append(f"measured {got_m!r} > bound {got_b!r}")
            if not (_close(float(kv["h"]), h) and _close(got_b, bound)):
                bad.append(f"h/bound {kv['h']}/{kv['bound']} != {h!r}/{bound!r}")
            if int(kv["points"]) != self.window_points or int(kv["dropped"]) != 0:
                bad.append(f"kept/dropped {kv['points']}/{kv['dropped']} != {self.window_points}/0")
            if abs(got_m - measured) > TOL_SHARE_OF_BOUND * bound:
                bad.append(f"measured {got_m!r} differs from the reference {measured!r}")
        elif kind == "adversary":
            (gap,) = expect
            *records, scan = (_kv(line) for line in lines)
            for r in records:
                if r["beaten"] != "false" or float(r["b"]) != 0.0 \
                        or not _close(float(r["worst"]), gap) or not _close(float(r["lower"]), gap):
                    bad.append(f"challenge record off the floor {gap!r}: {r}")
            if abs(float(scan["scan_best_b"])) > 1e-12 * gap or \
                    not _close(float(scan["scan_best_worst"]), gap):
                bad.append(f"scan {scan} is not the minimax reply b=0, worst={gap!r}")
        else:
            bound, rule, threshold = expect
            kv = _kv(lines[0])
            if kv["rule"] != rule or not _close(float(kv["m1_bound"]), bound) \
                    or not _close(float(kv["threshold_length"]), threshold):
                bad.append(f"bound line {lines[0]!r} != {bound!r} {rule} {threshold!r}")
        return bad

    def points(self, outs):
        total = 0
        for code, stdout, _ in outs:
            first = stdout.split("\n", 1)[0]
            if code == 0:
                total += int(_kv(first)["points"]) if first.startswith("h=") else stdout.count("estimator=")
        return total

    def digest(self, outs):
        return digest(*(part for out in outs for part in out))

    def io_bytes(self, i, outs):
        return sum(len(out[1]) for out in outs)


WORKLOADS = {w.name: w for w in (EstimateDense, StudySweep, GridCsv, CliSmall)}
