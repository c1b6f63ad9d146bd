"""Benchmark for stablederiv: one seeded workload per run, one closed-loop client.

    python3 bench/run.py --workload estimate-dense --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/`` (nothing needs installing). With ``--trace 0`` it reports the
end-to-end metrics measured with tracing off; with ``--trace 1`` it runs each
input alternately without and with layer wrappers installed and reports the
per-layer metrics (see ``bench/DESIGN.md``). Every operation is checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Spans of a traced run are saved to
``.bench_out/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# one BLAS/OpenMP thread, set before numpy loads (fit_slope reaches LAPACK)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI reads its default window from here; inputs must come from the seed alone
os.environ.pop("STABLEDERIV_PROBE_WINDOW", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh ``import stablederiv``, and of a bare interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return perf_counter() - t0

    wall("import stablederiv")  # fills the bytecode cache
    return statistics.median(wall("import stablederiv") for _ in range(SETUP_RUNS)), wall("pass")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with 10 samples
    beyond it; the maximum when there are too few samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Tally:
    """Checks every operation: the workload's own checks plus the repeat check."""

    def __init__(self, wl):
        self.wl = wl
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, i: int):
        """Run pool entry i once; return (latency in s, output or None if it raised)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = self.wl.run(i)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            latency = perf_counter() - t0
            self._fail(i, [f"raised {type(exc).__name__}: {exc}"])
            return latency, None
        latency = perf_counter() - t0
        try:
            out = self.wl.finish(i, out)
            bad = self.wl.check(i, out)
            d = self.wl.digest(out)
        except Exception as exc:  # noqa: BLE001 - output too malformed to check
            self._fail(i, [f"output could not be checked: {exc!r}"])
            return latency, None
        if self.reference.setdefault(i, d) != d:
            bad.append("output is not byte-identical to the reference run of this input")
        if bad:
            self._fail(i, bad)
        return latency, out

    def _fail(self, i: int, reasons: list[str]) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"input {i}: {'; '.join(reasons)}")


def closed_loop(tally: Tally, seconds: float) -> tuple[list[float], list[int]]:
    """Cycle through the pool, one operation at a time, for ``seconds``.

    Returns each operation's latency and derivative estimates, in run order.
    """
    latencies, points = [], []
    order = itertools.cycle(range(tally.wl.pool_size))
    stop = perf_counter() + seconds
    while perf_counter() < stop or not latencies:
        latency, out = tally.op(next(order))
        latencies.append(latency)
        points.append(0 if out is None else tally.wl.points(out))
    return latencies, points


def machine() -> dict[str, str]:
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "stablederiv" / "__init__.py").is_file():
        print(f"error: no stablederiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stablederiv

    if Path(stablederiv.__file__).resolve().parent != SRC / "stablederiv":
        print(f"error: imported stablederiv from {stablederiv.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally(wl)
        setup_s, bare_s = measure_setup() if not args.trace else (None, None)
        # reference pass: warms imports, allocation and the file cache, and
        # records the digest every later run of the same input must match
        outputs = [tally.op(i)[1] for i in range(wl.pool_size)]
        io_bytes = statistics.median([wl.io_bytes(i, out) for i, out in enumerate(outputs)
                                      if out is not None] or [0])
        del outputs
        # settle the heap: collections inside timed calls then scan only what
        # the calls themselves allocate, as in a fresh process
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, notes = traced_run(wl, tally, args.seconds)
        else:
            metrics, notes = timed_run(wl, tally, args.seconds, setup_s)
            notes.append(f"bare interpreter start {bare_s:.4f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} pool {wl.pool_size}")
    print("# " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"# array/file bytes in and out per op (median) {io_bytes:.0f}")
    for note in notes:
        print(f"# {note}")
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    print(f"# fail_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def timed_run(wl, tally: Tally, seconds: float, setup_s: float):
    latencies, points = closed_loop(tally, seconds)
    busy = sum(latencies)
    tail_value, tail_pct, beyond = tail(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # printed but not bounded, since they swing with the host: see bench/DESIGN.md
    quartiles = statistics.quantiles(latencies, n=4) if n > 1 else latencies * 3
    notes = [f"op_p50_ms {quartiles[1] * 1e3!r} ms, op_p75_ms {quartiles[2] * 1e3!r} ms",
             f"ops_per_s {n / busy!r} 1/s, points_per_s {sum(points) / busy!r} 1/s "
             f"(per second of busy time)",
             f"op_tail_ms is p{tail_pct:.2f} of {n} samples ({beyond} beyond it)",
             f"busy {busy:.3f} s, {sum(points)} derivative estimates"]
    return metrics, notes


def traced_run(wl, tally: Tally, seconds: float):
    """Alternate untraced and traced runs of each input, so host drift hits both.

    Spans and counts come from the first traced pass over the pool; later
    passes only add latencies for ``trace.overhead_ms``.
    """
    import tracing

    untraced, traced, first = [], [], None

    def run_traced(rec, i):
        with rec.installed():
            rec.op_id = i
            traced.append(tally.op(i)[0])

    stop = perf_counter() + seconds
    for rounds in itertools.count():
        if first is not None and perf_counter() >= stop:
            break
        rec = tracing.Recorder()
        for i in range(wl.pool_size):
            # swap the order every round: a second run of an input finds warmer caches
            if rounds % 2:
                run_traced(rec, i)
            untraced.append(tally.op(i)[0])
            if not rounds % 2:
                run_traced(rec, i)
        if first is None:
            first = rec
    path = OUT_DIR / f"trace-{wl.name}.npz"
    first.write(path)
    metrics = tracing.layer_metrics(first)
    metrics["trace.overhead_ms"] = (
        (statistics.median(traced) - statistics.median(untraced)) * 1e3, "ms")
    notes = [f"{len(first.start)} spans of one traced pass written to {path.relative_to(ROOT)}; "
             f"overhead from {len(traced)} traced and {len(untraced)} untraced ops"]
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
