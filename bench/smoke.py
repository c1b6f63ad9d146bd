"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench/smoke.py

For each workload it makes one one-second run with ``--trace 0`` and
two with ``--trace 1``. It checks that every metric of ``BENCHMARK.json`` is
printed with its unit, that no operation failed, that the traced counts repeat
exactly and that ``grid-csv`` never reaches the mask. Last, it checks that the
benchmark refuses to run without the package sources. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes", "ratio")


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def main() -> int:
    problems = []
    for wl in SPEC["workloads"]:
        name = wl["name"]
        traced = []
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"]), (1, SPEC["per_layer"])):
            code, result = run(name, trace)
            if result is None:
                problems.append(f"{name} trace={trace}: exit code {code}, no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in wanted}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics/units {got} != {expected}")
            if trace:
                traced.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] in COUNT_UNITS})
        if len(traced) == 2 and traced[0] != traced[1]:
            problems.append(f"{name}: traced counts differ between runs")
        if name == "grid-csv" and traced and traced[0].get("function_model.mask.calls") != 0:
            problems.append("grid-csv reached the stencil mask")
        print(f"{name}: checked", flush=True)

    # without src/ the benchmark must fail and print no result
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, Path(bare) / p, ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run(SPEC["workloads"][0]["name"], 0, cwd=Path(bare))
        if code == 0 or result is not None:
            problems.append(f"benchmark ran without sources (exit code {code})")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
