"""The benchmark's traced run wraps library names from outside ``src/``.

``bench/tracing.py`` lists each hook as (owner, attribute, ...). A renamed or
moved attribute would otherwise only show up when the benchmark runs; this
test reads the list and checks every name still exists where it is looked up.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_hook_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing_hooks", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert not missing, f"trace hooks no longer resolve: {missing}"
