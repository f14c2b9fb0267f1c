"""The benchmark tracer's targets exist in minkit.

A traced run of ``bench/run.py`` looks each target up by name, so a renamed
or deleted function fails it.  ``bench/tracer.py`` needs only the standard
library, so its target list loads here without the benchmark's own
dependencies.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("minkit_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        target = getattr(importlib.import_module(f"minkit.{module}"), attr, None)
        assert callable(target), f"minkit.{module}.{attr}"
