"""Every layer that the benchmark's tracer (`perfbench/tracer.py`) wraps still
exists under the name it looks up, so a traced benchmark run can install its
spans."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_exists():
    """Resolve each target as the tracer's `install` does: a `Class.method`
    must be defined on the class itself, since it reads `owner.__dict__`."""
    targets = _tracer_targets()
    assert targets
    missing = []
    for module_name, attribute, _ in targets:
        module = importlib.import_module(f"estateqa.{module_name}")
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name, None)
            if owner is None or method not in owner.__dict__:
                missing.append(f"{module_name}.{attribute}")
        elif not callable(getattr(module, attribute, None)):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []
