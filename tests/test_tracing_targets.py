"""The benchmark's tracer wraps manalyzer functions and methods by name;
a rename in src must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_tracing_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(f"manalyzer.{module_name}")
        if "." in attr:
            # The tracer patches the method in its class's own __dict__.
            cls_name, method = attr.split(".")
            found = method in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
