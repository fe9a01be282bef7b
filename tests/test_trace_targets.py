"""The benchmark's tracer wraps folrank functions by module and attribute name.

`perfbench/tracing.py` looks each (module, attribute) pair up with a plain
`getattr` when `--trace 1` is given, so a renamed or deleted function would
break traced benchmark runs without failing any other test.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    # run_path compiles the source itself and writes no bytecode beside it.
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    assert targets
    missing = [
        f"folrank.{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(f"folrank.{module}"), attr, None))
    ]
    assert missing == []
