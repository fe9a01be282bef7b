"""The benchmark's tracer wraps folrank functions by module and attribute name.

`perfbench/tracing.py` looks each (module, attribute) pair up with a plain
`getattr` when `--trace 1` is given, so a renamed or deleted function would
break traced benchmark runs without failing any other test.  Its probes read
the wrapped call's arguments by position or keyword, so a changed signature
would break them the same way.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from folrank.groupring import RingElem, RingMatrix
from folrank.groups import folner_set, zd
from folrank.mmdim import separated_lower_count

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # run_path compiles the source itself and writes no bytecode beside it.
    return runpy.run_path(str(TRACING))


def test_every_trace_target_resolves():
    targets = _tracing()["TARGETS"]
    assert targets
    missing = [
        f"folrank.{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(f"folrank.{module}"), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("by_keyword", [False, True], ids=["positional", "keyword"])
def test_packing_probe_reads_a_real_call(by_keyword):
    tracing = _tracing()
    probe = tracing["_packing_probe"]
    assert ("mmdim", "separated_lower_count", "mmdim.separated_lower_count", probe) in tracing["TARGETS"]
    Z = zd(1)
    two = RingMatrix(Z, [[RingElem.from_terms(Z, [((0,), 2)])]])
    if by_keyword:
        args, kwargs = (two, folner_set(Z, 4), 0.25), {"budget": 30, "seed": 2}
    else:
        args, kwargs = (two, folner_set(Z, 4), 0.25, 30, 2), {}
    # Wrapped as the tracer wraps it, without installing it anywhere.
    tracer = tracing["Tracer"]()
    traced = tracer._wrap(separated_lower_count, "mmdim.separated_lower_count", probe)
    result = traced(*args, **kwargs)
    [(name, _, _, parent, (budget, kept))] = tracer.spans
    assert (name, parent, budget, kept) == ("mmdim.separated_lower_count", -1, 30, result)
    assert type(kept) is int and 1 <= kept <= budget
