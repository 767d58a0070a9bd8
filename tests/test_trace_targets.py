"""The benchmark's tracer (``perfbench/tracer.py``) wraps linetrp calls by
looking each one up with ``vars(owner)[attr]``.  A refactor that drops or
moves one of those names breaks ``perfbench/run.py --trace 1``; this check
makes it fail here too."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for owner, attr, span in tracer.TARGETS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} (span {span})"
