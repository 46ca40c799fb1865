"""The benchmark's layer tracer must find every function it wraps.

``bench/layertrace.py`` skips a target that does not resolve, so a deleted or
renamed function does not fail the traced run: its metrics (``runsim.steps``,
``rewriting.redex_enum_s``, ...) silently go missing from the result line, and
a traced result without every metric that ``BENCHMARK.json`` lists is
malformed. Renaming or deleting a traced function therefore needs the
benchmark retargeted in the same change; this test makes that visible.
"""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    layertrace = load_layertrace()
    assert layertrace.TARGETS
    for name, _, _ in layertrace.TARGETS:
        _, _, original = layertrace.Tracer._resolve(name)
        assert callable(original), f"trace target {name} does not resolve"
