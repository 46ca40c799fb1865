"""The ``--json`` writer against ``json.dumps(doc, indent=2)``: on every
document the benchmark's corpus commands print, and on generated documents
with the cases its fast paths must not get wrong (escapes, NaN and the
infinities, empty containers, big ints, key order)."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SYSTEMS_DIR
from pastlift import cli, report
from pastlift.report import to_json

ROOT = SYSTEMS_DIR.parent


def corpus_commands(workload: str) -> list[list[str]]:
    """The argv of every command in a benchmark menu, the depth probes
    left out; paths are relative to the checkout."""
    import workloads

    systems = sorted(f"systems/{p.name}" for p in SYSTEMS_DIR.glob("*.ptrs"))
    return [c.argv for c in workloads.commands(workload, 1, systems) if not c.probe]


@pytest.mark.parametrize("workload", ["static", "exact", "mc"])
def test_writer_matches_json_dumps_on_corpus_documents(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(ROOT)
    docs = []

    def recording(doc):
        docs.append(doc)
        return to_json(doc)

    monkeypatch.setattr(report, "to_json", recording)
    for argv in corpus_commands(workload):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
    assert len(docs) > 20
    for doc in docs:
        assert to_json(doc) == json.dumps(doc, indent=2)


def test_writer_edge_cases():
    doc = {
        "é→ \x00\"\\/": ["naïve", "\U0001f600", ""],
        "nums": [0, -1, 2**100, -(3**80), 0.1, -0.0, 1e300, math.nan, math.inf, -math.inf],
        "empty": [[], {}, [[]], [{}], {"a": {}}],
        "flags": [True, False, None],
        "z": 1,
        "a": (1, "two"),
    }
    assert to_json(doc) == json.dumps(doc, indent=2)
    for scalar in ("x", 1, 1.5, None, True, [], {}):
        assert to_json(scalar) == json.dumps(scalar, indent=2)
    with pytest.raises(TypeError):
        to_json({1: "int key"})
    with pytest.raises(TypeError):
        to_json([object()])


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text()
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_writer_matches_json_dumps_on_generated_documents(doc):
    assert to_json(doc) == json.dumps(doc, indent=2)
