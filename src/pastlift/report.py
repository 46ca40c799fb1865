"""Machine-readable report documents, versioned as ``past-lift/2``.

Every rational is serialized as a ``num`` or ``num/den`` string so that no
precision is lost; positions use ``e`` for the root and dotted paths
otherwise. The shipped JSON schema (``report_schema.json``) validates every
document this module produces.

Format 2 differs from format 1 in three documents:

- an ``analyze`` section lists its ``routes``, the closure arrows into full
  termination that the text report prints, in place of the whole closure;
  ``analyze --closure`` adds the whole closure as ``closure``, with each
  atom's token listed once under ``atoms`` and each arrow as
  ``[source index, target index, chain]`` under ``arrows``;
- a ``simulate-mc`` document gives the 95 % Wilson interval of its estimate
  as ``estimate_interval``, two floats;
- a ``simulate-exact`` document that stopped at the support cap holds the
  states finished before it, with ``"partial": true``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional

from .analyzer import AnalysisReport, ClosureArrow, Verdict
from .props import PropertyReport
from .semantics import McSummary, SemanticsTrace
from .spareness import SparenessCounterexample, SpareVerdict
from .system import MultiDistribution, Ptrs
from .terms import pos_to_str, term_to_str

FORMAT = "past-lift/2"

# final distributions beyond these sizes are summarized, not listed
STATE_ENTRY_LIMIT = 50
STATE_TERM_SIZE_LIMIT = 200

_INF = float("inf")


def _rat(x: Fraction) -> str:
    return str(x)


def load_schema() -> dict:
    with resources.files("pastlift").joinpath("report_schema.json").open("rb") as fh:
        return json.load(fh)


def to_json(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, in one pass.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder; this
    writer appends the same pieces to one list and joins them once, and
    escapes strings with the C ASCII encoder, which raises TypeError on a
    dict key that is not a string. Tuples are written as lists, as ``json``
    does."""
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _write(o, out: list[str], nl: str) -> None:
    """Append o's encoding to out; nl is a newline and o's indentation."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        comma, sep = "," + inner, "{" + inner
        for key, value in o.items():
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write(value, out, inner)
            sep = comma
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        comma, sep = "," + inner, "[" + inner
        for value in o:
            out.append(sep)
            _write(value, out, inner)
            sep = comma
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def properties_doc(system: Ptrs, report: PropertyReport) -> dict:
    return {
        "left_linear": report.left_linear,
        "right_linear": report.right_linear,
        "non_erasing": report.non_erasing,
        "non_duplicating": report.non_duplicating,
        "non_overlapping": report.non_overlapping,
        "overlay": report.overlay,
        "orthogonal": report.orthogonal,
        "wcr": report.wcr.value,
        "overlaps": [
            {
                "outer": o.outer_index,
                "inner": o.inner_index,
                "position": pos_to_str(o.position),
            }
            for o in report.overlaps
        ],
    }


def check_doc(system: Ptrs, report: PropertyReport) -> dict:
    return {
        "format": FORMAT,
        "kind": "check",
        "trivial": system.is_trivial,
        "properties": properties_doc(system, report),
    }


def _verdict_doc(v: Verdict) -> dict:
    return {
        "id": v.theorem_id,
        "title": v.title,
        "applicability": v.applicability,
        "preconditions": [
            {"name": p.name, "value": p.value, "witness": p.witness}
            for p in v.preconditions
        ],
        "implications": [
            {"from": a.token(), "to": b.token()} for a, b in v.implications
        ],
    }


def _arrow_doc(c: ClosureArrow) -> dict:
    return {"from": c.source.token(), "to": c.target.token(), "chain": list(c.chain)}


def _closure_doc(closure: list[ClosureArrow]) -> dict:
    """The whole closure: each atom's token once, in order of first
    appearance, and each arrow as [source index, target index, chain]."""
    index: dict[str, int] = {}
    arrows = []
    for c in closure:
        source = index.setdefault(c.source.token(), len(index))
        target = index.setdefault(c.target.token(), len(index))
        arrows.append([source, target, list(c.chain)])
    return {"atoms": list(index), "arrows": arrows}


def analysis_doc(
    system: Ptrs, reports: list[AnalysisReport], scope: str, closure: bool = False
) -> dict:
    sections = []
    for r in reports:
        section = {
            "engine": r.kind,
            "properties": properties_doc(system, r.properties),
            "spare": r.spare.value if r.spare is not None else None,
            "spare_evidence": r.spare_evidence,
            "verdicts": [_verdict_doc(v) for v in r.verdicts],
            "routes": [_arrow_doc(c) for c in r.routes],
            "assertions": [p.token() for p in r.assertions],
            "conclusions": [_arrow_doc(c) for c in r.conclusions],
            "notes": r.notes,
        }
        if closure:
            section["closure"] = _closure_doc(r.closure)
        sections.append(section)
    return {"format": FORMAT, "kind": "analyze", "scope": scope, "sections": sections}


def renders_state(mu: MultiDistribution) -> bool:
    """Whether a final state is small enough to print: its support and each
    of its terms within the rendering limits."""
    return len(mu) <= STATE_ENTRY_LIMIT and all(
        t.size <= STATE_TERM_SIZE_LIMIT for t in mu.terms
    )


def exact_trace_doc(system: Ptrs, trace: SemanticsTrace, partial: bool = False) -> dict:
    """The unfolding's document; ``partial`` marks a trace that stopped at
    the support cap before the depth asked for."""
    final = trace.states[-1]
    doc = {
        "format": FORMAT,
        "kind": "simulate-exact",
        "start": term_to_str(trace.start),
        "strategy": trace.strategy.value,
        "policy": trace.policy_name,
        "depth": trace.depth,
        "nf_mass": [_rat(m) for m in trace.nf_masses],
        "support_sizes": [len(mu) for mu in trace.states],
        "lower_bound": _rat(trace.lower_bound),
        "upper_bound": "1",
        "partial_edl": _rat(trace.partial_edl),
    }
    if partial:
        doc["partial"] = True
    if renders_state(final):
        doc["final_state"] = [
            {"p": _rat(p), "term": term_to_str(t)} for p, t in final.entries
        ]
    else:
        doc["final_state_omitted"] = (
            f"support {len(final)} or term sizes exceed the rendering limits"
        )
    return doc


def mc_doc(summary: McSummary, start, strategy, policy_name: str) -> dict:
    return {
        "format": FORMAT,
        "kind": "simulate-mc",
        "start": term_to_str(start),
        "strategy": strategy.value,
        "policy": policy_name,
        "samples": summary.samples,
        "step_cap": summary.step_cap,
        "seed": summary.seed,
        "terminated": summary.terminated,
        "estimate": summary.estimate,
        "estimate_interval": list(summary.interval),
        "censored_fraction": summary.censored_fraction,
        "mean_steps_of_terminated": summary.mean_steps_of_terminated,
    }


def adversary_doc(start, strategy, depth: int, bound: Fraction) -> dict:
    return {
        "format": FORMAT,
        "kind": "adversary",
        "start": term_to_str(start),
        "strategy": strategy.value,
        "depth": depth,
        "lower_bound": _rat(bound),
    }


def counterexample_doc(cex: SparenessCounterexample) -> dict:
    return {
        "start": term_to_str(cex.start_term),
        "trace": [
            {
                "term": term_to_str(s.term),
                "position": pos_to_str(s.position),
                "rule": s.rule_index,
                "branch": s.branch,
            }
            for s in cex.step_trace
        ],
        "violating_step": cex.violating_step,
        "duplicated_variable": cex.duplicated_variable,
    }


def spare_doc(
    verdict: SpareVerdict,
    falsified: Optional[SparenessCounterexample],
    ran_falsifier: bool,
    depth: int,
    arg_depth: int,
) -> dict:
    doc: dict = {
        "format": FORMAT,
        "kind": "spare",
        "verdict": verdict.value,
        "falsifier": None,
    }
    if ran_falsifier:
        doc["falsifier"] = {
            "depth": depth,
            "arg_depth": arg_depth,
            "found": falsified is not None,
            "counterexample": counterexample_doc(falsified) if falsified else None,
        }
    return doc
