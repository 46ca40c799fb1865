"""The theorem engine: evaluates syntactic preconditions and reports which
strategy-equivalence criteria fire, with machine-checkable evidence and the
transitive closure of the licensed implications.

The registry indexes the criteria by the numbers used throughout the tool's
reports (Thm 1-5 for the non-probabilistic notions, Thm 6/8/9/14/20/24 and
Cor 11/15 for the probabilistic ones). An implication is only ever licensed
by an Applies verdict; Unknown preconditions block, they never upgrade.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Optional, Sequence

from .props import (
    PropertyReport,
    WcrVerdict,
    erasure_witness,
    left_linearity_witness,
    property_report,
    right_linearity_witness,
)
from .spareness import (
    SpareVerdict,
    default_basic_starts,
    falsify_spare,
    prove_spare,
)
from .system import Ptrs
from .terms import term_to_str

# the bounded falsifier that ``analyze`` runs at basic scope when the sound
# spareness check is inconclusive: search depth, start-term argument depth,
# and the number of start terms
FALSIFY_DEPTH = 6
FALSIFY_ARG_DEPTH = 3
FALSIFY_START_CAP = 500


# the name of each strategy's non-probabilistic notion
_SN_NAMES = {"f": "SN", "i": "iSN", "li": "liSN", "w": "WN"}


@dataclass(frozen=True)
class Prop:
    """A termination property atom: notion x strategy x relation x scope.

    notion:   AST | PAST | SAST for probabilistic systems, SN for trivial ones
    strategy: f (full) | i (innermost) | li (leftmost innermost) | w (weak)
    par:      True for the simultaneous rewrite relation
    scope:    all | basic (start terms)
    """

    notion: str
    strategy: str
    par: bool = False
    scope: str = "all"

    def display(self) -> str:
        name = self._name
        if self.par:
            name += " w.r.t. ∥"
        if self.scope == "basic":
            name += " on basic terms"
        return name

    def token(self) -> str:
        return self._token

    @property
    def _name(self) -> str:
        if self.notion == "SN":
            return _SN_NAMES[self.strategy]
        return f"{self.strategy}{self.notion}"

    @functools.cached_property
    def _token(self) -> str:
        base = self._name
        if self.par:
            base += "-par"
        if self.scope == "basic":
            base += "@basic"
        return base


_SN_STRATEGIES = {name: strategy for strategy, name in _SN_NAMES.items()}
_TOKEN_RE = re.compile(
    rf"^(?:(?P<strat>f|i|li|w)?(?P<notion>AST|PAST|SAST)|(?P<sn>{'|'.join(_SN_STRATEGIES)}))"
    r"(?P<par>-par)?(?P<basic>@basic)?$"
)


def parse_prop_token(token: str) -> Prop:
    m = _TOKEN_RE.match(token.strip())
    if not m:
        raise ValueError(f"cannot parse property token {token!r}")
    if m.group("sn"):
        strat = _SN_STRATEGIES[m.group("sn")]
        notion = "SN"
    else:
        strat = m.group("strat") or "f"
        notion = m.group("notion")
    par = bool(m.group("par"))
    scope = "basic" if m.group("basic") else "all"
    prop = Prop(notion, strat, par, scope)
    if notion == "SAST" and strat == "w":
        raise ValueError("weak SAST is not a defined notion")
    if par and strat == "li":
        raise ValueError("no simultaneous variant of leftmost-innermost rewriting")
    if par and notion == "SN":
        raise ValueError("no simultaneous variant of the non-probabilistic notions")
    return prop


@dataclass
class Precondition:
    name: str
    value: Optional[bool]  # None = unknown
    witness: Optional[str] = None


@dataclass
class Verdict:
    theorem_id: str
    title: str
    applicability: str  # Applies | Blocked | UnknownPrecondition
    preconditions: list[Precondition]
    implications: list[tuple[Prop, Prop]]  # licensed only when Applies

    def describe(self) -> str:
        bits = ", ".join(
            f"{p.name}={'?' if p.value is None else ('yes' if p.value else 'no')}"
            for p in self.preconditions
        )
        head = f"{self.theorem_id} {self.applicability}"
        if bits:
            head += f" [{bits}]"
        if self.applicability == "Applies" and self.implications:
            arrows = "; ".join(
                f"{a.display()} ⇒ {b.display()}" for a, b in self.implications
            )
            head += f": {arrows}"
        else:
            blockers = [
                f"{p.name} fails" + (f" ({p.witness})" if p.witness else "")
                for p in self.preconditions
                if p.value is False
            ]
            unknowns = [f"{p.name} unknown" for p in self.preconditions if p.value is None]
            if blockers or unknowns:
                head += ": " + "; ".join(blockers + unknowns)
        return head


@dataclass(frozen=True)
class TheoremSpec:
    theorem_id: str
    title: str
    preconditions: tuple[str, ...]
    implications: tuple[tuple[Prop, Prop], ...]
    basic_only: bool = False


def _iff(a: Prop, b: Prop) -> tuple[tuple[Prop, Prop], ...]:
    return ((a, b), (b, a))


def _p(notion: str, strat: str, par: bool = False, scope: str = "all") -> Prop:
    return Prop(notion, strat, par, scope)


PROB_THEOREMS: tuple[TheoremSpec, ...] = (
    TheoremSpec(
        "Thm 6",
        "innermost and full coincide for non-overlapping linear systems",
        ("non-overlapping", "left-linear", "right-linear"),
        _iff(_p("AST", "i"), _p("AST", "f"))
        + _iff(_p("PAST", "i"), _p("PAST", "f"))
        + _iff(_p("SAST", "i"), _p("SAST", "f")),
    ),
    TheoremSpec(
        "Thm 8",
        "weak and full coincide for non-overlapping linear non-erasing systems",
        ("non-overlapping", "left-linear", "right-linear", "non-erasing"),
        _iff(_p("AST", "w"), _p("AST", "f")) + _iff(_p("PAST", "w"), _p("PAST", "f")),
    ),
    TheoremSpec(
        "Thm 9",
        "leftmost-innermost and innermost coincide for non-overlapping systems",
        ("non-overlapping",),
        _iff(_p("AST", "li"), _p("AST", "i"))
        + _iff(_p("PAST", "li"), _p("PAST", "i"))
        + _iff(_p("SAST", "li"), _p("SAST", "i")),
    ),
    TheoremSpec(
        "Cor 11",
        "simultaneous-relation termination implies ordinary termination",
        (),
        (
            (_p("AST", "f", par=True), _p("AST", "f")),
            (_p("AST", "i", par=True), _p("AST", "i")),
            (_p("PAST", "f", par=True), _p("PAST", "f")),
            (_p("PAST", "i", par=True), _p("PAST", "i")),
        ),
    ),
    TheoremSpec(
        "Thm 14",
        "innermost simultaneous termination implies full termination for "
        "non-overlapping right-linear systems",
        ("non-overlapping", "right-linear"),
        (
            (_p("AST", "i", par=True), _p("AST", "f")),
            (_p("PAST", "i", par=True), _p("PAST", "f")),
            (_p("SAST", "i", par=True), _p("SAST", "f")),
        ),
    ),
    TheoremSpec(
        "Cor 15",
        "weak termination transfers to the simultaneous relation",
        (),
        (
            (_p("AST", "w"), _p("AST", "w", par=True)),
            (_p("PAST", "w"), _p("PAST", "w", par=True)),
        ),
    ),
    TheoremSpec(
        "Thm 20",
        "innermost and full coincide on basic terms for orthogonal spare systems",
        ("non-overlapping", "left-linear", "spare"),
        _iff(_p("AST", "i", scope="basic"), _p("AST", "f", scope="basic"))
        + _iff(_p("PAST", "i", scope="basic"), _p("PAST", "f", scope="basic"))
        + _iff(_p("SAST", "i", scope="basic"), _p("SAST", "f", scope="basic")),
        basic_only=True,
    ),
    TheoremSpec(
        "Thm 24",
        "innermost simultaneous termination implies full termination on basic "
        "terms for non-overlapping spare systems",
        ("non-overlapping", "spare"),
        (
            (_p("AST", "i", par=True, scope="basic"), _p("AST", "f", scope="basic")),
            (_p("PAST", "i", par=True, scope="basic"), _p("PAST", "f", scope="basic")),
            (_p("SAST", "i", par=True, scope="basic"), _p("SAST", "f", scope="basic")),
        ),
        basic_only=True,
    ),
)

NONPROB_THEOREMS: tuple[TheoremSpec, ...] = (
    TheoremSpec(
        "Thm 1",
        "termination and innermost termination coincide for orthogonal systems",
        ("non-overlapping", "left-linear"),
        _iff(_p("SN", "i"), _p("SN", "f")),
    ),
    TheoremSpec(
        "Thm 2",
        "termination and innermost termination coincide for non-overlapping systems",
        ("non-overlapping",),
        _iff(_p("SN", "i"), _p("SN", "f")),
    ),
    TheoremSpec(
        "Thm 3",
        "termination and innermost termination coincide for locally confluent "
        "overlay systems",
        ("overlay", "locally-confluent"),
        _iff(_p("SN", "i"), _p("SN", "f")),
    ),
    TheoremSpec(
        "Thm 4",
        "termination and weak normalization coincide for non-overlapping "
        "non-erasing systems",
        ("non-overlapping", "non-erasing"),
        _iff(_p("SN", "w"), _p("SN", "f")),
    ),
    TheoremSpec(
        "Thm 5",
        "innermost and leftmost-innermost termination always coincide",
        (),
        _iff(_p("SN", "i"), _p("SN", "li")),
    ),
)


@functools.cache
def _structural_arrows(
    notions: tuple[str, ...], scopes: tuple[str, ...]
) -> tuple[tuple[Prop, Prop, str], ...]:
    """Implications that hold by definition: restricting the set of rewrite
    sequences (full > innermost > leftmost-innermost), existential weakening
    (any strategy implies weak), notion weakening (SAST > PAST > AST), and
    scope restriction (all terms > basic terms). Built once per (notions,
    scopes)."""
    arrows: list[tuple[Prop, Prop, str]] = []

    def add(a: Prop, b: Prop) -> None:
        arrows.append((a, b, "definition"))

    for scope in scopes:
        for notion in notions:
            for par in (False, True):
                if par and notion == "SN":
                    continue
                strategies = ["f", "i"] if par else ["f", "i", "li"]
                for hi, lo in zip(strategies, strategies[1:]):
                    add(_p(notion, hi, par, scope), _p(notion, lo, par, scope))
                if notion != "SAST":
                    for s in strategies:
                        add(_p(notion, s, par, scope), _p(notion, "w", par, scope))
            if notion != "SN":
                pairs = [("SAST", "PAST"), ("PAST", "AST")]
                for strong, weak in pairs:
                    for par in (False, True):
                        strategies = ["f", "i"] if par else ["f", "i", "li", "w"]
                        for s in strategies:
                            if s == "w" and strong == "SAST":
                                continue
                            add(_p(strong, s, par, scope), _p(weak, s, par, scope))
    if "basic" in scopes:
        for notion in notions:
            for par in (False, True):
                if par and notion == "SN":
                    continue
                strategies = ["f", "i"] if par else ["f", "i", "li", "w"]
                for s in strategies:
                    if s == "w" and notion == "SAST":
                        continue
                    arrows.append(
                        (_p(notion, s, par, "all"), _p(notion, s, par, "basic"), "restriction")
                    )
    return tuple(arrows)


# the labels of arrows that hold by definition, which a chain avoids
_DEFINITIONAL = ("definition", "restriction")


@dataclass
class ClosureArrow:
    source: Prop
    target: Prop
    chain: tuple[str, ...]


@dataclass
class AnalysisReport:
    kind: str  # "prob" or "nonprob"
    scope: str
    properties: PropertyReport
    spare: Optional[SpareVerdict]
    spare_evidence: Optional[str]
    verdicts: list[Verdict]
    closure: list[ClosureArrow]
    assertions: list[Prop]
    conclusions: list[ClosureArrow]
    notes: list[str] = field(default_factory=list)

    @property
    def routes(self) -> list[ClosureArrow]:
        """The closure arrows into full termination (strategy ``f``, not
        w.r.t. ∥) from any other atom, in closure order: the routes the
        text report prints and the JSON report lists."""
        return [
            c for c in self.closure
            if c.target.strategy == "f" and not c.target.par
            and (c.source.strategy != "f" or c.source.par)
        ]

    def verdict(self, theorem_id: str) -> Verdict:
        for v in self.verdicts:
            if v.theorem_id == theorem_id:
                return v
        raise KeyError(theorem_id)


def _evidence(system: Ptrs, report: PropertyReport, spare: Optional[SpareVerdict]):
    ev: dict[str, Precondition] = {}
    overlaps = report.overlaps
    ev["non-overlapping"] = Precondition(
        "non-overlapping",
        report.non_overlapping,
        None if report.non_overlapping else overlaps[0].describe(system),
    )
    llw = left_linearity_witness(system)
    ev["left-linear"] = Precondition(
        "left-linear", report.left_linear, None if llw is None else llw[1]
    )
    rlw = right_linearity_witness(system)
    ev["right-linear"] = Precondition(
        "right-linear",
        report.right_linear,
        None if rlw is None else f"{rlw[2]} duplicated in {rlw[1]}",
    )
    new = erasure_witness(system)
    ev["non-erasing"] = Precondition(
        "non-erasing",
        report.non_erasing,
        None if new is None else f"{new[2]} erased in branch {new[1]}",
    )
    ev["overlay"] = Precondition(
        "overlay",
        report.overlay,
        None
        if report.overlay
        else next(o.describe(system) for o in overlaps if o.position != ()),
    )
    if report.wcr is WcrVerdict.YES:
        ev["locally-confluent"] = Precondition("locally-confluent", True)
    elif report.wcr is WcrVerdict.NO:
        pair = report.wcr_counterexample
        witness = (
            f"critical pair ({term_to_str(pair[0])}, {term_to_str(pair[1])}) "
            f"is two distinct normal forms"
            if pair
            else None
        )
        ev["locally-confluent"] = Precondition("locally-confluent", False, witness)
    else:
        ev["locally-confluent"] = Precondition("locally-confluent", None)
    if spare is not None:
        ev["spare"] = Precondition(
            "spare", True if spare is SpareVerdict.SPARE else None
        )
    return ev


def _closure(arrows: Sequence[tuple[Prop, Prop, str]]) -> list[ClosureArrow]:
    """Reachability from every atom of the arrows, with the cheapest
    labelled chain per pair, preferring chains that lean on theorems over
    ones padded with definitional hops.

    A chain's cost is (definitional hops, hops), compared in that order. The
    search runs over integer atom indices with the pair packed into one int;
    ties between equal costs go to the earliest push, so each chain is the
    one a search over the arrows in the given order finds first. The arrows
    come out sorted by (source token, target token)."""
    index: dict[str, int] = {}
    atoms: list[Prop] = []
    adjacency: list[list[tuple[int, int, str]]] = []

    def at(p: Prop) -> int:
        token = p.token()
        i = index.get(token)
        if i is None:
            i = index[token] = len(atoms)
            atoms.append(p)
            adjacency.append([])
        return i

    edges = [(at(a), at(b), label) for a, b, label in arrows]
    n = len(atoms)
    # a cheapest chain repeats no atom, so it has fewer than n hops and a
    # cost compared has at most n: definitional * (n + 1) + hops keeps the
    # order of (definitional, hops)
    width = n + 1
    for a, b, label in edges:
        adjacency[a].append((b, width + 1 if label in _DEFINITIONAL else 1, label))
    by_token = sorted(range(n), key=lambda i: atoms[i].token())

    out: list[ClosureArrow] = []
    for s in by_token:
        best: list[Optional[int]] = [None] * n
        chains: list[tuple[str, ...]] = [()] * n
        best[s] = 0
        counter = 0
        heap = [(0, 0, s)]
        while heap:
            cost, _, node = heappop(heap)
            if best[node] < cost:
                continue
            chain = chains[node]
            for succ, step, label in adjacency[node]:
                new_cost = cost + step
                old = best[succ]
                if old is None or new_cost < old:
                    best[succ] = new_cost
                    chains[succ] = chain + (label,)
                    counter += 1
                    heappush(heap, (new_cost, counter, succ))
        out.extend(
            ClosureArrow(atoms[s], atoms[t], chains[t])
            for t in by_token
            if t != s and best[t] is not None
        )
    return out


def _run_engine(
    system: Ptrs,
    theorems: Sequence[TheoremSpec],
    notions: Sequence[str],
    scope: str,
    report: PropertyReport,
    spare: Optional[SpareVerdict],
    assertions: Sequence[Prop],
) -> tuple[list[Verdict], list[ClosureArrow], list[ClosureArrow]]:
    evidence = _evidence(system, report, spare)
    verdicts: list[Verdict] = []
    licensed: list[tuple[Prop, Prop, str]] = []
    for spec in theorems:
        if spec.basic_only and scope != "basic":
            continue
        pres = [evidence[name] for name in spec.preconditions]
        if any(p.value is False for p in pres):
            applicability = "Blocked"
        elif any(p.value is None for p in pres):
            applicability = "UnknownPrecondition"
        else:
            applicability = "Applies"
        implications = list(spec.implications) if applicability == "Applies" else []
        verdicts.append(
            Verdict(spec.theorem_id, spec.title, applicability, pres, implications)
        )
        for a, b in implications:
            licensed.append((a, b, spec.theorem_id))

    scopes = ("all", "basic") if scope == "basic" else ("all",)
    closure = _closure([*_structural_arrows(tuple(notions), scopes), *licensed])
    return verdicts, closure, _conclusions(closure, assertions)


def _conclusions(closure: list[ClosureArrow], assertions: Sequence[Prop]) -> list[ClosureArrow]:
    """The closure arrows from the asserted atoms, in closure order, each
    once per time its source is asserted."""
    if not assertions:
        return []
    repeats = Counter(p.token() for p in assertions)
    return [c for c in closure for _ in range(repeats[c.source.token()])]


def analyze(
    system: Ptrs,
    scope: str = "all",
    assertions: Sequence[Prop] = (),
    join_depth: int = 10,
) -> AnalysisReport:
    """Evaluate the probabilistic strategy-equivalence criteria.

    At basic scope the spareness-based criteria participate; when the sound
    spareness check is inconclusive there, the bounded falsifier is run over
    default basic start terms and its outcome attached as advisory evidence.
    """
    if scope not in ("all", "basic"):
        raise ValueError("scope must be 'all' or 'basic'")
    report = property_report(system, join_depth)
    spare = prove_spare(system)
    spare_evidence = None
    if scope == "basic" and spare is SpareVerdict.UNKNOWN:
        cex = falsify_spare(
            system,
            FALSIFY_DEPTH,
            default_basic_starts(system, FALSIFY_ARG_DEPTH, cap=FALSIFY_START_CAP),
        )
        if cex is None:
            spare_evidence = (
                f"no non-spare step found up to depth {FALSIFY_DEPTH} from basic "
                f"start terms of argument depth <= {FALSIFY_ARG_DEPTH}"
            )
        else:
            spare_evidence = "reachable non-spare step:\n" + cex.describe()

    verdicts, closure, conclusions = _run_engine(
        system, PROB_THEOREMS, ("AST", "PAST", "SAST"), scope, report, spare, assertions
    )
    notes = []
    if report.overlay and not report.non_overlapping:
        notes.append(
            "all overlaps are at the root; whether local confluence plus the "
            "overlay shape licenses an innermost-to-full transfer for "
            "probabilistic systems is an open problem, so no such implication "
            "is emitted"
        )
    notes.append(
        "full-start termination coincides with basic-start termination of the "
        "system extended with its generator rules (transform --generators)"
    )
    return AnalysisReport(
        kind="prob",
        scope=scope,
        properties=report,
        spare=spare,
        spare_evidence=spare_evidence,
        verdicts=verdicts,
        closure=closure,
        assertions=list(assertions),
        conclusions=conclusions,
        notes=notes,
    )


def analyze_nonprob(
    system: Ptrs,
    assertions: Sequence[Prop] = (),
    join_depth: int = 10,
) -> AnalysisReport:
    """Evaluate the non-probabilistic criteria (SN/iSN/liSN/WN). Requires a
    trivial-probability system; local confluence comes from the bounded check
    and an Unknown verdict blocks the overlay criterion rather than faking it.
    """
    if not system.is_trivial:
        raise ValueError("analyze_nonprob requires a trivial-probability system")
    report = property_report(system, join_depth)
    spare = prove_spare(system)
    verdicts, closure, conclusions = _run_engine(
        system, NONPROB_THEOREMS, ("SN",), "all", report, spare, assertions
    )
    return AnalysisReport(
        kind="nonprob",
        scope="all",
        properties=report,
        spare=spare,
        spare_evidence=None,
        verdicts=verdicts,
        closure=closure,
        assertions=list(assertions),
        conclusions=conclusions,
        notes=[],
    )
