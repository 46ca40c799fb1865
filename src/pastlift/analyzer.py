"""The theorem engine: evaluates syntactic preconditions and reports which
strategy-equivalence criteria fire, with machine-checkable evidence and the
transitive closure of the licensed implications.

The closure is one search (``_closure``) with one tie rule, asked only for
the arrows a report prints: its routes into full termination, and the
conclusions of its assertions. Each is searched alone, pruned to the atoms
that reach a wanted target; the whole closure is built only when it is
read, as ``analyze --json --closure`` does.

The registry indexes the criteria by the numbers used throughout the tool's
reports (Thm 1-5 for the non-probabilistic notions, Thm 6/8/9/14/20/24 and
Cor 11/15 for the probabilistic ones). An implication is only ever licensed
by an Applies verdict; Unknown preconditions block, they never upgrade.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence

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

# the probabilistic notions, strongest first: SAST ⇒ PAST ⇒ AST by definition
_PROB_NOTIONS = ("SAST", "PAST", "AST")


def _strategies(notion: str, par: bool) -> tuple[str, ...]:
    """The strategies that form an atom with ``notion`` under ∥ (``par``) or
    the ordinary relation, strongest first and ``w`` last: there is no weak
    SAST, and ∥ has no leftmost-innermost variant and no SN."""
    if notion not in _PROB_NOTIONS + ("SN",) or (par and notion == "SN"):
        return ()
    strategies = ("f", "i") if par else ("f", "i", "li")
    return strategies if notion == "SAST" else strategies + ("w",)


@dataclass(frozen=True)
class Prop:
    """A termination property atom: notion x strategy x relation x scope.

    notion:   AST | PAST | SAST for probabilistic systems, SN for trivial ones
    strategy: f (full) | i (innermost) | li (leftmost innermost) | w (weak)
    par:      True for the simultaneous rewrite relation
    scope:    all | basic (start terms)

    Only the strategies ``_strategies`` lists for the notion and relation form
    an atom; any other combination raises ValueError.
    """

    notion: str
    strategy: str
    par: bool = False
    scope: str = "all"

    def __post_init__(self) -> None:
        if self.strategy in _strategies(self.notion, self.par) and self.scope in ("all", "basic"):
            return
        if self.notion == "SAST" and self.strategy == "w":
            raise ValueError("weak SAST is not a defined notion")
        if self.par and self.strategy == "li":
            raise ValueError("no simultaneous variant of leftmost-innermost rewriting")
        if self.par and self.notion == "SN":
            raise ValueError("no simultaneous variant of the non-probabilistic notions")
        raise ValueError(f"no property atom {self.notion} x {self.strategy} x {self.scope}")

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
        strat, notion = _SN_STRATEGIES[m.group("sn")], "SN"
    else:
        strat, notion = m.group("strat") or "f", m.group("notion")
    return Prop(notion, strat, bool(m.group("par")), "basic" if m.group("basic") else "all")


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


PROB_THEOREMS: tuple[TheoremSpec, ...] = (
    TheoremSpec(
        "Thm 6",
        "innermost and full coincide for non-overlapping linear systems",
        ("non-overlapping", "left-linear", "right-linear"),
        _iff(Prop("AST", "i"), Prop("AST", "f"))
        + _iff(Prop("PAST", "i"), Prop("PAST", "f"))
        + _iff(Prop("SAST", "i"), Prop("SAST", "f")),
    ),
    TheoremSpec(
        "Thm 8",
        "weak and full coincide for non-overlapping linear non-erasing systems",
        ("non-overlapping", "left-linear", "right-linear", "non-erasing"),
        _iff(Prop("AST", "w"), Prop("AST", "f")) + _iff(Prop("PAST", "w"), Prop("PAST", "f")),
    ),
    TheoremSpec(
        "Thm 9",
        "leftmost-innermost and innermost coincide for non-overlapping systems",
        ("non-overlapping",),
        _iff(Prop("AST", "li"), Prop("AST", "i"))
        + _iff(Prop("PAST", "li"), Prop("PAST", "i"))
        + _iff(Prop("SAST", "li"), Prop("SAST", "i")),
    ),
    TheoremSpec(
        "Cor 11",
        "simultaneous-relation termination implies ordinary termination",
        (),
        (
            (Prop("AST", "f", par=True), Prop("AST", "f")),
            (Prop("AST", "i", par=True), Prop("AST", "i")),
            (Prop("PAST", "f", par=True), Prop("PAST", "f")),
            (Prop("PAST", "i", par=True), Prop("PAST", "i")),
        ),
    ),
    TheoremSpec(
        "Thm 14",
        "innermost simultaneous termination implies full termination for "
        "non-overlapping right-linear systems",
        ("non-overlapping", "right-linear"),
        (
            (Prop("AST", "i", par=True), Prop("AST", "f")),
            (Prop("PAST", "i", par=True), Prop("PAST", "f")),
            (Prop("SAST", "i", par=True), Prop("SAST", "f")),
        ),
    ),
    TheoremSpec(
        "Cor 15",
        "weak termination transfers to the simultaneous relation",
        (),
        (
            (Prop("AST", "w"), Prop("AST", "w", par=True)),
            (Prop("PAST", "w"), Prop("PAST", "w", par=True)),
        ),
    ),
    TheoremSpec(
        "Thm 20",
        "innermost and full coincide on basic terms for orthogonal spare systems",
        ("non-overlapping", "left-linear", "spare"),
        _iff(Prop("AST", "i", scope="basic"), Prop("AST", "f", scope="basic"))
        + _iff(Prop("PAST", "i", scope="basic"), Prop("PAST", "f", scope="basic"))
        + _iff(Prop("SAST", "i", scope="basic"), Prop("SAST", "f", scope="basic")),
        basic_only=True,
    ),
    TheoremSpec(
        "Thm 24",
        "innermost simultaneous termination implies full termination on basic "
        "terms for non-overlapping spare systems",
        ("non-overlapping", "spare"),
        (
            (Prop("AST", "i", par=True, scope="basic"), Prop("AST", "f", scope="basic")),
            (Prop("PAST", "i", par=True, scope="basic"), Prop("PAST", "f", scope="basic")),
            (Prop("SAST", "i", par=True, scope="basic"), Prop("SAST", "f", scope="basic")),
        ),
        basic_only=True,
    ),
)

NONPROB_THEOREMS: tuple[TheoremSpec, ...] = (
    TheoremSpec(
        "Thm 1",
        "termination and innermost termination coincide for orthogonal systems",
        ("non-overlapping", "left-linear"),
        _iff(Prop("SN", "i"), Prop("SN", "f")),
    ),
    TheoremSpec(
        "Thm 2",
        "termination and innermost termination coincide for non-overlapping systems",
        ("non-overlapping",),
        _iff(Prop("SN", "i"), Prop("SN", "f")),
    ),
    TheoremSpec(
        "Thm 3",
        "termination and innermost termination coincide for locally confluent "
        "overlay systems",
        ("overlay", "locally-confluent"),
        _iff(Prop("SN", "i"), Prop("SN", "f")),
    ),
    TheoremSpec(
        "Thm 4",
        "termination and weak normalization coincide for non-overlapping "
        "non-erasing systems",
        ("non-overlapping", "non-erasing"),
        _iff(Prop("SN", "w"), Prop("SN", "f")),
    ),
    TheoremSpec(
        "Thm 5",
        "innermost and leftmost-innermost termination always coincide",
        (),
        _iff(Prop("SN", "i"), Prop("SN", "li")),
    ),
)


@functools.cache
def _structural_arrows(
    notions: tuple[str, ...], scopes: tuple[str, ...]
) -> tuple[tuple[Prop, Prop, str], ...]:
    """Implications that hold by definition, each once, between the atoms of
    ``_strategies``, under ∥ as under the ordinary relation: strategy
    restriction (f ⇒ i ⇒ li), any strategy ⇒ w, and SAST ⇒ PAST ⇒ AST, all
    labelled "definition", and all terms ⇒ basic terms, labelled
    "restriction". Built once per (notions, scopes)."""
    arrows: list[tuple[Prop, Prop, str]] = []
    chain = [n for n in _PROB_NOTIONS if n in notions]
    for scope, par in itertools.product(scopes, (False, True)):
        pairs = []
        for notion in notions:
            strategies = _strategies(notion, par)
            strict = [s for s in strategies if s != "w"]
            pairs += [(notion, hi, notion, lo) for hi, lo in zip(strict, strict[1:])]
            pairs += [(notion, s, notion, "w") for s in strict if "w" in strategies]
        for strong, weak in zip(chain, chain[1:]):
            pairs += [(strong, s, weak, s) for s in _strategies(strong, par)]
        arrows += [
            (Prop(a, s, par, scope), Prop(b, t, par, scope), "definition") for a, s, b, t in pairs
        ]
    if "basic" in scopes:
        arrows += [
            (Prop(n, s, par, "all"), Prop(n, s, par, "basic"), "restriction")
            for n in notions for par in (False, True) for s in _strategies(n, par)
        ]
    return tuple(arrows)


# the labels of arrows that hold by definition, which a chain avoids
_DEFINITIONAL = ("definition", "restriction")


@dataclass
class ClosureArrow:
    source: Prop
    target: Prop
    chain: tuple[str, ...]


@dataclass(frozen=True)
class Wanted:
    """The arrows a closure search is asked for: those from an atom that
    ``source`` accepts into one that ``target`` accepts. None accepts every
    atom."""

    source: Optional[Callable[[Prop], bool]] = None
    target: Optional[Callable[[Prop], bool]] = None


EVERY = Wanted()


def _full(p: Prop) -> bool:
    return p.strategy == "f" and not p.par


# the arrows into full termination (strategy f, not w.r.t. ∥) from any other atom
ROUTES = Wanted(lambda p: not _full(p), _full)


@dataclass
class AnalysisReport:
    """One engine's report. ``arrows`` are the definitional and licensed
    implications the searches run over; ``routes`` and ``closure`` are
    searched on first read, so a report whose whole closure nobody reads
    never builds it."""

    kind: str  # "prob" or "nonprob"
    scope: str
    properties: PropertyReport
    spare: Optional[SpareVerdict]
    spare_evidence: Optional[str]
    verdicts: list[Verdict]
    arrows: list[tuple[Prop, Prop, str]]
    assertions: list[Prop]
    conclusions: list[ClosureArrow]
    notes: list[str] = field(default_factory=list)

    @functools.cached_property
    def routes(self) -> list[ClosureArrow]:
        """The closure arrows into full termination (strategy ``f``, not
        w.r.t. ∥) from any other atom, in closure order: the routes the
        text report prints and the JSON report lists."""
        return _closure(self.arrows, ROUTES)

    @functools.cached_property
    def closure(self) -> list[ClosureArrow]:
        """Every arrow of the closure, which only ``analyze --json
        --closure`` prints."""
        return _closure(self.arrows)

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


def _reaching(
    targets: Sequence[int], adjacency: list[list[tuple[int, int, str]]]
) -> list[int]:
    """Bit k of entry a is set when atom a reaches ``targets[k]`` (itself
    included), by one backward walk per target."""
    preds: list[list[int]] = [[] for _ in adjacency]
    for a, out in enumerate(adjacency):
        for b, _, _ in out:
            preds[b].append(a)
    reach = [0] * len(adjacency)
    for k, t in enumerate(targets):
        bit = 1 << k
        reach[t] |= bit
        stack = [t]
        while stack:
            for a in preds[stack.pop()]:
                if not reach[a] & bit:
                    reach[a] |= bit
                    stack.append(a)
    return reach


def _closure(
    arrows: Sequence[tuple[Prop, Prop, str]], wanted: Wanted = EVERY
) -> list[ClosureArrow]:
    """Reachability between the atoms of the arrows that ``wanted`` selects,
    with the cheapest labelled chain per pair, preferring chains that lean on
    theorems over ones padded with definitional hops.

    A chain's cost is (definitional hops, hops), compared in that order. The
    search runs over integer atom indices with the pair packed into one int;
    ties between equal costs go to the earliest push, so each chain is the
    one a search over the arrows in the given order finds first. The arrows
    come out sorted by (source token, target token).

    A selection of targets prunes the search and stops it early without
    changing a chain. An atom that reaches no wanted target has no arrow
    into one that does, so dropping it removes only pushes whose counters
    sit between kept ones, and every tie is broken as before. A popped
    atom's chain is final, so a source's search stops once every wanted
    target it reaches has been popped."""
    # the atoms in order of first appearance; equal tokens are equal atoms
    by_name = {p.token(): p for a, b, _ in arrows for p in (a, b)}
    index = {token: i for i, token in enumerate(by_name)}
    atoms = list(by_name.values())
    n = len(atoms)
    # a cheapest chain repeats no atom, so it has fewer than n hops and a
    # cost compared has at most n: definitional * (n + 1) + hops keeps the
    # order of (definitional, hops)
    width = n + 1
    adjacency: list[list[tuple[int, int, str]]] = [[] for _ in range(n)]
    for a, b, label in arrows:
        step = width + 1 if label in _DEFINITIONAL else 1
        adjacency[index[a.token()]].append((index[b.token()], step, label))
    by_token = sorted(range(n), key=lambda i: atoms[i].token())
    sources = by_token if wanted.source is None else [
        s for s in by_token if wanted.source(atoms[s])
    ]
    # bit k of bits[t] stands for targets[k], and reach[a] holds the bits of
    # the wanted targets a reaches
    bits = [0] * n
    if wanted.target is None:
        targets = by_token
        # every atom is wanted: none is dropped and no search stops early
        reach = [-1] * n
    else:
        targets = [t for t in by_token if wanted.target(atoms[t])]
        reach = _reaching(targets, adjacency)
        for k, t in enumerate(targets):
            bits[t] = 1 << k
        adjacency = [[e for e in out if reach[e[0]]] for out in adjacency]

    out: list[ClosureArrow] = []
    for s in sources:
        remaining = reach[s]
        if not remaining:
            continue
        best: list[Optional[int]] = [None] * n
        chains: list[tuple[str, ...]] = [()] * n
        best[s] = 0
        counter = 0
        heap = [(0, 0, s)]
        while heap:
            cost, _, node = heappop(heap)
            if best[node] < cost:
                continue
            remaining &= ~bits[node]
            if not remaining:
                break
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
            for t in targets
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
) -> tuple[list[Verdict], list[tuple[Prop, Prop, str]], list[ClosureArrow]]:
    """The verdicts, the arrows the closure runs over (the definitional
    ones, then the licensed ones in theorem order) and the conclusions."""
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
    arrows = [*_structural_arrows(tuple(notions), scopes), *licensed]
    return verdicts, arrows, _conclusions(arrows, assertions)


def _conclusions(
    arrows: Sequence[tuple[Prop, Prop, str]], assertions: Sequence[Prop]
) -> list[ClosureArrow]:
    """The closure arrows from the asserted atoms into every atom, in
    closure order, each once per time its source is asserted."""
    if not assertions:
        return []
    repeats = Counter(p.token() for p in assertions)
    found = _closure(arrows, Wanted(source=lambda p: p.token() in repeats))
    return [c for c in found for _ in range(repeats[c.source.token()])]


def analyze(
    system: Ptrs,
    scope: str = "all",
    assertions: Sequence[Prop] = (),
    join_depth: int = 10,
    *,
    properties: Optional[PropertyReport] = None,
    spare: Optional[SpareVerdict] = None,
) -> AnalysisReport:
    """Evaluate the probabilistic strategy-equivalence criteria.

    At basic scope the spareness-based criteria participate; when the sound
    spareness check is inconclusive there, the bounded falsifier is run over
    default basic start terms and its outcome attached as advisory evidence.

    ``properties`` and ``spare``, when given, are the system's
    ``property_report`` at ``join_depth`` and its ``prove_spare`` verdict,
    as another engine run on the same system already computed them.
    """
    if scope not in ("all", "basic"):
        raise ValueError("scope must be 'all' or 'basic'")
    report = property_report(system, join_depth) if properties is None else properties
    if spare is None:
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

    verdicts, arrows, conclusions = _run_engine(
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
        arrows=arrows,
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
    verdicts, arrows, conclusions = _run_engine(
        system, NONPROB_THEOREMS, ("SN",), "all", report, spare, assertions
    )
    return AnalysisReport(
        kind="nonprob",
        scope="all",
        properties=report,
        spare=spare,
        spare_evidence=None,
        verdicts=verdicts,
        arrows=arrows,
        assertions=list(assertions),
        conclusions=conclusions,
        notes=[],
    )
