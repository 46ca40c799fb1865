import random

import pytest

from conftest import CORPUS_STARTS, load_system, reference_closure
from pastlift import analyzer
from pastlift.analyzer import (
    EVERY,
    FALSIFY_ARG_DEPTH,
    FALSIFY_DEPTH,
    FALSIFY_START_CAP,
    NONPROB_THEOREMS,
    PROB_THEOREMS,
    ROUTES,
    Prop,
    Wanted,
    _closure,
    _conclusions,
    _structural_arrows,
    analyze,
    analyze_nonprob,
    parse_prop_token,
)
from pastlift.fmt import parse
from pastlift.spareness import default_basic_starts, falsify_spare
from pastlift.system import MultiDistribution, ProbRule, Ptrs
from pastlift.terms import Symbol, app, var


def arrows_of(report):
    return {(c.source.token(), c.target.token()) for c in report.closure}


def test_prop_tokens():
    assert parse_prop_token("iAST") == Prop("AST", "i")
    assert parse_prop_token("iAST-par") == Prop("AST", "i", par=True)
    assert parse_prop_token("wPAST") == Prop("PAST", "w")
    assert parse_prop_token("AST") == Prop("AST", "f")
    assert parse_prop_token("liSN") == Prop("SN", "li")
    assert parse_prop_token("iSAST@basic") == Prop("SAST", "i", scope="basic")
    for bad in ("wSAST", "liAST-par", "SN-par", "nonsense"):
        with pytest.raises(ValueError):
            parse_prop_token(bad)


def test_prop_refuses_what_is_no_atom():
    """Checked in this order: weak SAST, then li under ∥, then SN under ∥."""
    weak_sast = "weak SAST is not a defined notion"
    par_li = "no simultaneous variant of leftmost-innermost rewriting"
    par_sn = "no simultaneous variant of the non-probabilistic notions"
    for args, message in (
        (("SAST", "w"), weak_sast),
        (("AST", "li", True), par_li),
        (("SN", "f", True), par_sn),
        (("SAST", "w", True), weak_sast),
        (("SN", "li", True), par_li),
    ):
        with pytest.raises(ValueError, match=message):
            Prop(*args)
    for args in (("AST", "x"), ("XAST", "f"), ("AST", "f", False, "some")):
        with pytest.raises(ValueError):
            Prop(*args)


def test_structural_arrows_are_the_definitional_order():
    """Reachability over the structural arrows is, atom for atom, the order
    the definitions give, and no arrow is listed twice."""
    atoms = set()
    for strategy in ("", "f", "i", "li", "w"):
        for name in [strategy + n for n in ("AST", "PAST", "SAST")] + ["SN", "iSN", "liSN", "WN"]:
            for par in ("", "-par"):
                for scope in ("", "@basic"):
                    try:
                        atoms.add(parse_prop_token(name + par + scope))
                    except ValueError:
                        pass
    # per scope: AST, PAST, SAST plainly (4 + 4 + 3) and under ∥ (3 + 3 + 2), and SN
    assert len(atoms) == 2 * (4 + 4 + 3 + 3 + 3 + 2 + 4)
    strength = {"SAST": 2, "PAST": 1, "AST": 0}

    def follows(a, b):
        if a == b or a.par != b.par or (a.scope, b.scope) == ("basic", "all"):
            return False
        if (a.notion == "SN") != (b.notion == "SN"):
            return False
        if a.notion != "SN" and strength[a.notion] < strength[b.notion]:
            return False
        order = ("f", "i", "li")
        return b.strategy == "w" or (
            a.strategy in order and order.index(a.strategy) <= order.index(b.strategy)
        )

    for notions in (("AST", "PAST", "SAST"), ("SN",)):
        for scopes in (("all",), ("all", "basic")):
            arrows = _structural_arrows(notions, scopes)
            assert len(set(arrows)) == len(arrows), (notions, scopes)
            for a, b, label in arrows:
                assert label == ("restriction" if a.scope != b.scope else "definition")
            these = {p for p in atoms if p.notion in notions and p.scope in scopes}
            successors = {}
            for a, b, _ in arrows:
                successors.setdefault(a, set()).add(b)
            reached = set()
            for a in these:
                seen, stack = set(), [a]
                while stack:
                    for b in successors.get(stack.pop(), ()):
                        if b not in seen:
                            seen.add(b)
                            stack.append(b)
                reached |= {(a, b) for b in seen if b != a}
            expected = {(a, b) for a in these for b in these if follows(a, b)}
            assert reached == expected, (notions, scopes, expected ^ reached)


def test_srw_all_three_theorems_apply():
    report = analyze(load_system("srw"))
    for tid in ("Thm 6", "Thm 8", "Thm 9"):
        assert report.verdict(tid).applicability == "Applies", tid
    # every verdict carries its evidence
    for v in report.verdicts:
        assert all(p.value is not False for p in v.preconditions) or v.applicability == "Blocked"


def test_s2_theorem_verdicts():
    report = analyze(load_system("s2"))
    v6 = report.verdict("Thm 6")
    assert v6.applicability == "Blocked"
    blockers = [p for p in v6.preconditions if p.value is False]
    assert [p.name for p in blockers] == ["left-linear"]
    assert blockers[0].witness == "f(x,x)"
    v14 = report.verdict("Thm 14")
    assert v14.applicability == "Applies"
    assert (Prop("AST", "i", par=True), Prop("AST", "f")) in v14.implications


def test_s7_basic_scope_theorem_20():
    report = analyze(load_system("s7"), scope="basic")
    v20 = report.verdict("Thm 20")
    assert v20.applicability == "Applies"
    assert (
        Prop("AST", "i", scope="basic"),
        Prop("AST", "f", scope="basic"),
    ) in v20.implications
    # Thm 6 stays blocked: s7 duplicates through the d-rule
    assert report.verdict("Thm 6").applicability == "Blocked"


def test_thm20_not_reported_at_all_terms_scope():
    report = analyze(load_system("s7"), scope="all")
    with pytest.raises(KeyError):
        report.verdict("Thm 20")


def test_s6_blocked_on_left_linearity_only():
    report = analyze(load_system("s6"))
    v8 = report.verdict("Thm 8")
    assert v8.applicability == "Blocked"
    status = {p.name: p.value for p in v8.preconditions}
    assert status == {
        "non-overlapping": True,
        "left-linear": False,
        "right-linear": True,
        "non-erasing": True,
    }


def test_nonprob_engine_on_corpus():
    rd = analyze_nonprob(load_system("r_d"))
    assert rd.verdict("Thm 2").applicability == "Applies"

    r1 = analyze_nonprob(load_system("r1"))
    assert r1.verdict("Thm 1").applicability == "Blocked"
    assert r1.verdict("Thm 2").applicability == "Blocked"
    # Toyama's system is an overlay system; only local confluence blocks Thm 3
    thm3 = r1.verdict("Thm 3")
    assert thm3.applicability == "Blocked"
    assert {p.name: p.value for p in thm3.preconditions} == {
        "overlay": True,
        "locally-confluent": False,
    }
    wcr = next(p for p in thm3.preconditions if p.name == "locally-confluent")
    pair = wcr.witness.partition("critical pair (")[2].partition(")")[0]
    assert set(pair.split(", ")) == {"a", "b"}
    assert r1.verdict("Thm 5").applicability == "Applies"

    r2 = analyze_nonprob(load_system("r2"))
    v4 = r2.verdict("Thm 4")
    assert v4.applicability == "Blocked"
    ne = next(p for p in v4.preconditions if p.name == "non-erasing")
    assert ne.value is False and "x erased" in ne.witness


def test_nonprob_rejects_probabilistic_input():
    with pytest.raises(ValueError):
        analyze_nonprob(load_system("srw"))


def test_closure_chains_compose_theorems():
    report = analyze(load_system("srw"))
    chain = {
        (c.source.token(), c.target.token()): c.chain for c in report.closure
    }
    assert chain[("liAST", "fAST")] == ("Thm 9", "Thm 6")
    assert chain[("iAST", "fAST")] == ("Thm 6",)
    assert chain[("wAST", "fAST")] == ("Thm 8",)


def test_closure_never_lifts_innermost_for_the_counterexamples():
    for name in ("s1", "s2", "s3", "s5", "s6", "s8"):
        report = analyze(load_system(name), scope="all")
        assert ("iAST", "fAST") not in arrows_of(report), name


def test_scope_restriction_arrows_only_at_basic_scope():
    all_scope = analyze(load_system("s7"), scope="all")
    assert all(c.source.scope == "all" for c in all_scope.closure)
    basic = analyze(load_system("s7"), scope="basic")
    assert ("iAST", "fAST@basic") in arrows_of(basic)
    assert ("iAST", "fAST") not in arrows_of(basic)


def test_assertions_feed_the_closure():
    report = analyze(load_system("srw"), assertions=[parse_prop_token("iAST")])
    conclusions = {c.target.token(): c.chain for c in report.conclusions}
    assert "fAST" in conclusions and conclusions["fAST"] == ("Thm 6",)

    report = analyze(load_system("s2"), assertions=[parse_prop_token("iAST-par")])
    conclusions = {c.target.token() for c in report.conclusions}
    assert "fAST" in conclusions  # via Thm 14
    report = analyze(load_system("s2"), assertions=[parse_prop_token("iAST")])
    assert "fAST" not in {c.target.token() for c in report.conclusions}


def cheapest_chains(arrows, src):
    """The least (definitional hops, hops) over every walk from src to each
    atom it reaches, by token, found by extending all walks one hop at a
    time until they are longer than any path without a repeated atom."""
    graph = {}
    for a, b, label in arrows:
        graph.setdefault(a.token(), []).append((b.token(), label in ("definition", "restriction")))
    least = {}
    frontier = {src.token(): 0}  # least definitional hops over walks of k hops
    for hops in range(1, len(graph) + 2):
        reached = {}
        for a, defs in frontier.items():
            for b, definitional in graph.get(a, []):
                d = defs + definitional
                if d < reached.get(b, d + 1):
                    reached[b] = d
        for b, d in reached.items():
            least[b] = min(least.get(b, (d, hops)), (d, hops))
        frontier = reached
    least.pop(src.token(), None)
    return least


def assert_chains_are_cheapest(arrows, got):
    """Each arrow's chain is a walk of the graph from its source to its
    target, its cost is the brute-force least, and every reachable atom has
    an arrow."""
    by_label = {}
    for a, b, label in arrows:
        by_label.setdefault((a.token(), label), set()).add(b.token())
    rows = {}
    for c in got:
        rows.setdefault(c.source.token(), {})[c.target.token()] = c.chain
        frontier = {c.source.token()}
        for label in c.chain:
            frontier = set().union(*(by_label.get((a, label), ()) for a in frontier))
        assert c.target.token() in frontier, c
    sources = {c.source.token(): c.source for c in got}
    for token, src in sources.items():
        least = cheapest_chains(arrows, src)
        assert {t: (sum(l in ("definition", "restriction") for l in chain), len(chain))
                for t, chain in rows[token].items()} == least, token


ASSERTION_SETS = (
    (),
    ("iAST",),
    ("iAST-par", "wPAST"),
    ("fAST@basic", "fAST@basic", "iSAST"),
    ("liSAST@basic", "fSAST-par"),
    ("SN",),
    ("iSN", "WN", "iSN"),
)


def atoms_of(arrows):
    return {p.token(): p for a, b, _ in arrows for p in (a, b)}.values()


def selected(closure, wanted):
    """The arrows of a closure that a selection asks for, in closure order."""
    return [
        c for c in closure
        if (wanted.source is None or wanted.source(c.source))
        and (wanted.target is None or wanted.target(c.target))
    ]


def is_full(p):
    return p.strategy == "f" and not p.par


def reference_routes(closure):
    return [c for c in closure if is_full(c.target) and not is_full(c.source)]


def test_closure_matches_the_reference_on_the_corpus(monkeypatch):
    """Every closure search an engine run makes is the reference closure
    filtered by the search's selection, and each report's routes,
    conclusions and lazily read closure are the reference's."""
    calls = []

    def recording(arrows, wanted=EVERY):
        got = _closure(arrows, wanted)
        calls.append((arrows, wanted, got))
        return got

    monkeypatch.setattr(analyzer, "_closure", recording)
    references = {}

    def reference(arrows):
        key = tuple(arrows)
        if key not in references:
            references[key] = reference_closure(arrows, atoms_of(arrows))
        return references[key]

    concluded = routed = reports = 0
    for name in CORPUS_STARTS:
        system = load_system(name)
        for tokens in ASSERTION_SETS:
            props = [parse_prop_token(token) for token in tokens]
            prob = [p for p in props if p.notion != "SN"]
            runs = [(analyze(system, scope, prob), prob) for scope in ("all", "basic")]
            if system.is_trivial:
                sn = [p for p in props if p.notion == "SN"]
                runs.append((analyze_nonprob(system, sn), sn))
            for report, asserted in runs:
                full = reference(report.arrows)
                assert report.conclusions == reference_closure(report.arrows, asserted)
                assert report.routes == reference_routes(full)
                assert report.closure == full
                concluded += len(report.conclusions) > 0
                routed += len(report.routes) > 0
                reports += 1
    for arrows, wanted, got in calls:
        assert got == selected(reference(arrows), wanted)
    # one routes search and one whole closure per report, each on first read
    assert sum(wanted is ROUTES for _, wanted, _ in calls) == reports
    assert sum(wanted == EVERY for _, wanted, _ in calls) == reports
    for arrows, full in references.items():
        assert_chains_are_cheapest(arrows, full)
    assert len(references) > 10 and concluded > 50 and routed > 50


def test_closure_matches_the_reference_on_random_arrows():
    structural = {
        notions: _structural_arrows(notions, scopes)
        for notions, scopes in ((("AST", "PAST", "SAST"), ("all", "basic")), (("SN",), ("all",)))
    }
    labels = [spec.theorem_id for spec in PROB_THEOREMS + NONPROB_THEOREMS]
    labels += ["definition", "restriction"]
    rng = random.Random(90)
    # the selections draw from their own stream, so the seed-90 rounds stay
    pick = random.Random(91)
    for round_ in range(150):
        arrows = list(structural[rng.choice(list(structural))])
        atoms = sorted({p for a, b, _ in arrows for p in (a, b)}, key=Prop.token)
        licensed = [
            (rng.choice(atoms), rng.choice(atoms), rng.choice(labels))
            for _ in range(rng.randint(0, 30))
        ]
        arrows = arrows + licensed if rng.random() < 0.7 else licensed + arrows
        sources = rng.sample(atoms, rng.randint(0, min(8, len(atoms))))
        sources += rng.choices(atoms, k=rng.randint(0, 3))
        sources.append(Prop("AST", "f", True, "basic"))  # not an atom of the SN arrows
        closure = _closure(arrows)
        assert closure == reference_closure(arrows, atoms), round_
        assert _conclusions(arrows, sources) == reference_closure(arrows, sources), round_
        assert _closure(arrows, ROUTES) == reference_routes(closure), round_
        for _ in range(4):
            chosen = [
                None if pick.random() < 0.25
                else {p.token() for p in pick.sample(atoms, pick.randint(0, len(atoms)))}
                for _ in range(2)
            ]
            wanted = Wanted(*(
                None if tokens is None else (lambda p, tokens=tokens: p.token() in tokens)
                for tokens in chosen
            ))
            assert _closure(arrows, wanted) == selected(closure, wanted), (round_, chosen)
        assert_chains_are_cheapest(arrows, closure)


def test_precondition_toggle_flips_verdicts():
    """Metamorphic check: injecting a defect into a single precondition must
    flip every theorem that relies on it to Blocked."""
    srw = load_system("srw")
    g = app(Symbol("g", 0))
    c = Symbol("c", 2)
    x, y = var("x"), var("y")
    one = 1

    # break left-linearity
    extra = ProbRule(app(c, [x, x]), MultiDistribution([(one, g)]))
    report = analyze(Ptrs(srw.rules + (extra,)))
    assert report.verdict("Thm 6").applicability == "Blocked"
    assert report.verdict("Thm 9").applicability == "Applies"

    # break right-linearity
    extra = ProbRule(app(c, [x, y]), MultiDistribution([(one, app(c, [x, x]))]))
    report = analyze(Ptrs(srw.rules + (extra,)))
    assert report.verdict("Thm 6").applicability == "Blocked"
    assert report.verdict("Thm 14").applicability == "Blocked"

    # break non-overlappingness
    extra = ProbRule(g, MultiDistribution([(one, g)]))
    report = analyze(Ptrs(srw.rules + (extra,)))
    for tid in ("Thm 6", "Thm 9", "Thm 14"):
        assert report.verdict(tid).applicability == "Blocked"

    # break non-erasingness only: Thm 8 blocks, Thm 6 survives
    extra = ProbRule(app(c, [x, y]), MultiDistribution([(one, x)]))
    report = analyze(Ptrs(srw.rules + (extra,)))
    assert report.verdict("Thm 8").applicability == "Blocked"
    assert report.verdict("Thm 6").applicability == "Applies"


def test_spare_unknown_blocks_thm20_with_advisory_falsifier():
    report = analyze(load_system("s1"), scope="basic")
    v20 = report.verdict("Thm 20")
    assert v20.applicability == "UnknownPrecondition"
    assert report.spare_evidence is not None
    assert "non-spare step" in report.spare_evidence


def test_overlay_open_problem_note():
    report = analyze(load_system("s4"))
    assert any("open problem" in note for note in report.notes)


def test_falsifier_start_cap_counts_skipped_starts():
    """``analyze`` searches the first ``FALSIFY_START_CAP`` enumerated basic
    starts, and the starts the falsifier skips (no rule matches at the root)
    count toward them. Here all but 16 starts are skipped, and the only
    counterexample starts from ``zz``, the 2,212th start, which a cap on
    searched starts only would reach."""
    system = parse(
        """(VAR x)
        (RULES
          dup(x) -> {1: c(x,x)}
          f(o,o,o) -> {1: o}
          h -> {1: o}
          zz -> {1: dup(h)}
        )
        (CONSTRUCTORS s/1)"""
    )
    starts = default_basic_starts(system, FALSIFY_ARG_DEPTH)
    matched = [t for t in starts if system.root_match(t) is not None]
    assert len(starts) == 2212 and len(matched) == 16
    cex = falsify_spare(system, FALSIFY_DEPTH, starts)
    assert cex.start_term is starts[-1] and starts.index(cex.start_term) > FALSIFY_START_CAP
    report = analyze(system, scope="basic")
    assert report.spare_evidence == (
        f"no non-spare step found up to depth {FALSIFY_DEPTH} from basic "
        f"start terms of argument depth <= {FALSIFY_ARG_DEPTH}"
    )
