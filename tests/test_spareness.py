import itertools
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from conftest import CORPUS, SIGNATURE_SYMBOLS, load_system, random_system, random_term
from pastlift import parse, spareness
from pastlift.fmt import parse_term
from pastlift.props import duplicated_vars
from pastlift.rewriting import Strategy, SuccessorTable, redexes, step
from pastlift.spareness import (
    SparenessCounterexample,
    SpareVerdict,
    TraceStep,
    _clears,
    _falsify_from,
    default_basic_starts,
    falsify_spare,
    ground_constructor_terms,
    is_constructor_system,
    prove_spare,
    taint_analysis,
)
from pastlift.system import ProbRule, Ptrs, singleton
from pastlift.terms import App, Symbol, app, term_to_str, var
from pastlift.transform import union_with_generators


def _slot(system, tainted, name, index):
    sym = next(s for s in system.defined_symbols if s.name == name)
    return tainted[(sym, index)]


def test_taint_s7_clean():
    s7 = load_system("s7")
    tainted = taint_analysis(s7)
    assert tainted is not None
    assert _slot(s7, tainted, "d", 0) is False


def test_taint_s1_tainted():
    s1 = load_system("s1")
    tainted = taint_analysis(s1)
    assert _slot(s1, tainted, "d", 0) is True


def test_taint_s8_clean():
    s8 = load_system("s8")
    tainted = taint_analysis(s8)
    assert _slot(s8, tainted, "f", 0) is False


def test_taint_not_applicable_for_non_constructor_systems():
    # lhs argument contains the defined symbol h
    h = Symbol("h", 1)
    f = Symbol("f", 1)
    a = Symbol("a", 0)
    system = Ptrs(
        [
            ProbRule(app(f, [app(h, [var("x")])]), singleton(app(a))),
            ProbRule(app(h, [var("x")]), singleton(var("x"))),
        ]
    )
    assert not is_constructor_system(system)
    assert taint_analysis(system) is None
    assert prove_spare(system) is SpareVerdict.UNKNOWN


def reference_is_constructor_system(system):
    """Every left-hand side is an application whose arguments contain no
    defined symbol, by name: the walk ``is_basic`` replaced."""
    defined = {s.name for s in system.defined_symbols}

    def constructor_only(t):
        stack = [t]
        while stack:
            u = stack.pop()
            if isinstance(u, App):
                if u.symbol.name in defined:
                    return False
                stack.extend(u.args)
        return True

    return all(
        isinstance(r.lhs, App) and all(constructor_only(a) for a in r.lhs.args)
        for r in system.rules
    )


def test_is_constructor_system_matches_the_lhs_walk():
    systems = [load_system(name) for name in CORPUS]
    rng = random.Random(5)
    systems += [random_system(rng) for _ in range(500)]
    verdicts = [is_constructor_system(system) for system in systems]
    assert verdicts == [reference_is_constructor_system(system) for system in systems]
    assert 50 < sum(verdicts) < len(systems) - 50


def test_taint_monotone_under_rule_addition():
    s7 = load_system("s7")
    base = taint_analysis(s7)
    # inject a rule that feeds the defined g into d's argument
    g = next(s for s in s7.defined_symbols if s.name == "g")
    d = next(s for s in s7.defined_symbols if s.name == "d")
    extra = ProbRule(app(g), singleton(app(d, [app(g)])))
    grown = Ptrs(s7.rules + (extra,))
    grown_taint = taint_analysis(grown)
    for slot, value in base.items():
        if value:
            assert grown_taint[slot]
    assert grown_taint[(d, 0)] is True


def test_prove_spare_verdicts():
    assert prove_spare(load_system("s7")) is SpareVerdict.SPARE
    assert prove_spare(load_system("s8")) is SpareVerdict.SPARE
    assert prove_spare(load_system("s1")) is SpareVerdict.UNKNOWN
    assert prove_spare(union_with_generators(load_system("s8"))) is SpareVerdict.UNKNOWN


def test_falsify_union_of_s8():
    union = union_with_generators(load_system("s8"))
    start = parse_term("enc%f(s(cons%g))", union)
    cex = falsify_spare(union, 3, [start])
    assert cex is not None
    assert cex.duplicated_variable == "x"
    assert len(cex.step_trace) == 3
    final = cex.step_trace[-1]
    assert term_to_str(final.term) == "f(s(argenc%(cons%g)))"
    # the duplicating rule of the original system fires on a non-normal argument
    assert final.rule_index == 1
    assert final.position == ()


def test_falsify_s1():
    s1 = load_system("s1")
    cex = falsify_spare(s1, 3, [parse_term("g", s1)])
    assert cex is not None
    assert cex.violating_step == 1
    steps = cex.step_trace
    assert term_to_str(steps[0].term) == "g" and steps[0].branch == 0
    assert term_to_str(steps[1].term) == "d(g)"
    assert cex.duplicated_variable == "x"


def test_falsify_s7_not_found():
    s7 = load_system("s7")
    starts = [parse_term("g", s7), parse_term("d(bot)", s7)]
    assert falsify_spare(s7, 6, starts) is None


def test_falsify_rejects_non_basic_starts():
    s7 = load_system("s7")
    with pytest.raises(ValueError):
        falsify_spare(s7, 3, [parse_term("d(d(bot))", s7)])
    with pytest.raises(ValueError):
        falsify_spare(s7, 0, [parse_term("g", s7)])


def test_counterexample_replays_through_the_engine():
    union = union_with_generators(load_system("s8"))
    start = parse_term("enc%f(s(cons%g))", union)
    cex = falsify_spare(union, 3, [start])
    current = start
    for i, trace_step in enumerate(cex.step_trace):
        assert trace_step.term is current
        moves = [
            r
            for r in redexes(union, current)
            if r.position == trace_step.position and r.rule_index == trace_step.rule_index
        ]
        assert moves, "trace step must be a real redex"
        if i == cex.violating_step:
            sigma = moves[0].subst
            assert not union.is_normal_form(sigma[cex.duplicated_variable])
            break
        current = step(union, current, moves[0]).entries[trace_step.branch][1]


def test_ground_constructor_terms_depth_stratified():
    s8 = load_system("s8")
    pool = ground_constructor_terms(s8, 2)
    rendered = [term_to_str(t) for t in pool]
    assert rendered == ["bot", "c(bot,bot)", "s(bot)"]


def test_default_basic_starts_examples():
    s8 = load_system("s8")
    starts = {term_to_str(t) for t in default_basic_starts(s8, 1)}
    assert starts == {"g", "f(bot)"}

    s7 = load_system("s7")
    assert [term_to_str(t) for t in default_basic_starts(s7, 0)] == ["g"]

    empty = Ptrs([])
    assert default_basic_starts(empty, 3) == []


def test_default_basic_starts_cap_counts_constants():
    """The cap bounds the whole list, defined constants included, and a cap
    of 0 gives no start; a capped list is a prefix of the full one."""
    system = parse(
        """(VAR x)
        (RULES
          a -> {1: o}
          b -> {1: o}
          c -> {1: o}
          f(x) -> {1: o}
        )"""
    )
    full = default_basic_starts(system, 1)
    assert [term_to_str(t) for t in full] == ["a", "b", "c", "f(o)"]
    for cap in range(7):
        assert default_basic_starts(system, 1, cap=cap) == full[:cap]
    assert default_basic_starts(system, 0, cap=0) == []
    for name in CORPUS:
        corpus_system = load_system(name)
        full = default_basic_starts(corpus_system, 2)
        for cap in (0, 1, 2, 5, 500):
            assert default_basic_starts(corpus_system, 2, cap=cap) == full[:cap], name


def test_spare_soundness_against_falsifier_on_corpus():
    for name in ("srw", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s2bar", "s2prime"):
        system = load_system(name)
        if prove_spare(system) is SpareVerdict.SPARE:
            starts = default_basic_starts(system, 3)
            assert falsify_spare(system, 6, starts) is None, name


def reference_falsify(system, depth, starts, fired=None):
    """The exhaustive search: every start, in order, breadth first, every
    redex of every term by ``redexes`` and each stepped by ``step``; a
    redex is checked before it is stepped. ``fired`` counts the rule
    indices stepped."""
    for start in starts:
        queue = [(start, [])]
        seen = {start}
        for _ in range(depth):
            next_queue = []
            for t, trace in queue:
                for redex in redexes(system, t):
                    rule = system.rules[redex.rule_index]
                    dups = set()
                    for branch in rule.rhs.support():
                        dups.update(duplicated_vars(branch))
                    for name in sorted(dups):
                        image = redex.subst.get(name)
                        if image is not None and not system.is_normal_form(image):
                            full = trace + [TraceStep(t, redex.position, redex.rule_index, 0)]
                            return SparenessCounterexample(start, full, len(full) - 1, name)
                    if fired is not None:
                        fired[redex.rule_index] += 1
                    for k, successor in enumerate(step(system, t, redex).terms):
                        if successor not in seen:
                            seen.add(successor)
                            trace_step = TraceStep(t, redex.position, redex.rule_index, k)
                            next_queue.append((successor, trace + [trace_step]))
            queue = next_queue
            if not queue:
                break
    return None


def test_falsifier_matches_the_exhaustive_search_on_the_corpus():
    """Same verdict, start, trace and duplicated variable as searching every
    start and every redex, at depths 1-8 and argument depths 0-3 (s5 up to
    2: at 3 it has 2,008,009 starts). An argument depth that adds no start
    (srw's and s6's only starts are constants) is searched once."""
    found = 0
    for name in CORPUS + ["srw2"]:
        system = load_system(name)
        searched = []
        for arg_depth in range(3 if name == "s5" else 4):
            starts = default_basic_starts(system, arg_depth)
            if starts in searched:
                continue
            searched.append(starts)
            for depth in range(1, 9):
                want = reference_falsify(system, depth, starts)
                assert falsify_spare(system, depth, starts) == want, (name, arg_depth, depth)
                found += want is not None
    assert found > 40


def with_non_spare_bait(rng, system):
    """The system and two more rules: one duplicating the argument of a
    defined symbol (both arguments of ``f(x,x)`` or ``f(x,y)``, or ``h``'s),
    and one rewriting ``g0`` to the left-hand side instantiated by ground
    terms over the system's signature, which may hold redexes for the
    duplication to copy."""
    head = rng.choice([Symbol("f", 2), Symbol("h", 1)])
    names = rng.choice([("x", "x"), ("x", "y")])[: head.arity]
    lhs = app(head, [var(n) for n in names])
    v = var(rng.choice(sorted(lhs.vars)))
    ground = {n: random_term(rng, 3, vars_=(), symbols=SIGNATURE_SYMBOLS) for n in sorted(set(names))}
    feed = app(head, [ground[n] for n in names])
    return Ptrs(system.rules + (
        ProbRule(lhs, singleton(app(Symbol("c", 2), [v, v]))),
        ProbRule(app(Symbol("g0", 0)), singleton(feed)),
    ))


def falsifier_draws():
    """Random systems, non-left-linear ones among them, whose right-hand
    sides are drawn over their own signature, so ``g0`` rules fire too; half
    of them carry rules that make a non-spare step likely. Yields (system,
    starts, depth)."""
    rng = random.Random(83)
    for _ in range(600):
        system = random_system(rng, symbols=SIGNATURE_SYMBOLS)
        if rng.random() < 0.5:
            system = with_non_spare_bait(rng, system)
        yield system, default_basic_starts(system, rng.randint(0, 2)), rng.randint(1, 5)


def test_falsifier_matches_the_exhaustive_search_on_random_systems():
    found = non_left_linear_found = 0
    fired = Counter()
    for system, starts, depth in falsifier_draws():
        counts = Counter()
        want = reference_falsify(system, depth, starts, counts)
        assert falsify_spare(system, depth, starts) == want
        found += want is not None
        if want is not None and any(duplicated_vars(rule.lhs) for rule in system.rules):
            non_left_linear_found += 1
        for idx, n in counts.items():
            fired[system.rules[idx].lhs.symbol.name] += n
    assert 100 < found < 500
    assert non_left_linear_found > 20
    assert min(fired["g0"], fired["f"], fired["h"]) > 500


def rule_dups(system):
    """Per rule, the variables some right-hand side duplicates, in name order."""
    return [
        sorted(set().union(*(duplicated_vars(r) for r in rule.rhs.terms)))
        for rule in system.rules
    ]


def component_search_agrees(system, depth, starts):
    """Checks every start's component search against the breadth-first
    search with traces, both ways: ``_clears`` says True exactly when
    ``_falsify_from`` finds nothing. One budget table serves the starts, as
    in ``falsify_spare``, until a start is not cleared; then a fresh one.
    Returns (starts not cleared, terms split at a constructor root)."""
    table = SuccessorTable(system, Strategy.FULL)
    dups = rule_dups(system)
    tables = [{}]
    for start in starts:
        cleared = _clears(system, table, dups, tables[-1], depth, start)
        assert cleared == (_falsify_from(system, table, dups, depth, start) is None), (
            term_to_str(start), depth)
        if not cleared:
            tables.append({})
    splits = sum(not system.rules_at_root(t) for clean in tables for t in clean)
    return len(tables) - 1, splits


def test_component_search_is_exact_on_the_corpus():
    """At argument depths 0-2 (s5 up to 1) and depths 1-8."""
    found = splits = 0
    for name in CORPUS + ["srw2"]:
        system = load_system(name)
        searched = []
        for arg_depth in range(2 if name == "s5" else 3):
            starts = default_basic_starts(system, arg_depth)
            if starts in searched:
                continue
            searched.append(starts)
            for depth in range(1, 9):
                f, k = component_search_agrees(system, depth, starts)
                found += f
                splits += k
    assert found > 30
    assert splits > 100


def test_component_search_is_exact_on_random_systems():
    """The draws of the exhaustive-search oracle above, then more draws from
    a second stream searched deeper, where budgets differ more."""
    rng = random.Random(84)
    extra = (
        (system, default_basic_starts(system, rng.randint(0, 2)), rng.randint(4, 8))
        for system in (
            with_non_spare_bait(rng, random_system(rng, symbols=SIGNATURE_SYMBOLS))
            for _ in range(200)
        )
    )
    found = splits = 0
    for system, starts, depth in itertools.chain(falsifier_draws(), extra):
        f, k = component_search_agrees(system, depth, starts)
        found += f
        splits += k
    assert found > 300
    assert splits > 150


def test_falsifier_recurses_neither_on_term_depth_nor_on_depth():
    """A start whose constructor argument is a tower deeper than the
    recursion limit, searched to a depth above the limit: the reachable set
    is one term per level, the counterexample sits at the bottom, and the
    search finds it, or nothing one step short of it, as the breadth-first
    search with traces does under the default limit."""
    system = parse(
        """(VAR x)
        (RULES
          f(s(x)) -> {1: s(f(x))}
          f(o) -> {1: d(g)}
          d(x) -> {1: c(x,x)}
          g -> {1: o}
        )"""
    )
    tall = 300
    arg = parse_term("o", system)
    for _ in range(tall):
        arg = app(Symbol("s", 1), [arg])
    start = app(Symbol("f", 1), [arg])
    table = SuccessorTable(system, Strategy.FULL)
    dups = rule_dups(system)
    want = {depth: _falsify_from(system, table, dups, depth, start) for depth in (tall + 1, tall + 2)}
    assert want[tall + 1] is None and want[tall + 2].violating_step == tall + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        got = {depth: falsify_spare(system, depth, [start]) for depth in want}
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


# a rule that duplicates a variable but never fires from a basic start (no
# basic term matches h(h(x))): without one, falsify_spare has nothing to search
UNREACHABLE_DUPLICATION = "h(h(x)) -> {1: c(x,x)}"


def with_unreachable_duplication(rules: str, constructors: str = ""):
    return parse(f"(VAR x)\n{constructors}\n(RULES\n  {rules}\n  {UNREACHABLE_DUPLICATION}\n)\n")


def test_falsifier_without_duplicating_rules_searches_nothing(monkeypatch):
    """No rule of srw or srw2 duplicates a variable, so no step is
    non-spare; the falsifier still checks that every start is basic."""
    def refuse(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(spareness, "SuccessorTable", refuse)
    for name in ("srw", "srw2"):
        system = load_system(name)
        assert falsify_spare(system, 900, default_basic_starts(system, 3)) is None
    srw2 = load_system("srw2")
    with pytest.raises(ValueError, match="not basic"):
        falsify_spare(srw2, 5, [parse_term("g(g(0))", srw2)])


def test_falsifier_memory_on_a_deep_chain_stays_small():
    """From ``g(0)``, srw2 reaches ``g^k(0)``, whose k moves are listed again
    under every ancestor. Moves that kept their positions would hold O(k³)
    position entries: about 15 MB at depth 200, against about 4 MB without
    them. An unreachable duplicating rule makes the falsifier search."""
    srw2 = with_unreachable_duplication("g(x) -> {1/2: g(g(x)), 1/2: x}", "(CONSTRUCTORS 0/0)")
    start = parse_term("g(0)", srw2)
    tracemalloc.start()
    try:
        assert falsify_spare(srw2, 200, [start]) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_falsifier_work_on_srw_stays_small(monkeypatch):
    """From ``g``, srw's successors ``c(g,g)`` split into copies of ``g``
    already searched with a larger budget, so the whole search steps one
    term; searching the terms themselves would step every ``c``-tree of
    ``g`` and ``bot`` of height up to 11. An unreachable duplicating rule
    makes the falsifier search."""
    tables = []

    class Recorded(SuccessorTable):
        def __init__(self, system, strategy):
            super().__init__(system, strategy)
            tables.append(self)

    monkeypatch.setattr(spareness, "SuccessorTable", Recorded)
    srw = with_unreachable_duplication("g -> {1/2: c(g,g), 1/2: bot}")
    assert falsify_spare(srw, 12, default_basic_starts(srw, 3)) is None
    assert len(tables) == 1 and len(tables[0]._moves) < 5
