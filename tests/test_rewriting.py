import math
import random
from fractions import Fraction

import pytest

from conftest import (
    CORPUS,
    CORPUS_STARTS,
    DEFAULT_SYMBOLS,
    fires_g0,
    load_system,
    pick_redex,
    random_system,
    random_term,
    sim_step,
)
from pastlift.fmt import parse_term
from pastlift.rewriting import (
    FirstMove,
    InvalidGroup,
    InvalidRedex,
    RandomSeeded,
    Redex,
    RightmostFirst,
    Scripted,
    ScriptEntry,
    Strategy,
    admissible_moves,
    coalesce,
    first_move_redex,
    innermost_redexes,
    leftmost_innermost_moves,
    lift_step,
    redexes,
    simultaneous_groups,
    step,
)
from pastlift.system import MultiDistribution, ProbRule, Ptrs, singleton
from pastlift.terms import Symbol, app, positions, subterm_at, var

half = Fraction(1, 2)


def t(name, text):
    return parse_term(text, load_system(name))


def test_redexes_examples():
    srw = load_system("srw")
    found = redexes(srw, t("srw", "c(g,g)"))
    assert [(r.position, r.rule_index) for r in found] == [((1,), 0), ((2,), 0)]

    s4 = load_system("s4")
    found = redexes(s4, t("s4", "f(a,b)"))
    assert [(r.position, r.rule_index) for r in found] == [
        ((1,), 0),
        ((1,), 1),
        ((2,), 2),
    ]

    assert redexes(load_system("s2"), t("s2", "f(b,c)")) == []


def test_innermost_redexes():
    s1 = load_system("s1")
    found = innermost_redexes(s1, t("s1", "d(g)"))
    assert [(r.position, r.rule_index) for r in found] == [((1,), 0)]
    assert innermost_redexes(load_system("srw"), t("srw", "bot")) == []


def test_leftmost_innermost_moves():
    s4 = load_system("s4")
    found = leftmost_innermost_moves(s4, t("s4", "f(a,b)"))
    assert [(r.position, r.rule_index) for r in found] == [((1,), 0), ((1,), 1)]


def own_symbols(system):
    """A random system's own signature when it has a constant, so that terms
    drawn over it can fire every rule (g0's among them), else the defaults."""
    symbols = tuple(system.signature.values())
    return symbols if any(sym.arity == 0 for sym in symbols) else DEFAULT_SYMBOLS


def random_ground_terms(rng, own, system, max_depth=4):
    """A ground term over the default symbols from ``rng``, as the suites
    always drew one, then one over the system's own signature from ``own``, a
    separate stream, so that the default draws stay the same."""
    return (
        random_term(rng, max_depth, vars_=()),
        random_term(own, max_depth, vars_=(), symbols=own_symbols(system)),
    )


def corpus_and_random_terms():
    """Every corpus start and its one-step successors, then random terms
    (some with variables) of conftest random systems, over each system's own
    signature where it has a constant, so that every rule can fire."""
    for name, text in CORPUS_STARTS.items():
        system = load_system(name)
        start = t(name, text)
        yield system, start
        for redex in redexes(system, start):
            for u in step(system, start, redex).terms:
                yield system, u
    rng = random.Random(47)
    for _ in range(1500):
        system = random_system(rng)
        vars_ = ("x",) if rng.random() < 0.2 else ()
        yield system, random_term(rng, 5, vars_=vars_, symbols=own_symbols(system))


def test_redex_lists_come_out_in_position_then_rule_order():
    checked = 0
    for system, term in corpus_and_random_terms():
        for found in (redexes(system, term), innermost_redexes(system, term)):
            keys = [(r.position, r.rule_index) for r in found]
            assert keys == sorted(keys), keys
            checked += len(keys) > 1
    assert checked > 100


def reference_leftmost_innermost_moves(system, term):
    """The innermost redexes at the least innermost position, found by
    listing every innermost redex (the enumeration the descent replaced)."""
    inner = innermost_redexes(system, term)
    if not inner:
        return []
    best = min(r.position for r in inner)
    return [r for r in inner if r.position == best]


def test_leftmost_innermost_moves_match_the_innermost_listing():
    checked = 0
    for system, term in corpus_and_random_terms():
        got = leftmost_innermost_moves(system, term)
        want = reference_leftmost_innermost_moves(system, term)
        assert [(r.position, r.rule_index, r.subst) for r in got] == [
            (r.position, r.rule_index, r.subst) for r in want
        ]
        checked += len(want) > 1
    assert checked > 50


def test_step_examples():
    srw = load_system("srw")
    root = redexes(srw, t("srw", "g"))[0]
    assert step(srw, t("srw", "g"), root) == MultiDistribution(
        [(half, t("srw", "c(g,g)")), (half, t("srw", "bot"))]
    )

    s1 = load_system("s1")
    dbot = t("s1", "d(bot)")
    assert step(s1, dbot, redexes(s1, dbot)[0]) == singleton(t("s1", "c(bot,bot)"))

    s2 = load_system("s2")
    faa = t("s2", "f(a,a)")
    at1 = [r for r in redexes(s2, faa) if r.position == (1,)][0]
    assert step(s2, faa, at1) == MultiDistribution(
        [(half, t("s2", "f(b,a)")), (half, t("s2", "f(c,a)"))]
    )


def test_step_rejects_bogus_redex():
    srw = load_system("srw")
    with pytest.raises(InvalidRedex):
        step(srw, t("srw", "c(bot,bot)"), Redex((1,), 0, {}))


def test_simultaneous_groups():
    s2 = load_system("s2")
    groups = simultaneous_groups(s2, t("s2", "f(a,a)"), innermost_only=True)
    assert len(groups) == 1
    assert groups[0].positions == ((1,), (2,))
    assert groups[0].rule_index == 1

    groups = simultaneous_groups(s2, t("s2", "f(b,a)"), innermost_only=True)
    assert len(groups) == 1
    assert groups[0].positions == ((2,),)

    s5 = load_system("s5")
    big = t("s5", "d(f(b,b),f(b,b),f(b,b))")
    groups = simultaneous_groups(s5, big, innermost_only=True)
    assert [g.positions for g in groups] == [((1,), (2,), (3,))]
    assert subterm_at(big, groups[0].positions[0]) is t("s5", "f(b,b)")

    # on random systems: the redex listing grouped by (rule, instance)
    rng, own = random.Random(53), random.Random(54)
    grouped = g0 = 0
    for _ in range(1500):
        system = random_system(rng)
        for term in random_ground_terms(rng, own, system):
            g0 += fires_g0(system, term)
            for innermost in (False, True):
                want = {}
                for r in (innermost_redexes if innermost else redexes)(system, term):
                    key = (r.rule_index, subterm_at(term, r.position))
                    want.setdefault(key, (r.subst, []))[1].append(r.position)
                groups = simultaneous_groups(system, term, innermost_only=innermost)
                assert [(g.rule_index, g.instance, g.subst, g.positions) for g in groups] == [
                    (idx, u, sigma, tuple(found)) for (idx, u), (sigma, found) in want.items()
                ]
                grouped += len(groups) > 1
    assert grouped > 80 and g0 > 150


def test_sim_step_examples():
    s2 = load_system("s2")
    faa = t("s2", "f(a,a)")
    group = simultaneous_groups(s2, faa, innermost_only=True)[0]
    assert sim_step(s2, faa, group) == MultiDistribution(
        [(half, t("s2", "f(b,b)")), (half, t("s2", "f(c,c)"))]
    )
    assert sim_step(s2, faa, group, [(1,)]) == MultiDistribution(
        [(half, t("s2", "f(b,a)")), (half, t("s2", "f(c,a)"))]
    )

    s2bar = load_system("s2bar")
    faa_bar = t("s2bar", "f(a,a)")
    group = simultaneous_groups(s2bar, faa_bar, innermost_only=True)[0]
    assert sim_step(s2bar, faa_bar, group) == MultiDistribution(
        [(half, t("s2bar", "f(b,b)")), (half, t("s2bar", "f(c,c)"))]
    )

    with pytest.raises(InvalidGroup):
        sim_step(s2, faa, group, [])
    with pytest.raises(InvalidGroup):
        sim_step(s2, faa, group, [(3,)])


def test_lift_step_examples():
    srw = load_system("srw")
    first = FirstMove()
    mu0 = singleton(t("srw", "g"))
    mu1 = lift_step(srw, mu0, Strategy.FULL, first)
    assert mu1 == MultiDistribution([(half, t("srw", "c(g,g)")), (half, t("srw", "bot"))])
    mu2 = lift_step(srw, mu1, Strategy.FULL, first)
    assert mu2.entries == (
        (Fraction(1, 4), t("srw", "c(c(g,g),g)")),
        (Fraction(1, 4), t("srw", "c(bot,g)")),
        (half, t("srw", "bot")),
    )
    nf = singleton(t("srw", "bot"))
    assert lift_step(srw, nf, Strategy.INNERMOST, first) == nf


def test_lift_step_weighs_each_step_by_its_entry():
    a, b, c = (app(Symbol(name, 0)) for name in "abc")
    system = Ptrs([ProbRule(a, MultiDistribution([(half, c), (half, b)]))])
    quarter = Fraction(1, 4)
    for policy in (FirstMove(), RandomSeeded(1)):
        for strategy in (Strategy.FULL, Strategy.SIMULTANEOUS):
            # a's step at 1/2 each, spliced in place; the normal form b is kept
            mu = lift_step(system, MultiDistribution([(half, a), (half, b)]), strategy, policy)
            assert mu.entries == ((quarter, c), (quarter, b), (half, b))
            assert lift_step(system, singleton(b), strategy, policy) == singleton(b)
            # a state that does not sum to one is refused
            with pytest.raises(ValueError, match="sum to 1/2"):
                lift_step(
                    system,
                    MultiDistribution([(half, a)], require_proper=False),
                    strategy,
                    policy,
                )


def test_lift_step_refuses_a_rule_whose_branches_do_not_sum_to_one():
    # the checked constructor would refuse these branches; built unchecked,
    # as the parser builds them for Ptrs.validate, they are caught by
    # lift_step's one sum over the new state
    a, b, c = (app(Symbol(name, 0)) for name in "abc")
    quarter = Fraction(1, 4)
    rhs = MultiDistribution([(quarter, c), (quarter, b)], require_proper=False)
    system = Ptrs([ProbRule(a, rhs)])
    assert system.validate() == ["rule 0: probabilities sum to 1/2"]
    for policy in (FirstMove(), RightmostFirst(), RandomSeeded(1)):
        for strategy in Strategy:
            with pytest.raises(ValueError, match="sum to 1/2"):
                lift_step(system, singleton(a), strategy, policy)


def test_lift_step_conserves_mass_and_monotone_nf():
    srw = load_system("srw")
    s1 = load_system("s1")
    first = FirstMove()
    for system, start, strategy in [
        (srw, t("srw", "g"), Strategy.FULL),
        (s1, t("s1", "g"), Strategy.INNERMOST),
        (s1, t("s1", "g"), Strategy.SIMULTANEOUS),
    ]:
        mu = singleton(start)
        last_mass = system.nf_mass(mu)
        for _ in range(12):
            mu = lift_step(system, mu, strategy, first)
            assert mu.total() == 1
            mass = system.nf_mass(mu)
            assert mass >= last_mass
            last_mass = mass


def test_strategy_inclusion_chain():
    rng, own = random.Random(23), random.Random(24)
    g0 = 0
    for _ in range(200):
        system = random_system(rng)
        for term in random_ground_terms(rng, own, system):
            full = {(r.position, r.rule_index) for r in redexes(system, term)}
            inner = {(r.position, r.rule_index) for r in innermost_redexes(system, term)}
            left = {(r.position, r.rule_index) for r in leftmost_innermost_moves(system, term)}
            assert left <= inner <= full
            g0 += fires_g0(system, term)
    assert g0 > 20


def test_singleton_group_equals_plain_step_bruteforce():
    """Exhaustive check on all terms up to size 8 over a three-symbol signature."""
    s2 = load_system("s2")
    csym = Symbol("c", 0)
    leaves = [t("s2", "a"), t("s2", "b"), app(csym)]

    def terms(size):
        if size >= 1:
            yield from leaves
        if size >= 3:
            for ls in range(1, size - 1):
                for left in terms(ls):
                    for right in terms(size - 1 - ls):
                        yield app(Symbol("f", 2), [left, right])

    seen = set()
    count = 0
    for size in range(1, 9):
        for term in terms(size):
            if term in seen or term.size != size:
                continue
            seen.add(term)
            for group in simultaneous_groups(s2, term, innermost_only=False):
                for pos in group.positions:
                    lone = sim_step(s2, term, group, [pos])
                    plain = step(s2, term, Redex(pos, group.rule_index, group.subst))
                    assert lone == plain
                    count += 1
    assert count > 50

    # random systems, on terms over the default symbols and their own
    rng, own = random.Random(29), random.Random(30)
    count = g0 = 0
    for _ in range(1500):
        system = random_system(rng)
        for term in random_ground_terms(rng, own, system):
            for group in simultaneous_groups(system, term, innermost_only=False):
                for pos in group.positions:
                    lone = sim_step(system, term, group, [pos])
                    assert lone == step(system, term, Redex(pos, group.rule_index, group.subst))
                    count += 1
                    g0 += system.rules[group.rule_index].lhs.symbol.name == "g0"
    assert count > 300 and g0 > 200


def test_first_move_descent_agrees_with_full_enumeration():
    rng, own = random.Random(31), random.Random(32)
    strategies = [Strategy.FULL, Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST]
    checked = g0 = 0
    for _ in range(1500):
        system = random_system(rng)
        for term in random_ground_terms(rng, own, system):
            if system.is_normal_form(term):
                continue
            g0 += fires_g0(system, term)
            for strategy in strategies:
                if strategy is Strategy.FULL:
                    moves = redexes(system, term)
                elif strategy is Strategy.INNERMOST:
                    moves = innermost_redexes(system, term)
                else:
                    moves = leftmost_innermost_moves(system, term)
                fast = first_move_redex(system, term, strategy)
                assert (fast.position, fast.rule_index) == (
                    moves[0].position,
                    moves[0].rule_index,
                )
                checked += 1
    assert checked > 100 and g0 > 100


def test_policies_are_deterministic():
    s4 = load_system("s4")
    fab = t("s4", "f(a,b)")
    moves = innermost_redexes(s4, fab)
    assert FirstMove().pick_redex(fab, moves).position == (1,)
    assert pick_redex(RightmostFirst(), fab, moves).position == (2,)
    p1 = RandomSeeded(42)
    p2 = RandomSeeded(42)
    picks1 = [p1.pick_redex(fab, moves).rule_index for _ in range(10)]
    picks2 = [p2.pick_redex(fab, moves).rule_index for _ in range(10)]
    assert picks1 == picks2


def test_scripted_policy_with_fallback():
    s2 = load_system("s2")
    faa = t("s2", "f(a,a)")
    script = Scripted([ScriptEntry(faa, 0, ((),))])
    picked = script.pick_redex(faa, redexes(s2, faa))
    assert (picked.position, picked.rule_index) == ((), 0)
    # no row matches f(b,a): falls back to the first move
    fba = t("s2", "f(b,a)")
    picked = script.pick_redex(fba, redexes(s2, fba))
    assert picked.position == (2,)


def test_scripted_subset_in_simultaneous_lifting():
    # a script may contract a strict subset of an equal-redex group
    s2 = load_system("s2")
    faa = t("s2", "f(a,a)")
    fxx = parse_term("f(x,x)", s2)
    partial = Scripted([ScriptEntry(fxx, 1, ((1,),))])
    mu = lift_step(
        s2, singleton(faa), Strategy.INNERMOST_SIMULTANEOUS, partial
    )
    assert mu == MultiDistribution(
        [(half, t("s2", "f(b,a)")), (half, t("s2", "f(c,a)"))]
    )
    # while the default policy takes the whole group
    mu = lift_step(s2, singleton(faa), Strategy.INNERMOST_SIMULTANEOUS, FirstMove())
    assert mu == MultiDistribution(
        [(half, t("s2", "f(b,b)")), (half, t("s2", "f(c,c)"))]
    )


def test_lift_determinism_including_order():
    s1 = load_system("s1")
    first = FirstMove()
    mus = []
    for _ in range(2):
        mu = singleton(t("s1", "g"))
        for _ in range(6):
            mu = lift_step(s1, mu, Strategy.INNERMOST, first)
        mus.append(mu.entries)
    assert mus[0] == mus[1]


def test_normal_form_has_no_redexes():
    rng, own = random.Random(41), random.Random(42)
    g0 = 0
    for _ in range(300):
        system = random_system(rng)
        for term in random_ground_terms(rng, own, system):
            assert system.is_normal_form(term) == (not redexes(system, term))
            g0 += fires_g0(system, term)
    assert g0 > 20


def test_coalesce_preserves_mass():
    s2 = load_system("s2")
    mu = MultiDistribution(
        [(half, t("s2", "f(a,a)")), (Fraction(1, 4), t("s2", "f(a,a)")), (Fraction(1, 4), t("s2", "b"))]
    )
    merged = coalesce(mu)
    assert merged.entries == ((Fraction(3, 4), t("s2", "f(a,a)")), (Fraction(1, 4), t("s2", "b")))


def test_choose_agrees_with_picking_from_all_moves():
    rng, own = random.Random(37), random.Random(38)
    strategies = [Strategy.FULL, Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST]
    checked = g0 = 0
    for case in range(1500):
        system = random_system(rng)
        for term in random_ground_terms(rng, own, system):
            if system.is_normal_form(term):
                continue
            g0 += fires_g0(system, term)
            for strategy in strategies:
                moves = admissible_moves(system, term, strategy)
                pairs = [
                    (FirstMove(), FirstMove()),
                    (RightmostFirst(), RightmostFirst()),
                    (RandomSeeded(case), RandomSeeded(case)),
                ]
                for chooser, picker in pairs:
                    for _ in range(3):  # random copies must stay in lockstep
                        fast = chooser.choose(system, term, strategy)
                        slow = pick_redex(picker, term, moves)
                        assert (fast.position, fast.rule_index, fast.subst) == (
                            slow.position,
                            slow.rule_index,
                            slow.subst,
                        ), (case, strategy, chooser.name)
                checked += 1
    assert checked > 100 and g0 > 100


def test_redex_count_memo_matches_enumeration_on_every_subterm():
    rng, own = random.Random(43), random.Random(44)
    counted = g0 = 0
    for _ in range(1500):
        system = random_system(rng)
        for term in random_ground_terms(rng, own, system, 5):
            for pos in positions(term):
                u = subterm_at(term, pos)
                assert system.redex_count(u) == len(redexes(system, u))
                counted += system.redex_count(u) > 0
            g0 += fires_g0(system, term)
    assert counted > 150 and g0 > 100


def test_cut_points_pick_the_same_branch_as_fraction_sums():
    rng = random.Random(47)
    corpus = [rule for name in CORPUS + ["srw2"] for rule in load_system(name).rules]
    # random weights give cumulative sums such as 1/3 that no float equals
    generated = [rule for _ in range(40) for rule in random_system(rng).rules]
    inexact = 0
    for rule in corpus + generated:
        sums = []
        acc = Fraction(0)
        for p, _ in rule.rhs.entries:
            acc += p
            sums.append(acc)
        probes = [rng.random() for _ in range(10_000 if rule in corpus else 1_000)]
        for acc in sums:
            near = float(acc)
            inexact += Fraction(near) != acc
            probes += [near, math.nextafter(near, 0), math.nextafter(near, 2)]
        for x in probes:
            by_sums = next((j for j, acc in enumerate(sums) if x < acc), len(sums) - 1)
            assert rule.pick_branch(x) == by_sums, (rule, x)
    assert inexact > 10
