"""Simultaneous rewriting (``par``/``ipar``) on the shared term DAG, checked
against the tree walk it replaced: groups, steps, sampled successors and
exact unfoldings must be pointer-identical to it."""

import random
from dataclasses import dataclass

from conftest import (
    CORPUS_STARTS,
    DEFAULT_SYMBOLS,
    SIGNATURE_SYMBOLS,
    fires_g0,
    load_system,
    pick_group,
    random_system,
    random_term,
    sim_step,
)
from pastlift import rewriting, terms
from pastlift.fmt import parse_term
from pastlift.rewriting import (
    FirstMove,
    RandomSeeded,
    RightmostFirst,
    Scripted,
    ScriptEntry,
    SimTable,
    Strategy,
    descend,
    entry_step,
    lift_step,
    sample_step,
    simultaneous_groups,
)
from pastlift.semantics import mc_runs, unfold_exact
from pastlift.system import MultiDistribution, singleton
from pastlift.terms import (
    Position,
    Substitution,
    Symbol,
    Term,
    Var,
    app,
    apply_subst,
    match,
    positions,
    replace_at,
    subterm_at,
    term_to_str,
    var,
)

PAR, IPAR = Strategy.SIMULTANEOUS, Strategy.INNERMOST_SIMULTANEOUS


def t(name, text):
    return parse_term(text, load_system(name))


# --- the tree walk, kept verbatim as the reference -------------------------


@dataclass
class TreeWalkGroup:
    """Maximal set of parallel positions carrying the same redex instance."""

    rule_index: int
    subst: Substitution
    positions: tuple[Position, ...]
    instance: Term


def tree_walk_redexes(system, t: Term, innermost_only: bool):
    """Yield (position, node, rule index, substitution) for every redex.

    Normal-form subtrees are skipped wholesale (their status is cached on
    the system), which keeps enumeration linear in the non-normal spine
    even when the term is a huge shared DAG. The innermost filter inspects
    the node's direct children, never re-walking from the root.
    """
    stack: list[tuple[Term, Position]] = [(t, ())]
    while stack:
        u, pos = stack.pop()
        if system.is_normal_form(u):
            continue
        if not innermost_only or all(system.is_normal_form(a) for a in u.args):
            for idx, rule in system.rules_at_root(u):
                sigma = match(rule.lhs, u)
                if sigma is not None:
                    yield pos, u, idx, sigma
        if not isinstance(u, Var):
            for k, a in enumerate(u.args):
                stack.append((a, pos + (k + 1,)))


def tree_walk_groups(system, t: Term, innermost_only: bool) -> list[TreeWalkGroup]:
    """Group redexes by rule and identical instance.

    Positions carrying the same instance are automatically parallel (a term
    cannot nest inside itself), so every group is an admissible simultaneous
    move; ordered by (first position, rule index).
    """
    grouped: dict[tuple[int, Term], tuple[Substitution, list[Position]]] = {}
    for pos, u, idx, sigma in tree_walk_redexes(system, t, innermost_only):
        grouped.setdefault((idx, u), (sigma, []))[1].append(pos)
    groups = [
        TreeWalkGroup(
            rule_index=idx,
            subst=sigma,
            positions=tuple(sorted(found)),
            instance=instance,
        )
        for (idx, instance), (sigma, found) in grouped.items()
    ]
    groups.sort(key=lambda g: (g.positions[0], g.rule_index))
    return groups


def tree_walk_replace_all(t, chosen, replacement):
    for pos in chosen:
        t = replace_at(t, pos, replacement)
    return t


def tree_walk_pick(spec, groups, rng):
    """The group each policy picked from the tree walk's list."""
    if spec == "first":
        return min(groups, key=lambda g: (g.positions[0], g.rule_index))
    if spec == "rightmost":
        return max(groups, key=lambda g: (g.positions[-1], -g.rule_index))
    return groups[rng.randrange(len(groups))]


def tree_walk_sim_step(system, t, group, chosen):
    rule = system.rules[group.rule_index]
    return [
        (w, tree_walk_replace_all(t, chosen, apply_subst(r, group.subst)))
        for w, r in zip(system.branch_weights[group.rule_index], rule.rhs.terms)
    ]


# --- the terms compared ----------------------------------------------------


def make_policy(spec, seed):
    if spec == "first":
        return FirstMove()
    if spec == "rightmost":
        return RightmostFirst()
    return RandomSeeded(seed)


def reachable(system, start, limit):
    """Up to ``limit`` terms reached from start by whole-group steps of the
    tree walk, breadth first, under both simultaneous strategies; trees of
    more than 1,000 nodes are not stepped."""
    found = [start]
    seen = {start}
    for u in found:
        if len(found) >= limit:
            break
        if u.size > 1000:
            continue
        for innermost_only in (False, True):
            for group in tree_walk_groups(system, u, innermost_only):
                for _, v in tree_walk_sim_step(system, u, group, group.positions):
                    if v not in seen and len(found) < limit:
                        seen.add(v)
                        found.append(v)
    return found


def s6_tree(k, leaf="g"):
    """d(u,u) nested k deep over one leaf: 2^(k+1) - 1 tree nodes, k + 1
    distinct subterms."""
    u = t("s6", leaf)
    for _ in range(k):
        u = app(Symbol("d", 2), [u, u])
    return u


def corpus_cases():
    for name, text in CORPUS_STARTS.items():
        system = load_system(name)
        for u in reachable(system, t(name, text), 40):
            yield system, u
    s6 = load_system("s6")
    for k in (3, 7):
        yield s6, s6_tree(k)
        yield s6, app(Symbol("d", 2), [s6_tree(k), s6_tree(k - 1)])
    s3 = load_system("s3")
    yield s3, t("s3", "d(f(a,a), d(f(a,a), f(b,a)))")


def random_cases(seed, count, symbols=DEFAULT_SYMBOLS):
    """Terms of random systems holding a redex instance, often twice, and
    the terms one or two tree-walk steps from them; terms and right-hand
    sides are drawn over ``symbols``."""
    rng = random.Random(seed)
    pair = Symbol("c", 2)
    for _ in range(count):
        system = random_system(rng, symbols=symbols)
        start = random_term(rng, 4, vars_=(), symbols=symbols)
        for _ in range(rng.choice((0, 1, 1, 2))):
            lhs = rng.choice(system.rules).lhs
            redex = apply_subst(
                lhs, {x: random_term(rng, 2, vars_=(), symbols=symbols) for x in sorted(lhs.vars)}
            )
            start = replace_at(start, rng.choice(positions(start)), redex)
        if rng.random() < 0.5:
            start = app(pair, [start, start])
        if system.is_normal_form(start):
            continue
        for u in reachable(system, start, 6):
            yield system, u


def cases():
    yield from corpus_cases()
    yield from random_cases(67, 1500)
    # a second stream over the random systems' whole signature: the default
    # symbols lack g0, so no term drawn over them has a g0 redex
    yield from random_cases(68, 500, SIGNATURE_SYMBOLS)


# --- groups and steps ------------------------------------------------------


def assert_same_dist(got, want, where):
    """``got`` has the branch weights and pointer-identical terms of the
    (weight, term) list ``want``."""
    assert len(got) == len(want), where
    for w, u, (ww, v) in zip(got.weights, got.terms, want):
        assert w == ww and u is v, where


def test_groups_and_sim_steps_match_the_tree_walk():
    compared = shared = g0 = 0
    for system, term in cases():
        for innermost_only in (False, True):
            got = simultaneous_groups(system, term, innermost_only)
            want = tree_walk_groups(system, term, innermost_only)
            where = (term_to_str(term), innermost_only)
            assert len(got) == len(want), where
            for g, w in zip(got, want):
                g0 += system.rules[g.rule_index].lhs.symbol.name == "g0"
                assert (g.rule_index, g.subst) == (w.rule_index, w.subst), where
                assert g.instance is w.instance and g.term is term, where
                assert g.first == w.positions[0], where
                assert g.positions == w.positions, where
                whole = tree_walk_sim_step(system, term, w, w.positions)
                assert_same_dist(sim_step(system, term, g), whole, where)
                assert_same_dist(sim_step(system, term, g, list(w.positions)), whole, where)
                if len(w.positions) > 1:
                    shared += 1
                    for part in (w.positions[:1], w.positions[1:]):
                        assert_same_dist(
                            sim_step(system, term, g, part),
                            tree_walk_sim_step(system, term, w, part),
                            where,
                        )
                compared += 1
    assert compared > 3000
    assert shared > 300
    assert g0 > 1000


def test_sampled_and_entry_steps_match_the_tree_walk():
    compared = scripted = 0
    for case, (system, term) in enumerate(cases()):
        for strategy in (PAR, IPAR):
            groups = tree_walk_groups(system, term, strategy is IPAR)
            if not groups:
                continue
            where = (term_to_str(term), strategy)
            for spec in ("first", "rightmost", "random"):
                want = tree_walk_pick(spec, groups, random.Random(case))
                rule = system.rules[want.rule_index]
                for x in (0.0, 0.37, 0.999):
                    rhs = apply_subst(rule.rhs.terms[rule.pick_branch(x)], want.subst)
                    got = sample_step(system, term, strategy, make_policy(spec, case), x)
                    assert got is tree_walk_replace_all(term, want.positions, rhs), where
                assert_same_dist(
                    entry_step(system, term, strategy, make_policy(spec, case)),
                    tree_walk_sim_step(system, term, want, want.positions),
                    where,
                )
                compared += 1
            # a scripted row naming a proper subset, and one naming all
            for w in groups:
                if len(w.positions) < 2:
                    continue
                for part in (w.positions[1:], w.positions):
                    policy = Scripted([ScriptEntry(var("x"), w.rule_index, part)])
                    assert_same_dist(
                        entry_step(system, term, strategy, policy),
                        tree_walk_sim_step(system, term, w, part),
                        where,
                    )
                scripted += 1
                break
    assert compared > 5000
    assert scripted > 200


def test_first_and_rightmost_pick_the_group_of_the_plain_descent_redex():
    """``FirstMove`` picks the leftmost-outermost redex's group under par and
    the leftmost-innermost one's under ipar; ``RightmostFirst`` the
    rightmost-innermost one's under both."""
    checked = 0
    for system, term in cases():
        for strategy in (PAR, IPAR):
            groups = simultaneous_groups(system, term, strategy is IPAR)
            if not groups:
                continue
            for policy in (FirstMove(), RightmostFirst()):
                assert policy.descent(strategy) is None
                rule = policy.descent(strategy.plain)
                group, chosen = pick_group(policy, term, groups)
                redex = descend(system, term, rule)
                assert chosen is None
                assert group.instance is subterm_at(term, redex.position)
                assert group.rule_index == redex.rule_index
                checked += 1
    assert FirstMove().descent(PAR.plain) is rewriting._leftmost_outermost
    assert FirstMove().descent(IPAR.plain) is rewriting._leftmost_innermost
    assert RightmostFirst().descent(PAR.plain) is rewriting._rightmost_innermost
    assert RightmostFirst().descent(IPAR.plain) is rewriting._rightmost_innermost
    assert RandomSeeded(0).descent(PAR.plain) is None
    assert checked > 5000


def tree_walk_unfold(system, start, strategy, spec, depth, rng=None):
    """Exact unfolding with every entry stepped by the tree walk; a random
    policy draws from ``rng``, entry by entry."""
    mu = singleton(start)
    states = [mu]
    for _ in range(depth):
        entries = []
        for p, u in mu.entries:
            if system.is_normal_form(u):
                entries.append((p, u))
                continue
            group = tree_walk_pick(spec, tree_walk_groups(system, u, strategy is IPAR), rng)
            rule = system.rules[group.rule_index]
            for q, r in rule.rhs.entries:
                v = tree_walk_replace_all(u, group.positions, apply_subst(r, group.subst))
                entries.append((p * q, v))
        mu = MultiDistribution(entries)
        states.append(mu)
    return states


def test_simultaneous_unfolding_matches_the_tree_walk():
    starts = [(load_system(name), t(name, text)) for name, text in CORPUS_STARTS.items()]
    rng = random.Random(71)
    while len(starts) < len(CORPUS_STARTS) + 150:
        system = random_system(rng)
        start = random_term(rng, 4, vars_=())
        if not system.is_normal_form(start):
            starts.append((system, start))
    # starts and right-hand sides over the whole signature, from a second
    # stream, so that g0 rules fire too
    own = random.Random(72)
    while len(starts) < len(CORPUS_STARTS) + 200:
        system = random_system(own, symbols=SIGNATURE_SYMBOLS)
        start = random_term(own, 4, vars_=(), symbols=SIGNATURE_SYMBOLS)
        if not system.is_normal_form(start):
            starts.append((system, start))
    g0 = 0
    for case, (system, start) in enumerate(starts):
        g0 += fires_g0(system, start)
        for strategy in (PAR, IPAR):
            for spec in ("first", "rightmost", "random"):
                where = (term_to_str(start), strategy, spec)
                # unfold_exact steps every entry through one SimTable
                trace = unfold_exact(system, start, strategy, make_policy(spec, case), 6)
                want = tree_walk_unfold(system, start, strategy, spec, 6, random.Random(case))
                for got_mu, want_mu in zip(trace.states, want, strict=True):
                    assert got_mu.entries == want_mu.entries, where
                    assert all(u is v for u, v in zip(got_mu.terms, want_mu.terms)), where
                one = lift_step(system, singleton(start), strategy, make_policy(spec, case))
                assert one.entries == want[1].entries, where
    assert g0 > 30


# --- cost ------------------------------------------------------------------


def test_a_simultaneous_step_on_a_shared_term_costs_its_dag_not_its_tree(monkeypatch):
    """s6's d(u,u) nested k deep has 2^k occurrences of g but k + 1
    distinct subterms: a step builds O(k) terms, where the tree walk
    called replace_at once per occurrence."""
    s6 = load_system("s6")
    k = 16
    start, grown, cut = s6_tree(k), s6_tree(k + 1), s6_tree(k, "bot")
    calls = {"app": 0}

    def counted(symbol, args=()):
        calls["app"] += 1
        return app(symbol, args)

    monkeypatch.setattr(terms, "app", counted)
    monkeypatch.setattr(rewriting, "app", counted)
    for policy in (FirstMove(), RightmostFirst(), RandomSeeded(1)):
        calls["app"] = 0
        dist = entry_step(s6, start, IPAR, policy)
        # every g becomes d(g,g), or every g becomes bot
        assert dist.terms[0] is grown and dist.terms[1] is cut
        assert calls["app"] <= 2 * (k + 1), policy.name
        calls["app"] = 0
        assert sample_step(s6, start, IPAR, policy, 0.0) is grown
        assert calls["app"] <= k + 1, policy.name
    # under par, first contracts d(x,x) at the root: no term is built
    calls["app"] = 0
    assert entry_step(s6, start, PAR, FirstMove()).terms == (start.args[0],)
    assert calls["app"] == 0


def count_picks_and_lists(monkeypatch):
    """Record the term of every group list, and the node of every descent
    rule's call, by rule."""
    listed, asked = [], {}
    real_groups = rewriting.simultaneous_groups

    def counted_groups(system, u, innermost_only):
        listed.append(u)
        return real_groups(system, u, innermost_only)

    monkeypatch.setattr(rewriting, "simultaneous_groups", counted_groups)
    for name in ("_leftmost_outermost", "_leftmost_innermost", "_rightmost_innermost"):
        real = getattr(rewriting, name)
        calls = asked[name] = []

        def counted(system, u, real=real, calls=calls):
            calls.append(u)
            return real(system, u)

        monkeypatch.setattr(rewriting, name, counted)
    return listed, asked


def test_a_step_on_a_term_met_before_neither_lists_groups_nor_descends(monkeypatch):
    """Through one ``SimTable``, a simultaneous step on a term the table has
    met is lookups: no group list, no descent rule asked, and the same
    successor as a step with no table."""
    listed, asked = count_picks_and_lists(monkeypatch)
    stepped = 0
    for system, term in corpus_cases():
        for strategy in (PAR, IPAR):
            if not tree_walk_groups(system, term, strategy is IPAR):
                continue
            for spec in ("first", "rightmost", "random"):
                table = SimTable(system, strategy)
                sample_step(system, term, strategy, make_policy(spec, 1), 0.5, table)
                for x in (0.5, 0.0, 0.999):
                    want = sample_step(system, term, strategy, make_policy(spec, 1), x)
                    listed.clear()
                    for calls in asked.values():
                        calls.clear()
                    got = sample_step(system, term, strategy, make_policy(spec, 1), x, table)
                    assert got is want, (term_to_str(term), strategy, spec, x)
                    assert not listed and not any(asked.values())
                    stepped += 1
    assert stepped > 500


def test_runs_sharing_a_table_list_and_pick_once_per_term(monkeypatch):
    """srw2 under ipar walks a chain g^k(0), and a step used to list the
    groups of the whole chain and rebuild it; the runs of one estimate list
    each distinct term's groups once, and descend through each node once."""
    listed, asked = count_picks_and_lists(monkeypatch)
    built = {"app": 0}

    def counted_app(symbol, args=()):
        built["app"] += 1
        return app(symbol, args)

    monkeypatch.setattr(rewriting, "app", counted_app)
    srw2 = load_system("srw2")
    one_run = mc_runs(srw2, t("srw2", "g(0)"), IPAR, RandomSeeded(1), 4000, 1)
    steps = sum(one_run(i)[1] for i in range(50))
    assert len(listed) == len(set(listed))
    assert steps > 20 * len(listed)
    # each distinct term is rebuilt once per branch, on top of its child's
    # rebuild, not down the whole chain
    assert built["app"] < 3 * len(listed)
    s6 = load_system("s6")
    for strategy in (PAR, IPAR):
        for policy in (FirstMove(), RightmostFirst()):
            for calls in asked.values():
                calls.clear()
            one_run = mc_runs(s6, t("s6", "g"), strategy, policy, 250, 2)
            steps = sum(one_run(i)[1] for i in range(100))
            for calls in asked.values():
                assert len(calls) == len(set(calls)), (strategy, policy.name)
            assert steps > sum(map(len, asked.values())), (strategy, policy.name)
