import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from statistics import NormalDist

import pytest

from conftest import (
    CORPUS_STARTS,
    DEFAULT_SYMBOLS,
    SIGNATURE_SYMBOLS,
    SYSTEMS_DIR,
    fires_g0,
    load_system,
    pick_group,
    pick_redex,
    random_probs,
    random_system,
    random_term,
    sim_step,
    tree_walk_groups,
    tree_walk_redexes,
)
from pastlift import rewriting, runsim, semantics, terms
from pastlift.fmt import parse_file, parse_term
from pastlift.rewriting import (
    INNERMOST_DESCENTS,
    FirstMove,
    RandomSeeded,
    RightmostFirst,
    Scripted,
    ScriptEntry,
    SimTable,
    Strategy,
    admissible_moves,
    coalesce,
    descend,
    innermost_redexes,
    leftmost_innermost_moves,
    lift_step,
    step,
)
from pastlift.semantics import (
    CapExceeded,
    McSummary,
    _run_generic,
    adversarial_lower_bound,
    mc_estimate,
    mc_runs,
    unfold_exact,
)
from pastlift.props import duplicated_vars
from pastlift.spareness import falsify_spare
from pastlift.system import MultiDistribution, ProbRule, Ptrs, singleton
from pastlift.terms import (
    Symbol,
    app,
    apply_subst,
    match,
    positions,
    replace_at,
    subterm_at,
    term_to_str,
    var,
)

half = Fraction(1, 2)
first = FirstMove()


def t(name, text):
    return parse_term(text, load_system(name))


def test_unfold_random_walk_three_steps():
    srw = load_system("srw")
    trace = unfold_exact(srw, t("srw", "g"), Strategy.FULL, first, 3)
    assert trace.nf_masses == [0, half, half, Fraction(5, 8)]
    assert trace.lower_bound == Fraction(5, 8)
    # second state matches the hand computation exactly
    assert trace.states[2].entries == (
        (Fraction(1, 4), t("srw", "c(c(g,g),g)")),
        (Fraction(1, 4), t("srw", "c(bot,g)")),
        (half, t("srw", "bot")),
    )


def test_unfold_s1_partial_edl_converges_to_seven():
    s1 = load_system("s1")
    trace = unfold_exact(s1, t("s1", "g"), Strategy.INNERMOST, first, 200)
    assert abs(trace.partial_edl - 7) < Fraction(1, 10**6)
    # the known closed form of the masses: 1 - (3/4)^(k+1) at odd steps
    assert trace.nf_masses[1] == Fraction(1, 4)
    assert trace.nf_masses[3] == Fraction(1, 4) + Fraction(3, 16)


def test_unfold_scripted_root_loop_never_terminates():
    s2 = load_system("s2")
    faa = t("s2", "f(a,a)")
    loop = Scripted([ScriptEntry(faa, 0, ((),))])
    trace = unfold_exact(s2, faa, Strategy.FULL, loop, 25)
    assert all(m == 0 for m in trace.nf_masses)
    assert trace.states[-1] == MultiDistribution([(Fraction(1), faa)])


def test_unfold_normal_form_is_fixed_point():
    srw = load_system("srw")
    trace = unfold_exact(srw, t("srw", "bot"), Strategy.LEFTMOST_INNERMOST, first, 5)
    assert trace.nf_masses == [1] * 6
    assert trace.partial_edl == 0


def test_unfold_support_cap():
    srw = load_system("srw")
    with pytest.raises(CapExceeded) as exc:
        unfold_exact(srw, t("srw", "g"), Strategy.FULL, first, 50, support_cap=5)
    partial = exc.value.partial
    assert partial is not None and partial.depth >= 1


def test_coalescing_preserves_masses():
    srw = load_system("srw")
    plain = unfold_exact(srw, t("srw", "g"), Strategy.FULL, first, 8)
    packed = unfold_exact(
        srw, t("srw", "g"), Strategy.FULL, first, 8, coalesce_states=True
    )
    assert plain.nf_masses == packed.nf_masses
    assert len(packed.states[-1]) <= len(plain.states[-1])


def test_unfold_innermost_simultaneous_loops_forever_on_s2():
    # reducing both equal redexes at once keeps the system cycling, which is
    # exactly why simultaneous innermost termination fails for it
    s2 = load_system("s2")
    trace = unfold_exact(
        s2, t("s2", "f(a,a)"), Strategy.INNERMOST_SIMULTANEOUS, first, 12
    )
    assert all(m == 0 for m in trace.nf_masses)
    assert trace.states[1] == MultiDistribution(
        [(half, t("s2", "f(b,b)")), (half, t("s2", "f(c,c)"))]
    )


def test_unfold_simultaneous_on_s2bar_also_cycles():
    s2bar = load_system("s2bar")
    trace = unfold_exact(
        s2bar, t("s2bar", "f(a,a)"), Strategy.SIMULTANEOUS, first, 9
    )
    assert trace.nf_masses[-1] == 0


def test_adversary_memo_cap():
    s1 = load_system("s1")
    with pytest.raises(CapExceeded):
        adversarial_lower_bound(s1, t("s1", "g"), Strategy.INNERMOST, 30, memo_cap=3)


def test_unfold_s1_states_follow_the_biased_walk():
    s1 = load_system("s1")
    trace = unfold_exact(s1, t("s1", "g"), Strategy.INNERMOST, first, 4)
    states = [[(term_to_str(u), p) for p, u in mu.entries] for mu in trace.states]
    assert states == [
        [("g", 1)],
        [("d(g)", Fraction(3, 4)), ("bot", Fraction(1, 4))],
        [("d(d(g))", Fraction(9, 16)), ("d(bot)", Fraction(3, 16)), ("bot", Fraction(1, 4))],
        [
            ("d(d(d(g)))", Fraction(27, 64)),
            ("d(d(bot))", Fraction(9, 64)),
            ("c(bot,bot)", Fraction(3, 16)),
            ("bot", Fraction(1, 4)),
        ],
        [
            ("d(d(d(d(g))))", Fraction(81, 256)),
            ("d(d(d(bot)))", Fraction(27, 256)),
            ("d(c(bot,bot))", Fraction(9, 64)),
            ("c(bot,bot)", Fraction(3, 16)),
            ("bot", Fraction(1, 4)),
        ],
    ]


def test_unfold_depth_two_of_argument_walk():
    srw2 = load_system("srw2")
    trace = unfold_exact(srw2, t("srw2", "g(0)"), Strategy.FULL, first, 2)
    assert sorted((term_to_str(u), p) for p, u in trace.states[2].entries) == [
        ("0", half),
        ("g(0)", Fraction(1, 4)),
        ("g(g(g(0)))", Fraction(1, 4)),
    ]


def reference_unfold(system, start, strategy, policy, depth, coalesce_states):
    """The unfolding the long way: every entry that is not a normal form
    stepped by the move the policy picks from the list of every admissible
    move, entry by entry in order, with no memo."""
    mu = singleton(start)
    states = [mu]
    for _ in range(depth):
        entries = []
        for p, u in mu.entries:
            if system.is_normal_form(u):
                entries.append((p, u))
            else:
                moves = admissible_moves(system, u, strategy)
                branches = step(system, u, pick_redex(policy, u, moves))
                entries.extend((p * q, v) for q, v in branches.entries)
        mu = MultiDistribution(entries)
        if coalesce_states:
            mu = coalesce(mu)
        states.append(mu)
    return states


def assert_memo_unfolding_matches_reference(system, start, depth):
    for strategy in (Strategy.FULL, Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
        for policy in (FirstMove(), RightmostFirst()):
            for coalesce_states in (False, True):
                trace = unfold_exact(
                    system, start, strategy, policy, depth,
                    coalesce_states=coalesce_states,
                )
                want = reference_unfold(
                    system, start, strategy, policy, depth, coalesce_states
                )
                where = (term_to_str(start), strategy, policy.name, coalesce_states)
                assert len(trace.states) == len(want), where
                for got_mu, want_mu in zip(trace.states, want):
                    assert len(got_mu) == len(want_mu), where
                    for (p, u), (q, v) in zip(got_mu.entries, want_mu.entries):
                        assert u is v and p == q, where
                assert trace.nf_masses == [system.nf_mass(mu) for mu in want], where
            # lift_step without a table of the caller's starts from an empty one
            one = lift_step(system, singleton(start), strategy, policy)
            assert one.entries == reference_unfold(
                system, start, strategy, policy, 1, False
            )[1].entries, (term_to_str(start), strategy, policy.name)


# branch denominators 2, 3 and 5: a step's weights are over their lcm, 30
COPRIME = """
(RULES
  g -> {1/2: c(g,h), 1/2: bot}
  h -> {1/3: c(h,k), 2/3: bot}
  k -> {1/5: c(k,g), 4/5: bot}
)
"""


def test_memoised_unfolding_matches_stepping_every_entry_on_the_corpus():
    for name, text in CORPUS_STARTS.items():
        assert_memo_unfolding_matches_reference(load_system(name), t(name, text), 7)
    coprime = parse_file(COPRIME).system
    assert coprime.branch_den == 30
    assert_memo_unfolding_matches_reference(
        coprime, parse_term("c(g,c(h,k))", coprime), 8
    )


def random_start(rng, system, max_depth, symbols=DEFAULT_SYMBOLS):
    """A ground term of a random system, over ``symbols``, that is not a
    normal form: a random term, or, most of the time, a term holding a
    ground instance of a random left-hand side at one or two places."""
    start = random_term(rng, max_depth, vars_=(), symbols=symbols)
    for _ in range(rng.choice((0, 1, 1, 2))):
        lhs = rng.choice(system.rules).lhs
        redex = apply_subst(
            lhs, {x: random_term(rng, 2, vars_=(), symbols=symbols) for x in sorted(lhs.vars)}
        )
        start = replace_at(start, rng.choice(positions(start)), redex)
    return start


def random_start_draws(seed, draws, max_depth, extra):
    """(system, start) for ``draws`` random systems over the default symbols
    from one stream, then ``extra`` from a second stream whose right-hand
    sides and starts are over the whole signature, g0 included, which the
    default symbols lack; the default draws stay as they were."""
    rng = random.Random(seed)
    for _ in range(draws):
        system = random_system(rng)
        yield rng, system, random_start(rng, system, max_depth)
    own = random.Random(seed + 1000)
    for _ in range(extra):
        system = random_system(own, symbols=SIGNATURE_SYMBOLS)
        yield own, system, random_start(own, system, max_depth, SIGNATURE_SYMBOLS)


def test_memoised_unfolding_matches_stepping_every_entry_on_random_systems():
    compared = g0 = 0
    for _, system, start in random_start_draws(61, 300, 4, 100):
        if system.is_normal_form(start):
            continue
        assert_memo_unfolding_matches_reference(system, start, 4)
        compared += 1
        g0 += fires_g0(system, start)
    assert compared > 250 and g0 > 80


def tree_walk_nf_masses(system, start, strategy, spec, depth):
    """``unfold_exact``'s normal-form masses from an unfolding that shares
    no code with the engine's steps: each state's moves are listed by the
    conftest tree walk (``tree_walk_redexes``, or ``tree_walk_groups`` under
    ``par``/``ipar``), the policy's pick is made from that list, and each
    branch is built with ``apply_subst`` and ``replace_at`` at every
    position of the move. Returns the masses, the states as lists of
    (probability, term), and the number of steps that contracted a rule
    headed by g0."""
    simultaneous = strategy in (Strategy.SIMULTANEOUS, Strategy.INNERMOST_SIMULTANEOUS)
    innermost = strategy not in (Strategy.FULL, Strategy.SIMULTANEOUS)
    rng = random.Random(int(spec.split(":")[1])) if spec.startswith("random:") else None

    def moves_of(u):
        """(positions, rule index, σ) by (first position, rule index)."""
        if simultaneous:
            return [(g.positions, g.rule_index, g.subst)
                    for g in tree_walk_groups(system, u, innermost)]
        found = sorted(((pos,), idx, sigma) for pos, _, idx, sigma
                       in tree_walk_redexes(system, u, innermost))
        if strategy is Strategy.LEFTMOST_INNERMOST:
            found = [m for m in found if m[0] == found[0][0]]
        return found

    state = [(Fraction(1), start, moves_of(start))]
    states = [state]
    fired = 0
    for _ in range(depth):
        following = []
        for p, u, moves in state:
            if not moves:
                following.append((p, u, moves))
                continue
            if spec == "first":
                positions_, idx, sigma = moves[0]
            elif spec == "rightmost":  # greatest position, lowest rule there
                positions_, idx, sigma = max(moves, key=lambda m: (max(m[0]), -m[1]))
            else:
                positions_, idx, sigma = moves[rng.randrange(len(moves))]
            rule = system.rules[idx]
            fired += rule.lhs.symbol.name == "g0"
            for q, rhs in rule.rhs.entries:
                v = u
                for pos in positions_:
                    v = replace_at(v, pos, apply_subst(rhs, sigma))
                following.append((p * q, v, moves_of(v)))
        state = following
        states.append(state)
    masses = [sum((p for p, _, moves in state if not moves), Fraction(0)) for state in states]
    return masses, [[(p, u) for p, u, _ in state] for state in states], fired


def test_exact_masses_match_the_tree_walk_unfolding_on_random_systems():
    compared = strict = g0 = 0
    for case, (rng, system, start) in enumerate(random_start_draws(73, 200, 4, 200)):
        depth = rng.randint(2, 6)
        for strategy in Strategy:
            for spec in ("first", "rightmost", f"random:{case}"):
                want, states, fired = tree_walk_nf_masses(system, start, strategy, spec, depth)
                trace = unfold_exact(system, start, strategy, make_policy(spec), depth)
                where = (term_to_str(start), strategy, spec, depth)
                assert trace.nf_masses == want, where
                # and the states, as multisets of (probability, term)
                for got_mu, want_mu in zip(trace.states, states):
                    assert Counter(got_mu.entries) == Counter(want_mu), where
                compared += 1
                strict += 0 < want[-1] < 1
                g0 += fired > 0
    assert compared == 400 * 5 * 3 and strict > 400 and g0 > 1500


def reference_adversary(system, start, strategy, depth):
    """The adversary as a recursive value iteration, recomputing each term's
    moves at every depth. Returns the bound and the number of (term, steps
    left) pairs in its memo."""
    moves_of = (
        innermost_redexes if strategy is Strategy.INNERMOST else leftmost_innermost_moves
    )
    memo = {}

    def value(u, n):
        if system.is_normal_form(u):
            return Fraction(1)
        if n == 0:
            return Fraction(0)
        if (u, n) in memo:
            return memo[(u, n)]
        best = None
        for redex in moves_of(system, u):
            total = Fraction(0)
            for p, successor in step(system, u, redex).entries:
                total += p * value(successor, n - 1)
            if best is None or total < best:
                best = total
        memo[(u, n)] = best
        return best

    return value(start, depth), len(memo)


def assert_adversary_matches_reference(system, start, strategy, depth):
    """Same bound as the reference, and the cap fires exactly when the pair
    count exceeds it."""
    bound, pairs = reference_adversary(system, start, strategy, depth)
    assert adversarial_lower_bound(system, start, strategy, depth) == bound
    for cap in range(pairs + 2):
        try:
            got = adversarial_lower_bound(system, start, strategy, depth, memo_cap=cap)
        except CapExceeded:
            got = CapExceeded
        want = CapExceeded if pairs > cap else bound
        assert got == want, (term_to_str(start), strategy, depth, cap)


def test_adversary_matches_the_recursive_reference_and_its_memo_cap():
    for name, text, depth in (("s1", "g", 8), ("s4", "f(a,b)", 12), ("s4", "f(a,b)", 0)):
        for strategy in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
            assert_adversary_matches_reference(load_system(name), t(name, text), strategy, depth)
    compared = g0 = 0
    for rng, system, start in random_start_draws(67, 1000, 4, 300):
        for strategy in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
            assert_adversary_matches_reference(system, start, strategy, rng.randint(0, 4))
        compared += not system.is_normal_form(start)
        g0 += fires_g0(system, start)
    assert compared > 800 and g0 > 250


def test_adversary_matches_the_recursive_reference_on_the_corpus():
    for name, text in CORPUS_STARTS.items():
        for strategy in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
            for depth in (1, 6):
                start = t(name, text)
                bound, _ = reference_adversary(load_system(name), start, strategy, depth)
                got = adversarial_lower_bound(load_system(name), start, strategy, depth)
                assert got == bound, (name, strategy, depth)


def count_app_calls(monkeypatch):
    """Count the terms built, interned or not, by the rewriting layer and by
    the term operations it calls."""
    counter = {"calls": 0}
    real = terms.app

    def counted(symbol, args=()):
        counter["calls"] += 1
        return real(symbol, args)

    for module in (terms, rewriting):
        monkeypatch.setattr(module, "app", counted)
    return counter


def test_innermost_adversary_builds_linearly_many_terms_along_a_chain(monkeypatch):
    """From g(0), srw2's innermost adversary meets g^j(0) for every j up to
    the depth. Each term's one move is its child's lifted under it, so the
    moves of the whole chain cost a few terms per link; stepping each term
    through its spine costs a term per level, quadratic in the depth. srw2
    has one innermost move per term, so the bound is the mass the one
    policy reaches. The same holds under ``li``, whose one move is also the
    leftmost."""
    srw2 = load_system("srw2")
    start = t("srw2", "g(0)")
    counter = count_app_calls(monkeypatch)
    for strategy in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
        built = {}
        for depth in (100, 200, 400):
            counter["calls"] = 0
            bound = adversarial_lower_bound(srw2, start, strategy, depth)
            built[depth] = counter["calls"]
            if depth < 400:
                unfolded = unfold_exact(srw2, start, strategy, first, depth, coalesce_states=True)
                assert bound == unfolded.lower_bound
        assert built[100] <= 5 * 100, strategy
        assert built[200] <= 2.1 * built[100] and built[400] <= 2.1 * built[200], strategy


def naive_innermost_moves(system, term, leftmost):
    """(position, rule index, substitution) of every innermost redex, from
    the definitions alone: every position tried against every rule, and a
    redex kept when no other redex lies strictly below it."""
    found = []
    for pos in positions(term):
        for idx, rule in enumerate(system.rules):
            sigma = match(rule.lhs, subterm_at(term, pos))
            if sigma is not None:
                found.append((pos, idx, sigma))
    at = {pos for pos, _, _ in found}
    inner = [
        m for m in found
        if not any(q != m[0] and q[: len(m[0])] == m[0] for q in at)
    ]
    if leftmost and inner:
        # innermost positions are parallel, so tuple order is left to right
        best = min(pos for pos, _, _ in inner)
        inner = [m for m in inner if m[0] == best]
    return inner


def achievable_masses(system, term, n, leftmost):
    """Every probability of reaching a normal form within n steps that some
    policy achieves from term. A policy may choose differently after every
    history, so the choices below different branches are independent and
    each branch contributes any of its own achievable values."""
    moves = naive_innermost_moves(system, term, leftmost)
    if not moves:
        return {Fraction(1)}
    if n == 0:
        return {Fraction(0)}
    out = set()
    for pos, idx, sigma in moves:
        sums = {Fraction(0)}
        for p, rhs in system.rules[idx].rhs.entries:
            successor = replace_at(term, pos, apply_subst(rhs, sigma))
            below = achievable_masses(system, successor, n - 1, leftmost)
            sums = {acc + p * v for acc in sums for v in below}
        out |= sums
    return out


def assert_adversary_is_the_least_policy_value(system, start, depth):
    """Returns how many of the two strategies let the policy change the
    outcome."""
    choices = 0
    for strategy in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
        leftmost = strategy is Strategy.LEFTMOST_INNERMOST
        values = achievable_masses(system, start, depth, leftmost)
        bound = adversarial_lower_bound(system, start, strategy, depth)
        assert bound == min(values), (term_to_str(start), strategy, depth)
        choices += len(values) > 1
    return choices


def test_adversary_equals_brute_force_over_policies():
    s4 = load_system("s4")
    for depth in range(5):
        assert_adversary_is_the_least_policy_value(s4, t("s4", "f(a,b)"), depth)
    # the four-step horizon is the first where a single coin can end s4's cycle
    assert min(achievable_masses(s4, t("s4", "f(a,b)"), 4, True)) == half
    compared = choices = g0 = 0
    for rng, system, start in random_start_draws(71, 3000, 3, 1000):
        if system.is_normal_form(start):
            continue
        choices += assert_adversary_is_the_least_policy_value(
            system, start, rng.randint(1, 4)
        )
        compared += 1
        g0 += fires_g0(system, start)
    assert compared > 2500 and choices > 150 and g0 > 800


def test_adversary_s4():
    s4 = load_system("s4")
    fab = t("s4", "f(a,b)")
    assert adversarial_lower_bound(s4, fab, Strategy.INNERMOST, 40) == 0
    bound = adversarial_lower_bound(s4, fab, Strategy.LEFTMOST_INNERMOST, 40)
    # three-step cycle, one coin per cycle: 1 - (1/2)^13 after 40 steps
    assert bound == 1 - Fraction(1, 2**13)
    assert bound >= Fraction(99, 100)


def test_adversary_normal_form_is_one():
    s4 = load_system("s4")
    assert adversarial_lower_bound(s4, t("s4", "f(c1,d2)"), Strategy.INNERMOST, 0) == 1


def test_adversary_monotone_in_depth():
    s4 = load_system("s4")
    fab = t("s4", "f(a,b)")
    previous = Fraction(0)
    for depth in range(0, 24, 3):
        bound = adversarial_lower_bound(s4, fab, Strategy.LEFTMOST_INNERMOST, depth)
        assert bound >= previous
        previous = bound


def test_adversary_rejects_full_strategy():
    s4 = load_system("s4")
    with pytest.raises(ValueError):
        adversarial_lower_bound(s4, t("s4", "f(a,b)"), Strategy.FULL, 5)


def test_negative_bounds_are_rejected():
    srw = load_system("srw")
    g, bot = t("srw", "g"), t("srw", "bot")
    with pytest.raises(ValueError, match="depth must be non-negative"):
        adversarial_lower_bound(srw, g, Strategy.INNERMOST, -2)
    with pytest.raises(ValueError, match="step cap must be non-negative"):
        mc_estimate(srw, g, Strategy.FULL, first, samples=5, step_cap=-3, seed=1)
    # a cap of 0 takes no step: only a start in normal form terminates
    for start, estimate in ((g, 0.0), (bot, 1.0)):
        for strategy in (Strategy.FULL, Strategy.INNERMOST):
            summary = mc_estimate(srw, start, strategy, first, samples=5, step_cap=0, seed=1)
            assert summary.estimate == estimate and summary.step_cap == 0


def test_mc_interval_is_the_95_percent_wilson_interval():
    z = NormalDist().inv_cdf(0.975)

    def summary(k, n):
        return McSummary(n, k, k / n, (n - k) / n, None, 10, 1)

    for n in (1, 2, 7, 10, 50, 1000):
        # at the ends, the bounds are z^2/(n+z^2) from 0 and n/(n+z^2) from 1
        lo, hi = summary(0, n).interval
        assert lo == 0.0 and hi == pytest.approx(z * z / (n + z * z), rel=1e-12)
        lo, hi = summary(n, n).interval
        assert hi == 1.0 and lo == pytest.approx(n / (n + z * z), rel=1e-12)
        for k in range(n + 1):
            p = k / n
            centre = (p + z * z / (2 * n)) / (1 + z * z / n)
            half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
            lo, hi = summary(k, n).interval
            assert lo == pytest.approx(max(0.0, centre - half), rel=1e-12, abs=1e-15)
            assert hi == pytest.approx(min(1.0, centre + half), rel=1e-12, abs=1e-15)
            assert 0.0 <= lo <= p <= hi <= 1.0
    # Newcombe (Stat. Med. 1998), table I: 81/263, 15/148, 0/20 and 1/29
    assert summary(81, 263).interval == pytest.approx((0.2553, 0.3662), abs=5e-5)
    assert summary(15, 148).interval == pytest.approx((0.0624, 0.1605), abs=5e-5)
    assert summary(0, 20).interval == pytest.approx((0.0, 0.1611), abs=5e-5)
    assert summary(1, 29).interval == pytest.approx((0.0061, 0.1718), abs=5e-5)


def test_mc_s7_always_terminates():
    s7 = load_system("s7")
    summary = mc_estimate(
        s7, t("s7", "g"), Strategy.FULL, first, samples=300, step_cap=1000, seed=1
    )
    assert summary.estimate == 1.0
    assert summary.censored_fraction == 0.0
    assert summary.mean_steps_of_terminated < 20


def test_mc_scripted_loop_censors_everything():
    s2 = load_system("s2")
    faa = t("s2", "f(a,a)")
    loop = Scripted([ScriptEntry(faa, 0, ((),))])
    summary = mc_estimate(
        s2, faa, Strategy.FULL, loop, samples=100, step_cap=50, seed=1
    )
    assert summary.estimate == 0.0
    assert summary.censored_fraction == 1.0
    assert summary.mean_steps_of_terminated is None


def test_mc_deterministic():
    srw = load_system("srw")
    g = t("srw", "g")
    runs = [
        mc_estimate(srw, g, Strategy.INNERMOST, first, 50, 2000, seed=7)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_mc_estimate_tracks_extinction_probability():
    """Downward-bias check against an independent oracle.

    For g -> {3/4: c(g,g), 1/4: bot} the number of g's is a branching process
    with offspring 2 w.p. 3/4 and 0 w.p. 1/4, independent of the rewrite
    policy. Its extinction probability is the least root of
    q = 1/4 + 3/4 q^2, i.e. q = 1/3. The censored estimator must sit below
    the true value plus three binomial standard deviations, and (sanity)
    within the symmetric band around it.
    """
    from pastlift.fmt import parse

    biased = parse("(RULES g -> {3/4: c(g,g), 1/4: bot})")
    g = parse_term("g", biased)
    samples = 500
    summary = mc_estimate(
        biased, g, Strategy.INNERMOST, first, samples=samples, step_cap=2000, seed=11
    )
    truth = 1 / 3
    sigma = (truth * (1 - truth) / samples) ** 0.5
    assert summary.estimate <= truth + 3 * sigma
    assert summary.estimate >= truth - 3 * sigma - 0.01  # censoring allowance


def test_mc_fast_and_generic_paths_agree():
    """The innermost zipper under ``first`` and under ``random``'s pick
    among the root matches (``li``) sample identical runs."""
    s1 = load_system("s1")
    g = t("s1", "g")
    fast = mc_estimate(s1, g, Strategy.INNERMOST, first, 80, 500, seed=3)
    generic = mc_estimate(s1, g, Strategy.LEFTMOST_INNERMOST, RandomSeeded(0), 80, 500, seed=3)
    # leftmost-innermost has a single admissible move for s1 terms, so the
    # random policy degenerates to first-move and runs must coincide
    assert fast.estimate == generic.estimate
    assert fast.mean_steps_of_terminated == generic.mean_steps_of_terminated


def test_rightmost_full_runs_do_not_rebuild_the_spine_per_step():
    """rightmost under full descends innermost, so its runs keep the term
    open at the redex: a step interns its contractum and the parents it
    climbs out of, not the path from the root (1.15M new pool entries when
    every step rebuilt that path)."""
    srw = load_system("srw")
    before = len(terms._APP_POOL)
    summary = mc_estimate(srw, t("srw", "g"), Strategy.FULL, RightmostFirst(), 50, 4000, seed=1)
    assert summary.terminated == 48
    assert len(terms._APP_POOL) - before < 20_000


# (system, start, strategy, policy, samples, step cap, seed) ->
# (terminated, estimate, censored fraction, mean steps of terminated runs),
# recorded with the sampler that built every branch and summed Fractions
RECORDED_MC = [
    (('srw', 'g', 'full', 'random:2', 100, 250, 2), (95, 0.95, 0.05, 12.368421052631579)),
    (('srw', 'g', 'full', 'rightmost', 100, 250, 2), (95, 0.95, 0.05, 12.368421052631579)),
    (('srw2', 'g(0)', 'full', 'random:2', 100, 250, 2), (95, 0.95, 0.05, 12.368421052631579)),
    (('srw2', 'g(0)', 'full', 'rightmost', 100, 250, 2), (95, 0.95, 0.05, 12.368421052631579)),
    (('s6', 'g', 'par', 'first', 200, 250, 2), (200, 1.0, 0.0, 7.05)),
    (('s6', 'g', 'par', 'random:2', 200, 250, 2), (200, 1.0, 0.0, 6.91)),
    (('srw', 'g', 'i', 'first', 50, 50000, 2), (50, 1.0, 0.0, 31.68)),
    (('srw', 'g', 'li', 'first', 50, 50000, 2), (50, 1.0, 0.0, 31.68)),
    (('srw2', 'g(0)', 'i', 'first', 50, 50000, 2), (50, 1.0, 0.0, 31.68)),
    (('srw2', 'g(0)', 'li', 'first', 50, 50000, 2), (50, 1.0, 0.0, 31.68)),
    (('s8', 'f(g)', 'i', 'first', 50, 2000, 2), (49, 0.98, 0.02, 20.836734693877553)),
    # the policy changes the outcome on these: they pin selection too
    (('s1', 'g', 'full', 'random:2', 30, 120, 2), (15, 0.5, 0.5, 4.266666666666667)),
    (('s1', 'g', 'full', 'rightmost', 30, 120, 2), (30, 1.0, 0.0, 7.666666666666667)),
    (('s1', 'g', 'full', 'first', 30, 120, 2), (9, 0.3, 0.7, 5.666666666666667)),
    (('s6', 'g', 'full', 'random:2', 30, 120, 2), (18, 0.6, 0.4, 9.0)),
    (('s6', 'g', 'full', 'rightmost', 30, 120, 2), (6, 0.2, 0.8, 1.0)),
    (('s6', 'g', 'full', 'first', 30, 120, 2), (30, 1.0, 0.0, 8.733333333333333)),
    (('s8', 'f(g)', 'full', 'random:2', 30, 120, 2), (16, 0.5333333333333333, 0.4666666666666667, 7.1875)),
    (('s8', 'f(g)', 'full', 'rightmost', 30, 120, 2), (28, 0.9333333333333333, 0.06666666666666667, 11.035714285714286)),
    (('s8', 'f(g)', 'full', 'first', 30, 120, 2), (9, 0.3, 0.7, 5.666666666666667)),
    (('s4', 'f(a,b)', 'full', 'random:2', 30, 120, 2), (30, 1.0, 0.0, 4.0)),
    (('s4', 'f(a,b)', 'full', 'rightmost', 30, 120, 2), (30, 1.0, 0.0, 4.7)),
    (('s4', 'f(a,b)', 'full', 'first', 30, 120, 2), (30, 1.0, 0.0, 5.5)),
    (('s7', 'g', 'full', 'random:2', 30, 120, 2), (30, 1.0, 0.0, 2.2333333333333334)),
    (('s7', 'g', 'full', 'rightmost', 30, 120, 2), (30, 1.0, 0.0, 2.2333333333333334)),
    (('s7', 'g', 'full', 'first', 30, 120, 2), (30, 1.0, 0.0, 2.2333333333333334)),
    (('s4', 'f(a,b)', 'i', 'random:2', 40, 250, 2), (40, 1.0, 0.0, 4.175)),
    (('s4', 'f(a,b)', 'i', 'rightmost', 40, 250, 2), (40, 1.0, 0.0, 4.475)),
    (('s4', 'f(a,b)', 'li', 'random:2', 40, 250, 2), (40, 1.0, 0.0, 5.0)),
    (('s4', 'f(a,b)', 'li', 'rightmost', 40, 250, 2), (40, 1.0, 0.0, 5.15)),
    (('s1', 'g', 'i', 'random:2', 40, 250, 2), (40, 1.0, 0.0, 6.7)),
    (('s1', 'g', 'i', 'rightmost', 40, 250, 2), (40, 1.0, 0.0, 6.7)),
    (('s1', 'g', 'li', 'random:2', 40, 250, 2), (40, 1.0, 0.0, 6.7)),
    (('s1', 'g', 'li', 'rightmost', 40, 250, 2), (40, 1.0, 0.0, 6.7)),
    # full-rewriting runs picked by redex index, recorded with the generic
    # sampler: caps that open deep frames, and a non-left-linear start on s3
    (('srw', 'g', 'full', 'first', 50, 2000, 5), (48, 0.96, 0.04, 30.916666666666668)),
    (('srw', 'g', 'full', 'random:3', 50, 2000, 5), (48, 0.96, 0.04, 30.916666666666668)),
    (('srw2', 'g(0)', 'full', 'first', 50, 2000, 5), (48, 0.96, 0.04, 30.916666666666668)),
    (('srw2', 'g(0)', 'full', 'random:3', 50, 2000, 5), (48, 0.96, 0.04, 30.916666666666668)),
    (('s1', 'g', 'full', 'first', 30, 400, 5), (11, 0.36666666666666664, 0.6333333333333333, 2.909090909090909)),
    (('s1', 'g', 'full', 'random:3', 30, 400, 5), (12, 0.4, 0.6, 2.25)),
    (('s6', 'g', 'full', 'first', 30, 250, 5), (30, 1.0, 0.0, 9.2)),
    (('s6', 'g', 'full', 'random:3', 30, 250, 5), (16, 0.5333333333333333, 0.4666666666666667, 11.3125)),
    (('s3', 'f(a,a)', 'full', 'first', 30, 400, 5), (0, 0.0, 1.0, None)),
    (('s3', 'f(a,a)', 'full', 'random:3', 30, 400, 5), (30, 1.0, 0.0, 6.366666666666666)),
]


def make_policy(spec):
    if spec == "first":
        return FirstMove()
    if spec == "rightmost":
        return RightmostFirst()
    return RandomSeeded(int(spec.split(":")[1]))


def test_mc_summaries_match_recorded_values():
    for (name, text, strategy, policy, samples, cap, seed), got in RECORDED_MC:
        system = load_system(name)
        summary = mc_estimate(
            system, t(name, text), Strategy(strategy), make_policy(policy),
            samples, cap, seed,
        )
        terminated, estimate, censored, mean = got
        assert summary == McSummary(
            samples, terminated, estimate, censored, mean, cap, seed
        ), (name, text, strategy, policy)


def reference_run(system, start, strategy, policy, rng, step_cap):
    """One run the long way: every admissible move enumerated for the
    policy, every branch of the step built, and the branch picked by
    comparing the draw with running Fraction sums."""
    term = start
    for steps in range(step_cap):
        if system.is_normal_form(term):
            return True, steps
        moves = admissible_moves(system, term, strategy)
        if strategy.simultaneous:
            group, chosen = pick_group(policy, term, moves)
            branches = sim_step(system, term, group, chosen)
        else:
            branches = step(system, term, pick_redex(policy, term, moves))
        pick = rng.random()
        acc = Fraction(0)
        term = branches.entries[-1][1]
        for p, candidate in branches.entries:
            acc += p
            if pick < acc:
                term = candidate
                break
    return system.is_normal_form(term), step_cap


def random_systems_and_starts():
    """Random systems with a start that is not a normal form: 3,000 draws
    over the default symbols, then 1,000 from a second stream with starts and
    right-hand sides over the whole signature, g0 included, which the
    default symbols lack. Yields (case, system, start)."""
    rng = random.Random(53)
    for case in range(3000):
        system = random_system(rng)
        start = random_term(rng, 4, vars_=())
        if not system.is_normal_form(start):
            yield case, system, start
    own = random.Random(54)
    for case in range(3000, 4000):
        system = random_system(own, symbols=SIGNATURE_SYMBOLS)
        start = random_term(own, 4, vars_=(), symbols=SIGNATURE_SYMBOLS)
        if not system.is_normal_form(start):
            yield case, system, start


def index_zipper_run(system, start, strategy, index, rng, step_cap, counts=None):
    """One run of a policy with an index rule, on the zipper ``mc_runs``
    gives it: under ``li`` the innermost zipper picking among the root
    matches at the leftmost innermost redex, under ``full``/``i`` the index
    zipper, counting into ``counts`` or into counts of its own."""
    if strategy is Strategy.LEFTMOST_INNERMOST:
        entry = partial(runsim._entry, system, rewriting._leftmost_innermost, True)
        return runsim.run_innermost_first(system, start, entry, rng, step_cap, pick=index)
    if counts is None:
        counts = runsim.RedexCounts(system, strategy is Strategy.INNERMOST)
    return runsim.run_by_index(system, start, index, rng, step_cap, counts)


def test_sampled_runs_match_the_reference_sampler_on_random_systems():
    compared = zipped = g0 = 0
    indexed = dict.fromkeys(("full", "i", "li"), 0)
    for case, system, start in random_systems_and_starts():
        g0 += fires_g0(system, start)
        for strategy in Strategy:
            for spec in ("first", "rightmost", f"random:{case}"):
                policy = make_policy(spec)
                # run i of mc_estimate(seed=case), every run through one
                # call's shared tables
                shared = mc_runs(system, start, strategy, policy, 25, case)
                for i in range(3):
                    run_seed = f"{case}:{i}"
                    expected = reference_run(
                        system, start, strategy,
                        policy.clone_for_run(run_seed + ":policy"),
                        random.Random(run_seed), 25,
                    )
                    # rightmost has no list pick: under full, i and li only
                    # its descent rule steps it
                    if strategy.simultaneous or policy.index_rule() is not None:
                        got = _run_generic(
                            system, start, strategy,
                            policy.clone_for_run(run_seed + ":policy"),
                            random.Random(run_seed), 25,
                        )
                        assert got == expected, (case, strategy, spec, i)
                    assert shared(i) == expected, (case, strategy, spec, i)
                    rule = policy.descent(strategy)
                    if rule in INNERMOST_DESCENTS:
                        fast = runsim.run_innermost_first(
                            system, start, partial(runsim._entry, system, rule, False),
                            random.Random(run_seed), 25,
                        )
                        assert fast == expected, (case, strategy, spec, i)
                        zipped += 1
                    index = policy.clone_for_run(run_seed + ":policy").index_rule()
                    sequential = not strategy.simultaneous
                    if sequential and index is not None and rule not in INNERMOST_DESCENTS:
                        fast = index_zipper_run(
                            system, start, strategy, index, random.Random(run_seed), 25
                        )
                        assert fast == expected, (case, strategy, spec, i)
                        indexed[strategy.value] += 1
                    compared += 1
    assert compared > 6000
    # first under i/li and rightmost under full/i/li
    assert zipped > 2000
    # first and random under full, random under i and li
    assert indexed["full"] > 800
    assert indexed["i"] > 1000 and indexed["li"] > 1000
    assert g0 > 150


def descent_run(system, start, rule, rng, step_cap):
    """One run the plain way: every step descends from the root by the
    descent rule, draws, and builds only the drawn branch in place."""
    term = start
    for steps in range(step_cap):
        if system.is_normal_form(term):
            return True, steps
        redex = descend(system, term, rule)
        branch = system.rules[redex.rule_index].pick_branch(rng.random())
        contractum = system.contract(redex.rule_index, branch, redex.subst)
        term = replace_at(term, redex.position, contractum)
    return system.is_normal_form(term), step_cap


# corpus runs long enough to open deep frames in runsim's zipper, which the
# 25-step random systems above never reach
CORPUS_RUNS = [
    ("s1", "g"), ("s4", "f(a,b)"), ("s6", "g"), ("s8", "f(g)"), ("srw", "g"), ("srw2", "g(0)"),
]


def test_innermost_runs_match_the_generic_sampler_on_the_corpus():
    """Runs on the innermost zipper are the plain descent's, and ``random``
    under ``i``/``li`` on its zipper and through ``mc_runs`` are
    ``_run_generic``'s."""
    deepest = 0
    pairs = indexed = 0
    for name, text in CORPUS_RUNS:
        system = load_system(name)
        start = t(name, text)
        for strategy in Strategy:
            for policy in (FirstMove(), RightmostFirst()):
                rule = policy.descent(strategy)
                if rule not in INNERMOST_DESCENTS:
                    continue
                pairs += 1
                for i in range(20):
                    run_seed = f"{name}:{i}"
                    expected = descent_run(
                        system, start, rule, random.Random(run_seed), 300
                    )
                    fast = runsim.run_innermost_first(
                        system, start, partial(runsim._entry, system, rule, False),
                        random.Random(run_seed), 300,
                    )
                    assert fast == expected, (name, strategy, policy.name, i)
                    deepest = max(deepest, expected[1])
        for strategy in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
            policy = RandomSeeded(7)
            shared = mc_runs(system, start, strategy, policy, 300, 7)
            for i in range(20):
                own = f"7:{i}:policy"
                expected = _run_generic(
                    system, start, strategy, policy.clone_for_run(own),
                    random.Random(f"7:{i}"), 300,
                )
                fast = index_zipper_run(
                    system, start, strategy, policy.clone_for_run(own).index_rule(),
                    random.Random(f"7:{i}"), 300,
                )
                assert fast == expected == shared(i), (name, strategy, i)
                deepest = max(deepest, expected[1])
                indexed += 1
    # first under i/li and rightmost under full/i/li, on every corpus start
    assert pairs == 5 * len(CORPUS_RUNS)
    assert indexed == 2 * 20 * len(CORPUS_RUNS)
    assert deepest == 300


# (system, start, strategy, policy) whose runs share tables: the SimTable
# under par/ipar, and the innermost zipper's move table and segments
SHARED_TABLE_RUNS = (
    [("s6", "g", strategy, spec) for strategy in ("par", "ipar")
     for spec in ("first", "rightmost", "random:3")]
    + [("srw2", "g(0)", "ipar", spec) for spec in ("first", "rightmost", "random:3")]
    + [(name, text, strategy, "first") for name, text in (("srw", "g"), ("srw2", "g(0)"),
                                                          ("s8", "f(g)"))
       for strategy in ("i", "li")]
    + [(name, text, "full", "rightmost") for name, text in (("srw", "g"), ("srw2", "g(0)"),
                                                            ("s8", "f(g)"))]
)


def test_runs_sharing_one_calls_tables_match_independent_reference_runs():
    """Run i of one ``mc_runs`` call, made after runs 0..i-1 filled its
    tables, is the reference sampler's run from the same seeds."""
    deepest = 0
    for name, text, strategy, spec in SHARED_TABLE_RUNS:
        system = load_system(name)
        start = t(name, text)
        strategy = Strategy(strategy)
        shared = mc_runs(system, start, strategy, make_policy(spec), 200, 9)
        for i in range(25):
            expected = reference_run(
                system, start, strategy, make_policy(spec).clone_for_run(f"9:{i}:policy"),
                random.Random(f"9:{i}"), 200,
            )
            assert shared(i) == expected, (name, strategy, spec, i)
            deepest = max(deepest, expected[1])
    assert deepest == 200


# par/ipar estimates on the simultaneous move table, at caps that s6's
# d-trees, srw2's chain and s3's growing term reach: (system, start,
# strategy, policy, step cap)
SIMULTANEOUS_RUNS = (
    [("s6", "g", strategy, spec, 1000) for strategy in ("par", "ipar")
     for spec in ("first", "rightmost", "random:2")]
    + [("srw2", "g(0)", "ipar", "random:1", 4000)]
    + [(name, "f(a,a)", strategy, spec, 60) for name in ("s3", "s5")
       for strategy in ("par", "ipar") for spec in ("first", "rightmost", "random:2")]
)


def test_simultaneous_runs_match_the_generic_sampler_on_the_corpus():
    """Run i of one ``mc_runs`` estimate under ``par``/``ipar``, made on the
    move table runs 0..i-1 filled, is ``_run_generic``'s run from the same
    seeds on a fresh ``SimTable``."""
    deepest = {}
    for name, text, strategy, spec, cap in SIMULTANEOUS_RUNS:
        system = load_system(name)
        start = t(name, text)
        strategy = Strategy(strategy)
        shared = mc_runs(system, start, strategy, make_policy(spec), cap, 11)
        table = SimTable(system, strategy)
        for i in range(200 if name == "srw2" else 40):
            expected = _run_generic(
                system, start, strategy, make_policy(spec).clone_for_run(f"11:{i}:policy"),
                random.Random(f"11:{i}"), cap, table,
            )
            assert shared(i) == expected, (name, strategy, spec, i)
            deepest[name] = max(deepest.get(name, 0), expected[1])
    # s3 never terminates, and some srw2 walk outlives the cap
    assert deepest["s3"] == 60 and deepest["srw2"] == 4000
    assert deepest["s6"] > 20


def test_simultaneous_runs_sharing_a_move_table_build_each_move_once(monkeypatch):
    """The runs of one estimate ask ``SimTable`` for each distinct term's
    descent pick or groups once, and rebuild each (term, group, branch)
    successor once, in any run."""
    asked, rebuilt = [], []
    pick, groups, rebuild = SimTable.pick, SimTable.groups, SimTable.rebuild

    def counted_pick(table, u, rule):
        asked.append(u)
        return pick(table, u, rule)

    def counted_groups(table, u):
        asked.append(u)
        return groups(table, u)

    def counted_rebuild(table, u, instance, replacement):
        rebuilt.append((u, instance, replacement))
        return rebuild(table, u, instance, replacement)

    monkeypatch.setattr(SimTable, "pick", counted_pick)
    monkeypatch.setattr(SimTable, "groups", counted_groups)
    monkeypatch.setattr(SimTable, "rebuild", counted_rebuild)
    for name, text, strategy, spec, cap in SIMULTANEOUS_RUNS:
        asked.clear()
        rebuilt.clear()
        one_run = mc_runs(load_system(name), t(name, text), Strategy(strategy),
                          make_policy(spec), cap, 11)
        steps = sum(one_run(i)[1] for i in range(40))
        assert asked and len(asked) == len(set(asked)), (name, strategy, spec)
        assert rebuilt and len(rebuilt) == len(set(rebuilt)), (name, strategy, spec)
        if name in ("s6", "srw2"):  # runs that meet the same terms again
            assert steps > 2 * len(rebuilt), (name, strategy, spec)


def test_a_deterministic_simultaneous_start_is_memoised_as_one_segment(monkeypatch):
    """Every r_d rule has one branch, so a ``par``/``ipar`` run from
    d(s(s(s(0)))) draws nothing and its start is memoised as one segment:
    a later run asks ``SimTable`` nothing, even on a fresh move table, and
    is still ``_run_generic``'s."""
    asked = []
    for hook in ("pick", "groups", "rebuild"):

        def counted(table, *args, real=getattr(SimTable, hook)):
            asked.append(args)
            return real(table, *args)

        monkeypatch.setattr(SimTable, hook, counted)
    system = load_system("r_d")
    start = t("r_d", "d(s(s(s(0))))")
    normal = t("r_d", "s(s(s(s(s(s(0))))))")
    for strategy in (Strategy.SIMULTANEOUS, Strategy.INNERMOST_SIMULTANEOUS):
        for spec in ("first", "rightmost"):
            asked.clear()
            one_run = mc_runs(system, start, strategy, make_policy(spec), 100, 5)
            assert one_run(0) == (True, 4) and asked
            asked.clear()
            got = one_run(1)
            assert not asked, (strategy, spec)
            expected = _run_generic(system, start, strategy, make_policy(spec),
                                    random.Random("5:1"), 100, SimTable(system, strategy))
            assert got == expected == (True, 4), (strategy, spec)

            rule = make_policy(spec).descent(strategy.plain)
            entry = partial(runsim._sim_entry, system, SimTable(system, strategy), rule)
            memo = {}
            assert runsim.run_innermost_first(system, start, entry, random.Random(0), 100, memo) == (True, 4)
            assert memo == {start: (normal, 4)}
            asked.clear()
            for cap, want in ((100, (True, 4)), (4, (True, 4)), (3, (False, 3))):
                assert runsim.run_innermost_first(system, start, entry, random.Random(1), cap, memo) == want
            assert not asked, (strategy, spec)


def test_the_index_zipper_walks_the_left_hand_sides_once_per_estimate(monkeypatch):
    """``RedexCounts`` finds the rematch sites once, for every run of one
    estimate under ``full``; innermost counts need none."""
    calls = []
    real = runsim._rematch_sites

    def counted(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(runsim, "_rematch_sites", counted)
    system = load_system("s6")
    for strategy, walks in ((Strategy.FULL, 1), (Strategy.INNERMOST, 0)):
        calls.clear()
        one_run = mc_runs(system, t("s6", "g"), strategy, make_policy("random:2"), 60, 1)
        steps = sum(one_run(i)[1] for i in range(50))
        assert steps > 50 and len(calls) == walks, strategy


def wilson_interval(successes, n, z):
    """Wilson's score interval for a binomial proportion (Wilson, JASA 1927)."""
    p = successes / n
    centre = p + z * z / (2 * n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    scale = 1 + z * z / n
    return (centre - half) / scale, (centre + half) / scale


def test_mc_estimates_lie_near_exact_masses_on_random_systems():
    """Under a deterministic policy a run's law is the exact lifting, so the
    share of runs that reach a normal form within N steps estimates exact
    ``nf_mass`` at depth N. Each estimate must lie within a Wilson interval
    (z = 5) of it, and over all estimates the pooled deviation must stay
    within five standard errors."""
    rng = random.Random(61)
    samples, z = 200, 5.0
    compared = strict = g0 = 0
    deviation = variance = 0.0
    for case in range(300):
        system = random_system(rng, symbols=SIGNATURE_SYMBOLS)
        start = random_term(rng, 4, vars_=(), symbols=SIGNATURE_SYMBOLS)
        if system.is_normal_form(start):
            continue
        g0 += fires_g0(system, start)
        depth = rng.randint(2, 8)
        for strategy in Strategy:
            for policy in (FirstMove(), RightmostFirst()):
                try:
                    exact = unfold_exact(system, start, strategy, policy, depth,
                                         support_cap=5000, coalesce_states=True)
                except CapExceeded:
                    continue
                mass = float(exact.lower_bound)
                summary = mc_estimate(system, start, strategy, policy, samples, depth, case)
                lo, hi = wilson_interval(summary.terminated, samples, z)
                assert lo <= mass <= hi, (case, strategy, policy.name, summary, mass)
                deviation += summary.terminated - samples * mass
                variance += samples * mass * (1 - mass)
                strict += 0 < mass < 1
                compared += 1
    assert abs(deviation) <= z * math.sqrt(variance)
    assert compared > 600 and strict > 150 and g0 > 50


def full_index_runs(system, start, spec, run_seed, step_cap, strategy=Strategy.FULL, counts=None):
    """One run under a policy with an index rule, by default under full
    rewriting, from the same seeds by ``_run_generic`` and by
    ``runsim.run_by_index``, which counts into ``counts`` when given."""
    policy = make_policy(spec)
    expected = _run_generic(
        system, start, strategy, policy.clone_for_run(run_seed + ":policy"),
        random.Random(run_seed), step_cap,
    )
    index = policy.clone_for_run(run_seed + ":policy").index_rule()
    got = index_zipper_run(system, start, strategy, index, random.Random(run_seed), step_cap, counts)
    return expected, got


# starts under a non-left-linear root f(x,x): a step below it can change
# whether it matches, so the index sampler re-matches it after every step
NONLINEAR_RUNS = [("s2", "f(a,a)"), ("s3", "f(a,a)"), ("s5", "f(a,a)")]

# left-hand sides with non-variable positions two deep, at 1.2 and at 2.2
# but not at 2.1: a step at 1.2 can make an f above it match, or stop it
# matching, and one at 2.1 cannot
DEEP_LHS = """
(VAR x y)
(RULES
  f(c(x,a),y) -> {1/2: f(c(y,b),x), 1/2: x}
  f(y,c(x,a)) -> {1: f(x,c(b,y))}
  b -> {1/3: a, 2/3: c(b,a)}
)
"""


def test_full_index_runs_match_the_generic_sampler_on_the_corpus():
    deepest = {}
    for name, text in CORPUS_RUNS + NONLINEAR_RUNS:
        system = load_system(name)
        start = t(name, text)
        for strategy in (Strategy.FULL, Strategy.INNERMOST):
            # shared by every run, as by the runs of one estimate
            counts = runsim.RedexCounts(system, strategy is Strategy.INNERMOST)
            for spec in ("first", "random:4"):
                for i in range(6):
                    expected, got = full_index_runs(
                        system, start, spec, f"{name}:{i}", 250, strategy, counts
                    )
                    assert got == expected, (name, strategy, spec, i)
                    deepest[name] = max(deepest.get(name, 0), expected[1])
    assert max(deepest.values()) == 250
    assert all(deepest[name] == 250 for name, _ in NONLINEAR_RUNS)
    deep = parse_file(DEEP_LHS).system
    start = parse_term("c(f(c(b,b),c(b,b)),f(c(b,b),c(b,b)))", deep)
    for spec in ("first", "random:4"):
        for i in range(30):
            expected, got = full_index_runs(deep, start, spec, f"deep:{i}", 60)
            assert got == expected, ("deep", spec, i)


def with_nonlinear_rule(rng, system):
    """The system and one more rule, ``f(x,x)`` to random right-hand sides
    over the signature, and a start ``f(s,s)`` for it with a random ground s:
    random left-hand sides are almost never non-left-linear, and random
    starts almost never repeat an argument."""
    x = var("x")
    probs = random_probs(rng, rng.randint(1, 3))
    rhs = MultiDistribution(
        [(p, random_term(rng, 3, vars_=("x",), symbols=SIGNATURE_SYMBOLS)) for p in probs]
    )
    f = Symbol("f", 2)
    s = random_term(rng, 3, vars_=(), symbols=SIGNATURE_SYMBOLS)
    return Ptrs(system.rules + (ProbRule(app(f, [x, x]), rhs),)), app(f, [s, s])


def test_full_index_runs_match_the_generic_sampler_on_random_systems(monkeypatch):
    """Starts over the default symbols, as the suites above draw them, and
    over each system's own signature, whose constant g0 heads rules that
    default-symbol starts never fire; every other system also gets a
    non-left-linear rule and a start it matches."""
    fired = []
    real = ProbRule.pick_branch

    def spy(rule, x):
        fired.append(rule)
        return real(rule, x)

    monkeypatch.setattr(ProbRule, "pick_branch", spy)
    rng = random.Random(61)
    compared = g0_runs = nonlinear_runs = 0
    for case in range(1000):
        system = random_system(rng)
        starts = [
            random_term(rng, 4, vars_=()),
            random_term(rng, 4, vars_=(), symbols=SIGNATURE_SYMBOLS),
        ]
        if case % 2:
            system, start = with_nonlinear_rule(rng, system)
            starts.append(start)
        for start in starts:
            if system.is_normal_form(start):
                continue
            for spec in ("first", f"random:{case}"):
                for i in range(3):
                    fired.clear()
                    expected, got = full_index_runs(system, start, spec, f"{case}:{i}", 25)
                    assert got == expected, (case, term_to_str(start), spec, i)
                    compared += 1
                    g0_runs += any(rule.lhs.symbol.name == "g0" for rule in fired)
                    nonlinear_runs += any(duplicated_vars(rule.lhs) for rule in fired)
    assert compared > 4000
    assert g0_runs > 1500
    assert nonlinear_runs > 2000


def fresh_system(name):
    """A newly parsed corpus system, with empty caches."""
    return parse_file((SYSTEMS_DIR / f"{name}.ptrs").read_text()).system


def check_caches_against_a_fresh_system(system, label, counts=()):
    """Every normal-form verdict, root match and contractum in the system's
    caches, and every redex count in ``counts`` (``runsim.RedexCounts``), is
    what a system with empty caches computes for the same term: the counts by
    listing the redexes, the matches and contracta by plain ``terms.match``
    and ``terms.apply_subst``. Returns how many matches and contracta it
    checked."""
    fresh = Ptrs(system.rules, system.extra_constructors)
    for u, verdict in system._nf_cache.items():
        assert fresh.is_normal_form(u) == verdict, (label, term_to_str(u))
    for counted in counts:
        listed = innermost_redexes if counted.innermost else rewriting.redexes
        for u, n in counted.known.items():
            assert len(listed(fresh, u)) == n, (label, counted.innermost, term_to_str(u))
    for u, found in system._match_cache.items():
        pairs = [(idx, match(rule.lhs, u)) for idx, rule in fresh.rules_at_root(u)]
        want = [(idx, sigma) for idx, sigma in pairs if sigma is not None]
        assert list(found) == want, (label, term_to_str(u))
    for (idx, b, *images), got in system._contracta.items():
        rule = fresh.rules[idx]
        sigma = dict(zip(sorted(rule.lhs.vars), images))
        assert got is apply_subst(rule.rhs.terms[b], sigma), (label, idx, b)
    return len(system._match_cache), len(system._contracta)


def test_full_index_runs_cache_what_a_fresh_system_computes():
    """Every redex count the index sampler's runs of one estimate share,
    under ``full`` and under ``i``, and every normal-form verdict it leaves
    in the system's caches, is the one a system with empty caches computes
    for the same term. So is every root match and contractum cached by the
    MC runs under ``i``, ``li`` and ``full``, by an exact unfolding and by
    the spareness falsifier."""
    checked = matches = contracta = empty = 0
    for name, text in CORPUS_RUNS + NONLINEAR_RUNS:
        system = fresh_system(name)
        start = parse_term(text, system)
        shared = []
        for strategy in (Strategy.FULL, Strategy.INNERMOST):
            counts = runsim.RedexCounts(system, strategy is Strategy.INNERMOST)
            for spec in ("first", "random:5"):
                for i in range(6):
                    index = make_policy(spec).clone_for_run(f"6:{i}:policy").index_rule()
                    runsim.run_by_index(system, start, index, random.Random(f"6:{i}"), 250, counts)
            shared.append(counts)
            checked += len(counts.known)
            empty += sum(system._match_cache.get(u) == () for u in counts.known)
        for strategy in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
            for spec in ("first", "rightmost", "random:5"):
                mc_estimate(system, start, strategy, make_policy(spec), 6, 250, seed=6)
        got = check_caches_against_a_fresh_system(system, name, shared)
        matches, contracta = matches + got[0], contracta + got[1]
    assert checked > 1000
    assert matches > 100 and contracta > 60
    # the sampler counts a parent's own matches without keeping an empty list
    assert empty * 100 < checked

    # random systems, whose left-hand sides may have several variables
    rng = random.Random(67)
    matches = contracta = several = counted = 0
    for case in range(1000):
        system = random_system(rng)
        starts = (random_start(rng, system, 4),
                  random_term(rng, 4, vars_=(), symbols=SIGNATURE_SYMBOLS))
        shared = [runsim.RedexCounts(system, innermost) for innermost in (False, True)]
        for start in starts:
            for strategy in (Strategy.FULL, Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
                for policy in (FirstMove(), RandomSeeded(case)):
                    mc_estimate(system, start, strategy, policy, 3, 25, seed=case)
            for counts in shared:
                for i in range(3):
                    index = RandomSeeded(f"{case}:{i}:policy").index_rule()
                    runsim.run_by_index(system, start, index, random.Random(f"{case}:{i}"), 25,
                                        counts)
        got = check_caches_against_a_fresh_system(system, f"random {case}", shared)
        matches, contracta = matches + got[0], contracta + got[1]
        several += sum(len(key) > 3 for key in system._contracta)
        counted += sum(len(counts.known) for counts in shared)
    assert matches > 1500 and contracta > 1500 and several > 100 and counted > 1500

    for name, text in (("s4", "f(a,b)"), ("s6", "g")):
        system = fresh_system(name)
        unfold_exact(system, parse_term(text, system), Strategy.FULL, RandomSeeded(2), 8)
        assert min(check_caches_against_a_fresh_system(system, f"unfold {name}")) > 3
    s1 = fresh_system("s1")
    assert falsify_spare(s1, 3, [parse_term("g", s1)]) is not None
    assert min(check_caches_against_a_fresh_system(s1, "falsify s1")) > 0


class GenericReached(Exception):
    pass


def test_only_policies_without_a_fast_path_reach_the_generic_sampler(monkeypatch):
    """Only ``script`` takes ``_run_generic``, under every strategy; every
    other pair has a table or a zipper."""
    def refuse(*args):
        raise GenericReached

    monkeypatch.setattr(semantics, "_run_generic", refuse)
    srw = load_system("srw")
    g = t("srw", "g")
    script = Scripted([ScriptEntry(g, 0, ((),))])
    for strategy in Strategy:
        for policy in (FirstMove(), RightmostFirst(), RandomSeeded(1)):
            mc_estimate(srw, g, strategy, policy, 20, 300, seed=1)
        with pytest.raises(GenericReached):
            mc_estimate(srw, g, strategy, script, 1, 300, seed=1)


def memo_free_zipper_run(system, start, rule, rng, step_cap):
    """``runsim.run_innermost_first`` as it was before deterministic segments
    were memoised: one contraction and one draw per step."""
    nf = system.is_normal_form
    frames = []
    u = start
    for steps in range(step_cap + 1):
        while nf(u):
            if not frames:
                return True, steps
            parent, k = frames.pop()
            args = parent.args
            u = terms.app(parent.symbol, args[: k - 1] + (u,) + args[k:])
        if steps == step_cap:
            break
        found = rule(system, u)
        while isinstance(found, int):
            frames.append((u, found))
            u = u.args[found - 1]
            found = rule(system, u)
        idx, sigma = found
        contracted = system.rules[idx]
        u = apply_subst(contracted.rhs.terms[contracted.pick_branch(rng.random())], sigma)
    return False, step_cap


class CountingMemo(dict):
    """A segment memo that counts the lookups that find a segment."""

    hits = 0

    def get(self, key, default=None):
        got = super().get(key, default)
        if got is not None:
            self.hits += 1
        return got


def innermost_rules():
    """The descent rule of each (strategy, policy) pair the zipper takes."""
    rules = []
    for strategy in Strategy:
        for policy in (FirstMove(), RightmostFirst()):
            rule = policy.descent(strategy)
            if rule in INNERMOST_DESCENTS:
                rules.append((strategy, policy.name, rule))
    assert len(rules) == 5  # first under i/li, rightmost under full/i/li
    return rules


# s8 starts whose duplicated f(s^k(bot)) is a deterministic segment, with
# g's draws after it under one descent and before it under the other
S8_SEGMENT_STARTS = [
    "f(s(s(s(s(s(bot))))))", "c(f(s(s(s(bot)))), g)", "c(g, f(s(s(s(bot)))))",
]


def test_memoised_runs_match_the_memo_free_zipper_on_the_corpus():
    hits = 0
    for name, text in CORPUS_RUNS + [("s8", text) for text in S8_SEGMENT_STARTS]:
        system = load_system(name)
        start = t(name, text)
        for strategy, policy, rule in innermost_rules():
            memo = CountingMemo()  # one per batch of runs, as in mc_estimate
            for i in range(20):
                run_seed = f"{name}:{i}"
                expected = memo_free_zipper_run(system, start, rule, random.Random(run_seed), 300)
                got = runsim.run_innermost_first(
                    system, start, partial(runsim._entry, system, rule, False),
                    random.Random(run_seed), 300, memo,
                )
                assert got == expected, (name, text, strategy, policy, i)
            hits += memo.hits
    assert hits > 300


def test_memoised_runs_match_the_memo_free_zipper_at_every_cap():
    """Caps that land inside a memoised segment, at its last step and one
    past it: f(s^k(bot)) normalises in 2^k - 1 steps, for k up to 5."""
    s8 = load_system("s8")
    for text in S8_SEGMENT_STARTS:
        start = t("s8", text)
        for strategy, policy, rule in innermost_rules():
            memo = CountingMemo()  # shared across caps: segments do not depend on them
            caps = list(range(2**5 + 3))
            for cap in caps + caps[::-1]:  # short caps before and after long ones
                for i in range(2):
                    run_seed = f"{cap}:{i}"
                    expected = memo_free_zipper_run(s8, start, rule, random.Random(run_seed), cap)
                    got = runsim.run_innermost_first(
                        s8, start, partial(runsim._entry, s8, rule, False),
                        random.Random(run_seed), cap, memo,
                    )
                    assert got == expected, (text, strategy, policy, cap, i)
            assert memo.hits > 0
            normal, steps = memo[t("s8", "f(s(s(s(bot))))")]
            assert steps == 7 and s8.is_normal_form(normal)


def zipper_draws():
    """(case, system, start): 4,000 draws over the default symbols, then
    1,000 from a second stream with starts and right-hand sides over the
    whole signature, g0 included, which the default symbols lack."""
    rng = random.Random(59)
    for case in range(4000):
        yield case, random_system(rng), random_term(rng, 4, vars_=())
    own = random.Random(60)
    for case in range(4000, 5000):
        system = random_system(own, symbols=SIGNATURE_SYMBOLS)
        yield case, system, random_term(own, 4, vars_=(), symbols=SIGNATURE_SYMBOLS)


def test_memoised_runs_match_the_memo_free_zipper_on_random_systems():
    compared = hits = g0 = 0
    for case, system, start in zipper_draws():
        if system.is_normal_form(start):
            continue
        g0 += fires_g0(system, start)
        for strategy, policy, rule in innermost_rules():
            memo = CountingMemo()
            for i, cap in enumerate((25, 3, 25, 8, 1, 25)):
                run_seed = f"{case}:{i}"
                expected = memo_free_zipper_run(system, start, rule, random.Random(run_seed), cap)
                got = runsim.run_innermost_first(
                    system, start, partial(runsim._entry, system, rule, False),
                    random.Random(run_seed), cap, memo,
                )
                assert got == expected, (case, strategy, policy, i, cap)
                compared += 1
            hits += memo.hits
    assert compared > 12000
    assert hits > 3000
    assert g0 > 150


def s8_tower(k):
    return t("s8", "f(" + "s(" * k + "bot" + ")" * (k + 1))


def count_contractions(monkeypatch):
    """Count the zipper's contractions: calls of ``Ptrs.contract``, which
    looks up or builds one contractum, so a cache hit counts as a miss does."""
    counter = {"calls": 0}
    real = Ptrs.contract

    def counted(system, idx, b, sigma):
        counter["calls"] += 1
        return real(system, idx, b, sigma)

    monkeypatch.setattr(Ptrs, "contract", counted)
    return counter


def test_duplicated_subterms_cost_one_contraction_each(monkeypatch):
    """s8 normalises f(s^k(bot)) in 2^k - 1 innermost steps, but it has only
    k distinct non-normal f-subterms, so a run contracts O(k) times."""
    s8 = load_system("s8")
    k = 20
    start = s8_tower(k)
    counter = count_contractions(monkeypatch)
    for rule in INNERMOST_DESCENTS:
        entry = partial(runsim._entry, s8, rule, False)
        counter["calls"] = 0
        got = runsim.run_innermost_first(s8, start, entry, random.Random(1), 2**21)
        assert got == (True, 2**k - 1)
        assert counter["calls"] <= 2 * k
        counter["calls"] = 0
        got = runsim.run_innermost_first(s8, start, entry, random.Random(1), 2**k - 2)
        assert got == (False, 2**k - 2)
        assert counter["calls"] <= 2 * k


def test_skipped_segments_pay_their_draws_before_the_next_draw(monkeypatch):
    s8 = load_system("s8")
    leftmost = partial(runsim._entry, s8, first.descent(Strategy.INNERMOST), False)
    k = 12
    n = 2**k - 1  # more owed draws than one chunk pays
    memo = {}
    rng = random.Random(7)
    assert runsim.run_innermost_first(s8, s8_tower(k), leftmost, rng, n, memo) == (
        True, n,
    )
    # a run that ends owing draws pays none
    assert rng.getstate() == random.Random(7).getstate()

    counter = count_contractions(monkeypatch)
    rng = random.Random(7)
    start = t("s8", f"c({terms.term_to_str(s8_tower(k))}, g)")
    _, steps = runsim.run_innermost_first(s8, start, leftmost, rng, n + 1, memo)
    assert steps == n + 1
    assert counter["calls"] == 1  # the segment was skipped; only g was contracted
    fresh = random.Random(7)
    for _ in range(n + 1):
        fresh.random()
    assert rng.getstate() == fresh.getstate()


def test_zipper_runs_sharing_a_move_table_ask_each_term_once(monkeypatch):
    """Runs that share a move table build each distinct term's entry once
    and each successor once, in any run; each run is still the memo-free
    zipper's, or under ``li`` with ``random``'s pick among the root matches,
    and under ``par``/``ipar``, ``_run_generic``'s, with no segment memoised
    under a pick."""
    counter = count_contractions(monkeypatch)
    li = (Strategy.LEFTMOST_INNERMOST, "random:8", rewriting._leftmost_innermost)
    rows = [
        (name, text, *row)
        for name, text in (("srw", "g"), ("srw2", "g(0)"), ("s6", "g"), ("s8", "f(g)"))
        for row in innermost_rules() + [li]
    ] + [
        ("s6", "g", Strategy(strategy), policy, None)
        for strategy in ("par", "ipar") for policy in ("first", "random:3")
    ]
    for name, text, strategy, policy, rule in rows:
        system = load_system(name)
        start = t(name, text)
        table = SimTable(system, strategy) if strategy.simultaneous else None
        if table is None:
            entry = partial(runsim._entry, system, rule, policy == "random:8")
        else:
            plain = make_policy(policy).descent(strategy.plain)
            entry = partial(runsim._sim_entry, system, table, plain)
        asked = []

        def counted(u, entry=entry):
            asked.append(u)
            return entry(u)

        seeds = [f"{name}:{i}" for i in range(40)]
        if policy.startswith("random:"):
            own = [RandomSeeded(f"{policy[7:]}:{i}") for i in range(40)]
            expected = [
                _run_generic(system, start, strategy, own[i], random.Random(seed), 300,
                             SimTable(system, strategy) if table else None)
                for i, seed in enumerate(seeds)
            ]
            picks = [RandomSeeded(f"{policy[7:]}:{i}").index_rule() for i in range(40)]
        elif table is not None:
            expected = [
                _run_generic(system, start, strategy, make_policy(policy),
                             random.Random(seed), 300, SimTable(system, strategy))
                for seed in seeds
            ]
            picks = [None] * 40
        else:
            expected = [
                memo_free_zipper_run(system, start, rule, random.Random(seed), 300)
                for seed in seeds
            ]
            picks = [None] * 40
        memo, moves = {}, {}
        counter["calls"] = steps = 0
        for seed, pick, want in zip(seeds, picks, expected):
            got = runsim.run_innermost_first(
                system, start, counted, random.Random(seed), 300, memo, moves, pick
            )
            assert got == want, (name, strategy, policy, seed)
            steps += got[1]
        assert not (memo and picks[0]), name
        assert len(asked) == len(set(asked)), (name, strategy, policy)
        branches = sum(
            len(built) for e in moves.values() if isinstance(e, tuple) for _, _, built, _ in e
        )
        assert counter["calls"] <= branches, (name, strategy, policy)
        assert steps > 2 * counter["calls"], (name, strategy, policy)
