import random
from fractions import Fraction

import pytest

from conftest import load_system, random_system, random_term
from pastlift import runsim
from pastlift.fmt import parse_term
from pastlift.rewriting import (
    FirstMove,
    RandomSeeded,
    RightmostFirst,
    Scripted,
    ScriptEntry,
    Strategy,
    admissible_moves,
    sim_step,
    step,
)
from pastlift.semantics import (
    CapExceeded,
    McSummary,
    _run_generic,
    adversarial_lower_bound,
    build_rst,
    edl_partial,
    leaf_mass,
    mc_estimate,
    pending_mass,
    unfold_exact,
)
from pastlift.system import MultiDistribution
from pastlift.terms import term_to_str

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


def test_rst_of_s1_matches_the_biased_walk_tree():
    s1 = load_system("s1")
    tree = build_rst(s1, t("s1", "g"), Strategy.INNERMOST, first, 4)
    by_depth = {}
    for node in tree.nodes:
        by_depth.setdefault(node.depth, []).append(
            (term_to_str(node.term), node.probability)
        )
    assert by_depth[0] == [("g", 1)]
    assert by_depth[1] == [("d(g)", Fraction(3, 4)), ("bot", Fraction(1, 4))]
    assert by_depth[2] == [
        ("d(d(g))", Fraction(9, 16)),
        ("d(bot)", Fraction(3, 16)),
    ]
    assert ("c(bot,bot)", Fraction(3, 16)) in by_depth[3]
    assert ("d(c(bot,bot))", Fraction(9, 64)) in by_depth[4]


def test_rst_trivial_normal_form():
    srw = load_system("srw")
    tree = build_rst(srw, t("srw", "bot"), Strategy.FULL, first, 3)
    assert len(tree.nodes) == 1
    assert leaf_mass(srw, tree) == 1
    assert edl_partial(tree) == 0


def test_rst_depth_two_of_argument_walk():
    srw2 = load_system("srw2")
    tree = build_rst(srw2, t("srw2", "g(0)"), Strategy.FULL, first, 2)
    leaves = sorted(
        (term_to_str(n.term), n.probability) for n in tree.leaves()
    )
    assert leaves == [
        ("0", half),
        ("g(0)", Fraction(1, 4)),
        ("g(g(g(0)))", Fraction(1, 4)),
    ]


def test_rst_edges_are_valid_steps_of_the_strategy():
    from pastlift.rewriting import entry_step

    s1 = load_system("s1")
    tree = build_rst(s1, t("s1", "g"), Strategy.INNERMOST, first, 5)
    for node in tree.nodes:
        if not node.children:
            continue
        fanout = MultiDistribution(
            (tree.nodes[c].probability / node.probability, tree.nodes[c].term)
            for c in node.children
        )
        assert fanout == entry_step(s1, node.term, Strategy.INNERMOST, first)


def test_rst_masses_agree_with_unfolding():
    for name, text, strategy in [
        ("srw", "g", Strategy.FULL),
        ("s1", "g", Strategy.INNERMOST),
        ("s7", "g", Strategy.FULL),
    ]:
        system = load_system(name)
        start = parse_term(text, system)
        depth = 7
        tree = build_rst(system, start, strategy, first, depth)
        trace = unfold_exact(system, start, strategy, first, depth)
        assert leaf_mass(system, tree) == trace.nf_masses[-1]
        assert leaf_mass(system, tree) + pending_mass(system, tree) == 1
        assert edl_partial(tree) == trace.partial_edl


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
    """The cursor engine and the generic stepper sample identical runs."""
    s1 = load_system("s1")
    g = t("s1", "g")
    fast = mc_estimate(s1, g, Strategy.INNERMOST, first, 80, 500, seed=3)
    generic = mc_estimate(s1, g, Strategy.LEFTMOST_INNERMOST, RandomSeeded(0), 80, 500, seed=3)
    # leftmost-innermost has a single admissible move for s1 terms, so the
    # random policy degenerates to first-move and runs must coincide
    assert fast.estimate == generic.estimate
    assert fast.mean_steps_of_terminated == generic.mean_steps_of_terminated


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
            group, chosen = policy.pick_group(term, moves)
            branches = sim_step(system, term, group, chosen)
        else:
            branches = step(system, term, policy.pick_redex(term, moves))
        pick = rng.random()
        acc = Fraction(0)
        term = branches.entries[-1][1]
        for p, candidate in branches.entries:
            acc += p
            if pick < acc:
                term = candidate
                break
    return system.is_normal_form(term), step_cap


def test_sampled_runs_match_the_reference_sampler_on_random_systems():
    rng = random.Random(53)
    compared = 0
    for case in range(3000):
        system = random_system(rng)
        start = random_term(rng, 4, vars_=())
        if system.is_normal_form(start):
            continue
        for strategy in Strategy:
            for spec in ("first", "rightmost", f"random:{case}"):
                policy = make_policy(spec)
                for i in range(3):
                    run_seed = f"{case}:{i}"
                    expected = reference_run(
                        system, start, strategy,
                        policy.clone_for_run(run_seed + ":policy"),
                        random.Random(run_seed), 25,
                    )
                    got = _run_generic(
                        system, start, strategy,
                        policy.clone_for_run(run_seed + ":policy"),
                        random.Random(run_seed), 25,
                    )
                    assert got == expected, (case, strategy, spec, i)
                    if spec == "first" and strategy in (
                        Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST
                    ):
                        fast = runsim.run_innermost_first(
                            system, start, random.Random(run_seed), 25
                        )
                        assert fast == expected, (case, strategy, i)
                    compared += 1
    assert compared > 6000
