"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and contributes one PASS/FAIL
line to the summary block at the end of the pytest run. Expected values are
either pinned rationals checked exactly or explicitly bounded estimates.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    DEFAULT_SYMBOLS,
    SIGNATURE_SYMBOLS,
    build_system,
    draw_rules,
    fires_g0,
    load_system,
    random_system,
    random_term,
    record_acceptance,
    sim_step,
    tree_walk_groups,
)
from pastlift.analyzer import analyze, analyze_nonprob
from pastlift.cli import main as cli_main
from pastlift.fmt import parse, parse_term
from pastlift.props import (
    WcrVerdict,
    bounded_wcr,
    is_left_linear,
    is_non_duplicating,
    is_non_erasing,
    is_non_overlapping,
    is_orthogonal,
    is_overlay,
    is_right_linear,
)
from pastlift.rewriting import (
    FirstMove,
    Redex,
    Scripted,
    ScriptEntry,
    Strategy,
    innermost_redexes,
    leftmost_innermost_moves,
    lift_step,
    redexes,
    simultaneous_groups,
    step,
)
from pastlift.semantics import adversarial_lower_bound, mc_estimate, unfold_exact
from pastlift.spareness import (
    SpareVerdict,
    default_basic_starts,
    falsify_spare,
    prove_spare,
)
from pastlift.system import singleton
from pastlift.terms import Symbol, Term, Var, app, match, apply_subst, unify, var
from pastlift.transform import bv, cv, dv, union_with_generators

first = FirstMove()


@contextmanager
def criterion(number: int, title: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {number}: FAIL  {title}")
        raise
    elapsed = time.monotonic() - started
    record_acceptance(f"criterion {number}: PASS  {title}  ({elapsed:.2f}s)")


def test_criterion_1_exact_random_walk_mass(capsys):
    with criterion(1, "exact nf-mass 5/8 after three full steps on the random walk"):
        started = time.monotonic()
        srw = load_system("srw")
        trace = unfold_exact(
            srw, parse_term("g", srw), Strategy.FULL, first, 3
        )
        assert trace.nf_masses[-1] == Fraction(5, 8)
        # the CLI reports the same exact rational
        code = cli_main(
            ["simulate", "systems/srw.ptrs", "--term", "g", "--strategy", "full",
             "--policy", "first", "--depth", "3", "--mode", "exact", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0 and json.loads(out)["lower_bound"] == "5/8"
        assert time.monotonic() - started < 1.0


def test_criterion_2_exact_expected_derivation_length():
    with criterion(2, "innermost partial edl of the biased walk within 1e-6 of 7"):
        started = time.monotonic()
        s1 = load_system("s1")
        trace = unfold_exact(
            s1, parse_term("g", s1), Strategy.INNERMOST, first, 200
        )
        assert abs(trace.partial_edl - 7) < Fraction(1, 10**6)
        assert time.monotonic() - started < 5.0


PROPERTY_MATRIX = [
    # (system, check, expected, the pinned claim)
    ("r_d", is_non_overlapping, True, "doubling system is non-overlapping"),
    ("r1", is_non_overlapping, False, "Toyama system is overlapping"),
    ("r1", is_overlay, True, "Toyama system is an overlay: its only overlaps, g against g, are at the root"),
    ("r1", lambda s: bounded_wcr(s).verdict, WcrVerdict.NO, "Toyama system is not WCR"),
    ("r2", is_non_erasing, False, "erasing collector rule"),
    ("r3", is_non_overlapping, False, "constant overlaps below f"),
    ("r3", is_overlay, False, "a overlaps f(a) below the root"),
    ("srw", is_non_overlapping, True, "single-rule walk"),
    ("srw", is_left_linear, True, "single-rule walk"),
    ("srw", is_right_linear, True, "single-rule walk"),
    ("s1", is_orthogonal, True, "biased walk is orthogonal"),
    ("s1", is_right_linear, False, "duplicating d-rule"),
    ("s2", is_left_linear, False, "f(x,x) left-hand side"),
    ("s2", is_right_linear, True, "ground right-hand sides"),
    ("s2", is_non_overlapping, True, "no unifiable proper subterms"),
    ("s3", is_left_linear, False, "f(x,x) left-hand side"),
    ("s3", is_non_erasing, True, "the non-erasing variant"),
    ("s4", is_non_overlapping, False, "two rules for the same constant"),
    ("s5", is_non_duplicating, True, "counts match on both sides"),
    ("s5", is_right_linear, False, "g(x,x) right-hand side"),
    ("s6", is_left_linear, False, "d(x,x) left-hand side"),
    ("s6", is_non_overlapping, True, "collapsing pair"),
    ("s6", is_right_linear, True, "collapsing pair"),
    ("s6", is_non_erasing, True, "collapsing pair"),
    ("s7", is_orthogonal, True, "spare variant is orthogonal"),
    ("s7", is_non_duplicating, False, "duplicating d-rule"),
    ("s7", lambda s: prove_spare(s), SpareVerdict.SPARE, "spare variant is spare"),
    ("s8", lambda s: prove_spare(s), SpareVerdict.SPARE, "staircase system is spare"),
    ("s2bar", is_non_overlapping, True, "ground left-hand sides"),
    ("s2bar", is_left_linear, True, "ground left-hand sides"),
    ("s2bar", is_right_linear, True, "ground right-hand sides"),
    ("s2prime", is_non_overlapping, True, "collapsing variant"),
]


def test_criterion_3_property_matrix():
    with criterion(3, "checker reproduces every stated syntactic property"):
        mismatches = []
        for name, check, expected, blurb in PROPERTY_MATRIX:
            got = check(load_system(name))
            if got != expected:
                mismatches.append(f"{name}: {blurb}: expected {expected}, got {got}")
        assert not mismatches, "; ".join(mismatches)


def test_criterion_4_spareness():
    with criterion(4, "spareness verdicts and falsifier traces"):
        assert prove_spare(load_system("s7")) is SpareVerdict.SPARE
        assert prove_spare(load_system("s8")) is SpareVerdict.SPARE
        assert prove_spare(load_system("s1")) is SpareVerdict.UNKNOWN

        union = union_with_generators(load_system("s8"))
        cex = falsify_spare(union, 3, [parse_term("enc%f(s(cons%g))", union)])
        assert cex is not None and len(cex.step_trace) <= 3

        s1 = load_system("s1")
        cex1 = falsify_spare(s1, 3, [parse_term("g", s1)])
        assert cex1 is not None and cex1.violating_step <= 2

        s7 = load_system("s7")
        assert falsify_spare(s7, 6, default_basic_starts(s7, 3)) is None


def test_criterion_5_generator_rules(tmp_path, capsys):
    with criterion(5, "transform emits the ten expected generator rules and round-trips"):
        out_path = tmp_path / "s8-generators.ptrs"
        code = cli_main(
            ["transform", "systems/s8.ptrs", "--generators", "-o", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        text = out_path.read_text()
        emitted = parse(text)
        s8 = load_system("s8")
        assert list(emitted.rules[: len(s8.rules)]) == list(s8.rules)
        generated = {repr(r) for r in emitted.rules[len(s8.rules):]}
        assert generated == {
            "enc%g -> {1:g}",
            "enc%f(x1) -> {1:f(argenc%(x1))}",
            "enc%c(x1,x2) -> {1:c(argenc%(x1),argenc%(x2))}",
            "enc%s(x1) -> {1:s(argenc%(x1))}",
            "enc%bot -> {1:bot}",
            "argenc%(cons%g) -> {1:g}",
            "argenc%(cons%f(x1)) -> {1:f(argenc%(x1))}",
            "argenc%(c(x1,x2)) -> {1:c(argenc%(x1),argenc%(x2))}",
            "argenc%(s(x1)) -> {1:s(argenc%(x1))}",
            "argenc%(bot) -> {1:bot}",
        }
        # parse-serialize round trip is the identity on the emitted file
        from pastlift.fmt import serialize

        assert serialize(parse(text)) == text


def test_criterion_6_theorem_engine():
    with criterion(6, "theorem engine verdicts with precondition evidence"):
        srw_report = analyze(load_system("srw"))
        for tid in ("Thm 6", "Thm 8", "Thm 9"):
            assert srw_report.verdict(tid).applicability == "Applies", tid

        s2_report = analyze(load_system("s2"))
        v6 = s2_report.verdict("Thm 6")
        assert v6.applicability == "Blocked"
        failing = [p for p in v6.preconditions if p.value is False]
        assert [p.name for p in failing] == ["left-linear"]
        assert failing[0].witness == "f(x,x)"
        assert s2_report.verdict("Thm 14").applicability == "Applies"

        s7_report = analyze(load_system("s7"), scope="basic")
        assert s7_report.verdict("Thm 20").applicability == "Applies"

        s6_report = analyze(load_system("s6"))
        v8 = s6_report.verdict("Thm 8")
        assert v8.applicability == "Blocked"
        assert {p.name: p.value for p in v8.preconditions} == {
            "non-overlapping": True,
            "left-linear": False,
            "right-linear": True,
            "non-erasing": True,
        }

        rd_report = analyze_nonprob(load_system("r_d"))
        assert rd_report.verdict("Thm 2").applicability == "Applies"

        # every reported verdict carries explicit evidence entries
        for report in (srw_report, s2_report, s7_report, s6_report, rd_report):
            for v in report.verdicts:
                for p in v.preconditions:
                    assert p.value in (True, False, None)


def test_criterion_7_adversarial_strategy_gap():
    with criterion(7, "bounded adversary separates innermost from leftmost-innermost"):
        started = time.monotonic()
        s4 = load_system("s4")
        fab = parse_term("f(a,b)", s4)
        assert adversarial_lower_bound(s4, fab, Strategy.INNERMOST, 40) == 0
        li = adversarial_lower_bound(s4, fab, Strategy.LEFTMOST_INNERMOST, 40)
        assert li >= Fraction(99, 100)
        assert time.monotonic() - started < 10.0


CHECKS_PER_SUITE = 10_000
# checks for each suite over random systems in the second stream, whose
# terms and right-hand sides are drawn over the whole signature
SIGNATURE_CHECKS = 2_000

# The suites over random systems draw terms and right-hand sides over
# ``symbols`` and return how many g0 redexes they met: terms with one, or in
# the singleton suite, groups contracted.


def _suite_conservation(rng, symbols=DEFAULT_SYMBOLS, checks=CHECKS_PER_SUITE) -> int:
    strategies = list(Strategy)
    done = g0 = 0
    while done < checks:
        system = random_system(rng, symbols=symbols)
        term = random_term(rng, 3, vars_=(), symbols=symbols)
        g0 += fires_g0(system, term)
        mu = singleton(term)
        strategy = strategies[rng.randrange(len(strategies))]
        for _ in range(3):
            mu = lift_step(system, mu, strategy, first)
            assert mu.total() == 1
            done += 1
    return g0


def _suite_monotone_mass(rng, symbols=DEFAULT_SYMBOLS, checks=CHECKS_PER_SUITE) -> int:
    done = g0 = 0
    while done < checks:
        system = random_system(rng, symbols=symbols)
        term = random_term(rng, 3, vars_=(), symbols=symbols)
        g0 += fires_g0(system, term)
        mu = singleton(term)
        last = system.nf_mass(mu)
        for _ in range(3):
            mu = lift_step(system, mu, Strategy.FULL, first)
            mass = system.nf_mass(mu)
            assert mass >= last
            last = mass
            done += 1
    return g0


def _suite_inclusion(rng, symbols=DEFAULT_SYMBOLS, checks=CHECKS_PER_SUITE) -> int:
    g0 = 0
    for _ in range(checks):
        system = random_system(rng, symbols=symbols)
        term = random_term(rng, 4, vars_=(), symbols=symbols)
        full = {(r.position, r.rule_index) for r in redexes(system, term)}
        inner = {(r.position, r.rule_index) for r in innermost_redexes(system, term)}
        left = {(r.position, r.rule_index) for r in leftmost_innermost_moves(system, term)}
        assert left <= inner <= full
        g0 += fires_g0(system, term)
    return g0


def _symbols_of(t: Term) -> set[Symbol]:
    """The function symbols of a ground term."""
    found, stack = set(), [t]
    while stack:
        u = stack.pop()
        found.add(u.symbol)
        stack.extend(u.args)
    return found


def _suite_singleton_sim(rng, symbols=DEFAULT_SYMBOLS, checks=CHECKS_PER_SUITE) -> int:
    """One position of a group, drawn from the group's positions left to
    right as the tree walk lists them, rewritten alone."""
    done = g0 = 0
    while done < checks:
        rules = draw_rules(rng, symbols=symbols)
        term = random_term(rng, 4, vars_=(), symbols=symbols)
        innermost = bool(rng.getrandbits(1))
        # with no symbol heading a left-hand side the term has no group:
        # skip the draw without building its system
        if _symbols_of(term).isdisjoint(lhs.symbol for lhs, _ in rules):
            continue
        system = build_system(rules)
        groups = simultaneous_groups(system, term, innermost_only=innermost)
        if not groups:
            continue
        group = groups[rng.randrange(len(groups))]
        idx, sigma, instance = group
        (found,) = [
            w.positions
            for w in tree_walk_groups(system, term, innermost)
            if (w.rule_index, w.instance) == (idx, instance)
        ]
        pos = found[rng.randrange(len(found))]
        lone = sim_step(system, term, group, [pos])
        plain = step(system, term, Redex(pos, idx, sigma))
        assert lone == plain
        g0 += system.rules[idx].lhs.symbol.name == "g0"
        done += 1
    return g0


def _suite_decode_identities(rng) -> None:
    s8 = load_system("s8")
    s7 = load_system("s7")
    done = 0
    while done < CHECKS_PER_SUITE:
        system = (s8, s7)[rng.getrandbits(1)]
        syms = list(system.signature.values())
        term = random_term(rng, 4, vars_=("x", "y"), symbols=syms)
        assert dv(system, cv(system, term)) is term
        done += 1
        if not isinstance(term, Var):
            assert dv(system, bv(system, term)) is term
            done += 1


def _suite_match_unify(rng) -> None:
    done = 0
    while done < CHECKS_PER_SUITE:
        pattern = random_term(rng, 3)
        subject = random_term(rng, 3, vars_=())
        sigma = match(pattern, subject)
        if sigma is not None:
            assert apply_subst(pattern, sigma) is subject
        done += 1
        s, t = random_term(rng, 3), random_term(rng, 3)
        mgu = unify(s, t)
        if mgu is not None:
            left = apply_subst(s, mgu)
            assert left is apply_subst(t, mgu)
            assert apply_subst(left, mgu) is left
        done += 1


SUITES = [
    ("lift-step conserves total probability", _suite_conservation),
    ("nf-mass is monotone along lifting", _suite_monotone_mass),
    ("strategy inclusion li <= i <= full", _suite_inclusion),
    ("singleton simultaneous step equals plain step", _suite_singleton_sim),
    ("decode inverts constructor and basic variants", _suite_decode_identities),
    ("match and unify soundness", _suite_match_unify),
]


SIGNATURE_SUITES = [
    _suite_conservation,
    _suite_monotone_mass,
    _suite_inclusion,
    _suite_singleton_sim,
]


def test_criterion_8_randomized_property_suites():
    title = (
        f"{CHECKS_PER_SUITE} randomized checks for each of six invariants, and"
        f" {SIGNATURE_CHECKS} over the whole signature for each of four"
    )
    with criterion(8, title):
        for index, (name, suite) in enumerate(SUITES):
            suite(random.Random(1000 + index))
        # the default symbols lack g0, so no g0 rule fires in the draws
        # above; a second stream draws over the whole signature
        for index, suite in enumerate(SIGNATURE_SUITES):
            g0 = suite(random.Random(2000 + index), SIGNATURE_SYMBOLS, SIGNATURE_CHECKS)
            assert g0 > SIGNATURE_CHECKS // 20, (suite.__name__, g0)


def test_criterion_9_monte_carlo_sanity():
    with criterion(9, "Monte-Carlo estimates: random walk terminates, scripted loop never"):
        started = time.monotonic()
        srw = load_system("srw")
        summary = mc_estimate(
            srw,
            parse_term("g", srw),
            Strategy.INNERMOST,
            first,
            samples=1000,
            step_cap=100_000,
            seed=1,
        )
        assert summary.estimate >= 0.95

        s2 = load_system("s2")
        faa = parse_term("f(a,a)", s2)
        loop = Scripted([ScriptEntry(faa, 0, ((),))])
        stuck = mc_estimate(
            s2, faa, Strategy.FULL, loop, samples=100, step_cap=50, seed=1
        )
        assert stuck.estimate == 0.0
        assert stuck.censored_fraction == 1.0
        assert time.monotonic() - started < 60.0
