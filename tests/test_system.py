import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import pastlift
from conftest import load_system
from pastlift.fmt import parse_term
from pastlift.system import MultiDistribution, ProbRule, Ptrs, singleton
from pastlift.terms import Symbol, app, apply_subst, var

half = Fraction(1, 2)


def test_distribution_requires_proper_sum():
    A = app(Symbol("a", 0))
    B = app(Symbol("b", 0))
    for entries, message in [
        ([(Fraction(1, 3), A), (Fraction(1, 3), B)], "sum to 2/3, expected 1"),
        ([], "empty distribution"),
        ([(Fraction(0), A), (Fraction(1), B)], "(0,1]"),
        ([(Fraction(3, 2), A)], "(0,1]"),
        ([(half, A), (Fraction(1, 3), B)], "sum to 5/6, expected 1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            MultiDistribution(entries)
    loose = MultiDistribution(
        [(Fraction(1, 3), A), (Fraction(1, 3), B)], require_proper=False
    )
    assert not loose.is_proper()
    assert loose.total() == Fraction(2, 3)


def test_distribution_holds_integer_weights_over_one_denominator():
    A = app(Symbol("a", 0))
    B = app(Symbol("b", 0))
    C = app(Symbol("c", 0))
    given = [(half, A), (Fraction(1, 3), B), (Fraction(1, 6), C)]
    mu = MultiDistribution(given)
    assert (mu.weights, mu.terms, mu.den) == ((3, 2, 1), (A, B, C), 6)
    # the public view hands back the very Fractions that went in
    assert all(p is q for (p, _), (q, _) in zip(mu.entries, given))
    assert mu.support() == [A, B, C] and len(mu) == 3 and list(mu) == given
    assert mu.is_proper() and mu.total() == 1
    # weights over a larger denominator are the same distribution
    wide = MultiDistribution.of_weights((15, 10, 5), (A, B, C), 30)
    assert wide == mu and wide.entries == tuple(given)


def test_distribution_is_a_multiset():
    A = app(Symbol("a", 0))
    B = app(Symbol("b", 0))
    d1 = MultiDistribution([(half, A), (half, B)])
    d2 = MultiDistribution([(half, B), (half, A)])
    d3 = MultiDistribution([(half, A), (Fraction(1, 4), B), (Fraction(1, 4), B)])
    assert d1 == d2
    assert d1 != d3
    # duplicate entries of the same term are kept apart
    d4 = MultiDistribution([(half, A), (half, A)])
    assert len(d4) == 2


def test_validate_reports_all_violations():
    x = var("x")
    A = app(Symbol("a", 0))
    B = app(Symbol("b", 0))
    bad = Ptrs(
        [
            ProbRule(x, singleton(A)),
            ProbRule(
                A,
                MultiDistribution(
                    [(Fraction(1, 3), B), (Fraction(1, 3), B)], require_proper=False
                ),
            ),
            ProbRule(A, singleton(var("y"))),
        ]
    )
    violations = bad.validate()
    assert any("left-hand side is a variable" in v for v in violations)
    assert any("sum to 2/3" in v for v in violations)
    assert any("variable y occurs in a right-hand side" in v for v in violations)


def test_validate_reports_arity_conflicts():
    f1 = Symbol("f", 1)
    f2 = Symbol("f", 2)
    A = app(Symbol("a", 0))
    bad = Ptrs([ProbRule(app(f1, [A]), singleton(app(f2, [A, A])))])
    assert any("arity" in v for v in bad.validate())


def test_corpus_systems_validate_clean():
    for name in ("srw", "s1", "s4", "s8", "r_d"):
        assert load_system(name).validate() == []


def test_signature_split():
    s7 = load_system("s7")
    defined, constructors = s7.defined_symbols, s7.constructor_symbols
    assert {s.name for s in defined} == {"g", "d"}
    assert {s.name for s in constructors} == {"bot", "c"}

    s8 = load_system("s8")
    defined, constructors = s8.defined_symbols, s8.constructor_symbols
    assert {s.name for s in defined} == {"g", "f"}
    assert {s.name for s in constructors} == {"s", "bot", "c"}

    assert Ptrs([]).defined_symbols == frozenset()


def test_is_normal_form():
    srw = load_system("srw")
    assert srw.is_normal_form(parse_term("c(bot,bot)", srw))
    assert not srw.is_normal_form(parse_term("c(g,bot)", srw))
    s2 = load_system("s2")
    assert s2.is_normal_form(parse_term("f(b,c)", s2))
    assert not s2.is_normal_form(parse_term("f(a,a)", s2))


def test_is_basic():
    s8 = load_system("s8")
    assert s8.is_basic(parse_term("f(s(bot))", s8))
    assert not s8.is_basic(parse_term("f(g)", s8))
    assert not s8.is_basic(parse_term("s(bot)", s8))
    assert s8.is_basic(parse_term("g", s8))


def test_nf_mass_example():
    # fourth state of the random-walk unfolding
    srw = load_system("srw")
    t = lambda s: parse_term(s, srw)
    eighth = Fraction(1, 8)
    mu = MultiDistribution(
        [
            (eighth, t("c(c(g,g),c(g,g))")),
            (eighth, t("c(c(g,g),bot)")),
            (eighth, t("c(bot,c(g,g))")),
            (eighth, t("c(bot,bot)")),
            (half, t("bot")),
        ]
    )
    assert srw.nf_mass(mu) == Fraction(5, 8)
    assert srw.nf_mass(singleton(t("bot"))) == 1
    assert srw.nf_mass(singleton(t("g"))) == 0


def test_nf_mass_is_linear_over_parts():
    srw = load_system("srw")
    t = lambda s: parse_term(s, srw)
    part1 = [(Fraction(1, 4), t("bot")), (Fraction(1, 4), t("g"))]
    part2 = [(Fraction(1, 2), t("c(bot,bot)"))]
    total = srw.nf_mass(MultiDistribution(part1 + part2))
    by_parts = sum(
        (p for part in (part1, part2) for p, u in part if srw.is_normal_form(u)),
        Fraction(0),
    )
    assert total == by_parts == Fraction(3, 4)


def test_root_matches_are_every_matching_rule_in_rule_order():
    s4 = load_system("s4")
    a = parse_term("a", s4)
    found = s4.root_matches(a)
    assert [idx for idx, _ in found] == [0, 1]
    assert s4.root_match(a) == found[0]
    assert s4.root_matches(a) is found  # cached
    fab = parse_term("f(a,b)", s4)
    assert s4.root_matches(fab) == () and fab in s4._match_cache
    # a constructor root has no left-hand side to match, and no entry
    s1 = load_system("s1")
    c = parse_term("c(bot,bot)", s1)
    assert s1.root_matches(c) == () and c not in s1._match_cache


def test_a_contractum_is_built_once_whatever_the_order_of_its_substitution():
    x, y = var("x"), var("y")
    f, c = Symbol("f", 2), Symbol("c", 2)
    a, b = app(Symbol("a", 0)), app(Symbol("b", 0))
    rhs = MultiDistribution([(half, app(c, [y, x])), (half, x)])
    system = Ptrs([ProbRule(app(f, [x, y]), rhs)])
    forward = system.contract(0, 0, {"x": a, "y": b})
    assert forward is app(c, [b, a])
    assert system.contract(0, 0, {"y": b, "x": a}) is forward
    assert system.contract(0, 1, {"y": b, "x": a}) is a
    assert system.contract(0, 0, {"x": b, "y": a}) is app(c, [a, b])
    assert system.contract(0, 0, {"x": a, "y": a}) is app(c, [a, a])
    assert len(system._contracta) == 4


SOURCES = Path(pastlift.__file__).resolve().parent


def lhs_matches(source):
    """The lines of calls ``match(...)`` or ``<module>.match(...)`` whose
    first argument is a left-hand side."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "match" and "lhs" in ast.unparse(node.args[0]):
                found.append(node.lineno)
    return found


def test_left_hand_sides_are_matched_only_by_the_system():
    """One matcher: every site that needs a term's root matches asks
    ``Ptrs.root_matches``, which matches once per term and system. And the
    samplers instantiate right-hand sides only through ``Ptrs.contract``."""
    assert lhs_matches("sigma = match(rule.lhs, u)\nterms.match(system.rules[i].lhs, u)") == [1, 2]
    assert lhs_matches("match(entry.pattern, t)") == []
    offenders = {}
    for path in sorted(SOURCES.glob("*.py")):
        lines = lhs_matches(path.read_text())
        if path.name == "system.py":
            assert lines, "the guard no longer sees Ptrs.root_matches"
        elif lines:
            offenders[path.name] = lines
    assert offenders == {}
    for name in ("rewriting", "runsim", "semantics", "spareness"):
        tree = ast.parse((SOURCES / f"{name}.py").read_text())
        names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(tree)}
        names |= {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for alias in n.names}
        assert apply_subst.__name__ not in names, name
