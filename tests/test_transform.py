import random

import pytest
from hypothesis import given, strategies as st

from conftest import load_system, random_term
from pastlift.fmt import parse, parse_term, serialize
from pastlift.props import is_non_overlapping, is_right_linear
from pastlift.rewriting import innermost_redexes, step
from pastlift.system import Ptrs
from pastlift.terms import Var, app, term_to_str, var
from pastlift.transform import (
    bv,
    cv,
    dv,
    generator_rules,
    union_with_generators,
)


def rule_strings(system: Ptrs) -> set[str]:
    return {repr(r) for r in system.rules}


def test_generator_rules_for_s8_match_the_ten_expected():
    s8 = load_system("s8")
    gen = generator_rules(s8)
    assert len(gen.rules) == 10
    assert rule_strings(gen) == {
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


def test_generator_rules_families_for_s7():
    s7 = load_system("s7")
    gen = generator_rules(s7)
    # enc per symbol (g, d, bot, c), argenc-cons per defined (g, d),
    # argenc per constructor (bot, c)
    assert len(gen.rules) == 8
    enc = [r for r in gen.rules if r.lhs.symbol.name.startswith("enc%")]
    cons = [r for r in gen.rules if "cons%" in repr(r.lhs)]
    assert len(enc) == 4 and len(cons) == 2


def test_generator_rules_of_empty_system():
    assert generator_rules(Ptrs([])).rules == ()


def test_generator_rules_are_right_linear_and_non_overlapping():
    for name in ("srw", "s1", "s7", "s8"):
        gen = generator_rules(load_system(name))
        assert is_right_linear(gen)
        assert is_non_overlapping(gen)


def test_union_signature_split():
    s8 = load_system("s8")
    union = union_with_generators(s8)
    assert union.validate() == []
    defined = {s.name for s in union.defined_symbols}
    assert "argenc%" in defined
    assert {"enc%g", "enc%f", "enc%c", "enc%s", "enc%bot"} <= defined
    constructors = {s.name for s in union.constructor_symbols}
    assert {"cons%g", "cons%f"} <= constructors
    assert union.is_basic(parse_term("enc%f(s(cons%g))", union))


def test_bv_example():
    s8 = load_system("s8")
    t = parse_term("c(g, f(g))", s8)
    assert term_to_str(bv(s8, t)) == "enc%c(cons%g,cons%f(cons%g))"


def test_cv_example():
    s8 = load_system("s8")
    assert term_to_str(cv(s8, parse_term("f(g)", s8))) == "cons%f(cons%g)"


def test_decode_round_trips():
    s8 = load_system("s8")
    t = parse_term("f(s(bot))", s8)
    assert dv(s8, bv(s8, t)) is t
    assert dv(s8, cv(s8, t)) is t


def test_bv_rejects_variables():
    s8 = load_system("s8")
    with pytest.raises(ValueError):
        bv(s8, var("x"))


def test_basic_variant_rebuilds_ground_terms_with_generator_steps_only():
    """Innermost rewriting of bv(t) using only generated rules reaches {1:t}."""
    s8 = load_system("s8")
    union = union_with_generators(s8)
    generated_range = range(len(s8.rules), len(union.rules))
    for text in ("f(s(bot))", "c(g,f(g))", "g", "s(s(bot))"):
        t = parse_term(text, s8)
        current = bv(s8, t)
        for _ in range(200):
            moves = [
                r
                for r in innermost_redexes(union, current)
                if r.rule_index in generated_range
            ]
            if not moves:
                break
            branches = step(union, current, moves[0])
            assert len(branches) == 1
            current = branches.entries[0][1]
        assert current is t, text


def test_serialized_union_round_trips():
    for name in ("s7", "s8", "srw"):
        union = union_with_generators(load_system(name))
        text = serialize(union)
        again = parse(text)
        assert list(again.rules) == list(union.rules)
        assert serialize(again) == text


def test_fresh_names_escape_collisions():
    # transforming a system that already contains %-names must stay fresh
    s8 = load_system("s8")
    once = union_with_generators(s8)
    twice = union_with_generators(once)
    assert twice.validate() == []
    names = [s.name for s in twice.defined_symbols]
    assert len(names) == len(set(names))
    assert any(name.startswith("argenc%%") or name == "argenc%" for name in names)


@given(st.integers(min_value=0, max_value=10_000))
def test_dv_inverts_cv_and_bv_on_random_terms(seed):
    rng = random.Random(seed)
    s8 = load_system("s8")
    syms = list(s8.signature.values())
    t = random_term(rng, max_depth=4, vars_=("x", "y"), symbols=syms)
    assert dv(s8, cv(s8, t)) is t
    if not isinstance(t, Var):
        assert dv(s8, bv(s8, t)) is t


def test_variants_of_a_term_deeper_than_the_recursion_limit():
    s8 = load_system("s8")
    t = parse_term("f(" * 3000 + "g" + ")" * 3000, s8)
    assert cv(s8, t).depth == 3001
    assert dv(s8, cv(s8, t)) is t
    assert dv(s8, bv(s8, t)) is t


def test_variants_of_a_shared_term_cost_its_dag_not_its_tree():
    s8 = load_system("s8")
    c = s8.signature["c"]
    t = parse_term("f(g)", s8)
    for _ in range(40):  # a tree of 2^41 nodes over a DAG of 42
        t = app(c, (t, t))
    assert dv(s8, cv(s8, t)) is t
    assert dv(s8, bv(s8, t)) is t
