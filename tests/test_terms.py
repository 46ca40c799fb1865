import random

import pytest
from hypothesis import given, strategies as st

from pastlift.terms import (
    App,
    InvalidPosition,
    Symbol,
    Var,
    app,
    apply_subst,
    match,
    pos_from_str,
    pos_to_str,
    positions,
    replace_at,
    subterm_at,
    term_to_str,
    unify,
    var,
)

F3 = Symbol("f", 3)
F2 = Symbol("f", 2)
F1 = Symbol("f", 1)
D1 = Symbol("d", 1)
S1 = Symbol("s", 1)
C2 = Symbol("c", 2)
A = Symbol("a", 0)
B = Symbol("b", 0)
G = Symbol("g", 0)
BOT = Symbol("bot", 0)
ZERO = Symbol("0", 0)

a, b, g, bot = app(A), app(B), app(G), app(BOT)
x, y = var("x"), var("y")


def test_interning_gives_pointer_equality():
    t1 = app(D1, [app(S1, [x])])
    t2 = app(D1, [app(S1, [var("x")])])
    assert t1 is t2
    assert app(C2, [a, b]) is not app(C2, [b, a])


def naive_fields(t, memo):
    """(vars, size, depth) by their recursive definitions, once per
    distinct subterm."""
    got = memo.get(t)
    if got is None:
        if isinstance(t, Var):
            got = frozenset((t.name,)), 1, 1
        else:
            fields = [naive_fields(a, memo) for a in t.args]
            got = (
                frozenset().union(*(f[0] for f in fields)),
                1 + sum(f[1] for f in fields),
                1 + max((f[2] for f in fields), default=0),
            )
        memo[t] = got
    return got


def rebuilt(t, memo):
    """t built again from its symbols and variable names, bottom up, once
    per distinct subterm."""
    got = memo.get(t)
    if got is None:
        if isinstance(t, Var):
            got = var(t.name)
        else:
            got = app(Symbol(t.symbol.name, t.symbol.arity), [rebuilt(a, memo) for a in t.args])
        memo[t] = got
    return got


def test_app_fields_match_their_definitions_and_equal_terms_are_one_object():
    """Random terms over constants, variables and shared arguments: every
    node has the vars, size and depth of the recursive definitions, a node
    with the variables of one of its children shares that child's set, and
    building a term again gives the same object."""
    rng = random.Random(67)
    symbols = [F3, F2, F1, D1, C2, A, B, G]
    leaves = [var("x"), var("y"), var("z"), app(A), app(B), app(G)]
    built = list(leaves)
    fields: dict = {}
    shared = 0

    def argument():
        # a leaf, or a term built before, recent ones more often
        if rng.random() < 0.3:
            return rng.choice(leaves)
        return built[max(0, len(built) - 1 - int(rng.expovariate(0.05)))]

    for _ in range(3000):
        sym = rng.choice(symbols)
        args = [argument() for _ in range(sym.arity)]
        u = app(sym, args)
        assert (u.vars, u.size, u.depth) == naive_fields(u, fields)
        if any(a.vars == u.vars for a in args if a.vars):
            assert any(a.vars is u.vars for a in args)
            shared += 1
        assert rebuilt(u, {}) is u and app(sym, tuple(args)) is u
        built.append(u)
    assert shared > 600
    assert max(u.depth for u in built) > 10
    assert sum(1 for u in built if u.vars) > 700
    assert sum(1 for u in built if isinstance(u, App) and not u.vars) > 1000


def test_positions_examples():
    assert positions(x) == [()]
    assert positions(app(D1, [app(S1, [x])])) == [(), (1,), (1, 1)]
    fabg = app(F3, [a, b, g])
    assert positions(fabg) == [(), (1,), (2,), (3,)]


def test_positions_length_lex_order():
    t = app(C2, [app(C2, [a, b]), g])
    assert positions(t) == [(), (1,), (2,), (1, 1), (1, 2)]


def test_subterm_at():
    dsx = app(D1, [app(S1, [x])])
    assert subterm_at(dsx, (1,)) == app(S1, [x])
    assert subterm_at(app(F3, [a, b, g]), (3,)) is g
    assert subterm_at(dsx, ()) is dsx
    with pytest.raises(InvalidPosition):
        subterm_at(dsx, (2,))
    with pytest.raises(InvalidPosition):
        subterm_at(a, (1,))


def test_replace_at():
    dsx = app(D1, [app(S1, [x])])
    zero = app(ZERO)
    assert replace_at(dsx, (1, 1), zero) == app(D1, [app(S1, [zero])])
    assert replace_at(app(F3, [a, b, g]), (3,), a) == app(F3, [a, b, a])
    assert replace_at(dsx, (), a) is a
    with pytest.raises(InvalidPosition):
        replace_at(a, (1,), b)


def test_match_examples():
    # d(s(x)) against d(s(d(s(0))))
    zero = app(ZERO)
    pat = app(D1, [app(S1, [x])])
    subj = app(D1, [app(S1, [app(D1, [app(S1, [zero])])])])
    sigma = match(pat, subj)
    assert sigma == {"x": app(D1, [app(S1, [zero])])}
    assert apply_subst(pat, sigma) is subj

    assert match(app(F2, [x, x]), app(F2, [a, b])) is None
    assert match(x, app(F2, [a, b])) == {"x": app(F2, [a, b])}


def test_unify_examples():
    # a unifies with itself with the empty substitution
    assert unify(a, a) == {}
    assert unify(app(F2, [x, x]), app(F2, [b, app(Symbol("c", 0))])) is None
    assert unify(x, app(F1, [x])) is None  # occurs check


def test_unify_idempotent():
    s = app(F2, [x, app(S1, [y])])
    t = app(F2, [app(S1, [y]), x])
    sigma = unify(s, t)
    assert sigma is not None
    assert apply_subst(s, sigma) is apply_subst(t, sigma)
    once = apply_subst(s, sigma)
    assert apply_subst(once, sigma) is once


def test_apply_subst_and_vars():
    cxx = app(C2, [x, x])
    assert apply_subst(cxx, {"x": bot}) == app(C2, [bot, bot])
    assert app(F2, [x, x]).vars == {"x"}


def test_pos_str_round_trip():
    for pos in [(), (1,), (1, 2, 3)]:
        assert pos_from_str(pos_to_str(pos)) == pos


def test_term_to_str():
    assert term_to_str(app(C2, [g, app(D1, [x])])) == "c(g,d(x))"
    assert term_to_str(x) == "x"


def test_deep_term_operations_do_not_recurse():
    t = g
    for _ in range(5000):
        t = app(D1, [t])
    assert len(positions(t)) == 5001
    assert subterm_at(t, (1,) * 5000) is g
    assert replace_at(t, (1,) * 5000, bot) is not t
    assert term_to_str(t).startswith("d(d(")


def test_apply_subst_rebuilds_a_shared_subterm_once():
    # d(x) occurs twice, once under another d: a pre-order walk replayed in
    # reverse would meet the inner occurrence before it was built
    dx = app(D1, [x])
    t = app(C2, [app(D1, [dx]), dx])
    got = apply_subst(t, {"x": a})
    da = app(D1, [a])
    assert got is app(C2, [app(D1, [da]), da])
    assert got.args[0].args[0] is got.args[1]
    assert apply_subst(t, {"y": a}) is t
    assert apply_subst(x, {"x": a}) is a


def test_substitution_and_unification_on_deep_terms():
    def tower(n, leaf):
        for _ in range(n):
            leaf = app(D1, [leaf])
        return leaf

    assert apply_subst(tower(3000, x), {"x": g}) is tower(3000, g)
    # y is bound to g, so x's image d^3000(y) must be flattened all the way down
    sigma = unify(app(C2, [x, y]), app(C2, [tower(3000, y), g]))
    assert sigma == {"x": tower(3000, g), "y": g}
    assert unify(tower(3000, x), tower(3000, app(S1, [y]))) == {"x": app(S1, [y])}
    assert unify(tower(3000, x), tower(2999, x)) is None  # occurs check


# -- randomized invariants ---------------------------------------------------

_SYMS = [F2, D1, S1, C2, A, B, G]


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([a, b, g, x, y])
    sym = rng.choice(_SYMS)
    return app(sym, [_random_term(rng, depth - 1) for _ in range(sym.arity)])


def test_replace_subterm_round_trip_randomized():
    rng = random.Random(7)
    for _ in range(500):
        t = _random_term(rng, 4)
        for pos in positions(t):
            assert replace_at(t, pos, subterm_at(t, pos)) is t


@st.composite
def _terms(draw, max_depth=4):
    if max_depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from([a, b, g, x, y]))
    sym = draw(st.sampled_from(_SYMS))
    args = [draw(_terms(max_depth=max_depth - 1)) for _ in range(sym.arity)]
    return app(sym, args)


@given(_terms(), _terms())
def test_match_reconstructs_subject(pattern, subject):
    sigma = match(pattern, subject)
    if sigma is not None:
        assert apply_subst(pattern, sigma) is subject
        assert set(sigma) <= pattern.vars


@given(_terms(), _terms())
def test_unify_produces_common_instance(s, t):
    sigma = unify(s, t)
    if sigma is not None:
        left = apply_subst(s, sigma)
        assert left is apply_subst(t, sigma)
        assert apply_subst(left, sigma) is left
