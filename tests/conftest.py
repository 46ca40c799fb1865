"""Shared fixtures: the bundled example systems, a reference simultaneous
step, random-instance generators, and the acceptance-criteria summary printed
at the end of a run."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import pytest

from pastlift.fmt import parse_file
from pastlift.rewriting import (
    Policy,
    Redex,
    RightmostFirst,
    SimGroup,
    SimTable,
    Strategy,
    _contract,
    _group_placement,
    redexes,
)
from pastlift.system import MultiDistribution, ProbRule, Ptrs
from pastlift.terms import Position, Symbol, Term, app, var

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"

_cache: dict[str, Ptrs] = {}


def load_system(name: str) -> Ptrs:
    if name not in _cache:
        _cache[name] = parse_file((SYSTEMS_DIR / f"{name}.ptrs").read_text()).system
    return _cache[name]


CORPUS = [
    "r_d", "r1", "r2", "r3",
    "srw", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8",
    "s2bar", "s2prime",
]


# a start term for every corpus system that leaves it something to rewrite
CORPUS_STARTS = {
    "r_d": "d(s(s(s(0))))", "r1": "f(g,g,g)", "r2": "f(a)", "r3": "f(a)",
    "srw": "g", "srw2": "g(0)", "s1": "g", "s2": "f(a,a)", "s2bar": "f(a,a)",
    "s2prime": "f(a,a)", "s3": "f(a,a)", "s4": "f(a,b)", "s5": "f(a,a)",
    "s6": "g", "s7": "g", "s8": "f(g)",
}


@pytest.fixture
def corpus():
    return {name: load_system(name) for name in CORPUS}


def sim_step(
    system: Ptrs, t: Term, group: SimGroup, chosen_positions: Optional[Sequence[Position]] = None
) -> MultiDistribution:
    """A simultaneous step's whole distribution, the reference the tests
    compare against: every chosen position of the group (all of them when
    none are given) rewritten at once, branch j replacing all of them by the
    j-th right-hand side instance (merged, not a product)."""
    place = _group_placement(t, group, chosen_positions, SimTable(system, Strategy.SIMULTANEOUS))
    return _contract(system, (group.rule_index, group.subst, place))


def pick_redex(policy: Policy, t: Term, moves: Sequence[Redex]) -> Redex:
    """The move a policy takes from the list of every admissible move, the
    reference for its descent and index rules: ``rightmost`` takes the
    greatest position, lowest rule there (it has no list pick of its own);
    any other policy its ``pick_redex``."""
    if isinstance(policy, RightmostFirst):
        rightmost = max(m.position for m in moves)
        return min((m for m in moves if m.position == rightmost), key=lambda m: m.rule_index)
    return policy.pick_redex(t, moves)


def last_position(t: Term, instance: Term) -> Optional[Position]:
    """The greatest position of instance in t, found by trying children
    right to left, or None when it does not occur. Subterms found not to
    hold it are not entered again, so a term whose tree is exponentially
    larger than its DAG (``par`` duplicates) is searched in DAG time."""
    absent: set[Term] = set()

    def find(u: Term) -> Optional[Position]:
        if u is instance:
            return ()
        if u in absent or u.depth <= instance.depth:
            return None
        for k in range(len(u.args), 0, -1):
            got = find(u.args[k - 1])
            if got is not None:
                return (k,) + got
        absent.add(u)
        return None

    return find(t)


def pick_group(
    policy: Policy, t: Term, groups: Sequence[SimGroup]
) -> tuple[SimGroup, Optional[tuple[Position, ...]]]:
    """The group, and the positions of it, a policy takes from the list of
    every group: ``rightmost`` the one with the greatest last position,
    lowest rule there, whole; any other policy by its ``pick_group``."""
    if isinstance(policy, RightmostFirst):
        return max(groups, key=lambda g: (last_position(t, g.instance), -g.rule_index)), None
    return policy.pick_group(t, groups)


# --- random instance generation (used by the bulk randomized suites) ---

DEFAULT_SYMBOLS = (
    Symbol("f", 2),
    Symbol("h", 1),
    Symbol("k", 1),
    Symbol("c", 2),
    Symbol("a", 0),
    Symbol("b", 0),
)
DEFAULT_VARS = ("x", "y", "z")
# the symbols a random system may use: the defaults and its constant g0
SIGNATURE_SYMBOLS = DEFAULT_SYMBOLS + (Symbol("g0", 0),)


def fires_g0(system: Ptrs, term: Term) -> bool:
    """Some redex of term is an instance of a rule headed by g0."""
    return any(system.rules[r.rule_index].lhs.symbol.name == "g0" for r in redexes(system, term))


def random_term(rng: random.Random, max_depth: int = 4, vars_=DEFAULT_VARS,
                symbols=DEFAULT_SYMBOLS) -> Term:
    if max_depth <= 1 or rng.random() < 0.3:
        if vars_ and rng.random() < 0.5:
            return var(rng.choice(vars_))
        constants = [s for s in symbols if s.arity == 0]
        return app(rng.choice(constants))
    sym = rng.choice(symbols)
    return app(sym, [random_term(rng, max_depth - 1, vars_, symbols) for _ in range(sym.arity)])


def random_probs(rng: random.Random, k: int) -> list[Fraction]:
    weights = [rng.randint(1, 4) for _ in range(k)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_system(rng: random.Random, max_rules: int = 3, symbols=DEFAULT_SYMBOLS) -> Ptrs:
    """A small valid PTRS: non-variable left-hand sides, right-hand side
    variables contained in the left, probabilities summing to one.
    Right-hand sides are drawn over ``symbols``."""
    defined = [Symbol("f", 2), Symbol("h", 1), Symbol("g0", 0)]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = rng.choice(defined)
        lhs_args = [random_term(rng, max_depth=2) for _ in range(head.arity)]
        lhs = app(head, lhs_args)
        lhs_vars = tuple(sorted(lhs.vars))
        k = rng.randint(1, 3)
        probs = random_probs(rng, k)
        branches = []
        for p in probs:
            rhs = random_term(rng, max_depth=3, vars_=lhs_vars or ("unused",), symbols=symbols)
            if not rhs.vars <= lhs.vars:  # drop loose variables, keep it valid
                rhs = app(Symbol("a", 0))
            branches.append((p, rhs))
        rules.append(ProbRule(lhs, MultiDistribution(branches)))
    system = Ptrs(rules)
    assert system.validate() == []
    return system
