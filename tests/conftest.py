"""Shared fixtures: the bundled example systems, random-instance generators,
and the acceptance-criteria summary printed at the end of a run."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from pastlift.fmt import parse_file
from pastlift.system import MultiDistribution, ProbRule, Ptrs
from pastlift.terms import Symbol, Term, app, var

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


def random_system(rng: random.Random, max_rules: int = 3) -> Ptrs:
    """A small valid PTRS: non-variable left-hand sides, right-hand side
    variables contained in the left, probabilities summing to one."""
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
            rhs = random_term(rng, max_depth=3, vars_=lhs_vars or ("unused",))
            if not rhs.vars <= lhs.vars:  # drop loose variables, keep it valid
                rhs = app(Symbol("a", 0))
            branches.append((p, rhs))
        rules.append(ProbRule(lhs, MultiDistribution(branches)))
    system = Ptrs(rules)
    assert system.validate() == []
    return system
