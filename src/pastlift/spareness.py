"""Spareness: a sound sufficient check plus a bounded falsifier.

A rewrite step is spare when every variable that is duplicated by the applied
right-hand side is instantiated with a normal form; a system is spare when
every step reachable from a basic start term is spare. Spareness is
undecidable, so we implement our own sound taint fixpoint over defined-symbol
argument positions and, in the other direction, a breadth-first search for a
reachable non-spare step.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .props import duplicated_vars
from .rewriting import redexes, step
from .system import Ptrs
from .terms import App, Position, Symbol, Term, Var, app, pos_to_str, term_to_str

ArgSlot = tuple[Symbol, int]  # (defined symbol, 0-based argument index)


class SpareVerdict(enum.Enum):
    SPARE = "Spare"
    UNKNOWN = "Unknown"


def is_constructor_system(system: Ptrs) -> bool:
    """Every lhs is a defined symbol applied to constructor terms."""
    defined = {s.name for s in system.defined_symbols}

    def constructor_only(t: Term) -> bool:
        stack = [t]
        while stack:
            u = stack.pop()
            if isinstance(u, App):
                if u.symbol.name in defined:
                    return False
                stack.extend(u.args)
        return True

    return all(
        isinstance(r.lhs, App) and all(constructor_only(a) for a in r.lhs.args)
        for r in system.rules
    )


def taint_analysis(system: Ptrs) -> Optional[dict[ArgSlot, bool]]:
    """Least fixpoint marking argument slots that may receive defined symbols.

    Maps every (defined symbol, argument index) to True when a term containing
    a defined symbol can flow into that position, False when the slot provably
    only ever holds constructor terms. Returns None for non-constructor
    systems, where the abstraction is unsound.
    """
    if not is_constructor_system(system):
        return None
    defined = {s.name: s for s in system.defined_symbols}
    tainted: dict[ArgSlot, bool] = {
        (sym, i): False for sym in system.defined_symbols for i in range(sym.arity)
    }

    def contains_defined(t: Term, may_defined: set[str]) -> bool:
        stack = [t]
        while stack:
            u = stack.pop()
            if isinstance(u, Var):
                if u.name in may_defined:
                    return True
            else:
                if u.symbol.name in defined:
                    return True
                stack.extend(u.args)
        return False

    changed = True
    while changed:
        changed = False
        for rule in system.rules:
            root = rule.lhs.symbol  # constructor system, lhs is an App
            may_defined: set[str] = set()
            for i, arg in enumerate(rule.lhs.args):
                if tainted[(root, i)]:
                    may_defined |= arg.vars
            for rhs_term in rule.rhs.support():
                stack = [rhs_term]
                while stack:
                    u = stack.pop()
                    if isinstance(u, Var):
                        continue
                    if u.symbol.name in defined:
                        sym = defined[u.symbol.name]
                        for k, sub in enumerate(u.args):
                            if not tainted[(sym, k)] and contains_defined(sub, may_defined):
                                tainted[(sym, k)] = True
                                changed = True
                    stack.extend(u.args)
    return tainted


def prove_spare(system: Ptrs) -> SpareVerdict:
    """Sound sufficient check: SPARE means every duplicated right-hand-side
    variable is bound below clean argument slots, so only constructor terms
    (which are normal forms in a constructor system) ever get duplicated
    starting from basic terms."""
    tainted = taint_analysis(system)
    if tainted is None:
        return SpareVerdict.UNKNOWN
    for rule in system.rules:
        dups: set[str] = set()
        for t in rule.rhs.support():
            dups.update(duplicated_vars(t))
        if not dups:
            continue
        root = rule.lhs.symbol
        for i, arg in enumerate(rule.lhs.args):
            if tainted[(root, i)] and arg.vars & dups:
                return SpareVerdict.UNKNOWN
    return SpareVerdict.SPARE


@dataclass
class TraceStep:
    term: Term
    position: Position
    rule_index: int
    branch: int


@dataclass
class SparenessCounterexample:
    start_term: Term
    step_trace: list[TraceStep]
    violating_step: int
    duplicated_variable: str

    def describe(self) -> str:
        lines = [f"start: {term_to_str(self.start_term)}"]
        for i, s in enumerate(self.step_trace):
            marker = "  <- not spare" if i == self.violating_step else ""
            lines.append(
                f"  step {i}: {term_to_str(s.term)} at {pos_to_str(s.position)} "
                f"rule {s.rule_index} branch {s.branch}{marker}"
            )
        lines.append(f"  duplicated variable: {self.duplicated_variable}")
        return "\n".join(lines)


def _violation(system: Ptrs, t: Term, redex) -> Optional[str]:
    rule = system.rules[redex.rule_index]
    dups: set[str] = set()
    for branch in rule.rhs.support():
        dups.update(duplicated_vars(branch))
    for name in sorted(dups):
        image = redex.subst.get(name)
        if image is not None and not system.is_normal_form(image):
            return name
    return None


def falsify_spare(
    system: Ptrs, depth: int, starts: Sequence[Term]
) -> Optional[SparenessCounterexample]:
    """Breadth-first search for a reachable non-spare step.

    Explores every redex and every probability branch (probabilities are
    irrelevant to spareness, branches are plain nondeterminism). Start terms
    are tried in order, so the first counterexample is deterministic.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    for start in starts:
        if not system.is_basic(start):
            raise ValueError(f"start term {term_to_str(start)} is not basic")
    for start in starts:
        found = _falsify_from(system, depth, start)
        if found is not None:
            return found
    return None


def _falsify_from(
    system: Ptrs, depth: int, start: Term
) -> Optional[SparenessCounterexample]:
    # queue entries carry the trace of steps that led to the term
    queue: list[tuple[Term, list[TraceStep]]] = [(start, [])]
    seen = {start}
    for _ in range(depth):
        next_queue: list[tuple[Term, list[TraceStep]]] = []
        for t, trace in queue:
            for redex in redexes(system, t):
                bad = _violation(system, t, redex)
                if bad is not None:
                    full = trace + [TraceStep(t, redex.position, redex.rule_index, 0)]
                    return SparenessCounterexample(
                        start_term=start,
                        step_trace=full,
                        violating_step=len(full) - 1,
                        duplicated_variable=bad,
                    )
                branches = step(system, t, redex)
                for branch_index, successor in enumerate(branches.terms):
                    if successor not in seen:
                        seen.add(successor)
                        next_queue.append(
                            (
                                successor,
                                trace
                                + [TraceStep(t, redex.position, redex.rule_index, branch_index)],
                            )
                        )
        queue = next_queue
        if not queue:
            break
    return None


def ground_constructor_terms(system: Ptrs, max_depth: int) -> list[Term]:
    """Ground constructor terms of depth <= max_depth, shallowest first."""
    constructors = sorted(system.constructor_symbols, key=lambda s: (s.name, s.arity))
    found: list[Term] = []
    for d in range(1, max_depth + 1):
        shallower = list(found)
        for sym in constructors:
            if sym.arity == 0:
                if d == 1:
                    found.append(app(sym))
            else:
                for combo in itertools.product(shallower, repeat=sym.arity):
                    if 1 + max(c.depth for c in combo) == d:
                        found.append(app(sym, combo))
    return found


def default_basic_starts(
    system: Ptrs, arg_depth: int, cap: Optional[int] = None
) -> list[Term]:
    """All basic terms with ground constructor arguments of depth <= arg_depth,
    enumerated deterministically (defined symbols by name, argument tuples in
    pool-product order)."""
    if arg_depth < 0:
        raise ValueError("arg_depth must be non-negative")
    pool = ground_constructor_terms(system, arg_depth)
    starts: list[Term] = []
    for sym in sorted(system.defined_symbols, key=lambda s: (s.name, s.arity)):
        if sym.arity == 0:
            starts.append(app(sym))
            continue
        for combo in itertools.product(pool, repeat=sym.arity):
            starts.append(app(sym, combo))
            if cap is not None and len(starts) >= cap:
                return starts
    return starts
