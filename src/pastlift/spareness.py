"""Spareness: a sound sufficient check plus a bounded falsifier.

A rewrite step is spare when every variable that is duplicated by the applied
right-hand side is instantiated with a normal form; a system is spare when
every step reachable from a basic start term is spare. Spareness is
undecidable, so we implement our own sound taint fixpoint over defined-symbol
argument positions and, in the other direction, a bounded search for a
reachable non-spare step.

The search decides each start by components: whether a step is spare
depends only on its rule and substitution, and a step of an argument is a
step of the term with the same rule and substitution. So each term checks
only its root matches, and its non-normal arguments are searched with the
same budget of steps; a term whose root symbol heads no left-hand side
never becomes a root redex, so its successors need no search of their own.
One table per call records the greatest budget each term has been searched
clean for, and it is shared by all starts, so a component met again is not
searched again. Successors come from one successor table per call, keyed by
distinct subterm, which lists each distinct successor distribution once.
Only the first start that this search does not clear is searched again
breadth first with traces, to report the counterexample; that search walks
``redexes`` and ``step``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .props import duplicated_vars
from .rewriting import Strategy, SuccessorTable, redexes, step
from .system import Ptrs
from .terms import Position, Substitution, Symbol, Term, Var, app, pos_to_str, term_to_str

ArgSlot = tuple[Symbol, int]  # (defined symbol, 0-based argument index)


class SpareVerdict(enum.Enum):
    SPARE = "Spare"
    UNKNOWN = "Unknown"


def is_constructor_system(system: Ptrs) -> bool:
    """Every lhs is a defined symbol applied to constructor terms."""
    return all(system.is_basic(rule.lhs) for rule in system.rules)


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


def falsify_spare(
    system: Ptrs, depth: int, starts: Sequence[Term]
) -> Optional[SparenessCounterexample]:
    """Search for a non-spare step within ``depth`` steps of a start.

    Explores every redex and every probability branch (probabilities are
    irrelevant to spareness, branches are plain nondeterminism). Start terms
    are tried in order, so the first counterexample is deterministic.

    Every start is checked to be basic. When no rule duplicates a variable,
    no step can be non-spare and nothing is searched. Otherwise each start
    is first decided by ``_clears``, a component search that keeps no
    traces, with one table of clean budgets shared by all starts. Only the
    first start it does not clear is searched again, breadth first with
    traces (``_falsify_from``), which gives the same start, trace and
    duplicated variable as searching every start breadth first. One
    full-rewriting ``SuccessorTable`` serves every start's component search,
    so a term's successors are built once, and each rule's duplicated
    variables are found once. The search with traces reads positions, rules
    and substitutions from ``redexes``, and successors from ``step``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    for start in starts:
        if not system.is_basic(start):
            raise ValueError(f"start term {term_to_str(start)} is not basic")
    # per rule, the variables some right-hand side duplicates, in name order
    dups = [
        sorted(set().union(*(duplicated_vars(r) for r in rule.rhs.terms)))
        for rule in system.rules
    ]
    if not any(dups):  # every step is spare
        return None
    table = SuccessorTable(system, Strategy.FULL)
    clean: dict[Term, int] = {}
    for start in starts:
        if not _clears(system, table, dups, clean, depth, start):
            return _falsify_from(system, dups, depth, start)
    return None


def _clears(
    system: Ptrs,
    table: SuccessorTable,
    dups: list[list[str]],
    clean: dict[Term, int],
    depth: int,
    start: Term,
) -> bool:
    """No non-spare step is among the first ``depth`` steps from start.

    Whether a step is spare depends only on its rule and σ, and a step of an
    argument is a step of the term with the same rule and σ. The search goes
    level by level, one level per remaining budget: every term checks its
    root matches and adds its arguments to its own level, and a term whose
    root symbol heads a left-hand side adds its successors to the next (no
    other term ever becomes a root redex, so each of its steps is one of an
    argument). ``clean`` maps each term met to the greatest budget it was
    met with, and a term met again with no larger budget is passed over.
    When the search returns True every entry is clean for its budget; after
    False the table is no longer valid.
    """
    nf = system.is_normal_form
    level = [start]
    for budget in range(depth, 0, -1):
        successors: list[Term] = []
        # the level grows while it is walked: every term adds its arguments
        for t in level:
            if clean.get(t, 0) >= budget or nf(t):
                continue
            clean[t] = budget
            level.extend(t.args)
            for idx, sigma in system.root_matches(t):
                if _duplicated(system, dups, idx, sigma) is not None:
                    return False
            if system.rules_at_root(t):
                for dist in table.successors(t):
                    successors.extend(dist.terms)
        level = successors
        if not level:
            break
    return True


def _duplicated(system: Ptrs, dups: list[list[str]], idx: int, sigma: Substitution):
    """The first variable, in name order, that rule ``idx`` duplicates and σ
    binds to a non-normal term, or None when the step is spare."""
    for name in dups[idx]:
        image = sigma.get(name)
        if image is not None and not system.is_normal_form(image):
            return name
    return None


def _falsify_from(
    system: Ptrs, dups: list[list[str]], depth: int, start: Term
) -> Optional[SparenessCounterexample]:
    # queue entries carry the trace of steps that led to the term
    queue: list[tuple[Term, list[TraceStep]]] = [(start, [])]
    seen = {start}
    for _ in range(depth):
        next_queue: list[tuple[Term, list[TraceStep]]] = []
        for t, trace in queue:
            for redex in redexes(system, t):
                pos, idx = redex.position, redex.rule_index
                name = _duplicated(system, dups, idx, redex.subst)
                if name is not None:
                    full = trace + [TraceStep(t, pos, idx, 0)]
                    return SparenessCounterexample(
                        start_term=start,
                        step_trace=full,
                        violating_step=len(full) - 1,
                        duplicated_variable=name,
                    )
                for branch_index, successor in enumerate(step(system, t, redex).terms):
                    if successor not in seen:
                        seen.add(successor)
                        next_queue.append(
                            (successor, trace + [TraceStep(t, pos, idx, branch_index)])
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
    pool-product order), or the first ``cap`` of them."""
    if arg_depth < 0:
        raise ValueError("arg_depth must be non-negative")
    pool = ground_constructor_terms(system, arg_depth)
    # a constant's only argument tuple is the empty product ()
    starts = (
        app(sym, combo)
        for sym in sorted(system.defined_symbols, key=lambda s: (s.name, s.arity))
        for combo in itertools.product(pool, repeat=sym.arity)
    )
    return list(itertools.islice(starts, cap))
