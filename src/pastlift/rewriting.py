"""Redex enumeration and single-step semantics for all five rewrite relations,
plus one lifting step over multi-distributions under a policy.

Policies resolve every bit of nondeterminism (position, rule, and for
simultaneous rewriting the subset of equal redexes), so that a lifted rewrite
sequence is a pure function of (system, start, strategy, policy).

A simultaneous move is a group, (rule index, σ, instance): every occurrence
of the instance rewritten at once, wherever it sits in the term, or only the
occurrences a script row names. No group lists its positions.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence, Union

from .system import MultiDistribution, Ptrs
from .terms import (
    InvalidPosition,
    Position,
    Substitution,
    Term,
    app,
    match,
    replace_at,
    subterm_at,
)


class InvalidRedex(ValueError):
    pass


class InvalidGroup(ValueError):
    pass


class Strategy(enum.Enum):
    FULL = "full"
    INNERMOST = "i"
    LEFTMOST_INNERMOST = "li"
    SIMULTANEOUS = "par"
    INNERMOST_SIMULTANEOUS = "ipar"

    @property
    def simultaneous(self) -> bool:
        return self in (Strategy.SIMULTANEOUS, Strategy.INNERMOST_SIMULTANEOUS)

    @property
    def plain(self) -> "Strategy":
        """The strategy whose redexes this one contracts: full rewriting's
        for par, innermost's for ipar."""
        if self is Strategy.SIMULTANEOUS:
            return Strategy.FULL
        if self is Strategy.INNERMOST_SIMULTANEOUS:
            return Strategy.INNERMOST
        return self


@dataclass
class Redex:
    position: Position
    rule_index: int
    subst: Substitution


# A simultaneous move: (rule index, σ, instance), which rewrites every
# occurrence of the instance at once. The occurrences are pairwise parallel
# (a term cannot nest inside itself), so the move is admissible.
Group = tuple[int, Substitution, Term]


def _walk_redexes(system: Ptrs, t: Term, innermost_only: bool):
    """Yield (position, node, rule index, substitution) for every redex, in
    (position, rule index) order: a pre-order walk, children left to right,
    meets positions in lexicographic order.

    Normal-form subtrees (variables among them) are skipped wholesale (their
    status is cached on the system), which keeps enumeration linear in the
    non-normal spine even when the term is a huge shared DAG. The innermost
    filter inspects the node's direct children, never re-walking from the
    root.
    """
    stack: list[tuple[Term, Position]] = [(t, ())]
    while stack:
        u, pos = stack.pop()
        if system.is_normal_form(u):
            continue
        args = u.args
        if not innermost_only or all(system.is_normal_form(a) for a in args):
            for idx, sigma in system.root_matches(u):
                yield pos, u, idx, sigma
        for k in range(len(args), 0, -1):
            stack.append((args[k - 1], pos + (k,)))


def redexes(system: Ptrs, t: Term) -> list[Redex]:
    """All redexes of t, ordered by (position, rule index); positions compare
    as tuples, so the order is leftmost-outermost."""
    return [Redex(pos, idx, sigma) for pos, _, idx, sigma in _walk_redexes(system, t, False)]


def innermost_redexes(system: Ptrs, t: Term) -> list[Redex]:
    """Redexes whose proper subterms are all in normal form, ordered by
    (position, rule index)."""
    return [Redex(pos, idx, sigma) for pos, _, idx, sigma in _walk_redexes(system, t, True)]


def components(system: Ptrs, t: Term) -> list[Term]:
    """The non-normal, defined-rooted subterms under t's top constructor
    layer, left to right: t itself when its root is defined, none when t is
    normal. No redex contains a node whose ancestors are all constructors,
    so t's redexes, in (position, rule index) order, are its components'
    redexes in turn, and t is normal exactly when it has no component."""
    nf = system.is_normal_form
    found: list[Term] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if nf(u):
            continue
        if system.rules_at_root(u):
            found.append(u)
        else:
            stack.extend(reversed(u.args))
    return found


# A descent rule is a policy's choice at one non-normal node u, made from u
# alone: the (rule index, substitution) of the redex at u, or the 1-based
# index of the child to descend into. A pick made this way in t is the pick
# made in that child, under t's root symbol.
Pick = Union[int, tuple[int, Substitution]]
Descent = Callable[[Ptrs, Term], Pick]


def _innermost_match(system: Ptrs, u: Term) -> tuple[int, Substitution]:
    found = system.root_matches(u)
    if not found:
        raise InvalidRedex("term has no redex")
    return found[0]


def _leftmost_innermost(system: Ptrs, u: Term) -> Pick:
    """Into the leftmost non-normal child; the bottom of that path is the
    leftmost innermost redex, lowest rule first."""
    for k, a in enumerate(u.args, 1):
        if not system.is_normal_form(a):
            return k
    return _innermost_match(system, u)


def _leftmost_outermost(system: Ptrs, u: Term) -> Pick:
    """A rule matching at u first: an ancestor position precedes everything
    inside it, so the first match on the leftmost non-normal path is the
    position-lexicographic minimum."""
    return system.root_match(u) or _leftmost_innermost(system, u)


def _rightmost_innermost(system: Ptrs, u: Term) -> Pick:
    """Into the rightmost non-normal child: every position inside a subterm
    follows the subterm's own, and later children follow earlier ones, so the
    bottom of that path is the position-lexicographic maximum. That node is
    innermost, so full and innermost rewriting agree on it."""
    for k in range(len(u.args), 0, -1):
        if not system.is_normal_form(u.args[k - 1]):
            return k
    return _innermost_match(system, u)


# descent rules whose pick at a node changes only when a child becomes normal
INNERMOST_DESCENTS = (_leftmost_innermost, _rightmost_innermost)

# An index rule is a policy's choice made from the number n of the term's
# admissible moves alone: the index, in [0, n), of the move it takes in
# ``admissible_moves`` order.
IndexPick = Callable[[int], int]


def _first_index(n: int) -> int:
    return 0


def descend(system: Ptrs, t: Term, rule: Descent) -> Redex:
    """The redex a descent rule picks in a non-normal-form term, in time
    linear in the non-normal spine instead of enumerating every move."""
    pos: list[int] = []
    u = t
    while True:
        found = rule(system, u)
        if isinstance(found, int):
            pos.append(found)
            u = u.args[found - 1]
        else:
            return Redex(tuple(pos), *found)


def first_move_redex(system: Ptrs, t: Term, strategy: Strategy) -> Redex:
    """The redex FirstMove picks: leftmost outermost for full rewriting, the
    leftmost innermost for the innermost strategies."""
    assert not strategy.simultaneous
    return descend(system, t, FirstMove().descent(strategy))


def leftmost_innermost_moves(system: Ptrs, t: Term) -> list[Redex]:
    """Innermost redexes at the leftmost innermost position only, in rule
    order; several rules may match there. The position is found by descent,
    not by listing every innermost redex."""
    if system.is_normal_form(t):
        return []
    pos = descend(system, t, _leftmost_innermost).position
    return [Redex(pos, idx, sigma) for idx, sigma in system.root_matches(subterm_at(t, pos))]


class SuccessorTable:
    """The successors of the terms one call asks about under ``full``, ``i``
    or ``li``, memoised by distinct subterm for the table's lifetime (one
    call of the analysis that builds it), in two views: ``successors``, the
    distinct successor distributions of the admissible moves, and ``step``,
    one descent rule's move.

    A subterm's successors come from its own root matches in rule order,
    then from its non-normal children, left to right, lifted under the
    subterm. Under ``full`` every non-normal child is lifted and the root
    matches always count, as in ``redexes``; under ``i`` the root matches
    count only when no child is lifted, as in ``innermost_redexes``; under
    ``li`` only the leftmost non-normal child is lifted and built, as in
    ``leftmost_innermost_moves``. Equal distributions are listed once, so
    each distinct one of a child is lifted once: a chain ``g^k(t)`` whose
    moves all step alike holds one distribution per term, not k(k+1)/2.
    Nothing of a move is kept but its successors.

    Both views lift a child's distribution under its parent with ``_lift``,
    which records each term it builds in the system's normal-form cache, so
    nothing the table builds is walked again to learn whether it is
    normal."""

    __slots__ = ("system", "strategy", "_successors", "_steps")

    def __init__(self, system: Ptrs, strategy: Strategy):
        self.system = system
        self.strategy = strategy
        self._successors: dict[Term, list[MultiDistribution]] = {}
        self._steps: dict[Term, MultiDistribution] = {}

    def successors(self, t: Term) -> list[MultiDistribution]:
        """The distinct successor distributions of t's admissible moves, as
        ``step`` gives them, in the order of each one's first move in
        ``admissible_moves``."""
        table = self._successors
        got = table.get(t)
        if got is not None:
            return got
        nf = self.system.is_normal_form
        if nf(t):
            return []
        # how many of a node's non-normal children its moves lift
        width = 1 if self.strategy is Strategy.LEFTMOST_INNERMOST else None
        # children before parents, without recursion: terms may be deep
        stack = [t]
        while stack:
            u = stack[-1]
            if u in table:
                stack.pop()
                continue
            lifted = [(k, a) for k, a in enumerate(u.args, 1) if not nf(a)][:width]
            pending = [a for _, a in lifted if a not in table]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            table[u] = self._build(u, lifted)
        return table[t]

    def _build(self, u: Term, lifted: list[tuple[int, Term]]) -> list[MultiDistribution]:
        system, table = self.system, self._successors
        found: list[MultiDistribution] = []
        if self.strategy is Strategy.FULL or not lifted:
            found = [_contract_at(system, u, at_root) for at_root in system.root_matches(u)]
        for k, a in lifted:
            found.extend([self._lift(u, k, dist) for dist in table[a]])
        # equal keys are equal distributions: every step is over branch_den
        return list({(dist.weights, dist.terms): dist for dist in found}.values())

    def step(self, t: Term, rule: Descent) -> MultiDistribution:
        """``entry_step`` for a policy whose pick follows a descent rule: the
        successor distribution of the redex ``descend`` finds in t. The
        rule's pick in a node that descends into child k is the pick in that
        child, so the node's step is the child's lifted under it. Every step
        from one table must follow the same rule."""
        return _memo_descent(self.system, t, rule, self._steps, _contract_at, self._lift)

    def _lift(self, parent: Term, k: int, dist: MultiDistribution) -> MultiDistribution:
        """A step of parent's k-th child as a step of parent: each branch put
        in the child's place, with the same weights. A term built here that
        the system has no status for gets one: it is normal exactly when its
        siblings and the branch are and no rule matches at its root. The
        siblings are looked up once for the whole distribution."""
        system = self.system
        cache, nf = system._nf_cache, system.is_normal_form
        sym, head, tail = parent.symbol, parent.args[: k - 1], parent.args[k:]
        siblings = all(map(nf, head)) and all(map(nf, tail))
        terms = []
        for s in dist.terms:
            u = app(sym, head + (s,) + tail)
            if u not in cache:
                cache[u] = siblings and nf(s) and not system.root_matches(u)
            terms.append(u)
        return MultiDistribution.of_weights(dist.weights, tuple(terms), dist.den)


def _memo_descent(
    system: Ptrs, t: Term, rule: Descent, memo: dict, at_redex: Callable, lift: Callable
):
    """What a descent rule's pick gives t, paying only for the subterms on
    the pick's path that ``memo`` has not seen. The walk goes down to the
    first memoised subterm, or to the redex, which gives ``at_redex(system,
    redex, (rule index, σ))``; then back up one level at a time, a parent
    that descends into child k getting ``lift(parent, k, what the child
    got)``, and every level is memoised."""
    path: list[tuple[Term, int]] = []
    u = t
    got = memo.get(u)
    while got is None:
        found = rule(system, u)
        if isinstance(found, int):
            path.append((u, found))
            u = u.args[found - 1]
            got = memo.get(u)
        else:
            got = memo[u] = at_redex(system, u, found)
    for parent, k in reversed(path):
        got = memo[parent] = lift(parent, k, got)
    return got


def _contract_at(system: Ptrs, u: Term, found: tuple[int, Substitution]) -> MultiDistribution:
    """The step at u's root by the rule and σ of ``found``."""
    return _contract(system, (*found, partial(replace_at, u, ())))


def step(system: Ptrs, t: Term, redex: Redex) -> MultiDistribution:
    """Apply one probabilistic rewrite step at the given redex, re-matching
    its rule there. The result carries the rule's branch weights over
    ``system.branch_den``; they were checked where they entered (see
    ``MultiDistribution``)."""
    sigma = dict(system.root_matches(subterm_at(t, redex.position))).get(redex.rule_index)
    if sigma is None:
        raise InvalidRedex(
            f"rule {redex.rule_index} does not match at {redex.position}"
        )
    return _contract(system, (redex.rule_index, sigma, partial(replace_at, t, redex.position)))


# A move: the rule index, the substitution σ, and the placement, which puts
# the instantiated right-hand side into the term (at one position, or at
# every chosen occurrence of a simultaneous group's instance).
Move = tuple[int, Substitution, Callable[[Term], Term]]


def _contract(
    system: Ptrs, move: Move, x: Optional[float] = None
) -> Union[MultiDistribution, Term]:
    """A move's successor distribution: each right-hand side term of its
    rule, instantiated by σ (``Ptrs.contract``) and placed, with the rule's
    weights over ``system.branch_den``. Given a uniform draw x in [0,1),
    only the successor of the branch x selects, built alone."""
    idx, sigma, place = move
    if x is not None:
        return place(system.contract(idx, system.rules[idx].pick_branch(x), sigma))
    weights = system.branch_weights[idx]
    return MultiDistribution.of_weights(
        weights,
        tuple([place(system.contract(idx, b, sigma)) for b in range(len(weights))]),
        system.branch_den,
    )


def simultaneous_groups(system: Ptrs, t: Term, innermost_only: bool) -> list[Group]:
    """Group redexes by rule and identical instance, ordered by (first
    position, rule index).

    One pre-order walk, children left to right, over the distinct non-normal
    subterms of t: the walk meets positions in lexicographic order and stops
    at a subterm it has met before, so each subterm is visited once, at its
    leftmost position, and the groups come out already in order. No
    position is kept: on a term that ``par`` duplicates an instance may
    occur at exponentially many of them.
    """
    nf = system.is_normal_form
    groups: list[Group] = []
    seen: set[Term] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u in seen or nf(u):
            continue
        seen.add(u)
        args = u.args
        if not innermost_only or all(nf(a) for a in args):
            groups.extend([(idx, sigma, u) for idx, sigma in system.root_matches(u)])
        stack.extend(a for a in reversed(args) if a not in seen)
    return groups


def _occurs_at(t: Term, pos: Position, instance: Term) -> bool:
    try:
        return subterm_at(t, pos) is instance
    except InvalidPosition:
        return False


def _group_placement(
    t: Term, instance: Term, chosen: Optional[Sequence[Position]], table: "SimTable"
) -> Callable[[Term], Term]:
    """The placement of a group's move on t: every occurrence of the
    instance in one pass when no positions are chosen, otherwise the chosen
    positions, each checked to hold the instance, replaced one at a time."""
    if chosen is None:
        return partial(table.rebuild, t, instance)
    if not chosen or not all(_occurs_at(t, pos, instance) for pos in chosen):
        raise InvalidGroup(f"positions {tuple(chosen)} are not a non-empty subset of the group")
    return partial(_replace_all, t, tuple(chosen))


class SimTable:
    """The work of simultaneous steps, memoised by distinct subterm for one
    call (one exact unfolding, or all the runs of one Monte-Carlo estimate,
    whose shared move table ``runsim._sim_entry`` fills from this one) on one
    system under ``par`` or ``ipar`` and one policy:

    - descent picks: a node whose descent enters child k has that child's
      pick, so only the part of a pick's path the table has not met is
      walked;
    - descent steps by term: the successor distribution of the picked
      group, so an entry that recurs in an unfolding is stepped once;
    - group lists by term, for policies without a descent rule;
    - one rebuild table per (instance, contractum), mapping each subterm
      rebuilt to its result, shared by every rebuild with that pair.

    Every entry is a function of hash-consed terms, whose pointer equality
    is structural equality, so a hit gives what recomputing would. The table
    must not outlive its call: it holds terms an intern pool trimmed after
    the call would drop, and an equal term built later would not be them."""

    __slots__ = ("system", "innermost", "_picks", "_steps", "_groups", "_rebuilt")

    def __init__(self, system: Ptrs, strategy: Strategy):
        self.system = system
        self.innermost = strategy is Strategy.INNERMOST_SIMULTANEOUS
        self._picks: dict[Term, Group] = {}
        self._steps: dict[Term, MultiDistribution] = {}
        self._groups: dict[Term, list[Group]] = {}
        self._rebuilt: dict[tuple[Term, Term], dict[Term, Term]] = {}

    def pick(self, t: Term, rule: Descent) -> Group:
        """The group of the redex ``descend`` finds in t: (rule index, σ,
        the subterm it contracts)."""
        return _memo_descent(self.system, t, rule, self._picks, _redex_at, _same_redex)

    def step(self, t: Term, rule: Descent) -> MultiDistribution:
        """``entry_step`` for a policy whose pick follows a descent rule
        under the plain strategy: the group ``pick`` finds in t, every
        occurrence of its instance replaced by ``rebuild``. Every step from
        one table must follow the same rule."""
        got = self._steps.get(t)
        if got is None:
            idx, sigma, instance = self.pick(t, rule)
            got = self._steps[t] = _contract(
                self.system, (idx, sigma, partial(self.rebuild, t, instance))
            )
        return got

    def groups(self, t: Term) -> list[Group]:
        """``simultaneous_groups`` of t under the table's strategy."""
        got = self._groups.get(t)
        if got is None:
            got = self._groups[t] = simultaneous_groups(self.system, t, self.innermost)
        return got

    def rebuild(self, t: Term, instance: Term, replacement: Term) -> Term:
        """t with every occurrence of ``instance`` replaced, in one
        bottom-up pass over distinct subterms, each rebuilt once. Normal
        forms and other subterms no deeper than the instance cannot hold it
        and are kept as they are. The occurrences are parallel, so this is
        the term that replacing them one position at a time gives. What is
        rebuilt for one (instance, replacement) is kept for every later
        rebuild with the pair, which stops at a subterm already done. A term
        built here that the system has no status for gets one, as in
        ``SuccessorTable._lift``: it is normal exactly when its arguments are
        and no rule matches at its root."""
        key = (instance, replacement)
        done = self._rebuilt.get(key)
        if done is None:
            done = self._rebuilt[key] = {instance: replacement}
        got = done.get(t)
        if got is not None:
            return got
        system = self.system
        cache, nf = system._nf_cache, system.is_normal_form
        depth = instance.depth
        stack = [t]
        while stack:
            u = stack[-1]
            args: list[Term] = []
            changed = False
            for a in u.args:
                r = done.get(a)
                if r is None:
                    if a.depth > depth and not nf(a):
                        stack.append(a)  # built first, then u is scanned again
                        break
                    r = a
                args.append(r)
                changed = changed or r is not a
            else:
                stack.pop()
                v = done[u] = app(u.symbol, args) if changed else u
                if changed and v not in cache:
                    cache[v] = all(map(nf, args)) and not system.root_matches(v)
        return done[t]


def _redex_at(system: Ptrs, u: Term, found: tuple[int, Substitution]):
    return (*found, u)


def _same_redex(parent: Term, k: int, got: Group):
    """A descent's redex in child k is its redex in the parent."""
    return got


def _replace_all(t: Term, chosen: Sequence[Position], replacement: Term) -> Term:
    for pos in chosen:
        t = replace_at(t, pos, replacement)
    return t


class Policy:
    """Deterministic choice among admissible moves."""

    name = "policy"
    seed: object = None  # a random policy's seed: ``clone_for_run(seed)`` restarts its draws

    def descent(self, strategy: Strategy) -> Optional[Descent]:
        """The rule that makes this policy's pick node by node under a
        non-simultaneous strategy, or None when the pick is not made that
        way (it depends on state, or on the whole term)."""
        return None

    def index_rule(self) -> Optional[IndexPick]:
        """The rule that makes this policy's pick by index among a term's
        admissible moves, in ``admissible_moves`` order, under any strategy
        (a group taken whole), or None when the pick is not made that way."""
        return None

    def pick_redex(self, t: Term, moves: Sequence[Redex]) -> Redex:
        """The move the index rule picks from the list of every one."""
        return moves[self.index_rule()(len(moves))]

    def pick_group(
        self, t: Term, groups: Sequence[Group]
    ) -> tuple[Group, Optional[tuple[Position, ...]]]:
        """A group of t and the positions of it to rewrite, None for all: by
        default the group the index rule picks, whole."""
        return groups[self.index_rule()(len(groups))], None

    def clone_for_run(self, run_seed: object) -> "Policy":
        """Fresh, independently seeded copy for one Monte-Carlo run.
        Stateless policies return themselves."""
        return self


class FirstMove(Policy):
    """Leftmost position, lowest rule index; maximal group for simultaneous."""

    name = "first"

    def descent(self, strategy: Strategy) -> Optional[Descent]:
        if strategy is Strategy.FULL:
            return _leftmost_outermost
        return None if strategy.simultaneous else _leftmost_innermost

    def index_rule(self) -> Optional[IndexPick]:
        # redexes and simultaneous_groups list by (first position, rule index)
        return _first_index


class RightmostFirst(Policy):
    """Rightmost innermost position, lowest rule index; under ``par``/``ipar``
    the group of that redex. Every pick is made by descent: the plain
    strategy's rule always exists, so no list of moves is ever asked."""

    name = "rightmost"

    def descent(self, strategy: Strategy) -> Optional[Descent]:
        if strategy is Strategy.LEFTMOST_INNERMOST:
            # a single admissible position: lowest rule there
            return _leftmost_innermost
        return None if strategy.simultaneous else _rightmost_innermost


class RandomSeeded(Policy):
    def __init__(self, seed: object):
        self.seed = seed
        self.rng = random.Random(seed)
        self.name = f"random:{seed}"

    def index_rule(self) -> Optional[IndexPick]:
        return self.rng.randrange

    def clone_for_run(self, run_seed: object) -> "RandomSeeded":
        return RandomSeeded(run_seed)


@dataclass
class ScriptEntry:
    pattern: Term
    rule_index: int
    positions: tuple[Position, ...]  # singleton for ordinary strategies


class Scripted(Policy):
    """Ordered pattern -> move table; the first row whose pattern matches the
    whole term and whose move is admissible wins. Falls back to FirstMove so
    a partial script never strands a term."""

    name = "script"

    def __init__(self, entries: Sequence[ScriptEntry]):
        self.entries = list(entries)
        self._fallback = FirstMove()

    def pick_redex(self, t: Term, moves: Sequence[Redex]) -> Redex:
        for entry in self.entries:
            if match(entry.pattern, t) is None:
                continue
            for m in moves:
                if m.rule_index == entry.rule_index and m.position == entry.positions[0]:
                    return m
        return self._fallback.pick_redex(t, moves)

    def pick_group(self, t, groups):
        for entry in self.entries:
            if match(entry.pattern, t) is None:
                continue
            for group in groups:
                idx, _, instance = group
                if idx == entry.rule_index and all(
                    _occurs_at(t, pos, instance) for pos in entry.positions
                ):
                    return group, entry.positions
        return self._fallback.pick_group(t, groups)


def admissible_moves(system: Ptrs, t: Term, strategy: Strategy):
    if strategy is Strategy.FULL:
        return redexes(system, t)
    if strategy is Strategy.INNERMOST:
        return innermost_redexes(system, t)
    if strategy is Strategy.LEFTMOST_INNERMOST:
        return leftmost_innermost_moves(system, t)
    if strategy is Strategy.SIMULTANEOUS:
        return simultaneous_groups(system, t, innermost_only=False)
    return simultaneous_groups(system, t, innermost_only=True)


def entry_step(
    system: Ptrs,
    t: Term,
    strategy: Strategy,
    policy: Policy,
    table: Optional[SimTable] = None,
) -> MultiDistribution:
    """One policy-resolved step on a single non-normal-form term. Under
    ``full``/``i``/``li`` the policy must have a list pick (``pick_redex``),
    which ``rightmost`` lacks. A simultaneous step goes through ``table``
    when one is given."""
    return _contract(system, _move(system, t, strategy, policy, table))


def sample_step(
    system: Ptrs,
    t: Term,
    strategy: Strategy,
    policy: Policy,
    x: float,
    table: Optional[SimTable] = None,
) -> Term:
    """The successor ``entry_step`` would give for a uniform draw x in [0,1):
    the policy's move is chosen first and only the sampled branch is built."""
    return _contract(system, _move(system, t, strategy, policy, table), x)


def _move(
    system: Ptrs, t: Term, strategy: Strategy, policy: Policy, table: Optional[SimTable] = None
) -> Move:
    """The policy's move on a non-normal-form term t.

    Under ``full``/``i``/``li`` it is the redex ``policy.pick_redex`` picks
    from every admissible move, placed at its position (``lift_step`` takes
    a descent rule's step from ``SuccessorTable.step``). Under
    ``par``/``ipar`` it is a group: every occurrence of one redex instance,
    or the occurrences a script row names.
    A policy with a descent rule under the plain strategy finds the instance
    along one path, because that rule's redex belongs to the group the
    policy picks: ``first``'s least (first position, rule index) of any group
    is the least redex, leftmost-outermost under par and leftmost-innermost
    under ipar, and ``rightmost``'s greatest last position is the greatest
    redex position, innermost under both. Any other policy picks from the
    list of all groups. Picks, group lists and rebuilds go through ``table``,
    or through a table of this call alone."""
    if not strategy.simultaneous:
        redex = policy.pick_redex(t, admissible_moves(system, t, strategy))
        return redex.rule_index, redex.subst, partial(replace_at, t, redex.position)
    if table is None:
        table = SimTable(system, strategy)
    rule = policy.descent(strategy.plain)
    if rule is None:
        (idx, sigma, instance), chosen = policy.pick_group(t, table.groups(t))
    else:
        (idx, sigma, instance), chosen = table.pick(t, rule), None
    return idx, sigma, _group_placement(t, instance, chosen, table)


def lift_step(
    system: Ptrs,
    mu: MultiDistribution,
    strategy: Strategy,
    policy: Policy,
    table: Union[SuccessorTable, SimTable, None] = None,
    nf_masses: Optional[list[Fraction]] = None,
) -> MultiDistribution:
    """One lifting step: normal forms are kept, every other entry takes the
    policy-chosen move and its branch distribution is spliced in place.

    Weights are integers: with ``mu`` over D and every step over L (the
    system's ``branch_den``), the new state is over D*L, an entry of weight
    n contributing n*w for each branch weight w, or n*L if it is a normal
    form. Its weights must sum to D*L, or ValueError is raised; the common
    factor is then divided out.

    Each entry's status is one lookup in the system's normal-form cache,
    which the table fills as it builds terms; only a term built elsewhere
    (a contractum, a rebuilt ∥ term) is walked. The weight found normal is
    summed on the way, and ``mu``'s normal-form mass appended to
    ``nf_masses`` when one is given, so a caller that lifts repeatedly need
    not read a state twice.

    Entries are stepped through ``table``: a ``SimTable`` under
    ``par``/``ipar``, else a ``SuccessorTable``. A policy with a descent
    rule under the plain strategy takes the table's per-term ``step``;
    any other policy steps each entry with ``entry_step``. A fresh table is
    used when none is given, so a caller that lifts repeatedly can pass one
    table to every step."""
    rule = policy.descent(strategy.plain)
    if table is None:
        table = (SimTable if strategy.simultaneous else SuccessorTable)(system, strategy)
    cache, nf = system._nf_cache, system.is_normal_form
    branch_den = system.branch_den
    weights: list[int] = []
    terms: list[Term] = []
    normal = 0
    for n, t in zip(mu.weights, mu.terms):
        known = cache.get(t)
        if known is None:
            known = nf(t)
        if known:
            normal += n
            weights.append(n * branch_den)
            terms.append(t)
            continue
        if rule is None:
            dist = entry_step(system, t, strategy, policy, table)
        else:
            dist = table.step(t, rule)
        weights.extend([n * w for w in dist.weights])
        terms.extend(dist.terms)
    den = mu.den * branch_den
    total = sum(weights)
    if total != den:
        raise ValueError(f"probabilities sum to {Fraction(total, den)}, expected 1")
    if nf_masses is not None:
        nf_masses.append(Fraction(normal, mu.den))
    g = math.gcd(den, *weights)
    if g > 1:
        weights = [w // g for w in weights]
        den //= g
    return MultiDistribution.of_weights(tuple(weights), tuple(terms), den)


def coalesce(mu: MultiDistribution) -> MultiDistribution:
    """Merge equal terms by summing weights (first-occurrence order)."""
    total: dict[Term, int] = {}
    for w, t in zip(mu.weights, mu.terms):
        total[t] = total.get(t, 0) + w
    return MultiDistribution.of_weights(tuple(total.values()), tuple(total), mu.den)
