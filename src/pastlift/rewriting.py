"""Redex enumeration and single-step semantics for all five rewrite relations,
plus one lifting step over multi-distributions under a policy.

Policies resolve every bit of nondeterminism (position, rule, and for
simultaneous rewriting the subset of equal redexes), so that a lifted rewrite
sequence is a pure function of (system, start, strategy, policy).
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .system import MultiDistribution, Ptrs
from .terms import (
    Position,
    Substitution,
    Term,
    Var,
    app,
    apply_subst,
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


class SimGroup:
    """Every occurrence of one redex instance in a term, with the rule that
    rewrites it. The occurrences are pairwise parallel (a term cannot nest
    inside itself), so the group is an admissible simultaneous move.

    ``first`` is the leftmost position, found when the group is.
    ``positions`` (all of them, left to right) are listed on first use,
    entering only the subterms that hold the instance.
    """

    __slots__ = ("rule_index", "subst", "instance", "term", "first", "_holds", "_positions")

    def __init__(
        self, rule_index: int, subst: Substitution, instance: Term, term: Term, first: Position
    ):
        self.rule_index = rule_index
        self.subst = subst
        self.instance = instance
        self.term = term
        self.first = first
        self._holds: Optional[dict[Term, bool]] = None
        self._positions: Optional[tuple[Position, ...]] = None

    def _holders(self) -> dict[Term, bool]:
        """For each distinct subterm of ``term`` deeper than the instance,
        and each child of one, whether the instance occurs in it."""
        if self._holds is None:
            instance = self.instance
            depth = instance.depth
            holds = self._holds = {instance: True}
            stack = [self.term]
            while stack:
                u = stack[-1]
                if u in holds:
                    stack.pop()
                elif u.depth <= depth:  # not the instance, so too shallow to hold it
                    holds[u] = False
                    stack.pop()
                else:
                    pending = [a for a in u.args if a not in holds]
                    if pending:
                        stack.extend(pending)
                    else:
                        stack.pop()
                        holds[u] = any(holds[a] for a in u.args)
        return self._holds

    @property
    def positions(self) -> tuple[Position, ...]:
        if self._positions is None:
            holds = self._holders()
            found: list[Position] = []
            stack: list[tuple[Term, Position]] = [(self.term, ())]
            while stack:
                u, pos = stack.pop()
                if u is self.instance:
                    found.append(pos)
                    continue
                for k in range(len(u.args), 0, -1):
                    if holds[u.args[k - 1]]:
                        stack.append((u.args[k - 1], pos + (k,)))
            self._positions = tuple(found)
        return self._positions


def _walk_redexes(system: Ptrs, t: Term, innermost_only: bool):
    """Yield (position, node, rule index, substitution) for every redex.

    Normal-form subtrees are skipped wholesale (their status is cached on
    the system), which keeps enumeration linear in the non-normal spine
    even when the term is a huge shared DAG. The innermost filter inspects
    the node's direct children, never re-walking from the root.
    """
    stack: list[tuple[Term, Position]] = [(t, ())]
    while stack:
        u, pos = stack.pop()
        if system.is_normal_form(u):
            continue
        if not innermost_only or all(system.is_normal_form(a) for a in u.args):
            for idx, rule in system.rules_at_root(u):
                sigma = match(rule.lhs, u)
                if sigma is not None:
                    yield pos, u, idx, sigma
        if not isinstance(u, Var):
            for k, a in enumerate(u.args):
                stack.append((a, pos + (k + 1,)))


def redexes(system: Ptrs, t: Term) -> list[Redex]:
    """All redexes of t, ordered by (position, rule index); positions compare
    as tuples, so the order is leftmost-outermost."""
    found = [Redex(pos, idx, sigma) for pos, _, idx, sigma in _walk_redexes(system, t, False)]
    found.sort(key=lambda r: (r.position, r.rule_index))
    return found


def innermost_redexes(system: Ptrs, t: Term) -> list[Redex]:
    """Redexes whose proper subterms are all in normal form."""
    found = [Redex(pos, idx, sigma) for pos, _, idx, sigma in _walk_redexes(system, t, True)]
    found.sort(key=lambda r: (r.position, r.rule_index))
    return found


# A descent rule is a policy's choice at one non-normal node u, made from u
# alone: the (rule index, substitution) of the redex at u, or the 1-based
# index of the child to descend into. A pick made this way in t is the pick
# made in that child, under t's root symbol.
Pick = Union[int, tuple[int, Substitution]]
Descent = Callable[[Ptrs, Term], Pick]


def _root_match(system: Ptrs, u: Term) -> Optional[tuple[int, Substitution]]:
    for idx, rule in system.rules_at_root(u):
        sigma = match(rule.lhs, u)
        if sigma is not None:
            return idx, sigma
    return None


def _innermost_match(system: Ptrs, u: Term) -> tuple[int, Substitution]:
    found = _root_match(system, u)
    if found is None:
        raise InvalidRedex("term has no redex")
    return found


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
    found = _root_match(system, u)
    if found is not None:
        return found
    return _leftmost_innermost(system, u)


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


def nth_redex(system: Ptrs, t: Term, k: int) -> Redex:
    """``redexes(system, t)[k]``, found by descent: at each node its own
    matches come first in rule order, then each child's, skipping whole
    children by their cached redex counts."""
    pos: list[int] = []
    u = t
    while True:
        for idx, rule in system.rules_at_root(u):
            sigma = match(rule.lhs, u)
            if sigma is not None:
                if k == 0:
                    return Redex(tuple(pos), idx, sigma)
                k -= 1
        for i, a in enumerate(u.args):
            n = system.redex_count(a)
            if k < n:
                pos.append(i + 1)
                u = a
                break
            k -= n
        else:
            raise InvalidRedex("redex index out of range")


def leftmost_innermost_moves(system: Ptrs, t: Term) -> list[Redex]:
    """Innermost redexes at the leftmost innermost position only.

    Innermost positions are pairwise parallel, so plain tuple order agrees
    with the left-to-right order on parallel positions; several rules may
    remain at the one minimal position.
    """
    inner = innermost_redexes(system, t)
    if not inner:
        return []
    best = min(r.position for r in inner)
    return [r for r in inner if r.position == best]


def step(system: Ptrs, t: Term, redex: Redex) -> MultiDistribution:
    """Apply one probabilistic rewrite step at the given redex. The result
    carries the rule's branch weights over ``system.branch_den``; they were
    checked where they entered (see ``MultiDistribution``)."""
    rule = system.rules[redex.rule_index]
    sub = subterm_at(t, redex.position)
    sigma = match(rule.lhs, sub)
    if sigma is None:
        raise InvalidRedex(
            f"rule {redex.rule_index} does not match at {redex.position}"
        )
    return MultiDistribution.of_weights(
        system.branch_weights[redex.rule_index],
        tuple(replace_at(t, redex.position, apply_subst(r, sigma)) for r in rule.rhs.terms),
        system.branch_den,
    )


def simultaneous_groups(
    system: Ptrs, t: Term, innermost_only: bool
) -> list[SimGroup]:
    """Group redexes by rule and identical instance, ordered by (first
    position, rule index).

    One pre-order walk, children left to right, over the distinct non-normal
    subterms of t: the walk meets positions in lexicographic order and stops
    at a subterm it has met before, so each subterm is visited once, at its
    leftmost position, and the groups come out already in order.
    """
    nf = system.is_normal_form
    groups: list[SimGroup] = []
    seen: set[Term] = set()
    stack: list[tuple[Term, Position]] = [(t, ())]
    while stack:
        u, pos = stack.pop()
        if u in seen or nf(u):
            continue
        seen.add(u)
        args = u.args
        if not innermost_only or all(nf(a) for a in args):
            for idx, rule in system.rules_at_root(u):
                sigma = match(rule.lhs, u)
                if sigma is not None:
                    groups.append(SimGroup(idx, sigma, u, t, pos))
        for k in range(len(args), 0, -1):
            if args[k - 1] not in seen:
                stack.append((args[k - 1], pos + (k,)))
    return groups


def sim_step(
    system: Ptrs,
    t: Term,
    group: SimGroup,
    chosen_positions: Optional[Sequence[Position]] = None,
) -> MultiDistribution:
    """Rewrite every chosen position of the group at once (all of them when
    none are given): branch j replaces all of them by the j-th right-hand
    side instance (merged, not a product).
    """
    chosen = _checked_positions(t, group, chosen_positions)
    return _sim_dist(system, t, group.rule_index, group.subst, group.instance, chosen)


def _checked_positions(
    t: Term, group: SimGroup, chosen_positions: Optional[Sequence[Position]]
) -> Optional[tuple[Position, ...]]:
    """The chosen positions, checked against t; None when they are every
    occurrence of the instance in t, the group's own term."""
    if chosen_positions is None and group.term is t:
        return None
    chosen = tuple(chosen_positions) if chosen_positions is not None else group.positions
    if not chosen or not set(chosen) <= set(group.positions):
        raise InvalidGroup(f"positions {chosen} are not a non-empty subset of the group")
    for pos in chosen:
        if subterm_at(t, pos) is not group.instance:
            raise InvalidGroup(f"stale group: instance changed at {pos}")
    if group.term is t and len(set(chosen)) == len(group.positions):
        return None
    return chosen


def _sim_dist(
    system: Ptrs,
    t: Term,
    rule_index: int,
    sigma: Substitution,
    instance: Term,
    chosen: Optional[Sequence[Position]],
) -> MultiDistribution:
    rule = system.rules[rule_index]
    return MultiDistribution.of_weights(
        system.branch_weights[rule_index],
        tuple(
            _rewrite_group(system, t, instance, chosen, apply_subst(r, sigma))
            for r in rule.rhs.terms
        ),
        system.branch_den,
    )


def _rewrite_group(
    system: Ptrs,
    t: Term,
    instance: Term,
    chosen: Optional[Sequence[Position]],
    replacement: Term,
) -> Term:
    if chosen is None:
        return _replace_instance(system, t, instance, replacement)
    return _replace_all(t, chosen, replacement)


def _replace_instance(system: Ptrs, t: Term, instance: Term, replacement: Term) -> Term:
    """t with every occurrence of ``instance`` replaced, in one bottom-up
    pass over distinct subterms, each rebuilt once. Normal forms and other
    subterms no deeper than the instance cannot hold it and are kept as they
    are. The occurrences are parallel, so this is the term that replacing
    them one position at a time gives."""
    if t is instance:
        return replacement
    nf = system.is_normal_form
    depth = instance.depth
    done: dict[Term, Term] = {instance: replacement}
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
            done[u] = app(u.symbol, args) if changed else u
    return done[t]


def _replace_all(t: Term, chosen: Sequence[Position], replacement: Term) -> Term:
    for pos in chosen:
        t = replace_at(t, pos, replacement)
    return t


class Policy:
    """Deterministic choice among admissible moves."""

    name = "policy"

    def descent(self, strategy: Strategy) -> Optional[Descent]:
        """The rule that makes this policy's pick node by node under a
        non-simultaneous strategy, or None when the pick is not made that
        way (it depends on state, or on the whole term)."""
        return None

    def group_descent(self, strategy: Strategy) -> Optional[Descent]:
        """Under a simultaneous strategy, the descent rule whose redex is
        this policy's pick, its group being every occurrence of that
        instance; None when the group is picked from the list of all
        groups (``pick_group``). It is the policy's descent rule under the
        plain strategy: ``first``'s least (first position, rule index) of
        any group is the least redex, leftmost-outermost under par and
        leftmost-innermost under ipar, and ``rightmost``'s greatest last
        position is the greatest redex position, innermost under both."""
        return self.descent(strategy.plain) if strategy.simultaneous else None

    def choose(self, system: Ptrs, t: Term, strategy: Strategy) -> Redex:
        """The move this policy takes on a non-normal-form term under a
        non-simultaneous strategy: by descent where the policy has a descent
        rule, otherwise by enumerating every admissible move and deferring
        to ``pick_redex``. Either way it must agree with ``pick_redex``."""
        rule = self.descent(strategy)
        if rule is not None:
            return descend(system, t, rule)
        return self.pick_redex(t, admissible_moves(system, t, strategy))

    def pick_redex(self, t: Term, moves: Sequence[Redex]) -> Redex:
        raise NotImplementedError

    def pick_group(
        self, t: Term, groups: Sequence[SimGroup]
    ) -> tuple[SimGroup, Optional[tuple[Position, ...]]]:
        """A group and the positions of it to rewrite, None for all."""
        raise NotImplementedError

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

    def pick_redex(self, t: Term, moves: Sequence[Redex]) -> Redex:
        return moves[0]

    def pick_group(self, t, groups):
        return min(groups, key=lambda g: (g.first, g.rule_index)), None


class RightmostFirst(Policy):
    name = "rightmost"

    def descent(self, strategy: Strategy) -> Optional[Descent]:
        if strategy is Strategy.LEFTMOST_INNERMOST:
            # a single admissible position: lowest rule there
            return _leftmost_innermost
        return None if strategy.simultaneous else _rightmost_innermost

    def pick_redex(self, t: Term, moves: Sequence[Redex]) -> Redex:
        rightmost = max(m.position for m in moves)
        return min(
            (m for m in moves if m.position == rightmost),
            key=lambda m: m.rule_index,
        )

    def pick_group(self, t, groups):
        return max(groups, key=lambda g: (g.positions[-1], -g.rule_index)), None


class RandomSeeded(Policy):
    def __init__(self, seed: object):
        self.seed = seed
        self.rng = random.Random(seed)
        self.name = f"random:{seed}"

    def choose(self, system: Ptrs, t: Term, strategy: Strategy) -> Redex:
        if strategy is Strategy.FULL:
            # the same draw as pick_redex over all len(redexes) moves
            return nth_redex(system, t, self.rng.randrange(system.redex_count(t)))
        return super().choose(system, t, strategy)

    def pick_redex(self, t: Term, moves: Sequence[Redex]) -> Redex:
        return moves[self.rng.randrange(len(moves))]

    def pick_group(self, t, groups):
        return groups[self.rng.randrange(len(groups))], None

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
            wanted = set(entry.positions)
            for g in groups:
                if g.rule_index == entry.rule_index and wanted <= set(g.positions):
                    return g, entry.positions
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
    system: Ptrs, t: Term, strategy: Strategy, policy: Policy
) -> MultiDistribution:
    """One policy-resolved step on a single non-normal-form term."""
    if strategy.simultaneous:
        return _sim_dist(system, t, *_sim_move(system, t, strategy, policy))
    return step(system, t, policy.choose(system, t, strategy))


def sample_step(
    system: Ptrs, t: Term, strategy: Strategy, policy: Policy, x: float
) -> Term:
    """The successor ``entry_step`` would give for a uniform draw x in [0,1):
    the policy's move is chosen first and only the sampled branch is built."""
    if strategy.simultaneous:
        idx, sigma, instance, chosen = _sim_move(system, t, strategy, policy)
        rule = system.rules[idx]
        rhs = rule.rhs.terms[rule.pick_branch(x)]
        return _rewrite_group(system, t, instance, chosen, apply_subst(rhs, sigma))
    redex = policy.choose(system, t, strategy)
    rule = system.rules[redex.rule_index]
    rhs = rule.rhs.terms[rule.pick_branch(x)]
    return replace_at(t, redex.position, apply_subst(rhs, redex.subst))


def _sim_move(
    system: Ptrs, t: Term, strategy: Strategy, policy: Policy
) -> tuple[int, Substitution, Term, Optional[tuple[Position, ...]]]:
    """The policy's simultaneous move on t: rule index, substitution,
    instance, and the positions to rewrite, None for every occurrence. A
    policy with a group descent finds the instance along one path; any
    other picks from the list of all groups."""
    rule = policy.group_descent(strategy)
    if rule is not None:
        redex = descend(system, t, rule)
        return redex.rule_index, redex.subst, subterm_at(t, redex.position), None
    groups = simultaneous_groups(
        system, t, innermost_only=strategy is Strategy.INNERMOST_SIMULTANEOUS
    )
    group, chosen = policy.pick_group(t, groups)
    return group.rule_index, group.subst, group.instance, _checked_positions(t, group, chosen)


def lift_step(
    system: Ptrs,
    mu: MultiDistribution,
    strategy: Strategy,
    policy: Policy,
    memo: Optional[dict[Term, MultiDistribution]] = None,
) -> MultiDistribution:
    """One lifting step: normal forms are kept, every other entry takes the
    policy-chosen move and its branch distribution is spliced in place.

    Weights are integers: with ``mu`` over D and every step over L (the
    system's ``branch_den``), the new state is over D*L, an entry of weight
    n contributing n*w for each branch weight w, or n*L if it is a normal
    form. Its weights must sum to D*L, or ValueError is raised; the common
    factor is then divided out.

    Where the policy has a descent rule, entries are stepped through
    ``memo`` (a fresh one when none is given; see ``memo_step``), so a
    caller that lifts repeatedly can pass one dict to every step."""
    rule = policy.descent(strategy)
    if rule is not None and memo is None:
        memo = {}
    branch_den = system.branch_den
    weights: list[int] = []
    terms: list[Term] = []
    for n, t in zip(mu.weights, mu.terms):
        if system.is_normal_form(t):
            weights.append(n * branch_den)
            terms.append(t)
            continue
        if rule is None:
            dist = entry_step(system, t, strategy, policy)
        else:
            dist = memo_step(system, t, rule, memo)
        weights.extend([n * w for w in dist.weights])
        terms.extend(dist.terms)
    den = mu.den * branch_den
    total = sum(weights)
    if total != den:
        raise ValueError(f"probabilities sum to {Fraction(total, den)}, expected 1")
    g = math.gcd(den, *weights)
    if g > 1:
        weights = [w // g for w in weights]
        den //= g
    return MultiDistribution.of_weights(tuple(weights), tuple(terms), den)


def memo_step(
    system: Ptrs, t: Term, rule: Descent, memo: dict[Term, MultiDistribution]
) -> MultiDistribution:
    """``entry_step`` for a policy whose pick follows a descent rule, paying
    only for the subterms on the pick's path that ``memo`` has not seen.

    The rule's pick in a node that descends into child k is the pick in that
    child, so the node's step is the child's with every branch put back under
    the node's root symbol and the same weights. The walk goes down to the
    first memoised subterm or to the redex, which ``step`` contracts as
    usual, then builds back up one level at a time, memoising every level."""
    path: list[tuple[Term, int]] = []
    u = t
    dist = memo.get(u)
    while dist is None:
        found = rule(system, u)
        if isinstance(found, int):
            path.append((u, found))
            u = u.args[found - 1]
            dist = memo.get(u)
        else:
            dist = memo[u] = step(system, u, Redex((), *found))
    weights, den = dist.weights, dist.den
    for parent, k in reversed(path):
        sym, head, tail = parent.symbol, parent.args[: k - 1], parent.args[k:]
        dist = memo[parent] = MultiDistribution.of_weights(
            weights, tuple(app(sym, head + (s,) + tail) for s in dist.terms), den
        )
    return dist


def coalesce(mu: MultiDistribution) -> MultiDistribution:
    """Merge equal terms by summing weights (first-occurrence order)."""
    total: dict[Term, int] = {}
    for w, t in zip(mu.weights, mu.terms):
        total[t] = total.get(t, 0) + w
    return MultiDistribution.of_weights(tuple(total.values()), tuple(total), mu.den)
