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


@dataclass
class Redex:
    position: Position
    rule_index: int
    subst: Substitution


@dataclass
class SimGroup:
    """Maximal set of parallel positions carrying the same redex instance."""

    rule_index: int
    subst: Substitution
    positions: tuple[Position, ...]
    instance: Term


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
    """Group redexes by rule and identical instance.

    Positions carrying the same instance are automatically parallel (a term
    cannot nest inside itself), so every group is an admissible simultaneous
    move; ordered by (first position, rule index).
    """
    grouped: dict[tuple[int, Term], tuple[Substitution, list[Position]]] = {}
    for pos, u, idx, sigma in _walk_redexes(system, t, innermost_only):
        grouped.setdefault((idx, u), (sigma, []))[1].append(pos)
    groups = [
        SimGroup(
            rule_index=idx,
            subst=sigma,
            positions=tuple(sorted(found)),
            instance=instance,
        )
        for (idx, instance), (sigma, found) in grouped.items()
    ]
    groups.sort(key=lambda g: (g.positions[0], g.rule_index))
    return groups


def sim_step(
    system: Ptrs,
    t: Term,
    group: SimGroup,
    chosen_positions: Optional[Sequence[Position]] = None,
) -> MultiDistribution:
    """Rewrite every chosen position of the group at once: branch j replaces
    all of them by the j-th right-hand side instance (merged, not a product).
    """
    chosen = _checked_positions(t, group, chosen_positions)
    rule = system.rules[group.rule_index]
    return MultiDistribution.of_weights(
        system.branch_weights[group.rule_index],
        tuple(_replace_all(t, chosen, apply_subst(r, group.subst)) for r in rule.rhs.terms),
        system.branch_den,
    )


def _checked_positions(
    t: Term, group: SimGroup, chosen_positions: Optional[Sequence[Position]]
) -> tuple[Position, ...]:
    chosen = tuple(chosen_positions) if chosen_positions is not None else group.positions
    if not chosen or not set(chosen) <= set(group.positions):
        raise InvalidGroup(f"positions {chosen} are not a non-empty subset of the group")
    for pos in chosen:
        if subterm_at(t, pos) is not group.instance:
            raise InvalidGroup(f"stale group: instance changed at {pos}")
    return chosen


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
    ) -> tuple[SimGroup, tuple[Position, ...]]:
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
        g = min(groups, key=lambda g: (g.positions[0], g.rule_index))
        return g, g.positions


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
        g = max(groups, key=lambda g: (g.positions[-1], -g.rule_index))
        return g, g.positions


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
        g = groups[self.rng.randrange(len(groups))]
        return g, g.positions

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
        group, chosen = _pick_group(system, t, strategy, policy)
        return sim_step(system, t, group, chosen)
    return step(system, t, policy.choose(system, t, strategy))


def sample_step(
    system: Ptrs, t: Term, strategy: Strategy, policy: Policy, x: float
) -> Term:
    """The successor ``entry_step`` would give for a uniform draw x in [0,1):
    the policy's move is chosen first and only the sampled branch is built."""
    if strategy.simultaneous:
        group, chosen = _pick_group(system, t, strategy, policy)
        chosen = _checked_positions(t, group, chosen)
        rule = system.rules[group.rule_index]
        rhs = rule.rhs.terms[rule.pick_branch(x)]
        return _replace_all(t, chosen, apply_subst(rhs, group.subst))
    redex = policy.choose(system, t, strategy)
    rule = system.rules[redex.rule_index]
    rhs = rule.rhs.terms[rule.pick_branch(x)]
    return replace_at(t, redex.position, apply_subst(rhs, redex.subst))


def _pick_group(
    system: Ptrs, t: Term, strategy: Strategy, policy: Policy
) -> tuple[SimGroup, tuple[Position, ...]]:
    groups = simultaneous_groups(
        system, t, innermost_only=strategy is Strategy.INNERMOST_SIMULTANEOUS
    )
    return policy.pick_group(t, groups)


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
