"""Redex enumeration and single-step semantics for all five rewrite relations,
plus one lifting step over multi-distributions under a policy.

Policies resolve every bit of nondeterminism (position, rule, and for
simultaneous rewriting the subset of equal redexes), so that a lifted rewrite
sequence is a pure function of (system, start, strategy, policy).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .system import MultiDistribution, Ptrs, merge, scale
from .terms import (
    Position,
    Substitution,
    Term,
    Var,
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


def first_move_redex(system: Ptrs, t: Term, strategy: Strategy) -> Redex:
    """The redex FirstMove would pick, located by direct descent in time
    linear in the non-normal spine instead of enumerating every move.

    For full rewriting the position-lexicographic minimum is leftmost
    outermost: an ancestor position precedes everything inside it, so the
    first match on the leftmost non-normal path wins. For the innermost
    strategies it is the bottom of that same path.
    """
    assert not strategy.simultaneous
    pos: list[int] = []
    u = t
    while True:
        if strategy is Strategy.FULL:
            found = _first_root_match(system, u, pos)
            if found is not None:
                return found
        for k, a in enumerate(u.args):
            if not system.is_normal_form(a):
                pos.append(k + 1)
                u = a
                break
        else:
            # all children normal: u itself must be the innermost redex
            return _innermost_at(system, u, pos)


def rightmost_redex(system: Ptrs, t: Term) -> Redex:
    """The position-lexicographic maximum among the redexes of t, lowest rule
    first: every position inside a subterm follows the subterm's own, and
    later children follow earlier ones, so it is the bottom of the rightmost
    non-normal path. That node is innermost, so full and innermost
    rewriting agree on it."""
    pos: list[int] = []
    u = t
    while True:
        for k in range(len(u.args), 0, -1):
            a = u.args[k - 1]
            if not system.is_normal_form(a):
                pos.append(k)
                u = a
                break
        else:
            return _innermost_at(system, u, pos)


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


def _first_root_match(system: Ptrs, u: Term, pos: list[int]) -> Optional[Redex]:
    for idx, rule in system.rules_at_root(u):
        sigma = match(rule.lhs, u)
        if sigma is not None:
            return Redex(tuple(pos), idx, sigma)
    return None


def _innermost_at(system: Ptrs, u: Term, pos: list[int]) -> Redex:
    found = _first_root_match(system, u, pos)
    if found is None:
        raise InvalidRedex("term has no redex")
    return found


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
    """Apply one probabilistic rewrite step at the given redex."""
    rule = system.rules[redex.rule_index]
    sub = subterm_at(t, redex.position)
    sigma = match(rule.lhs, sub)
    if sigma is None:
        raise InvalidRedex(
            f"rule {redex.rule_index} does not match at {redex.position}"
        )
    return MultiDistribution(
        (p, replace_at(t, redex.position, apply_subst(r, sigma)))
        for p, r in rule.rhs.entries
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
    return MultiDistribution(
        (p, _replace_all(t, chosen, apply_subst(r, group.subst)))
        for p, r in rule.rhs.entries
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

    def choose(self, system: Ptrs, t: Term, strategy: Strategy) -> Redex:
        """The move this policy takes on a non-normal-form term under a
        non-simultaneous strategy. The default enumerates every admissible
        move and defers to ``pick_redex``; subclasses that can locate their
        pick by descent override it and must agree with this reference."""
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

    def choose(self, system: Ptrs, t: Term, strategy: Strategy) -> Redex:
        return first_move_redex(system, t, strategy)

    def pick_redex(self, t: Term, moves: Sequence[Redex]) -> Redex:
        return moves[0]

    def pick_group(self, t, groups):
        g = min(groups, key=lambda g: (g.positions[0], g.rule_index))
        return g, g.positions


class RightmostFirst(Policy):
    name = "rightmost"

    def choose(self, system: Ptrs, t: Term, strategy: Strategy) -> Redex:
        if strategy is Strategy.LEFTMOST_INNERMOST:
            # a single admissible position: lowest rule there
            return first_move_redex(system, t, strategy)
        return rightmost_redex(system, t)

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
        rhs = rule.rhs.entries[rule.pick_branch(x)][1]
        return _replace_all(t, chosen, apply_subst(rhs, group.subst))
    redex = policy.choose(system, t, strategy)
    rule = system.rules[redex.rule_index]
    rhs = rule.rhs.entries[rule.pick_branch(x)][1]
    return replace_at(t, redex.position, apply_subst(rhs, redex.subst))


def _pick_group(
    system: Ptrs, t: Term, strategy: Strategy, policy: Policy
) -> tuple[SimGroup, tuple[Position, ...]]:
    groups = simultaneous_groups(
        system, t, innermost_only=strategy is Strategy.INNERMOST_SIMULTANEOUS
    )
    return policy.pick_group(t, groups)


def lift_step(
    system: Ptrs, mu: MultiDistribution, strategy: Strategy, policy: Policy
) -> MultiDistribution:
    """One lifting step: normal forms are kept, every other entry takes the
    policy-chosen move and its branch distribution is spliced in place."""
    parts = []
    for p, t in mu.entries:
        if system.is_normal_form(t):
            parts.append([(p, t)])
        else:
            parts.append(scale(p, entry_step(system, t, strategy, policy)))
    return merge(parts)


def coalesce(mu: MultiDistribution) -> MultiDistribution:
    """Merge equal terms by summing probabilities (first-occurrence order)."""
    order: list[Term] = []
    total: dict[Term, Fraction] = {}
    for p, t in mu.entries:
        if t not in total:
            order.append(t)
            total[t] = Fraction(0)
        total[t] += p
    return MultiDistribution((total[t], t) for t in order)
