"""Sampled runs: as zippers under an innermost descent rule and under a
policy that picks a redex by its index, and under ``par``/``ipar`` from a
move table of whole terms. ``semantics.mc_runs`` picks the sampler, here
for every policy but ``script``.

A run keeps the hash-consed term open at its current redex (Huet, "The
Zipper", JFP 1997): a frame ``(parent, k, ...)`` per ancestor, the open
subterm being the parent's k-th argument. Closing a frame rebuilds the
parent around the open subterm with ``app``. Neither loop re-descends from
the root or rebuilds the path to it on every step.

A contraction is two table lookups on the system, ``Ptrs.root_matches`` and
``Ptrs.contract``, so a redex met again in any run is matched and built once.

**Innermost descent rules** (``run_innermost_first``). Going down follows the
descent rule. While the open subterm is a normal form, its frame is popped
and the same rule is asked from the parent, never from the root. For a rule
in ``rewriting.INNERMOST_DESCENTS`` every frame left on the stack still picks
its child, so a step costs its contractum plus one interned parent per
argument that becomes normal, not the term's depth.

What the rule says about a term is kept in a move table, one entry per
distinct term the cursor reaches: a normal form, the child to enter, or a
redex with its rule, σ and its contracta by branch, each contractum built the
first time a draw picks it. The runs of one estimate share the table, so a
step on a term met before, in any run, is one lookup plus the draw.

The same property makes the normalisation of a slot (the start term, or an
argument the run descends into) one contiguous segment of the run, fixed by
the slot's subterm and the draws it takes. When no step of the segment used a
rule with more than one branch, the draws do not matter either, and the
segment is memoised as ``memo[subterm] = (normal form, steps)``. A run that
descends into a memoised subterm jumps over the segment with one dictionary
lookup. So a run costs one contraction per step outside memoised segments and
one lookup per repeated deterministic subterm, not its length: a duplicating
rule such as ``f(s(x)) -> c(f(x), f(x))`` normalises ``f(s^k(0))`` in 2^k - 1
steps but k contractions. The memo holds completed segments only and may be
shared by runs of one system under one descent rule.

Seeded results stay bit-for-bit those of a run that draws once per step. A
step by a single-branch rule, and a skipped segment, draw nothing but owe
their draws; the owed draws are paid, in bounded chunks, just before the next
draw whose value picks a branch, so every such draw reads the generator in the
same state as before. A run that ends while owing pays nothing.

Under ``li`` a policy's index rule picks among the root matches at the
leftmost innermost redex, all kept in the move table. Each pick is a draw of
the policy's own stream, so no segment holding one is memoised.

**Rewriting by redex index** (``run_by_index``). A policy whose pick is an
index into the term's redexes in ``rewriting.redexes`` order, or under
``i`` in ``innermost_redexes`` order (``first`` takes 0, ``random`` a
uniform draw), needs only the subterms' redex counts (``RedexCounts``): a
node's own root matches come first, then each child's redexes, children
left to right, so the frames carry the order statistic (CLRS, ch. 14,
OS-SELECT). A frame also holds the index of its parent's first redex in the
whole term and the parent's count minus its open child's, and the run keeps
the whole term's count. A step closes frames until the open subterm holds
the picked index, goes down by the cached child counts, contracts, and adds
the change of the open subterm's count to the total. Then it recounts the
ancestors whose own matches may have changed: under ``full`` those with a
left-hand side that has a non-variable position on the path to the step
or that is not left-linear (it compares whole arguments), under ``i`` those
left with no redex below. So a step costs its contractum plus the cursor's
move from the last redex to the next one, up to their common ancestor and
down again, with one interned parent per level climbed out of a changed
subterm. The move is measured, not constant: ``first``'s next redex is
mostly near the last one, but a ``random`` pick lands anywhere, so on a
chain such as ``g(g(...))`` its move grows with the depth.

**Simultaneous rewriting** (``run_simultaneous``). A ``par``/``ipar`` step
replaces every occurrence of an instance, anywhere in the term, so the run
keeps no cursor: its state is the whole term. The runs of one estimate share
a move table with one entry per distinct term they reach: no move for a
normal form; the descent rule's pick (``SimTable.pick``) for a policy with
one; otherwise every group (``SimTable.groups``), in list order, for a policy
that picks a group by its index. A move is a group, (rule index, σ,
instance), with its successors by branch, each successor rebuilt
(``SimTable.rebuild``) the first time a draw picks it. So a step on a term
met before, in any run, is one lookup, the branch draw and, for an index
pick, the policy's draw.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .rewriting import Descent, IndexPick, SimTable
from .system import Ptrs
from .terms import Position, Substitution, Term, Var, app

Memo = dict[Term, tuple[Term, int]]
# A term's move under one descent rule: 0 for a normal form, k > 0 for the
# child the rule enters, or the redex's moves (every root match for a pick,
# else the rule's), each as (rule index, σ, contracta by branch), each
# contractum built the first time a draw picks it
Entry = Union[int, tuple[tuple[int, Substitution, list[Optional[Term]]], ...]]
Moves = dict[Term, Entry]

# owed draws paid per getrandbits call: 64 bits are the two 32-bit words one
# random() call consumes
_CHUNK = 1024


def _pay(rng: random.Random, owed: int) -> None:
    """Advance rng as ``owed`` calls of ``rng.random()`` would."""
    while owed > _CHUNK:
        rng.getrandbits(64 * _CHUNK)
        owed -= _CHUNK
    rng.getrandbits(64 * owed)


def _plug(parent: Term, k: int, u: Term) -> Term:
    """Close the frame (parent, k) around u: parent with u as its k-th
    argument, interned, or parent itself when u already is."""
    args = parent.args
    if args[k - 1] is u:
        return parent
    return app(parent.symbol, args[: k - 1] + (u,) + args[k:])


def _entry(system: Ptrs, rule: Descent, u: Term, every: bool) -> Entry:
    """u's move-table entry under the descent rule."""
    if system.is_normal_form(u):
        return 0
    found = rule(system, u)
    if isinstance(found, int):
        return found
    weights = system.branch_weights
    matches = system.root_matches(u) if every else (found,)
    return tuple((idx, sigma, [None] * len(weights[idx])) for idx, sigma in matches)


def run_innermost_first(
    system: Ptrs,
    start: Term,
    rule: Descent,
    rng: random.Random,
    step_cap: int,
    memo: Optional[Memo] = None,
    moves: Optional[Moves] = None,
    pick: Optional[IndexPick] = None,
) -> tuple[bool, int]:
    """Simulate one run; returns (reached normal form, steps taken). At the
    rule's redex, ``pick(n)`` chooses among its n root matches, if given.

    ``memo`` carries deterministic segments and ``moves`` the move table
    from run to run; each must come from runs on the same system under the
    same rule, with a pick or without."""
    if memo is None:
        memo = {}
    hit = memo.get(start)
    if hit is not None:
        return (True, hit[1]) if hit[1] <= step_cap else (False, step_cap)
    if moves is None:
        moves = {}
    get = moves.get
    rules = system.rules
    # (parent, k, steps, draws) when the frame was pushed; draws counts the
    # steps whose draw picked a branch
    frames: list[tuple[Term, int, int, int]] = []
    u = start
    steps = draws = owed = 0
    while True:
        e = get(u)
        if e is None:
            e = moves[u] = _entry(system, rule, u, pick is not None)
        if not e:  # a normal form: close its frame
            if not frames:
                if not draws:
                    memo[start] = (u, steps)
                return True, steps
            parent, k, pushed_steps, pushed_draws = frames.pop()
            if draws == pushed_draws:
                memo[parent.args[k - 1]] = (u, steps - pushed_steps)
            u = _plug(parent, k, u)
        elif isinstance(e, int):  # into child e, or over its memoised segment
            child = u.args[e - 1]
            hit = memo.get(child)
            if hit is None:
                frames.append((u, e, steps, draws))
                u = child
                continue
            # a segment takes at least one step, so at the cap this returns
            normal, n = hit
            steps += n
            if steps > step_cap:
                return False, step_cap
            owed += n
            u = _plug(u, e, normal)
        else:
            if steps == step_cap:
                return False, step_cap
            if pick is None:
                idx, sigma, built = e[0]
            else:  # the policy's draw: no segment holding this step is memoised
                idx, sigma, built = e[pick(len(e))]
                draws += 1
            if len(built) == 1:
                owed += 1
                b = 0
            else:
                if owed:
                    _pay(rng, owed)
                    owed = 0
                draws += 1
                b = rules[idx].pick_branch(rng.random())
            u = built[b]
            if u is None:
                u = built[b] = system.contract(idx, b, sigma)
            steps += 1


SymbolKey = tuple[str, int]


def _rematch_sites(system: Ptrs) -> tuple[dict[SymbolKey, set[Position]], int, set[SymbolKey]]:
    """Where a change below a node can change the node's own matches: for
    each root symbol, as (name, arity), the non-variable positions below the
    root of its left-hand sides, and the greatest length among them; and the
    symbols with a left-hand side that is not left-linear."""
    sites: dict[SymbolKey, set[Position]] = {}
    longest = 0
    nonlinear: set[SymbolKey] = set()
    for rule in system.rules:
        lhs = rule.lhs
        if isinstance(lhs, Var):
            continue
        key = (lhs.symbol.name, lhs.symbol.arity)
        found = sites.setdefault(key, set())
        seen: set[str] = set()
        stack: list[tuple[Term, Position]] = [(lhs, ())]
        while stack:
            u, pos = stack.pop()
            if isinstance(u, Var):
                if u.name in seen:
                    nonlinear.add(key)
                seen.add(u.name)
                continue
            if pos:
                found.add(pos)
                longest = max(longest, len(pos))
            stack.extend((a, pos + (k,)) for k, a in enumerate(u.args, 1))
    return sites, longest, nonlinear


class RedexCounts:
    """Each term's number of redexes, or with ``innermost`` of innermost
    redexes (a node's own root matches count only when no argument has one),
    kept in ``known`` for the runs of one estimate."""

    __slots__ = ("system", "innermost", "known")

    def __init__(self, system: Ptrs, innermost: bool):
        self.system = system
        self.innermost = innermost
        self.known: dict[Term, int] = {}

    def count(self, t: Term) -> int:
        known = self.known
        got = known.get(t)
        if got is not None:
            return got
        nf = self.system.is_normal_form
        if nf(t):
            return 0
        stack = [t]
        while stack:
            u = stack[-1]
            if u in known:
                stack.pop()
                continue
            pending = [a for a in u.args if a not in known and not nf(a)]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            below = sum([known.get(a, 0) for a in u.args])
            own = 0 if self.innermost and below else len(self.system.root_matches(u))
            known[u] = own + below
        return known[t]


def run_by_index(
    system: Ptrs, start: Term, pick: IndexPick, rng: random.Random, step_cap: int, counts: RedexCounts
) -> tuple[bool, int]:
    """Simulate one run under full, or with innermost ``counts`` innermost,
    rewriting; returns (reached normal form, steps taken). Each step takes
    the redex ``pick(n)`` among the term's n redexes, in ``redexes`` (or
    ``innermost_redexes``) order, and draws its branch with one
    ``rng.random()``."""
    count, known, innermost = counts.count, counts.known, counts.innermost
    root_matches = system.root_matches
    contract, rules = system.contract, system.rules
    sites, longest, nonlinear = ({}, 0, set()) if innermost else _rematch_sites(system)
    # (parent, k, the index of parent's first redex in the whole term,
    # parent's count minus its k-th argument's)
    frames: list[tuple[Term, int, int, int]] = []
    u, lo = start, 0  # the open subterm, and the index of its first redex
    n = total = count(start)  # the open subterm's redexes, and the term's
    for steps in range(step_cap):
        if not total:
            return True, steps
        x = rng.random()
        r = pick(total)
        while not lo <= r < lo + n:
            parent, k, lo, rest = frames.pop()
            n += rest
            u = _plug(parent, k, u)
            known[u] = n
        # down to the subterm whose own matches hold r, by the children's
        # counts, right to left: each child's redexes end where the next
        # one's begin. Every frame of a symbol in nonlinear is closed after
        # each contraction, so the outermost one left is pushed here.
        pinned = -1
        while True:
            args = u.args
            end = lo + n
            for k in range(len(args), 0, -1):
                c = count(args[k - 1])
                end -= c
                if c and r >= end:
                    break
            else:
                break
            if pinned < 0 and nonlinear and (u.symbol.name, u.symbol.arity) in nonlinear:
                pinned = len(frames)
            frames.append((u, k, lo, n - c))
            u, lo, n = args[k - 1], end, c
        idx, sigma = root_matches(u)[r - lo]
        u = contract(idx, rules[idx].pick_branch(x), sigma)
        c = count(u)
        total += c - n
        n = c
        # close and recount every ancestor whose own matches may have
        # changed; under innermost rewriting, each one left with no redex below
        close = len(frames) - pinned if pinned >= 0 else 0
        path: Position = ()
        for d in range(1, min(longest, len(frames)) + 1):
            parent, k, _, _ = frames[-d]
            path = (k,) + path
            if path in sites.get((parent.symbol.name, parent.symbol.arity), ()):
                close = max(close, d)
        while close > 0 or innermost and not n and frames and not frames[-1][3]:
            close -= 1
            parent, k, lo, rest = frames.pop()
            u = _plug(parent, k, u)
            c = known.get(u)
            if c is None:
                # an empty match list is not kept: most parents are counted once
                c = known[u] = len(root_matches(u, False)) + sum(map(count, u.args))
            total += c - (n + rest)
            n = c
    return not total, step_cap


# A term's moves under par/ipar: () for a normal form, else the moves a
# policy picks among, each as (rule index, σ, instance, successors by branch),
# each successor built the first time a draw picks it
SimMove = tuple[int, Substitution, Term, list[Optional[Term]]]
SimMoves = dict[Term, tuple[SimMove, ...]]


def _sim_entry(
    system: Ptrs, table: SimTable, rule: Optional[Descent], u: Term
) -> tuple[SimMove, ...]:
    """u's move-table entry: the descent rule's pick alone, or every group."""
    if system.is_normal_form(u):
        return ()
    found = table.groups(u) if rule is None else [table.pick(u, rule)]
    weights = system.branch_weights
    return tuple((idx, sigma, instance, [None] * len(weights[idx])) for idx, sigma, instance in found)


def run_simultaneous(
    system: Ptrs,
    start: Term,
    table: SimTable,
    rule: Optional[Descent],
    pick: Optional[IndexPick],
    rng: random.Random,
    step_cap: int,
    moves: Optional[SimMoves] = None,
) -> tuple[bool, int]:
    """Simulate one run under the table's ``par`` or ``ipar``; returns
    (reached normal form, steps taken). Each step draws its branch with one
    ``rng.random()``, and takes the descent rule's group, or, without a
    rule, the group ``pick(n)`` among the term's n groups.

    ``table`` and ``moves`` carry the work from run to run; both must come
    from runs on the same system and strategy with the same rule, or both
    without one."""
    if moves is None:
        moves = {}
    get = moves.get
    rules, contract, rebuild = system.rules, system.contract, table.rebuild
    u = start
    for steps in range(step_cap):
        e = get(u)
        if e is None:
            e = moves[u] = _sim_entry(system, table, rule, u)
        if not e:
            return True, steps
        x = rng.random()
        idx, sigma, instance, built = e[0] if pick is None else e[pick(len(e))]
        b = rules[idx].pick_branch(x)
        v = built[b]
        if v is None:
            v = built[b] = rebuild(u, instance, contract(idx, b, sigma))
        u = v
    return system.is_normal_form(u), step_cap
