"""Sampled runs as zippers: under an innermost descent rule, and under full
rewriting for a policy that picks a redex by its index.

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

**Full rewriting by redex index** (``run_full_by_index``). A policy whose
pick is an index into the term's redexes in ``rewriting.redexes`` order
(``first`` takes 0, ``random`` a uniform draw) needs only the redex counts
of the subterms: a node's own root matches come first, then each child's
redexes, children left to right, so the frames carry the order statistic
(CLRS, ch. 14, OS-SELECT). A frame also holds the index of its parent's
first redex in the whole term and the parent's count minus its open child's,
and the run keeps the whole term's count. A step closes frames until the
open subterm holds the picked index, goes down by the cached child counts,
contracts, and adds the change of the open subterm's count to the total.
An ancestor's own matches can change only when the contraction is at a
non-variable position of one of its symbol's left-hand sides, or when one
of those is not left-linear (it compares whole arguments); exactly those
ancestors are closed and recounted at once. So a step costs its contractum
plus the cursor's move from the last redex to the next one, up to their
common ancestor and down again, with one interned parent per level climbed
out of a changed subterm. The move is measured, not constant: ``first``'s
next redex is mostly near the last one, but a ``random`` pick lands anywhere,
so on a chain such as ``g(g(...))`` its move grows with the depth.
"""

from __future__ import annotations

import random
from typing import Optional

from .rewriting import Descent, IndexPick
from .system import Ptrs
from .terms import Position, Term, Var, app

Memo = dict[Term, tuple[Term, int]]

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


def run_innermost_first(
    system: Ptrs,
    start: Term,
    rule: Descent,
    rng: random.Random,
    step_cap: int,
    memo: Optional[Memo] = None,
) -> tuple[bool, int]:
    """Simulate one run; returns (reached normal form, steps taken).

    ``memo`` carries deterministic segments from run to run; it must come
    from runs on the same system under the same rule."""
    if memo is None:
        memo = {}
    hit = memo.get(start)
    if hit is not None:
        return (True, hit[1]) if hit[1] <= step_cap else (False, step_cap)
    nf = system.is_normal_form
    rules, contract = system.rules, system.contract
    # (parent, k, steps, draws) when the frame was pushed; draws counts the
    # steps whose draw picked a branch
    frames: list[tuple[Term, int, int, int]] = []
    u = start
    steps = draws = owed = 0
    while True:
        while nf(u):
            if not frames:
                if not draws:
                    memo[start] = (u, steps)
                return True, steps
            parent, k, pushed_steps, pushed_draws = frames.pop()
            args = parent.args
            if draws == pushed_draws:
                memo[args[k - 1]] = (u, steps - pushed_steps)
            u = _plug(parent, k, u)
        if steps == step_cap:
            return False, step_cap
        found = rule(system, u)
        hit = None
        while isinstance(found, int):
            hit = memo.get(u.args[found - 1])
            if hit is not None:
                break
            frames.append((u, found, steps, draws))
            u = u.args[found - 1]
            found = rule(system, u)
        if hit is not None:
            normal, n = hit
            steps += n
            if steps > step_cap:
                return False, step_cap
            owed += n
            args = u.args
            u = app(u.symbol, args[: found - 1] + (normal,) + args[found:])
            continue
        idx, sigma = found
        contracted = rules[idx]
        if len(contracted.rhs.terms) == 1:
            owed += 1
            u = contract(idx, 0, sigma)
        else:
            if owed:
                _pay(rng, owed)
                owed = 0
            draws += 1
            u = contract(idx, contracted.pick_branch(rng.random()), sigma)
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


def run_full_by_index(
    system: Ptrs, start: Term, pick: IndexPick, rng: random.Random, step_cap: int
) -> tuple[bool, int]:
    """Simulate one run under full rewriting; returns (reached normal form,
    steps taken). Each step takes the redex ``pick(n)`` among the term's n
    redexes, in ``rewriting.redexes`` order, and draws its branch with one
    ``rng.random()``."""
    count, note, root_matches = system.redex_count, system.note_count, system.root_matches
    contract, rules = system.contract, system.rules
    sites, longest, nonlinear = _rematch_sites(system)
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
            note(u, n)
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
        # close and recount every ancestor whose own matches may have changed
        close = len(frames) - pinned if pinned >= 0 else 0
        path: Position = ()
        for d in range(1, min(longest, len(frames)) + 1):
            parent, k, _, _ = frames[-d]
            path = (k,) + path
            if path in sites.get((parent.symbol.name, parent.symbol.arity), ()):
                close = max(close, d)
        for _ in range(close):
            parent, k, lo, rest = frames.pop()
            u = _plug(parent, k, u)
            c = len(root_matches(u)) + sum(map(count, u.args))
            note(u, c)
            total += c - (n + rest)
            n = c
    return not total, step_cap
