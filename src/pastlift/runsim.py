"""Sampled runs under an innermost descent rule, as a zipper.

A run keeps the hash-consed term open at its current redex (Huet, "The
Zipper", JFP 1997): a frame ``(parent, k, ...)`` per ancestor, the open
subterm being the parent's k-th argument. Going down follows the descent
rule. While the open subterm is a normal form, its frame is popped and the
parent rebuilt around it with ``app``, and the same rule is asked from there,
never from the root. For a rule in ``rewriting.INNERMOST_DESCENTS`` every
frame left on the stack still picks its child, so a step costs its contractum
plus one interned parent per argument that becomes normal, not the term's
depth.

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
"""

from __future__ import annotations

import random
from typing import Optional

from .rewriting import Descent
from .system import Ptrs
from .terms import Term, app, apply_subst

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
    rules = system.rules
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
            u = app(parent.symbol, args[: k - 1] + (u,) + args[k:])
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
        branches = contracted.rhs.terms
        if len(branches) == 1:
            owed += 1
            u = apply_subst(branches[0], sigma)
        else:
            if owed:
                _pay(rng, owed)
                owed = 0
            draws += 1
            u = apply_subst(branches[contracted.pick_branch(rng.random())], sigma)
        steps += 1
