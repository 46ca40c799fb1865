"""Sampled runs under an innermost descent rule, as a zipper.

A run keeps the hash-consed term open at its current redex (Huet, "The
Zipper", JFP 1997): a frame ``(parent, k)`` per ancestor, the open subterm
being the parent's k-th argument. Going down follows the descent rule. While
the open subterm is a normal form, its frame is popped and the parent rebuilt
around it with ``app``, and the same rule is asked from there, never from the
root. For a rule in ``rewriting.INNERMOST_DESCENTS`` every frame left on the
stack still picks its child, so a step costs its contractum plus one interned
parent per argument that becomes normal, not the term's depth.
"""

from __future__ import annotations

import random

from .rewriting import Descent
from .system import Ptrs
from .terms import Term, app, apply_subst


def run_innermost_first(
    system: Ptrs, start: Term, rule: Descent, rng: random.Random, step_cap: int
) -> tuple[bool, int]:
    """Simulate one run; returns (reached normal form, steps taken)."""
    nf = system.is_normal_form
    frames: list[tuple[Term, int]] = []
    u = start
    for steps in range(step_cap + 1):
        while nf(u):
            if not frames:
                return True, steps
            parent, k = frames.pop()
            args = parent.args
            u = app(parent.symbol, args[: k - 1] + (u,) + args[k:])
        if steps == step_cap:
            break
        found = rule(system, u)
        while isinstance(found, int):
            frames.append((u, found))
            u = u.args[found - 1]
            found = rule(system, u)
        idx, sigma = found
        contracted = system.rules[idx]
        u = apply_subst(contracted.rhs.terms[contracted.pick_branch(rng.random())], sigma)
    return False, step_cap
