"""Sampled innermost runs under the first-move policy, as a zipper.

A run keeps the hash-consed term open at its current redex (Huet, "The
Zipper", JFP 1997): one frame per ancestor, holding the ancestor's symbol, its
arguments and the index of the open one. A step contracts the redex with the
sampled branch, and the next leftmost innermost redex is found from there,
never from the root. Going down follows ``rewriting._leftmost_innermost``, the
descent rule of ``FirstMove`` under ``i`` and ``li``. Going up, a normal form is
stored in its frame and the frame's next non-normal argument is opened; a
parent is interned with ``app`` only once all its arguments are normal forms,
so a step costs its contractum and the frames it closes, not the term's depth.
Normal forms come from the system's cache (``Ptrs.is_normal_form``).
"""

from __future__ import annotations

import random

from .rewriting import _leftmost_innermost
from .system import Ptrs
from .terms import Term, app, apply_subst


def run_innermost_first(
    system: Ptrs, start: Term, rng: random.Random, step_cap: int
) -> tuple[bool, int]:
    """Simulate one run; returns (reached normal form, steps taken)."""
    nf = system.is_normal_form
    if nf(start):
        return True, 0
    frames: list[list] = []  # [symbol, arguments, index of the open argument]
    u = start
    steps = 0
    while steps < step_cap:
        found = _leftmost_innermost(system, u)
        while isinstance(found, int):
            frames.append([u.symbol, list(u.args), found - 1])
            u = u.args[found - 1]
            found = _leftmost_innermost(system, u)
        idx, sigma = found
        rule = system.rules[idx]
        u = apply_subst(rule.rhs.terms[rule.pick_branch(rng.random())], sigma)
        steps += 1
        while nf(u):
            if not frames:
                return True, steps
            frame = frames[-1]
            args = frame[1]
            args[frame[2]] = u
            for k in range(frame[2] + 1, len(args)):
                if not nf(args[k]):
                    frame[2] = k
                    u = args[k]
                    break
            else:
                frames.pop()
                u = app(frame[0], args)
    return False, steps
