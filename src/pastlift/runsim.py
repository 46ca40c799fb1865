"""Single-run simulator for innermost strategies under the first-move policy.

The exact engine re-enumerates redexes per step, which is quadratic in run
length once terms accumulate dead (normal-form) structure. For long sampled
runs we instead keep a mutable tree with a per-node normal-form flag and walk
a cursor in depth-first order: after a rewrite the next leftmost innermost
redex is found by resuming from the rewritten node, never by rescanning from
the root. Normal-form flags flip at most once per node, so maintenance is
amortized constant per step.

Normal-form subtrees bound to duplicated variables are shared rather than
copied: an innermost step only ever instantiates variables with normal forms,
and normal-form nodes are never mutated again, so sharing is sound.
"""

from __future__ import annotations

import random
from typing import Optional

from .system import Ptrs
from .terms import Symbol, Term, Var


class _Node:
    __slots__ = ("symbol", "varname", "kids", "parent", "slot", "nf")

    def __init__(self, symbol: Optional[Symbol], varname: Optional[str]):
        self.symbol = symbol
        self.varname = varname
        self.kids: list[_Node] = []
        self.parent: Optional[_Node] = None
        self.slot = 0
        self.nf = False


def _build(system: Ptrs, t: Term) -> _Node:
    """Mutable copy of t, children before parents, with no recursion so that
    term depth is unbounded."""
    built: list[_Node] = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        u, ready = stack.pop()
        if isinstance(u, Var):
            node = _Node(None, u.name)
            node.nf = True
            built.append(node)
            continue
        if not ready:
            stack.append((u, True))
            stack.extend((a, False) for a in reversed(u.args))
            continue
        node = _Node(u.symbol, None)
        cut = len(built) - len(u.args)
        node.kids = built[cut:]
        del built[cut:]
        for i, kid in enumerate(node.kids):
            kid.parent = node
            kid.slot = i
        node.nf = all(k.nf for k in node.kids) and _match_rule(system, node) is None
        built.append(node)
    return built[0]


def _match_rule(system: Ptrs, node: _Node):
    """First rule (lowest index) whose lhs matches at node, with bindings."""
    if node.symbol is None:
        return None
    for idx, rule in system.rules_for(node.symbol.name, node.symbol.arity):
        binding: dict[str, _Node] = {}
        if _match_node(rule.lhs, node, binding):
            return idx, rule, binding
    return None


def _match_node(pattern: Term, node: _Node, binding: dict) -> bool:
    if isinstance(pattern, Var):
        seen = binding.get(pattern.name)
        if seen is None:
            binding[pattern.name] = node
            return True
        return _equal_nodes(seen, node)
    if node.symbol is None or node.symbol != pattern.symbol:
        return False
    return all(_match_node(p, k, binding) for p, k in zip(pattern.args, node.kids))


def _equal_nodes(a: _Node, b: _Node) -> bool:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.symbol != y.symbol or x.varname != y.varname:
            return False
        stack.extend(zip(x.kids, y.kids))
    return True


def _instantiate(system: Ptrs, rhs: Term, binding: dict[str, _Node]) -> _Node:
    """Build the contractum. Bound subtrees are in normal form (innermost
    step), so they are shared; their parent pointers are left alone because
    the cursor never descends into normal-form territory."""
    if isinstance(rhs, Var):
        return binding[rhs.name]
    node = _Node(rhs.symbol, None)
    for i, sub in enumerate(rhs.args):
        kid = _instantiate(system, sub, binding)
        if kid.parent is None or not kid.nf:
            kid.parent = node
            kid.slot = i
        node.kids.append(kid)
    node.nf = all(k.nf for k in node.kids) and _match_rule(system, node) is None
    return node


def _descend(node: _Node) -> _Node:
    """Leftmost innermost redex inside a non-normal-form subtree."""
    while True:
        for kid in node.kids:
            if not kid.nf:
                node = kid
                break
        else:
            return node


def run_innermost_first(
    system: Ptrs, start: Term, rng: random.Random, step_cap: int
) -> tuple[bool, int]:
    """Simulate one run; returns (reached normal form, steps taken)."""
    root = _build(system, start)
    if root.nf:
        return True, 0
    cursor = _descend(root)
    steps = 0
    while steps < step_cap:
        found = _match_rule(system, cursor)
        assert found is not None, "non-normal node with all-normal kids must match"
        _, rule, binding = found
        # sample a branch with the exact rule probabilities
        chosen = rule.rhs.terms[rule.pick_branch(rng.random())]
        replacement = _instantiate(system, chosen, binding)
        parent = cursor.parent
        if parent is None:
            root = replacement
            replacement.parent = None
        else:
            parent.kids[cursor.slot] = replacement
            replacement.parent = parent
            replacement.slot = cursor.slot
            if replacement.nf:
                # flags flip monotonically to normal form, walk up while they do
                up: Optional[_Node] = parent
                while (
                    up is not None
                    and not up.nf
                    and all(k.nf for k in up.kids)
                    and _match_rule(system, up) is None
                ):
                    up.nf = True
                    up = up.parent
        steps += 1
        if not replacement.nf:
            cursor = _descend(replacement)
            continue
        # climb to the next redex in depth-first order
        node = replacement
        while True:
            if node.parent is None:
                if node.nf:
                    return True, steps
                cursor = _descend(node)
                break
            parent = node.parent
            nxt = None
            for kid in parent.kids[node.slot + 1 :]:
                if not kid.nf:
                    nxt = kid
                    break
            if nxt is not None:
                cursor = _descend(nxt)
                break
            if parent.nf:
                node = parent
                continue
            # parent is not normal yet all kids are: it is itself a redex
            cursor = parent
            break
    return False, steps
