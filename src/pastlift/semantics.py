"""Quantitative semantics: exact depth-bounded unfolding, rewrite-sequence
trees, adversarial lower bounds on bounded termination probability, and
Monte-Carlo estimation.

All probability arithmetic is exact. Convergence probability is reported as
the interval [nf_mass(final state), 1]: a finite unfolding yields evidence,
never a limit claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import runsim
from .rewriting import (
    FirstMove,
    Policy,
    Strategy,
    coalesce,
    entry_step,
    innermost_redexes,
    leftmost_innermost_moves,
    lift_step,
    sample_step,
    step,
)
from .system import MultiDistribution, Ptrs, singleton
from .terms import Term


class CapExceeded(Exception):
    """A size cap was hit; carries whatever partial result exists."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


DEFAULT_SUPPORT_CAP = 200_000
DEFAULT_MEMO_CAP = 1_000_000


@dataclass
class SemanticsTrace:
    start: Term
    strategy: Strategy
    policy_name: str
    states: list[MultiDistribution]
    nf_masses: list[Fraction]

    @property
    def depth(self) -> int:
        return len(self.states) - 1

    @property
    def lower_bound(self) -> Fraction:
        """Valid lower bound on the convergence probability of any extension."""
        return self.nf_masses[-1]

    @property
    def partial_edl(self) -> Fraction:
        """Sum of non-normal mass over all states but the last: the expected
        number of steps spent within the explored depth."""
        return sum((1 - m for m in self.nf_masses[:-1]), Fraction(0))


def unfold_exact(
    system: Ptrs,
    start: Term,
    strategy: Strategy,
    policy: Policy,
    depth: int,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    coalesce_states: bool = False,
) -> SemanticsTrace:
    """Iterate the lifting for ``depth`` steps with exact rationals."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    mu = singleton(start)
    states = [mu]
    masses = [system.nf_mass(mu)]
    trace = SemanticsTrace(start, strategy, policy.name, states, masses)
    for _ in range(depth):
        mu = lift_step(system, mu, strategy, policy)
        if coalesce_states:
            mu = coalesce(mu)
        if len(mu) > support_cap:
            raise CapExceeded(
                f"distribution support exceeded {support_cap} entries", trace
            )
        states.append(mu)
        masses.append(system.nf_mass(mu))
    return trace


@dataclass
class RstNode:
    probability: Fraction
    term: Term
    depth: int
    children: list[int] = field(default_factory=list)


@dataclass
class Rst:
    """Depth-truncated rewrite sequence tree for one policy."""

    nodes: list[RstNode]
    depth: int

    def leaves(self) -> list[RstNode]:
        return [n for n in self.nodes if not n.children]


def build_rst(
    system: Ptrs,
    start: Term,
    strategy: Strategy,
    policy: Policy,
    depth: int,
    node_cap: int = DEFAULT_SUPPORT_CAP,
) -> Rst:
    nodes = [RstNode(Fraction(1), start, 0)]
    frontier = [0]
    for level in range(depth):
        next_frontier: list[int] = []
        for idx in frontier:
            node = nodes[idx]
            if system.is_normal_form(node.term):
                continue
            branches = entry_step(system, node.term, strategy, policy)
            for p, t in branches.entries:
                child = RstNode(node.probability * p, t, level + 1)
                nodes.append(child)
                node.children.append(len(nodes) - 1)
                next_frontier.append(len(nodes) - 1)
            if len(nodes) > node_cap:
                raise CapExceeded(f"tree exceeded {node_cap} nodes", Rst(nodes, level))
        frontier = next_frontier
    return Rst(nodes, depth)


def leaf_mass(system: Ptrs, tree: Rst) -> Fraction:
    """Probability mass of leaves that are genuine normal forms."""
    return sum(
        (n.probability for n in tree.leaves() if system.is_normal_form(n.term)),
        Fraction(0),
    )


def pending_mass(system: Ptrs, tree: Rst) -> Fraction:
    """Mass cut off at the frontier: leaves that are not normal forms."""
    return sum(
        (n.probability for n in tree.leaves() if not system.is_normal_form(n.term)),
        Fraction(0),
    )


def edl_partial(tree: Rst) -> Fraction:
    """Expected derivation length accumulated inside the truncated tree:
    the probability-weighted count of internal nodes."""
    return sum((n.probability for n in tree.nodes if n.children), Fraction(0))


def adversarial_lower_bound(
    system: Ptrs,
    start: Term,
    strategy: Strategy,
    depth: int,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> Fraction:
    """Greatest lower bound, over all policies of the given strategy, of the
    probability of reaching a normal form within ``depth`` steps.

    Value iteration: V_0 = [term is normal form]; V_{n+1}(t) = min over
    admissible moves of the branch-weighted V_n. Monotone in depth, and 0
    exactly when an adversary can keep all mass away from normal forms.
    """
    if strategy is Strategy.INNERMOST:
        moves_of = innermost_redexes
    elif strategy is Strategy.LEFTMOST_INNERMOST:
        moves_of = leftmost_innermost_moves
    else:
        raise ValueError("adversarial bound supports innermost strategies only")

    memo: dict[tuple[Term, int], Fraction] = {}
    zero, one = Fraction(0), Fraction(1)

    def value(t: Term, n: int) -> Fraction:
        if system.is_normal_form(t):
            return one
        if n == 0:
            return zero
        key = (t, n)
        got = memo.get(key)
        if got is not None:
            return got
        if len(memo) >= memo_cap:
            raise CapExceeded(f"memo table exceeded {memo_cap} entries")
        best: Optional[Fraction] = None
        for redex in moves_of(system, t):
            total = zero
            for p, successor in step(system, t, redex).entries:
                total += p * value(successor, n - 1)
            if best is None or total < best:
                best = total
        assert best is not None
        memo[key] = best
        return best

    return value(start, depth)


@dataclass
class McSummary:
    samples: int
    terminated: int
    estimate: float
    censored_fraction: float
    mean_steps_of_terminated: Optional[float]
    step_cap: int
    seed: int


def _run_generic(
    system: Ptrs,
    start: Term,
    strategy: Strategy,
    policy: Policy,
    rng: random.Random,
    step_cap: int,
) -> tuple[bool, int]:
    t = start
    for steps in range(step_cap):
        if system.is_normal_form(t):
            return True, steps
        t = sample_step(system, t, strategy, policy, rng.random())
    return system.is_normal_form(t), step_cap


def mc_estimate(
    system: Ptrs,
    start: Term,
    strategy: Strategy,
    policy: Policy,
    samples: int,
    step_cap: int,
    seed: int,
) -> McSummary:
    """Estimate termination probability from independent seeded runs.

    Each run samples rule branches with their exact probabilities and stops
    on a normal form, or is censored at ``step_cap``. Run i uses its own RNG
    derived from (seed, i), and a random policy its own stream derived from
    the same pair, so runs are independent of one another.
    Censoring biases the estimate downward, never upward.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")

    fast = (
        strategy in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST)
        and isinstance(policy, FirstMove)
    )

    def one_run(i: int) -> tuple[bool, int]:
        rng = random.Random(f"{seed}:{i}")
        if fast:
            return runsim.run_innermost_first(system, start, rng, step_cap)
        return _run_generic(
            system, start, strategy, policy.clone_for_run(f"{seed}:{i}:policy"), rng, step_cap
        )

    outcomes = [one_run(i) for i in range(samples)]

    terminated = sum(1 for ok, _ in outcomes if ok)
    steps_done = [n for ok, n in outcomes if ok]
    return McSummary(
        samples=samples,
        terminated=terminated,
        estimate=terminated / samples,
        censored_fraction=(samples - terminated) / samples,
        mean_steps_of_terminated=(
            sum(steps_done) / len(steps_done) if steps_done else None
        ),
        step_cap=step_cap,
        seed=seed,
    )
