"""Quantitative semantics: exact depth-bounded unfolding, adversarial lower
bounds on bounded termination probability, and Monte-Carlo estimation.

All probability arithmetic is exact. Convergence probability is reported as
the interval [nf_mass(final state), 1]: a finite unfolding yields evidence,
never a limit claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import runsim
from .rewriting import (
    INNERMOST_DESCENTS,
    Policy,
    Strategy,
    coalesce,
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
    if support_cap < 0:
        raise ValueError("support cap must be non-negative")
    mu = singleton(start)
    states = [mu]
    masses = [system.nf_mass(mu)]
    trace = SemanticsTrace(start, strategy, policy.name, states, masses)
    memo: dict[Term, MultiDistribution] = {}  # successors, for this call only
    for _ in range(depth):
        mu = lift_step(system, mu, strategy, policy, memo)
        if coalesce_states:
            mu = coalesce(mu)
        if len(mu) > support_cap:
            raise CapExceeded(
                f"distribution support exceeded {support_cap} entries", trace
            )
        states.append(mu)
        masses.append(system.nf_mass(mu))
    return trace


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
    Each term's moves and their branches are computed once per call, and the
    (term, depth) pairs are evaluated on an explicit stack, so ``depth`` is
    not limited by Python's recursion limit.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if memo_cap < 0:
        raise ValueError("memo cap must be non-negative")
    if strategy is Strategy.INNERMOST:
        moves_of = innermost_redexes
    elif strategy is Strategy.LEFTMOST_INNERMOST:
        moves_of = leftmost_innermost_moves
    else:
        raise ValueError("adversarial bound supports innermost strategies only")

    zero, one = Fraction(0), Fraction(1)
    memo: dict[tuple[Term, int], Fraction] = {}
    # each term's moves as their branch lists, computed once per call
    transitions: dict[Term, list[tuple[tuple[Fraction, Term], ...]]] = {}

    def known(t: Term, n: int) -> Optional[Fraction]:
        if system.is_normal_form(t):
            return one
        if n == 0:
            return zero
        return memo.get((t, n))

    def value(t: Term, n: int):
        """V_n(t) as a frame of an explicit stack: yields each successor
        pair whose value is not yet known and is sent that value back."""
        moves = transitions.get(t)
        if moves is None:
            moves = transitions[t] = [
                step(system, t, redex).entries for redex in moves_of(system, t)
            ]
        best: Optional[Fraction] = None
        for branches in moves:
            total = zero
            for p, successor in branches:
                got = known(successor, n - 1)
                if got is None:
                    got = yield successor, n - 1
                total += p * got
            if best is None or total < best:
                best = total
        assert best is not None
        memo[(t, n)] = best
        return best

    def enter(t: Term, n: int):
        if len(memo) >= memo_cap:
            raise CapExceeded(f"memo table exceeded {memo_cap} entries")
        return value(t, n)

    result = known(start, depth)
    if result is not None:
        return result
    # depth-first in the order a recursive evaluation would visit the pairs,
    # so the memo fills, and the cap fires, exactly as it would there
    stack = [enter(start, depth)]
    while stack:
        try:
            pair = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(enter(*pair))
            result = None
    return result


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
    if step_cap < 0:
        raise ValueError("step cap must be non-negative")

    rule = policy.descent(strategy)

    def one_run(i: int) -> tuple[bool, int]:
        rng = random.Random(f"{seed}:{i}")
        if rule in INNERMOST_DESCENTS:
            return runsim.run_innermost_first(system, start, rule, rng, step_cap)
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
