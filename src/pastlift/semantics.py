"""Quantitative semantics: exact depth-bounded unfolding, adversarial lower
bounds on bounded termination probability, and Monte-Carlo estimation.

Every table a call keeps (the ``SuccessorTable`` of an unfolding under
``full``/``i``/``li`` or of the adversary, the ``SimTable`` of an unfolding
under ``par``/``ipar``, the tables ``mc_runs`` shares among the runs of an
estimate) lives for that call only: it holds terms by identity, and a term
dropped from the intern pool after the call must not be found in one.

All probability arithmetic is exact. Convergence probability is reported as
the interval [nf_mass(final state), 1]: a finite unfolding yields evidence,
never a limit claim.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable, Optional

from . import runsim
from .rewriting import (
    INNERMOST_DESCENTS,
    Policy,
    SimTable,
    Strategy,
    SuccessorTable,
    _leftmost_innermost,
    coalesce,
    lift_step,
    sample_step,
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
    # successors, or simultaneous steps' work, for this call only
    table = (SimTable if strategy.simultaneous else SuccessorTable)(system, strategy)
    for _ in range(depth):
        mu = lift_step(system, mu, strategy, policy, table)
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

    Backward induction (Puterman, *Markov Decision Processes*, 1994, ch. 4).
    A forward pass lists, for each k < depth, the distinct non-normal terms
    reachable in exactly k steps. Every term's distinct successor
    distributions come from one ``SuccessorTable`` of the strategy for the
    whole call, which builds them once from its non-normal children's (under
    ``li`` the leftmost one's) lifted under its root, so a chain like
    g^j(0) costs a few nodes per term instead of a walk down its spine.
    A backward pass then computes, layer by layer from the deepest,
    V_n(t) = min over those distributions of the branch-weighted V_{n-1}
    (moves with equal distributions have equal values), where a normal form
    is worth 1 and V_0 is 0 on every other term. A rewrite
    step's weights are integers over L = ``system.branch_den``, so V_n is
    kept as an integer numerator over L^n and only two layers of values are
    live. The bound is monotone in depth, and 0 exactly when an adversary
    can keep all mass away from normal forms.

    ``memo_cap`` bounds the number of (term, steps left) pairs, the summed
    size of the layers; ``CapExceeded`` is raised once it is exceeded.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if memo_cap < 0:
        raise ValueError("memo cap must be non-negative")
    if strategy not in (Strategy.INNERMOST, Strategy.LEFTMOST_INNERMOST):
        raise ValueError("adversarial bound supports innermost strategies only")
    nf = system.is_normal_form
    if nf(start):
        return Fraction(1)
    if depth == 0:
        return Fraction(0)

    table = SuccessorTable(system, strategy)
    layers: list[set[Term]] = []
    layer = {start}
    pairs = 0
    for _ in range(depth):
        pairs += len(layer)
        if pairs > memo_cap:
            raise CapExceeded(f"memo table exceeded {memo_cap} entries")
        layers.append(layer)
        following: set[Term] = set()
        for t in layer:
            for mu in table.successors(t):
                following.update(s for s in mu.terms if not nf(s))
        layer = following

    values = dict.fromkeys(layer, 0)  # V_0
    scale = 1  # L^(n-1) while V_n is computed: the numerator of a normal form
    for layer in reversed(layers):
        values = {
            t: min(
                sum(
                    w * (scale if nf(s) else values[s])
                    for w, s in zip(mu.weights, mu.terms)
                )
                for mu in table.successors(t)
            )
            for t in layer
        }
        scale *= system.branch_den
    return Fraction(values[start], scale)


# the normal quantile of a two-sided 95 % interval
WILSON_Z = 1.959963984540054


@dataclass
class McSummary:
    samples: int
    terminated: int
    estimate: float
    censored_fraction: float
    mean_steps_of_terminated: Optional[float]
    step_cap: int
    seed: int

    @property
    def interval(self) -> tuple[float, float]:
        """The 95 % Wilson score interval (Wilson, JASA 1927) of the
        termination probability within the step cap, from the runs'
        terminated/samples."""
        k, n, z2 = self.terminated, self.samples, WILSON_Z * WILSON_Z
        centre = (k + z2 / 2) / (n + z2)
        half = WILSON_Z * math.sqrt(k * (n - k) / n + z2 / 4) / (n + z2)
        return max(0.0, centre - half), min(1.0, centre + half)


def _run_generic(
    system: Ptrs,
    start: Term,
    strategy: Strategy,
    policy: Policy,
    rng: random.Random,
    step_cap: int,
    table: Optional[SimTable] = None,
) -> tuple[bool, int]:
    t = start
    for steps in range(step_cap):
        if system.is_normal_form(t):
            return True, steps
        t = sample_step(system, t, strategy, policy, rng.random(), table)
    return system.is_normal_form(t), step_cap


def mc_runs(
    system: Ptrs, start: Term, strategy: Strategy, policy: Policy, step_cap: int, seed: int
) -> Callable[[int], tuple[bool, int]]:
    """Run i of ``mc_estimate``, as (reached normal form, steps taken).

    Run i uses its own RNG derived from (seed, i), and a random policy its
    own stream derived from the same pair, so runs are independent of one
    another and of the order they are made in. The path a run takes is fixed
    by the strategy and the policy's hooks:

    - a descent rule in ``INNERMOST_DESCENTS`` (``first`` under ``i``/``li``,
      ``rightmost`` under ``full``/``i``/``li``): the move-table walk,
      ``runsim.run_innermost_first``, on the rule's entries;
    - under ``par``/``ipar``, a descent rule under the plain strategy
      (``first``, ``rightmost``) or an index rule (``random``): the same
      walk on the ``SimTable``'s groups, the rule's or every one to pick
      among by index;
    - an index rule under ``li`` (``random``): the same walk, picking among
      the root matches at the leftmost innermost redex;
    - an index rule under ``full``/``i`` (``first`` under ``full``,
      ``random``): the index zipper, ``runsim.run_by_index``;
    - otherwise (``script``): ``sample_step`` from the root.

    The walk's entry builder is bound once here. Every run of one returned
    function shares its sampler's tables (the walk's segments and move
    table, and under ``par``/``ipar`` one ``SimTable``; or the index
    zipper's redex counts). They hold only terms the runs met, and live as
    long as the function."""
    rule = policy.descent(strategy.plain)
    table = None
    if strategy.simultaneous:
        table = SimTable(system, strategy)
        entry = partial(runsim._sim_entry, system, table, rule)
        walks = rule is not None
    else:
        walks = rule in INNERMOST_DESCENTS
        # else an index rule under li picks among every root match at the
        # leftmost innermost redex
        entry = partial(runsim._entry, system, rule if walks else _leftmost_innermost, not walks)
    memo: runsim.Memo = {}
    moves: runsim.Moves = {}
    counts = runsim.RedexCounts(system, strategy is Strategy.INNERMOST)

    def one_run(i: int) -> tuple[bool, int]:
        rng = random.Random(f"{seed}:{i}")
        if walks:
            return runsim.run_innermost_first(system, start, entry, rng, step_cap, memo, moves)
        own = policy.clone_for_run(f"{seed}:{i}:policy")
        index = own.index_rule()
        if index is None:
            return _run_generic(system, start, strategy, own, rng, step_cap, table)
        if table is not None or strategy is Strategy.LEFTMOST_INNERMOST:
            return runsim.run_innermost_first(
                system, start, entry, rng, step_cap, memo, moves, index
            )
        return runsim.run_by_index(system, start, index, rng, step_cap, counts)

    return one_run


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
    on a normal form, or is censored at ``step_cap``. The runs are
    ``mc_runs``'s, and share one set of its tables.
    Censoring biases the estimate downward, never upward.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if step_cap < 0:
        raise ValueError("step cap must be non-negative")

    one_run = mc_runs(system, start, strategy, policy, step_cap, seed)
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
