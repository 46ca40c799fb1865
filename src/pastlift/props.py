"""Syntactic properties: linearity, erasure, overlaps, overlay, orthogonality,
non-duplication, and bounded local confluence for trivial-probability systems.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .system import Ptrs
from .terms import (
    App,
    Position,
    Substitution,
    Term,
    Var,
    apply_subst,
    pos_to_str,
    rename_vars,
    replace_at,
    subterm_at,
    term_to_str,
    unify,
)

RENAME_SUFFIX = "%1"  # '%' cannot occur in user-written variable names


@dataclass
class Overlap:
    """The lhs of rule ``inner_index`` (variables renamed apart) unifies with
    the subterm of rule ``outer_index``'s lhs at ``position``."""

    outer_index: int
    inner_index: int
    position: Position
    mgu: Substitution

    def describe(self, system: Ptrs) -> str:
        outer = term_to_str(system.rules[self.outer_index].lhs)
        inner = term_to_str(system.rules[self.inner_index].lhs)
        return (
            f"rule {self.outer_index} ({outer}) overlaps rule "
            f"{self.inner_index} ({inner}) at position {pos_to_str(self.position)}"
        )


def critical_overlaps(system: Ptrs) -> list[Overlap]:
    """Every overlap between every ordered rule pair.

    A rule overlapping itself at the root is excluded; root overlaps between
    distinct rules count. Output is ordered by (outer, inner, position).
    """
    found: list[Overlap] = []
    for i, outer in enumerate(system.rules):
        if isinstance(outer.lhs, Var):
            continue
        for j, inner in enumerate(system.rules):
            if isinstance(inner.lhs, Var):
                continue
            inner_lhs = rename_vars(inner.lhs, RENAME_SUFFIX)
            for pos in _nonvar_positions(outer.lhs):
                if i == j and pos == ():
                    continue
                sigma = unify(subterm_at(outer.lhs, pos), inner_lhs)
                if sigma is not None:
                    found.append(Overlap(i, j, pos, sigma))
    found.sort(key=lambda o: (o.outer_index, o.inner_index, len(o.position), o.position))
    return found


def _nonvar_positions(t: Term) -> list[Position]:
    acc: list[Position] = []
    stack: list[tuple[Term, Position]] = [(t, ())]
    while stack:
        u, pos = stack.pop()
        if isinstance(u, App):
            acc.append(pos)
            for k, a in enumerate(u.args):
                stack.append((a, pos + (k + 1,)))
    acc.sort(key=lambda p: (len(p), p))
    return acc


def _var_occurrences(t: Term) -> Counter[str]:
    counts: Counter[str] = Counter()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            counts[u.name] += 1
        else:
            stack.extend(u.args)
    return counts


def duplicated_vars(t: Term) -> list[str]:
    """Variables occurring more than once in t, sorted."""
    return sorted(name for name, n in _var_occurrences(t).items() if n > 1)


def left_linearity_witness(system: Ptrs) -> Optional[tuple[int, str]]:
    """(rule index, offending lhs) for the first non-left-linear rule."""
    for idx, rule in enumerate(system.rules):
        if duplicated_vars(rule.lhs):
            return idx, term_to_str(rule.lhs)
    return None


def right_linearity_witness(system: Ptrs) -> Optional[tuple[int, str, str]]:
    """(rule index, rhs branch, variable) for the first duplicating branch."""
    for idx, rule in enumerate(system.rules):
        for t in rule.rhs.support():
            dups = duplicated_vars(t)
            if dups:
                return idx, term_to_str(t), dups[0]
    return None


def erasure_witness(system: Ptrs) -> Optional[tuple[int, str, str]]:
    """(rule index, rhs branch, lost variable) for the first erasing branch."""
    for idx, rule in enumerate(system.rules):
        for t in rule.rhs.support():
            lost = sorted(rule.lhs.vars - t.vars)
            if lost:
                return idx, term_to_str(t), lost[0]
    return None


def duplication_witness(system: Ptrs) -> Optional[tuple[int, str, str]]:
    """First (rule, branch, variable) where a variable occurs more often in a
    right-hand side branch than in the left-hand side."""
    for idx, rule in enumerate(system.rules):
        lhs_counts = _var_occurrences(rule.lhs)
        for t in rule.rhs.support():
            for name, n in sorted(_var_occurrences(t).items()):
                if n > lhs_counts.get(name, 0):
                    return idx, term_to_str(t), name
    return None


def is_left_linear(system: Ptrs) -> bool:
    return left_linearity_witness(system) is None


def is_right_linear(system: Ptrs) -> bool:
    return right_linearity_witness(system) is None


def is_non_erasing(system: Ptrs) -> bool:
    return erasure_witness(system) is None


def is_non_duplicating(system: Ptrs) -> bool:
    return duplication_witness(system) is None


def is_non_overlapping(system: Ptrs) -> bool:
    return not critical_overlaps(system)


def is_overlay(system: Ptrs) -> bool:
    return all(o.position == () for o in critical_overlaps(system))


def is_orthogonal(system: Ptrs) -> bool:
    return is_non_overlapping(system) and is_left_linear(system)


class WcrVerdict(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


@dataclass
class WcrOutcome:
    verdict: WcrVerdict
    # critical pair that was found unjoinable (only for NO)
    counterexample: Optional[tuple[Term, Term]] = None


def critical_pairs(system: Ptrs) -> list[tuple[Term, Term]]:
    """Critical pairs of a trivial-probability system, one per overlap."""
    if not system.is_trivial:
        raise ValueError("critical pairs are only defined for trivial-probability systems")
    pairs: list[tuple[Term, Term]] = []
    for o in critical_overlaps(system):
        outer = system.rules[o.outer_index]
        inner = system.rules[o.inner_index]
        inner_rhs = rename_vars(inner.rhs.support()[0], RENAME_SUFFIX)
        peak = apply_subst(outer.lhs, o.mgu)
        left = replace_at(peak, o.position, apply_subst(inner_rhs, o.mgu))
        right = apply_subst(outer.rhs.support()[0], o.mgu)
        pairs.append((left, right))
    return pairs


def bounded_wcr(system: Ptrs, join_depth: int = 10) -> WcrOutcome:
    """Bounded local-confluence check for trivial-probability systems.

    YES if every critical pair joins within join_depth steps from each side,
    NO if some pair consists of two distinct normal forms, UNKNOWN otherwise.
    UNKNOWN is a genuine verdict and is never coerced.
    """
    if not system.is_trivial:
        raise ValueError("bounded_wcr requires a trivial-probability system")
    verdict = WcrVerdict.YES
    for left, right in critical_pairs(system):
        if left is right:
            continue
        if system.is_normal_form(left) and system.is_normal_form(right):
            return WcrOutcome(WcrVerdict.NO, (left, right))
        if not _joinable(system, left, right, join_depth):
            verdict = WcrVerdict.UNKNOWN
    return WcrOutcome(verdict)


def _joinable(system: Ptrs, left: Term, right: Term, depth: int) -> bool:
    from .rewriting import redexes, step

    def reachable(t: Term) -> set[Term]:
        frontier = {t}
        seen = {t}
        for _ in range(depth):
            nxt: set[Term] = set()
            for u in frontier:
                for r in redexes(system, u):
                    for v in step(system, u, r).terms:
                        if v not in seen:
                            seen.add(v)
                            nxt.add(v)
            if not nxt:
                break
            frontier = nxt
        return seen

    return bool(reachable(left) & reachable(right))


@dataclass
class PropertyReport:
    left_linear: bool
    right_linear: bool
    non_erasing: bool
    non_duplicating: bool
    non_overlapping: bool
    overlay: bool
    orthogonal: bool
    wcr: WcrVerdict
    overlaps: list[Overlap] = field(default_factory=list)
    wcr_counterexample: Optional[tuple[Term, Term]] = None

    def __post_init__(self) -> None:
        assert self.orthogonal == (self.non_overlapping and self.left_linear)
        assert self.overlay or not self.non_overlapping


def property_report(system: Ptrs, join_depth: int = 10) -> PropertyReport:
    """Full syntactic property report. Local confluence is only decided for
    trivial-probability systems; probabilistic input gets UNKNOWN (the
    probabilistic analogue is deliberately not modelled)."""
    overlaps = critical_overlaps(system)
    no = not overlaps
    ll = is_left_linear(system)
    if system.is_trivial:
        wcr = bounded_wcr(system, join_depth)
    else:
        wcr = WcrOutcome(WcrVerdict.UNKNOWN)
    return PropertyReport(
        left_linear=ll,
        right_linear=is_right_linear(system),
        non_erasing=is_non_erasing(system),
        non_duplicating=is_non_duplicating(system),
        non_overlapping=no,
        overlay=all(o.position == () for o in overlaps),
        orthogonal=no and ll,
        wcr=wcr.verdict,
        overlaps=overlaps,
        wcr_counterexample=wcr.counterexample,
    )
