"""Probabilistic rewrite rules, multi-distributions and whole-system checks.

Probabilities are exact: a distribution holds integer weights over one
common denominator, and floats appear only in Monte-Carlo draws and report
rendering. A multi-distribution is an ordered multiset: duplicates of the
same term are kept apart, and equality of distributions is multiset equality.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .terms import App, Substitution, Symbol, Term, Var, apply_subst, match, term_to_str

WeightedTerm = tuple[Fraction, Term]


class MultiDistribution:
    """Finite multiset of (probability, term) pairs summing to one.

    Held as integer ``weights`` over one denominator ``den``, the
    i-th weight belonging to the i-th of ``terms``; ``entries`` is the
    (Fraction, term) view, built on first use. Probabilities are checked
    once, where they enter: here, from (probability, term) pairs, or by the
    caller of ``of_weights``. The parser may construct improper
    distributions with ``require_proper=False`` so that ``Ptrs.validate``
    can report the defect as a diagnostic instead of an exception.
    """

    __slots__ = ("weights", "terms", "den", "_entries")

    def __init__(self, entries: Iterable[WeightedTerm], *, require_proper: bool = True):
        pairs = tuple(
            (p if isinstance(p, Fraction) else Fraction(p), t) for p, t in entries
        )
        den = math.lcm(*(p.denominator for p, _ in pairs))
        self.weights: tuple[int, ...] = tuple(
            p.numerator * (den // p.denominator) for p, _ in pairs
        )
        self.terms: tuple[Term, ...] = tuple(t for _, t in pairs)
        self.den = den
        self._entries: Optional[tuple[WeightedTerm, ...]] = pairs
        if require_proper:
            if not pairs:
                raise ValueError("empty distribution")
            if any(not (0 < w <= den) for w in self.weights):
                raise ValueError("probabilities must lie in (0,1]")
            total = sum(self.weights)
            if total != den:
                raise ValueError(
                    f"probabilities sum to {Fraction(total, den)}, expected 1"
                )

    @classmethod
    def of_weights(
        cls, weights: tuple[int, ...], terms: tuple[Term, ...], den: int
    ) -> "MultiDistribution":
        """The distribution weights[i]/den on terms[i], for a caller that has
        already checked the weights: positive, and summing to ``den``."""
        mu = cls.__new__(cls)
        mu.weights, mu.terms, mu.den, mu._entries = weights, terms, den, None
        return mu

    @property
    def entries(self) -> tuple[WeightedTerm, ...]:
        got = self._entries
        if got is None:
            den = self.den
            got = self._entries = tuple(
                (Fraction(w, den), t) for w, t in zip(self.weights, self.terms)
            )
        return got

    def total(self) -> Fraction:
        return Fraction(sum(self.weights), self.den)

    def support(self) -> list[Term]:
        return list(self.terms)

    def is_proper(self) -> bool:
        den = self.den
        return (
            bool(self.weights)
            and all(0 < w <= den for w in self.weights)
            and sum(self.weights) == den
        )

    def __iter__(self) -> Iterator[WeightedTerm]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiDistribution):
            return NotImplemented
        return Counter(self.entries) == Counter(other.entries)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{term_to_str(t)}" for p, t in self.entries)
        return "{" + inner + "}"


def singleton(t: Term) -> MultiDistribution:
    return MultiDistribution(((Fraction(1), t),))


def _cut_points(rhs: MultiDistribution) -> tuple[float, ...]:
    """For each cumulative probability acc, the smallest float >= acc, so
    that ``x < cut`` holds exactly when ``x < acc`` for every float x."""
    cuts = []
    acc = Fraction(0)
    for p, _ in rhs.entries:
        acc += p
        cut = float(acc)
        if cut < acc:  # rounded down: the next float up is the least above
            cut = math.nextafter(cut, math.inf)
        cuts.append(cut)
    return tuple(cuts)


class ProbRule:
    __slots__ = ("lhs", "rhs", "_cuts")

    def __init__(self, lhs: Term, rhs: MultiDistribution):
        self.lhs = lhs
        self.rhs = rhs
        self._cuts: Optional[tuple[float, ...]] = None  # on first draw

    def pick_branch(self, x: float) -> int:
        """Index of the branch a uniform draw x in [0,1) selects: the first
        whose cumulative probability exceeds x, else the last. Exact, with
        no rational arithmetic after the rule's first draw."""
        cuts = self._cuts
        if cuts is None:
            cuts = self._cuts = _cut_points(self.rhs)
        return min(bisect_right(cuts, x), len(cuts) - 1)

    @property
    def is_trivial(self) -> bool:
        """Singleton right-hand side with probability one."""
        return self.rhs.weights == (self.rhs.den,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbRule):
            return NotImplemented
        return self.lhs is other.lhs and self.rhs == other.rhs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{term_to_str(self.lhs)} -> {self.rhs!r}"


class Ptrs:
    """An ordered set of probabilistic rewrite rules over a finite signature.

    The signature is inferred: defined symbols are the left-hand side roots,
    everything else occurring in the rules is a constructor. Constructors
    that occur in no rule may be passed as ``extra_constructors`` (the file
    format's CONSTRUCTORS block) so basic-term enumeration can use them.
    """

    def __init__(self, rules: Iterable[ProbRule], extra_constructors: Iterable[Symbol] = ()):
        self.rules: tuple[ProbRule, ...] = tuple(rules)
        self.extra_constructors: tuple[Symbol, ...] = tuple(extra_constructors)

        occurring: dict[str, Symbol] = {}

        def visit(t: Term) -> None:
            stack = [t]
            while stack:
                u = stack.pop()
                if isinstance(u, App):
                    occurring.setdefault(u.symbol.name, u.symbol)
                    stack.extend(u.args)

        defined: dict[str, Symbol] = {}
        for rule in self.rules:
            visit(rule.lhs)
            if isinstance(rule.lhs, App):
                defined.setdefault(rule.lhs.symbol.name, rule.lhs.symbol)
            for t in rule.rhs.support():
                visit(t)
        for sym in self.extra_constructors:
            occurring.setdefault(sym.name, sym)

        self.defined_symbols: frozenset[Symbol] = frozenset(defined.values())
        self._defined_names: frozenset[str] = frozenset(defined)
        self.constructor_symbols: frozenset[Symbol] = frozenset(
            sym for name, sym in occurring.items() if name not in defined
        )
        self.signature: dict[str, Symbol] = dict(sorted(occurring.items()))

        self._rules_by_root: dict[tuple[str, int], list[tuple[int, ProbRule]]] = {}
        for idx, rule in enumerate(self.rules):
            if isinstance(rule.lhs, App):
                key = (rule.lhs.symbol.name, rule.lhs.symbol.arity)
                self._rules_by_root.setdefault(key, []).append((idx, rule))
        # L, the lcm of every rule's branch denominators, and each rule's
        # branch weights over it: a rewrite step's distribution is over L
        self.branch_den = math.lcm(*(rule.rhs.den for rule in self.rules))
        self.branch_weights: tuple[tuple[int, ...], ...] = tuple(
            tuple(w * (self.branch_den // rule.rhs.den) for w in rule.rhs.weights)
            for rule in self.rules
        )
        self._nf_cache: dict[Term, bool] = {}
        self._defined_cache: dict[Term, bool] = {}
        self._match_cache: dict[Term, tuple[tuple[int, Substitution], ...]] = {}
        self._contracta: dict[tuple, Term] = {}
        self._lhs_vars = tuple(tuple(sorted(rule.lhs.vars)) for rule in self.rules)

    @property
    def is_trivial(self) -> bool:
        """True iff every rule has a singleton {1: r} right-hand side."""
        return all(rule.is_trivial for rule in self.rules)

    def rules_at_root(self, t: Term) -> list[tuple[int, ProbRule]]:
        if isinstance(t, Var):
            return []
        return self._rules_by_root.get((t.symbol.name, t.symbol.arity), [])

    def root_matches(
        self, t: Term, keep_empty: bool = True
    ) -> tuple[tuple[int, Substitution], ...]:
        """Every rule matching at t's root, as (rule index, substitution) in
        rule order. Cached per system for terms whose root symbol some
        left-hand side has; with ``keep_empty`` false, only when some rule
        matches, for a caller that asks once about many fresh terms. The
        substitutions are shared by every caller, so none may mutate one."""
        got = self._match_cache.get(t)
        if got is not None:
            return got
        rules = self.rules_at_root(t)
        if not rules:
            return ()
        found = []
        for idx, rule in rules:
            sigma = match(rule.lhs, t)
            if sigma is not None:
                found.append((idx, sigma))
        got = tuple(found)
        if got or keep_empty:
            self._match_cache[t] = got
        return got

    def root_match(self, t: Term) -> Optional[tuple[int, Substitution]]:
        """The lowest-indexed rule matching at t's root and its substitution,
        or None when no rule matches there."""
        return next(iter(self.root_matches(t)), None)

    def contract(self, idx: int, b: int, sigma: Substitution) -> Term:
        """Branch b of rule idx instantiated by sigma, a match of its left-hand
        side, built once per system: the key is (idx, b) and sigma's images of
        the left-hand side's variables in one fixed order, not sigma's own."""
        key = (idx, b, *map(sigma.__getitem__, self._lhs_vars[idx]))
        got = self._contracta.get(key)
        if got is None:
            got = self._contracta[key] = apply_subst(self.rules[idx].rhs.terms[b], sigma)
        return got

    def validate(self) -> list[str]:
        """All rule-level violations; an empty list means the system is valid."""
        violations: list[str] = []
        arities: dict[str, int] = {}

        def check_arities(t: Term, where: str) -> None:
            stack = [t]
            while stack:
                u = stack.pop()
                if isinstance(u, App):
                    prev = arities.setdefault(u.symbol.name, u.symbol.arity)
                    if prev != u.symbol.arity:
                        violations.append(
                            f"{where}: symbol {u.symbol.name} used with arity "
                            f"{u.symbol.arity} but declared with arity {prev}"
                        )
                    stack.extend(u.args)

        for sym in self.extra_constructors:
            arities.setdefault(sym.name, sym.arity)
        for idx, rule in enumerate(self.rules):
            where = f"rule {idx}"
            if isinstance(rule.lhs, Var):
                violations.append(f"{where}: left-hand side is a variable")
            check_arities(rule.lhs, where)
            rhs = rule.rhs
            if not rhs.terms:
                violations.append(f"{where}: empty right-hand side distribution")
            if sum(rhs.weights) != rhs.den:
                violations.append(f"{where}: probabilities sum to {rhs.total()}")
            for w, t in zip(rhs.weights, rhs.terms):
                if not (0 < w <= rhs.den):
                    violations.append(
                        f"{where}: probability {Fraction(w, rhs.den)} outside (0,1]"
                    )
                check_arities(t, where)
                loose = t.vars - rule.lhs.vars
                for name in sorted(loose):
                    violations.append(
                        f"{where}: variable {name} occurs in a right-hand side "
                        f"but not in the left-hand side"
                    )
        return violations

    def is_normal_form(self, t: Term) -> bool:
        """No subterm of t matches any left-hand side. Cached per system; a
        ``SuccessorTable`` or a ``SimTable`` also records here the status of
        each term it builds, from the statuses of the term's arguments."""
        cache = self._nf_cache
        got = cache.get(t)
        if got is not None:
            return got
        stack = [t]
        while stack:
            u = stack[-1]
            if u in cache:
                stack.pop()
                continue
            if isinstance(u, Var):
                cache[u] = True
                stack.pop()
                continue
            pending = [a for a in u.args if a not in cache]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if not all(cache[a] for a in u.args):
                cache[u] = False
            else:
                cache[u] = not self.root_matches(u)
        return cache[t]

    def is_basic(self, t: Term) -> bool:
        """Defined root symbol applied to constructor-only arguments. Whether
        an argument holds a defined symbol is cached per system, so each
        distinct argument is walked once however many starts share it."""
        if isinstance(t, Var):
            return False
        sym = t.symbol  # defined exactly when some left-hand side has it at the root
        if (sym.name, sym.arity) not in self._rules_by_root:
            return False
        cache = self._defined_cache
        for a in t.args:
            got = cache.get(a)
            if got is None:
                got = cache[a] = self._holds_defined(a)
            if got:
                return False
        return True

    def _holds_defined(self, t: Term) -> bool:
        """Some symbol of t is defined, by name."""
        defined_names = self._defined_names
        stack = [t]
        while stack:
            u = stack.pop()
            if isinstance(u, App):
                if u.symbol.name in defined_names:
                    return True
                stack.extend(u.args)
        return False

    def nf_mass(self, mu: MultiDistribution) -> Fraction:
        nf = self.is_normal_form
        return Fraction(
            sum(w for w, t in zip(mu.weights, mu.terms) if nf(t)), mu.den
        )

    def __repr__(self) -> str:
        return f"Ptrs({len(self.rules)} rules)"
