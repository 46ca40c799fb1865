"""Generator rules and term encodings that reduce arbitrary start terms to
basic ones: every term t has a basic variant bv(t) over an extended signature
that rewrites back to t using only the generated rules.

Fresh symbols are named with '%', which the file format reserves: user input
can never collide with them, and emitted systems still parse and serialize
round-trip.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .system import MultiDistribution, ProbRule, Ptrs
from .terms import App, Symbol, Term, Var, app, var


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "%"
    return name


class ExtendedSignature:
    """Name bookkeeping for the generator extension of one system."""

    def __init__(self, system: Ptrs):
        self.system = system
        taken = set(system.signature)
        self.argenc = Symbol(_fresh_name("argenc%", taken), 1)
        taken.add(self.argenc.name)
        self.enc: dict[str, Symbol] = {}
        self.cons: dict[str, Symbol] = {}
        defined = {s.name for s in system.defined_symbols}
        for name, sym in sorted(system.signature.items()):
            enc_name = _fresh_name(f"enc%{name}", taken)
            taken.add(enc_name)
            self.enc[name] = Symbol(enc_name, sym.arity)
        for name, sym in sorted(system.signature.items()):
            if name in defined:
                cons_name = _fresh_name(f"cons%{name}", taken)
                taken.add(cons_name)
                self.cons[name] = Symbol(cons_name, sym.arity)


def generator_rules(system: Ptrs, ext: Optional[ExtendedSignature] = None) -> Ptrs:
    """The generated rules, as a standalone system with {1: r} branches.

    Three families, in deterministic order: one enc rule per signature symbol
    (by name), one argenc rule per defined symbol's cons wrapper (by name),
    one argenc rule per constructor (by name).
    """
    ext = ext or ExtendedSignature(system)
    one = Fraction(1)
    rules: list[ProbRule] = []

    def fresh_args(arity: int) -> list[Term]:
        return [var(f"x{i + 1}") for i in range(arity)]

    def argenc_wrapped(sym: Symbol, xs: list[Term]) -> Term:
        return app(sym, [app(ext.argenc, [x]) for x in xs])

    for name, sym in sorted(system.signature.items()):
        xs = fresh_args(sym.arity)
        rules.append(
            ProbRule(
                app(ext.enc[name], xs),
                MultiDistribution([(one, argenc_wrapped(sym, xs))]),
            )
        )
    defined_names = sorted(s.name for s in system.defined_symbols)
    for name in defined_names:
        sym = system.signature[name]
        xs = fresh_args(sym.arity)
        rules.append(
            ProbRule(
                app(ext.argenc, [app(ext.cons[name], xs)]),
                MultiDistribution([(one, argenc_wrapped(sym, xs))]),
            )
        )
    for name, sym in sorted(system.signature.items()):
        if name in defined_names:
            continue
        xs = fresh_args(sym.arity)
        rules.append(
            ProbRule(
                app(ext.argenc, [app(sym, xs)]),
                MultiDistribution([(one, argenc_wrapped(sym, xs))]),
            )
        )
    return Ptrs(rules)


def union_with_generators(system: Ptrs) -> Ptrs:
    """S together with its generator rules; enc symbols and argenc become
    defined symbols of the union, cons symbols become constructors."""
    ext = ExtendedSignature(system)
    gen = generator_rules(system, ext)
    return Ptrs(system.rules + gen.rules, system.extra_constructors)


def _map_bottom_up(
    t: Term, rebuild: Callable[[App, tuple[Term, ...]], Term], image: dict[Term, Term]
) -> Term:
    """t's image: ``rebuild(u, images of u's arguments)`` for an application
    u, a variable itself. Each distinct subterm is rebuilt once, remembered
    in ``image``, and the walk keeps its own stack, so neither sharing nor
    depth costs more than the DAG's size."""
    stack = [t]
    while stack:
        u = stack[-1]
        if u in image:
            stack.pop()
        elif isinstance(u, Var):
            image[u] = stack.pop()
        else:
            pending = [a for a in u.args if a not in image]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            image[u] = rebuild(u, tuple(image[a] for a in u.args))
    return image[t]


def _constructor_variants(
    system: Ptrs, ext: ExtendedSignature, terms: tuple[Term, ...]
) -> tuple[Term, ...]:
    defined = {s.name for s in system.defined_symbols}

    def rebuild(u: App, args: tuple[Term, ...]) -> Term:
        name = u.symbol.name
        return app(ext.cons[name] if name in defined else u.symbol, args)

    image: dict[Term, Term] = {}
    return tuple(_map_bottom_up(u, rebuild, image) for u in terms)


def cv(system: Ptrs, t: Term, ext: Optional[ExtendedSignature] = None) -> Term:
    """Constructor variant: defined symbols are replaced by cons wrappers."""
    return _constructor_variants(system, ext or ExtendedSignature(system), (t,))[0]


def bv(system: Ptrs, t: Term, ext: Optional[ExtendedSignature] = None) -> Term:
    """Basic variant enc_f(cv(t1),...,cv(tn)); undefined on variables."""
    if isinstance(t, Var):
        raise ValueError("basic variant of a variable is undefined")
    ext = ext or ExtendedSignature(system)
    return app(ext.enc[t.symbol.name], _constructor_variants(system, ext, t.args))


def dv(system: Ptrs, t: Term, ext: Optional[ExtendedSignature] = None) -> Term:
    """Decoded variant: erases argenc and maps enc_f/cons_f back to f."""
    ext = ext or ExtendedSignature(system)
    back: dict[str, Symbol] = {}
    for name, sym in ext.enc.items():
        back[sym.name] = system.signature[name]
    for name, sym in ext.cons.items():
        back[sym.name] = system.signature[name]

    def rebuild(u: App, args: tuple[Term, ...]) -> Term:
        if u.symbol == ext.argenc:
            return args[0]
        return app(back.get(u.symbol.name, u.symbol), args)

    return _map_bottom_up(t, rebuild, {})
