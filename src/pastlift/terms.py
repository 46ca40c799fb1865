"""First-order terms, positions, substitutions, matching and unification.

Terms are immutable and hash-consed: constructing the same term twice yields
the very same object, so equality is pointer equality and structural sharing
is automatic. This is load-bearing, not an optimization nicety: duplicating
rewrite rules (``d(x) -> c(x,x)``) produce terms whose tree size grows
exponentially while their DAG size stays linear, and the exact unfolding
engine relies on O(1) term equality and on shared subterms to stay at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

Position = tuple[int, ...]
ROOT: Position = ()

Substitution = dict[str, "Term"]


class InvalidPosition(ValueError):
    """Raised when a position does not address a node of the given term."""


@dataclass(frozen=True)
class Symbol:
    name: str
    arity: int

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


class Term:
    """Base class for interned terms. Compare with ``==`` (same as ``is``)."""

    __slots__ = ("vars", "size", "depth")

    vars: frozenset[str]
    size: int
    depth: int

    def __repr__(self) -> str:
        return term_to_str(self)


class Var(Term):
    __slots__ = ("name",)

    name: str


class App(Term):
    __slots__ = ("symbol", "args")

    symbol: Symbol
    args: tuple[Term, ...]


_VAR_POOL: dict[str, Var] = {}
_APP_POOL: dict[tuple, App] = {}


def var(name: str) -> Var:
    t = _VAR_POOL.get(name)
    if t is None:
        t = Var.__new__(Var)
        t.name = name
        t.vars = frozenset((name,))
        t.size = 1
        t.depth = 1
        _VAR_POOL[name] = t
    return t


def app(symbol: Symbol, args: Iterable[Term] = ()) -> App:
    args = tuple(args)
    if len(args) != symbol.arity:
        raise ValueError(f"symbol {symbol!r} applied to {len(args)} arguments")
    key = (symbol.name, symbol.arity, args)
    t = _APP_POOL.get(key)
    if t is None:
        t = App.__new__(App)
        t.symbol = symbol
        t.args = args
        if args:
            t.vars = frozenset().union(*(a.vars for a in args))
            t.size = 1 + sum(a.size for a in args)
            t.depth = 1 + max(a.depth for a in args)
        else:
            t.vars = frozenset()
            t.size = 1
            t.depth = 1
        _APP_POOL[key] = t
    return t


def term_to_str(t: Term) -> str:
    """Render ``f(a,g(x))`` style, iteratively so deep terms cannot overflow."""
    out: list[str] = []
    work: list[Union[Term, str]] = [t]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(item.name)
        else:
            out.append(item.symbol.name)
            if item.args:
                out.append("(")
                work.append(")")
                for i, a in enumerate(reversed(item.args)):
                    work.append(a)
                    if i != len(item.args) - 1:
                        work.append(",")
    return "".join(out)


def positions(t: Term) -> list[Position]:
    """All node addresses of t in length-lexicographic order; () is the root."""
    acc: list[Position] = []
    stack: list[tuple[Term, Position]] = [(t, ROOT)]
    while stack:
        u, pos = stack.pop()
        acc.append(pos)
        if isinstance(u, App):
            for i, a in enumerate(u.args):
                stack.append((a, pos + (i + 1,)))
    acc.sort(key=lambda p: (len(p), p))
    return acc


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if not isinstance(t, App) or not (1 <= i <= len(t.args)):
            raise InvalidPosition(f"no subterm at {pos_to_str(pos)}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    """t with the subterm at pos replaced by s; rebuilds only the spine."""
    if not pos:
        return s
    spine: list[App] = []
    u = t
    for i in pos:
        if not isinstance(u, App) or not (1 <= i <= len(u.args)):
            raise InvalidPosition(f"no subterm at {pos_to_str(pos)}")
        spine.append(u)
        u = u.args[i - 1]
    result = s
    for i, parent in zip(reversed(pos), reversed(spine)):
        args = parent.args[: i - 1] + (result,) + parent.args[i:]
        result = app(parent.symbol, args)
    return result


def pos_to_str(pos: Position) -> str:
    return ".".join(str(i) for i in pos) if pos else "e"


def pos_from_str(text: str) -> Position:
    text = text.strip()
    if text in ("e", "ε", ""):
        return ROOT
    return tuple(int(part) for part in text.split("."))


def match(pattern: Term, subject: Term) -> Optional[Substitution]:
    """First-order matching: returns sigma with pattern*sigma == subject, or None."""
    binding: Substitution = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            seen = binding.get(p.name)
            if seen is None:
                binding[p.name] = s
            elif seen is not s:  # non-linear pattern, O(1) thanks to interning
                return None
        else:
            if not isinstance(s, App) or s.symbol != p.symbol:
                return None
            stack.extend(zip(p.args, s.args))
    return binding


def apply_subst(t: Term, sigma: Mapping[str, Term]) -> Term:
    """t with every variable in sigma replaced by its image, memoised by
    subterm so a shared subterm is rebuilt once, and without recursion so
    depth is unbounded: a node is built once all its arguments are."""
    keys = sigma.keys()
    if not t.vars or not (t.vars & keys):
        return t
    if isinstance(t, Var):
        return sigma[t.name]
    done: dict[Term, Term] = {}
    stack: list[App] = [t]
    while stack:
        u = stack[-1]
        args: list[Term] = []
        for a in u.args:
            if isinstance(a, Var):
                args.append(sigma.get(a.name, a))
            elif a.vars & keys:
                r = done.get(a)
                if r is None:
                    stack.append(a)  # built first, then u is scanned again
                    break
                args.append(r)
            else:
                args.append(a)
        else:
            stack.pop()
            done[u] = app(u.symbol, args)
    return done[t]


def _resolve(t: Term, binding: Substitution) -> Term:
    while isinstance(t, Var) and t.name in binding:
        t = binding[t.name]
    return t


def _occurs(name: str, t: Term, binding: Substitution) -> bool:
    stack = [t]
    while stack:
        u = _resolve(stack.pop(), binding)
        if isinstance(u, Var):
            if u.name == name:
                return True
        else:
            if name in u.vars or u.vars & binding.keys():
                stack.extend(u.args)
    return False


def unify(s: Term, t: Term) -> Optional[Substitution]:
    """Most general unifier with occurs check, returned in idempotent form."""
    binding: Substitution = {}
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        a = _resolve(a, binding)
        b = _resolve(b, binding)
        if a is b:
            continue
        if isinstance(a, Var):
            if _occurs(a.name, b, binding):
                return None
            binding[a.name] = b
        elif isinstance(b, Var):
            if _occurs(b.name, a, binding):
                return None
            binding[b.name] = a
        else:
            if a.symbol != b.symbol:
                return None
            stack.extend(zip(a.args, b.args))
    # Flatten the triangular bindings so applying the result twice equals
    # once: each bound variable's image is built bottom-up, memoised by term.
    done: dict[Term, Term] = {}

    def deep(t: Term) -> Term:
        stack = [t]
        while stack:
            u = stack[-1]
            if u in done:
                stack.pop()
                continue
            r = _resolve(u, binding)
            if isinstance(r, Var) or not (r.vars & binding.keys()):
                done[u] = r
                stack.pop()
                continue
            pending = [a for a in r.args if a not in done]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            done[u] = app(r.symbol, [done[a] for a in r.args])
        return done[t]

    resolved: Substitution = {}
    for name in binding:
        image = deep(var(name))
        if image is not var(name):
            resolved[name] = image
    return resolved


def rename_vars(t: Term, suffix: str) -> Term:
    """Append a suffix to every variable. '%' never occurs in user input, so
    a '%'-suffix guarantees freshness against the unrenamed rule."""
    return apply_subst(t, {name: var(name + suffix) for name in t.vars})
