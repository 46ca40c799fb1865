"""The rule file format: WST-style blocks with probabilistic right-hand sides.

    (VAR x y)
    (CONSTRUCTORS nil/0 cons/2)
    (RULES
      g -> {1/2: c(g,g), 1/2: bot}
      d(x) -> {1: c(x,x)}
    )

Whitespace-insensitive. Identifiers may contain letters, digits, underscores
and primes; '%' also parses (emitted systems use it for generated fresh
symbols) but is never expected in hand-written files. Probabilities are exact
rationals. Signature arities are inferred from use; conflicts are parse
errors. Comments run from ';' to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .rewriting import ScriptEntry
from .system import MultiDistribution, ProbRule, Ptrs
from .terms import App, Symbol, Term, app, pos_from_str, term_to_str, var


@dataclass
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass
class Token:
    kind: str  # punctuation kinds are their own text; else "ident"
    text: str
    line: int
    col: int


_PUNCT = {"(", ")", "{", "}", ",", ":", "/"}


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch in "_%'":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_%'"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError([Diagnostic(line, col, f"unexpected character {ch!r}")])
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass
class RawTerm:
    name: str
    args: list["RawTerm"]
    line: int
    col: int


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: Token, message: str) -> ParseError:
        return ParseError(self.diagnostics + [Diagnostic(tok.line, tok.col, message)])

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.fail(tok, f"expected {kind!r}, found {tok.text!r}")
        return tok

    def parse_file(self):
        var_names: list[str] = []
        constructor_decls: list[tuple[str, int, Token]] = []
        rules: list[tuple[RawTerm, list[tuple[Fraction, RawTerm]], Token]] = []
        saw_block = False
        while self.peek().kind != "eof":
            self.expect("(")
            head = self.expect("ident")
            saw_block = True
            if head.text == "VAR":
                while self.peek().kind == "ident":
                    var_names.append(self.next().text)
                self.expect(")")
            elif head.text == "CONSTRUCTORS":
                while self.peek().kind == "ident":
                    name_tok = self.next()
                    self.expect("/")
                    arity_tok = self.expect("ident")
                    if not arity_tok.text.isdigit():
                        raise self.fail(arity_tok, "expected an arity (a number)")
                    constructor_decls.append((name_tok.text, int(arity_tok.text), name_tok))
                self.expect(")")
            elif head.text == "RULES":
                while self.peek().kind != ")":
                    rules.append(self.parse_rule())
                self.expect(")")
            else:
                raise self.fail(head, f"unknown block {head.text!r}")
        if not saw_block:
            tok = self.peek()
            raise self.fail(tok, "empty input: expected (VAR ...) / (RULES ...) blocks")
        return var_names, constructor_decls, rules

    def parse_rule(self):
        lhs = self.parse_term()
        at = self.expect("->")
        self.expect("{")
        branches = [self.parse_branch()]
        while self.peek().kind == ",":
            self.next()
            branches.append(self.parse_branch())
        self.expect("}")
        return lhs, branches, at

    def parse_branch(self) -> tuple[Fraction, RawTerm]:
        num = self.expect("ident")
        if not num.text.isdigit():
            raise self.fail(num, f"expected a probability, found {num.text!r}")
        value = Fraction(int(num.text))
        if self.peek().kind == "/":
            self.next()
            den = self.expect("ident")
            if not den.text.isdigit() or int(den.text) == 0:
                raise self.fail(den, "expected a non-zero denominator")
            value = Fraction(int(num.text), int(den.text))
        self.expect(":")
        return value, self.parse_term()

    def parse_term(self) -> RawTerm:
        """One term; a stack of open argument lists stands in for recursion,
        so nesting depth is unbounded."""
        root = node = self.parse_head()
        open_lists: list[RawTerm] = []
        while True:
            if self.peek().kind == "(":
                self.next()
                open_lists.append(node)
                node = self.parse_head()
                open_lists[-1].args.append(node)
                continue
            while open_lists:
                if self.peek().kind == ",":
                    self.next()
                    node = self.parse_head()
                    open_lists[-1].args.append(node)
                    break
                self.expect(")")
                open_lists.pop()
            else:
                return root

    def parse_head(self) -> RawTerm:
        head = self.expect("ident")
        return RawTerm(head.text, [], head.line, head.col)


def _build_raw(raw: RawTerm, resolve: Callable[[RawTerm], Union[Term, Symbol]]) -> Term:
    """Intern a raw term bottom-up without recursion. ``resolve`` sees the
    nodes in source order, so diagnostics come out in that order, and
    returns either the finished term (its arguments are then skipped) or the
    symbol to apply to the built arguments."""
    done: list[Term] = []
    stack: list[tuple[RawTerm, Optional[Symbol]]] = [(raw, None)]
    while stack:
        node, sym = stack.pop()
        if sym is not None:
            cut = len(done) - len(node.args)
            args = done[cut:]
            del done[cut:]
            done.append(app(sym, args))
            continue
        got = resolve(node)
        if isinstance(got, Term):
            done.append(got)
            continue
        stack.append((node, got))
        stack.extend((a, None) for a in reversed(node.args))
    return done[0]


class _Builder:
    """Second pass: resolve arities, distinguish variables, intern terms."""

    def __init__(self, var_names: Sequence[str], diagnostics: list[Diagnostic]):
        self.vars = set(var_names)
        self.arities: dict[str, tuple[int, Token | RawTerm]] = {}
        self.diagnostics = diagnostics

    def note_arity(self, name: str, arity: int, where) -> None:
        prev = self.arities.get(name)
        if prev is None:
            self.arities[name] = (arity, where)
        elif prev[0] != arity:
            self.diagnostics.append(
                Diagnostic(
                    where.line,
                    where.col,
                    f"symbol {name} used with arity {arity}, previously {prev[0]}",
                )
            )

    def build(self, raw: RawTerm) -> Term:
        return _build_raw(raw, self._resolve)

    def _resolve(self, raw: RawTerm) -> Union[Term, Symbol]:
        if raw.name in self.vars:
            if raw.args:
                self.diagnostics.append(
                    Diagnostic(
                        raw.line, raw.col, f"variable {raw.name} used with arguments"
                    )
                )
            return var(raw.name)
        self.note_arity(raw.name, len(raw.args), raw)
        return Symbol(raw.name, len(raw.args))


@dataclass
class ParsedFile:
    system: Ptrs
    var_names: frozenset[str]


def parse_file(text: str) -> ParsedFile:
    parser = _Parser(text)
    var_names, constructor_decls, raw_rules = parser.parse_file()
    diagnostics = parser.diagnostics
    builder = _Builder(var_names, diagnostics)
    for name, arity, tok in constructor_decls:
        if name in builder.vars:
            diagnostics.append(
                Diagnostic(tok.line, tok.col, f"{name} is declared both VAR and constructor")
            )
        builder.note_arity(name, arity, tok)

    rules: list[ProbRule] = []
    spans: list[tuple[int, int]] = []
    for raw_lhs, raw_branches, at in raw_rules:
        lhs = builder.build(raw_lhs)
        entries = [(p, builder.build(t)) for p, t in raw_branches]
        rules.append(ProbRule(lhs, MultiDistribution(entries, require_proper=False)))
        spans.append((at.line, at.col))
    extras = [Symbol(name, arity) for name, arity, _ in constructor_decls]
    system = Ptrs(rules, extras)
    for violation in system.validate():
        line, col = 1, 1
        if violation.startswith("rule "):
            idx = int(violation.split()[1].rstrip(":"))
            line, col = spans[idx]
        diagnostics.append(Diagnostic(line, col, violation))
    if diagnostics:
        raise ParseError(diagnostics)
    return ParsedFile(system, frozenset(var_names))


def parse(text: str) -> Ptrs:
    return parse_file(text).system


def serialize(system: Ptrs, var_names: Optional[Sequence[str]] = None) -> str:
    """Canonical text form; parse(serialize(S)) reconstructs S exactly."""
    if var_names is None:
        names: set[str] = set()
        for rule in system.rules:
            names |= rule.lhs.vars
        var_names = sorted(names)
    lines = []
    if var_names:
        lines.append("(VAR " + " ".join(var_names) + ")")
    occurring = _occurring_symbols(system)
    extras = [s for s in system.extra_constructors if s.name not in occurring]
    if extras:
        decls = " ".join(f"{s.name}/{s.arity}" for s in sorted(extras, key=lambda s: s.name))
        lines.append(f"(CONSTRUCTORS {decls})")
    lines.append("(RULES")
    for rule in system.rules:
        branches = ", ".join(f"{p}: {term_to_str(t)}" for p, t in rule.rhs.entries)
        lines.append(f"  {term_to_str(rule.lhs)} -> {{{branches}}}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _occurring_symbols(system: Ptrs) -> set[str]:
    seen: set[str] = set()
    stack: list[Term] = []
    for rule in system.rules:
        stack.append(rule.lhs)
        stack.extend(rule.rhs.support())
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            seen.add(t.symbol.name)
            stack.extend(t.args)
    return seen


def parse_term(text: str, system: Ptrs, var_names: Sequence[str] = ()) -> Term:
    """Parse a standalone term against a system's signature. Variables are
    those of the system's rules plus any extra names supplied."""
    parser = _Parser(text)
    raw = parser.parse_term()
    tail = parser.peek()
    if tail.kind != "eof":
        raise parser.fail(tail, f"trailing input after term: {tail.text!r}")
    known_vars: set[str] = set(var_names)
    for rule in system.rules:
        known_vars |= rule.lhs.vars
    diagnostics: list[Diagnostic] = []

    def resolve(node: RawTerm) -> Union[Term, Symbol]:
        if node.name in known_vars:
            if node.args:
                diagnostics.append(
                    Diagnostic(node.line, node.col, f"variable {node.name} with arguments")
                )
            return var(node.name)
        sym = system.signature.get(node.name)
        if sym is None:
            diagnostics.append(
                Diagnostic(node.line, node.col, f"unknown symbol {node.name}")
            )
            sym = Symbol(node.name, len(node.args))
        elif sym.arity != len(node.args):
            diagnostics.append(
                Diagnostic(
                    node.line,
                    node.col,
                    f"symbol {node.name} expects {sym.arity} arguments, got {len(node.args)}",
                )
            )
            sym = Symbol(node.name, len(node.args))
        return sym

    t = _build_raw(raw, resolve)
    if diagnostics:
        raise ParseError(diagnostics)
    return t


def parse_script(text: str, system: Ptrs) -> list[ScriptEntry]:
    """Policy script, one row per line:

        pattern => rule INDEX at POS[,POS...]

    POS is 'e' for the root or a dotted path of argument indices from 1,
    like '1.2'; any other POS is a diagnostic on its line. Patterns may use
    the system's rule variables. Lines starting with ';' are comments.
    """
    entries: list[ScriptEntry] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split(";")[0].strip()
        if not line:
            continue
        if "=>" not in line:
            raise ParseError(
                [Diagnostic(lineno, 1, "expected 'pattern => rule N at POS'")]
            )
        pattern_text, move_text = line.split("=>", 1)
        pattern = parse_term(pattern_text.strip(), system)
        parts = move_text.split()
        if len(parts) != 4 or parts[0] != "rule" or parts[2] != "at" or not parts[1].isdigit():
            raise ParseError(
                [Diagnostic(lineno, 1, f"malformed move {move_text.strip()!r}")]
            )
        rule_index = int(parts[1])
        if not 0 <= rule_index < len(system.rules):
            raise ParseError([Diagnostic(lineno, 1, f"no rule {rule_index}")])
        try:
            positions = tuple(pos_from_str(p) for p in parts[3].split(","))
        except ValueError as exc:
            raise ParseError([Diagnostic(lineno, 1, str(exc))]) from None
        entries.append(ScriptEntry(pattern, rule_index, positions))
    return entries
