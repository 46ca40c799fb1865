from fractions import Fraction

import pytest

from conftest import SYSTEMS_DIR, load_system
from pastlift.cli import main
from pastlift.fmt import (
    ParseError,
    parse,
    parse_file,
    parse_script,
    parse_term,
    serialize,
)
from pastlift.system import MultiDistribution, ProbRule, Ptrs
from pastlift.terms import Symbol, app, term_to_str, var


def test_parse_srw():
    system = parse("(RULES g -> {1/2: c(g,g), 1/2: bot})")
    assert len(system.rules) == 1
    rule = system.rules[0]
    assert term_to_str(rule.lhs) == "g"
    assert rule.rhs.entries[0][0] == Fraction(1, 2)


def test_parse_s1_shape():
    text = "(VAR x)(RULES g -> {3/4: d(g), 1/4: bot} d(x) -> {1: c(x,x)})"
    system = parse(text)
    assert len(system.rules) == 2
    assert system.rules[1].lhs.vars == {"x"}


def test_probability_sum_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse("(RULES a -> {1/2: b})")
    assert any("sum to 1/2" in str(d) for d in exc.value.diagnostics)


def test_syntax_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("(RULES g -> 1/2: c })")
    diag = exc.value.diagnostics[-1]
    assert diag.line == 1 and diag.col == 13


def test_arity_conflict_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse("(RULES f(a) -> {1: f(a,a)})")
    assert any("arity" in d.message for d in exc.value.diagnostics)


def test_an_arity_conflict_in_a_file_is_reported_once(tmp_path, capsys):
    """The builder reports the conflict where the symbol is used; the
    system's own check does not report it a second time, and every other
    diagnostic stays."""
    path = tmp_path / "conflict.ptrs"
    path.write_text("(VAR x)\n(RULES\n  f(x) -> {1: f(x, x)}\n  g -> {1/2: a}\n)\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "3:15: symbol f used with arity 2, previously 1",
        "4:5: rule 1: probabilities sum to 1/2",
    ]


def test_validate_reports_an_arity_conflict_in_a_system_built_in_code():
    x = var("x")
    rule = ProbRule(app(Symbol("f", 1), [x]), MultiDistribution([(1, app(Symbol("f", 2), [x, x]))]))
    assert Ptrs([rule]).validate() == ["rule 0: symbol f used with arity 2 but declared with arity 1"]


def test_variable_with_arguments_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse("(VAR x)(RULES f(x) -> {1: x(a)})")
    assert any("variable x used with arguments" in d.message for d in exc.value.diagnostics)


def test_rhs_variable_containment_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse("(VAR x y)(RULES f(x) -> {1: y})")
    assert any("y occurs in a right-hand side" in d.message for d in exc.value.diagnostics)


def test_lhs_variable_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse("(VAR x)(RULES x -> {1: a})")
    assert any("left-hand side is a variable" in d.message for d in exc.value.diagnostics)


def test_collects_multiple_violations():
    text = "(VAR x)(RULES x -> {1: a} b -> {1/3: c})"
    with pytest.raises(ParseError) as exc:
        parse(text)
    messages = [d.message for d in exc.value.diagnostics]
    assert len(messages) == 2


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("   ; nothing here\n")


def test_round_trip_all_bundled_systems():
    for path in sorted(SYSTEMS_DIR.glob("*.ptrs")):
        original = parse_file(path.read_text())
        text = serialize(original.system, sorted(original.var_names))
        again = parse_file(text)
        assert list(again.system.rules) == list(original.system.rules), path.name
        assert [r.rhs.entries for r in again.system.rules] == [
            r.rhs.entries for r in original.system.rules
        ]
        assert again.system.extra_constructors == original.system.extra_constructors
        # serialization is a fixed point
        assert serialize(again.system, sorted(again.var_names)) == text


def test_parse_term_against_signature():
    srw = load_system("srw")
    assert term_to_str(parse_term("c(g,bot)", srw)) == "c(g,bot)"
    with pytest.raises(ParseError):
        parse_term("c(g)", srw)  # wrong arity
    with pytest.raises(ParseError):
        parse_term("mystery", srw)
    with pytest.raises(ParseError):
        parse_term("c(g,bot) garbage", srw)


def test_parse_term_knows_rule_variables():
    s1 = load_system("s1")
    t = parse_term("d(x)", s1)
    assert t.vars == {"x"}


def test_parse_script():
    s2 = load_system("s2")
    entries = parse_script("f(a,a) => rule 0 at e\n; comment\nf(x,x) => rule 1 at 1,2\n", s2)
    assert len(entries) == 2
    assert entries[0].rule_index == 0 and entries[0].positions == ((),)
    assert entries[1].positions == ((1,), (2,))
    with pytest.raises(ParseError):
        parse_script("f(a,a) => rule 9 at e", s2)
    with pytest.raises(ParseError):
        parse_script("f(a,a) -> rule 0 at e", s2)


def test_malformed_script_positions_are_line_numbered_diagnostics():
    """A position component that is not a number, or is 0 or empty and so
    addresses no subterm, is reported on its row's line, not as Python's
    int() error nor as a row that silently never applies."""
    srw = load_system("srw")
    for position in ("1.a", "a", "0", "1.0", "1.", "e,0.2", "1,", ",1"):
        with pytest.raises(ParseError) as exc:
            parse_script(f"; comment\ng => rule 0 at e\nc(g,g) => rule 0 at {position}\n", srw)
        [diag] = exc.value.diagnostics
        assert diag.line == 3, position
        assert "malformed position" in diag.message and "int()" not in diag.message


def test_a_malformed_script_position_exits_2(tmp_path, capsys):
    script = tmp_path / "rows.script"
    for row in ("g => rule 0 at 1.a", "c(g,g) => rule 0 at 0"):
        script.write_text(row + "\n")
        code = main([
            "simulate", str(SYSTEMS_DIR / "srw.ptrs"), "--term", "c(g,g)",
            "--policy", f"script:{script}", "--mode", "mc", "--samples", "1", "--step-cap", "3",
        ])
        assert code == 2, row
        assert capsys.readouterr().err.startswith("1:1: malformed position"), row


def test_round_trip_random_systems():
    import random

    from conftest import random_system

    rng = random.Random(99)
    for _ in range(150):
        system = random_system(rng)
        text = serialize(system)
        again = parse(text)
        assert list(again.rules) == list(system.rules)
        assert serialize(again) == text


def test_comments_and_whitespace_insensitivity():
    text = """
    ; leading comment
    (VAR   x)
    (RULES d(x)->{1:c(x,x)}
           g->{3/4:d(g),1/4:bot})
    """
    system = parse(text)
    assert len(system.rules) == 2
