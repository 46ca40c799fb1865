import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
from hypothesis import given, settings, strategies as st

from conftest import DEFAULT_SYMBOLS, SYSTEMS_DIR, random_system, random_term
from pastlift.cli import main
from pastlift.fmt import serialize
from pastlift.report import load_schema
from pastlift.terms import term_to_str

SCHEMA = load_schema()


def path(name: str) -> str:
    return str(SYSTEMS_DIR / f"{name}.ptrs")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_check_text(capsys):
    code, out, _ = run(capsys, "check", path("s1"))
    assert code == 0
    assert "left-linear: yes" in out
    assert "right-linear: no" in out


def test_check_json_schema(capsys):
    doc = run_json(capsys, "check", path("r1"), "--json")
    assert doc["kind"] == "check"
    assert doc["trivial"] is True
    assert doc["properties"]["non_overlapping"] is False
    assert doc["properties"]["overlay"] is True
    assert doc["properties"]["wcr"] == "No"


def test_analyze_text_mentions_thm14(capsys):
    code, out, _ = run(capsys, "analyze", path("s2"), "--scope", "all")
    assert code == 0
    assert "Thm 14 Applies" in out
    assert "iAST w.r.t. ∥ ⇒ fAST" in out


def test_analyze_json_schema(capsys):
    doc = run_json(capsys, "analyze", path("s7"), "--scope", "basic", "--json")
    sections = {s["engine"]: s for s in doc["sections"]}
    prob = sections["prob"]
    verdicts = {v["id"]: v for v in prob["verdicts"]}
    assert verdicts["Thm 20"]["applicability"] == "Applies"
    assert prob["spare"] == "Spare"


def test_analyze_trivial_system_gets_both_engines(capsys):
    doc = run_json(capsys, "analyze", path("r_d"), "--json")
    engines = [s["engine"] for s in doc["sections"]]
    assert engines == ["nonprob", "prob"]


def test_analyze_with_assertion(capsys):
    code, out, _ = run(capsys, "analyze", path("srw"), "--assert", "iAST")
    assert code == 0
    assert "asserted iAST yields fAST" in out


def test_simulate_exact_prints_five_eighths(capsys):
    code, out, _ = run(
        capsys,
        "simulate", path("srw"), "--term", "g", "--strategy", "full",
        "--policy", "first", "--depth", "3", "--mode", "exact",
    )
    assert code == 0
    assert "nf_mass 5/8" in out


def test_simulate_exact_json(capsys):
    doc = run_json(
        capsys,
        "simulate", path("srw"), "--term", "g", "--depth", "3", "--json",
    )
    assert doc["lower_bound"] == "5/8"
    assert doc["nf_mass"] == ["0", "1/2", "1/2", "5/8"]
    assert {e["term"] for e in doc["final_state"]} >= {"bot"}


def test_simulate_mc_json(capsys):
    doc = run_json(
        capsys,
        "simulate", path("s7"), "--term", "g", "--strategy", "i",
        "--mode", "mc", "--samples", "50", "--step-cap", "500",
        "--seed", "1", "--json",
    )
    assert doc["kind"] == "simulate-mc"
    assert doc["estimate"] == 1.0


def test_simulate_mc_scripted_policy(tmp_path, capsys):
    script = tmp_path / "loop.script"
    script.write_text("f(a,a) => rule 0 at e\n")
    doc = run_json(
        capsys,
        "simulate", path("s2"), "--term", "f(a,a)", "--strategy", "full",
        "--policy", f"script:{script}", "--mode", "mc",
        "--samples", "20", "--step-cap", "30", "--seed", "2", "--json",
    )
    assert doc["estimate"] == 0.0
    assert doc["censored_fraction"] == 1.0


def test_simulate_rightmost_policy_same_mass(capsys):
    # the random walk is symmetric, so the rightmost policy reaches the same
    # normal-form mass at depth 3 even though the states differ
    doc = run_json(
        capsys,
        "simulate", path("srw"), "--term", "g", "--policy", "rightmost",
        "--depth", "3", "--json",
    )
    assert doc["lower_bound"] == "5/8"
    assert any(e["term"] == "c(g,c(g,g))" for e in doc["final_state"]) or any(
        "c(g," in e["term"] for e in doc["final_state"]
    )


def test_simulate_random_policy_is_seed_deterministic(capsys):
    docs = []
    for _ in range(2):
        docs.append(
            run_json(
                capsys,
                "simulate", path("s4"), "--term", "f(a,b)", "--strategy", "i",
                "--policy", "random:9", "--depth", "8", "--json",
            )
        )
    assert docs[0] == docs[1]


def test_simulate_simultaneous_strategy(capsys):
    doc = run_json(
        capsys,
        "simulate", path("s2"), "--term", "f(a,a)", "--strategy", "ipar",
        "--depth", "6", "--json",
    )
    assert doc["strategy"] == "ipar"
    assert set(doc["nf_mass"]) == {"0"}


def test_adversary_json(capsys):
    doc = run_json(
        capsys,
        "adversary", path("s4"), "--term", "f(a,b)", "--strategy", "i",
        "--depth", "40", "--json",
    )
    assert doc["lower_bound"] == "0"
    doc = run_json(
        capsys,
        "adversary", path("s4"), "--term", "f(a,b)", "--strategy", "li",
        "--depth", "40", "--json",
    )
    assert doc["lower_bound"] == "8191/8192"


def test_adversary_deeper_than_the_recursion_limit(capsys):
    bounds = {}
    for strategy in ("i", "li"):
        code, out, err = run(
            capsys,
            "adversary", path("s4"), "--term", "f(a,b)", "--strategy", strategy,
            "--depth", "3000", "--json",
        )
        assert code == 0 and "Traceback" not in err, (strategy, err)
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        bounds[strategy] = Fraction(doc["lower_bound"])
    assert bounds["i"] == 0
    assert bounds["li"] >= Fraction(99, 100)


def run_module(*argv):
    """``python -m pastlift`` from this checkout, in its own process."""
    src = str(SYSTEMS_DIR.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pastlift", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_runs_as_a_module_from_a_checkout():
    proc = run_module(
        "adversary", path("s4"), "--term", "f(a,b)", "--strategy", "li", "--depth", "40",
        "--json",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["lower_bound"] == "8191/8192"
    proc = run_module("simulate")
    assert proc.returncode == 1 and "usage error" in proc.stderr


def test_adversary_rejects_a_negative_depth():
    # it used never to return, so it runs in a process with a timeout
    proc = run_module("adversary", path("srw"), "--term", "g", "--depth", "-2")
    assert proc.returncode == 2, proc.stderr
    assert "depth must be non-negative" in proc.stderr


def test_simulate_mc_rejects_a_negative_step_cap(capsys):
    code, out, err = run(
        capsys,
        "simulate", path("srw"), "--term", "g", "--mode", "mc", "--samples", "5",
        "--step-cap", "-3", "--json",
    )
    assert code == 2 and out == ""
    assert "step cap must be non-negative" in err


def test_negative_caps_and_join_depths_are_rejected(capsys):
    # these used to be reported as a cap hit (exit 3), or taken as 0 (exit 0)
    cases = [
        (("simulate", path("srw"), "--term", "g", "--support-cap", "-1"), "support cap"),
        (("adversary", path("s4"), "--term", "f(a,b)", "--memo-cap", "-1"), "memo cap"),
    ]
    for command in ("check", "analyze"):
        for name in ("r1", "srw"):
            cases.append(((command, path(name), "--join-depth", "-1"), "join depth"))
    for argv, what in cases:
        code, out, err = run(capsys, *argv, "--json")
        assert code == 2 and out == "", argv
        assert f"{what} must be non-negative" in err, argv


def test_random_policy_needs_an_integer_seed(capsys):
    code, out, err = run(capsys, "simulate", path("srw"), "--term", "g", "--policy", "random:x")
    assert code == 1 and out == ""
    assert "usage error" in err and "'random:x'" in err and "invalid literal" not in err


def test_spare_json(capsys):
    doc = run_json(capsys, "spare", path("s7"), "--json")
    assert doc["verdict"] == "Spare"
    assert doc["falsifier"] is None
    doc = run_json(capsys, "spare", path("s1"), "--falsify", "--depth", "3", "--json")
    assert doc["verdict"] == "Unknown"
    assert doc["falsifier"]["found"] is True
    assert doc["falsifier"]["counterexample"]["duplicated_variable"] == "x"


def test_transform_writes_union(tmp_path, capsys):
    out_path = tmp_path / "s8gen.ptrs"
    code, _, _ = run(
        capsys, "transform", path("s8"), "--generators", "-o", str(out_path)
    )
    assert code == 0
    from pastlift.fmt import parse

    system = parse(out_path.read_text())
    assert len(system.rules) == 12  # 2 originals + 10 generated


def test_transform_requires_flag(capsys):
    code, _, err = run(capsys, "transform", path("s8"))
    assert code == 1
    assert "generators" in err


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.ptrs"
    bad.write_text("(RULES a -> {1/2: b})")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "sum to 1/2" in err


def test_exit_code_usage(capsys):
    code, _, _ = run(capsys, "simulate", path("srw"), "--term", "g", "--policy", "bogus")
    assert code == 1


def test_exit_code_cap_exceeded(capsys):
    code, _, err = run(
        capsys,
        "simulate", path("srw"), "--term", "g", "--depth", "60",
        "--support-cap", "5",
    )
    assert code == 3
    assert "cap exceeded" in err


def test_exit_code_missing_file(capsys):
    code, _, _ = run(capsys, "check", "no-such-file.ptrs")
    assert code == 1


def test_bad_term_is_a_parse_error(capsys):
    code, _, err = run(capsys, "simulate", path("srw"), "--term", "zap(1)")
    assert code == 2


def test_simulate_accepts_a_start_term_deeper_than_the_recursion_limit(capsys):
    deep = "g(" * 3000 + "0" + ")" * 3000
    modes = (
        ("--mode", "exact", "--depth", "2"),
        ("--mode", "mc", "--samples", "3", "--step-cap", "3"),
    )
    for mode in modes:
        for strategy in ("full", "i", "li", "par", "ipar"):
            for policy in ("first", "rightmost", "random:1"):
                code, out, err = run(
                    capsys,
                    "simulate", path("srw2"), "--term", deep, "--strategy", strategy,
                    "--policy", policy, *mode, "--json",
                )
                assert code == 0 and "Traceback" not in err, (mode, strategy, policy, err)
                jsonschema.validate(json.loads(out), SCHEMA)


def test_rules_deeper_than_the_recursion_limit(tmp_path):
    # each command substitutes into or unifies with a rule side deeper than
    # the recursion limit
    deep_rhs = tmp_path / "deep_rhs.ptrs"
    deep_rhs.write_text(
        "(VAR x)\n(CONSTRUCTORS a/0)\n(RULES\n"
        f"  f(x) -> {{1: {'h(' * 1500}x{')' * 1500}}}\n)\n"
    )
    deep_lhs = tmp_path / "deep_lhs.ptrs"
    deep_lhs.write_text(
        "(VAR x)\n(CONSTRUCTORS a/0)\n(RULES\n"
        f"  f({'h(' * 3000}x{')' * 3000}) -> {{1: x}}\n)\n"
    )
    commands = (
        ("simulate", str(deep_rhs), "--term", "f(a)", "--mode", "exact", "--depth", "3"),
        ("simulate", str(deep_rhs), "--term", "f(a)", "--mode", "mc", "--strategy", "full",
         "--samples", "3", "--step-cap", "5"),
        ("simulate", str(deep_rhs), "--term", "f(a)", "--mode", "mc", "--strategy", "i",
         "--samples", "3", "--step-cap", "5"),
        ("adversary", str(deep_rhs), "--term", "f(a)", "--depth", "3"),
        ("check", str(deep_lhs)),
        ("analyze", str(deep_lhs)),
    )
    for argv in commands:
        proc = run_module(*argv, "--json")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, (argv, proc.stderr)
        jsonschema.validate(json.loads(proc.stdout), SCHEMA)


STRATEGIES = st.sampled_from(["full", "i", "li", "par", "ipar"])
POLICIES = st.one_of(
    st.sampled_from(["first", "rightmost"]), st.integers(0, 99).map(lambda s: f"random:{s}")
)


def run_on_random_system(system_seed, term_seed, argv):
    """``main`` on ``argv`` with the file of a serialised random system and a
    start term appended after the subcommand: (exit code, stdout, stderr)."""
    system = random_system(random.Random(system_seed))
    # terms over the system's own signature; without a constant there, over
    # symbols it may not know, which the parser rejects (exit 2)
    symbols = tuple(system.signature.values())
    if not any(sym.arity == 0 for sym in symbols):
        symbols = DEFAULT_SYMBOLS
    term = term_to_str(random_term(random.Random(term_seed), 4, vars_=(), symbols=symbols))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "random.ptrs"
        file.write_text(serialize(system))
        with redirect_stdout(out), redirect_stderr(err):
            code = main([argv[0], str(file), "--term", term, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, out, err, kind):
    """Exit 0-3, no traceback, and a schema-valid document on a JSON success."""
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    if code == 0 and "--json" in argv:
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["kind"] == kind


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    system_seed=st.integers(0, 2**32),
    term_seed=st.integers(0, 2**32),
    strategy=STRATEGIES,
    policy=POLICIES,
    samples=st.integers(1, 5),
    cap=st.integers(0, 50),
    as_json=st.booleans(),
)
def test_mc_exit_code_contract_on_random_systems(
    system_seed, term_seed, strategy, policy, samples, cap, as_json
):
    """``simulate --mode mc`` on random systems exits 0-3, never with a
    traceback, and every JSON document it prints follows the schema."""
    argv = [
        "simulate", "--mode", "mc", "--strategy", strategy,
        "--policy", policy, "--samples", str(samples), "--step-cap", str(cap),
        "--seed", str(system_seed % 1000),
    ] + (["--json"] if as_json else [])
    code, out, err = run_on_random_system(system_seed, term_seed, argv)
    assert_contract(argv, code, out, err, "simulate-mc")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    system_seed=st.integers(0, 2**32),
    term_seed=st.integers(0, 2**32),
    strategy=STRATEGIES,
    policy=POLICIES,
    depth=st.integers(0, 6),
    cap=st.integers(0, 50),
    coalesce=st.booleans(),
    as_json=st.booleans(),
)
def test_exact_exit_code_contract_on_random_systems(
    system_seed, term_seed, strategy, policy, depth, cap, coalesce, as_json
):
    """``simulate --mode exact`` on random systems keeps the same contract,
    whatever the depth, support cap and coalescing."""
    argv = [
        "simulate", "--mode", "exact", "--strategy", strategy, "--policy", policy,
        "--depth", str(depth), "--support-cap", str(cap),
    ] + (["--coalesce"] if coalesce else []) + (["--json"] if as_json else [])
    code, out, err = run_on_random_system(system_seed, term_seed, argv)
    assert_contract(argv, code, out, err, "simulate-exact")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    system_seed=st.integers(0, 2**32),
    term_seed=st.integers(0, 2**32),
    strategy=STRATEGIES,
    depth=st.integers(0, 6),
    cap=st.integers(0, 50),
    as_json=st.booleans(),
)
def test_adversary_exit_code_contract_on_random_systems(
    system_seed, term_seed, strategy, depth, cap, as_json
):
    """``adversary`` keeps it too; strategies other than i and li are usage
    errors."""
    argv = [
        "adversary", "--strategy", strategy, "--depth", str(depth), "--memo-cap", str(cap),
    ] + (["--json"] if as_json else [])
    code, out, err = run_on_random_system(system_seed, term_seed, argv)
    assert_contract(argv, code, out, err, "adversary")
    if strategy not in ("i", "li"):
        assert code == 1, argv


def test_ipar_random_runs_on_a_shared_term_finish(capsys):
    """Random ipar runs on s6 reach terms whose trees have hundreds of
    thousands of nodes over a DAG of a few dozen; a step costs the DAG."""
    code, out, _ = run(
        capsys, "simulate", path("s6"), "--term", "g", "--strategy", "ipar",
        "--policy", "random:2", "--mode", "mc", "--samples", "40",
        "--step-cap", "250", "--seed", "2",
    )
    assert code == 0
    assert "termination estimate" in out
