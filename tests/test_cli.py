import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DEFAULT_SYMBOLS, SYSTEMS_DIR, load_system, random_system, random_term
from pastlift import analyzer, props, report as reportmod
from pastlift.analyzer import parse_prop_token
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


def test_analyze_repeats_conclusions_of_a_repeated_assertion(capsys):
    """An atom asserted twice yields each conclusion twice, side by side; an
    asserted atom that no arrow mentions (basic scope under ``--scope all``)
    yields none, in the text and in the JSON."""
    once = ["analyze", path("srw"), "--assert", "iAST"]
    twice = once + ["--assert", "fAST@basic", "--assert", "iAST"]
    lines = {}
    for argv in (once, twice):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines[len(argv)] = [line for line in out.splitlines() if "yields" in line]
    assert lines[len(once)] and lines[len(twice)] == [
        line for line in lines[len(once)] for _ in range(2)
    ]
    single, double = (
        run_json(capsys, *argv, "--json")["sections"][0]["conclusions"] for argv in (once, twice)
    )
    assert double == [arrow for arrow in single for _ in range(2)]
    assert not any(arrow["from"] == "fAST@basic" for arrow in double)


CORPUS_FILES = sorted(SYSTEMS_DIR.glob("*.ptrs"))
ANALYZE_VARIANTS = [
    (scope, asserted) for scope in ("all", "basic") for asserted in ((), ("--assert", "iAST"))
]


def analyze_argv(file, scope, asserted):
    return ["analyze", str(file), "--scope", scope, *asserted]


def recorded_analysis(monkeypatch, argv):
    """The document ``main(argv)`` prints, and the analysis reports it was
    written from."""
    reports = []
    written = reportmod.analysis_doc

    def recording(system, rs, scope, closure=False):
        reports.extend(rs)
        return written(system, rs, scope, closure)

    monkeypatch.setattr(reportmod, "analysis_doc", recording)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    monkeypatch.setattr(reportmod, "analysis_doc", written)
    doc = json.loads(out.getvalue())
    jsonschema.validate(doc, SCHEMA)
    return doc, reports


def is_full(token):
    prop = parse_prop_token(token)
    return prop.strategy == "f" and not prop.par


def arrow_triples(arrows):
    return [(c.source.token(), c.target.token(), list(c.chain)) for c in arrows]


def test_analyze_closure_decodes_to_the_report_closure(monkeypatch):
    # on every corpus file, under both scopes, with and without an assertion
    for file in CORPUS_FILES:
        for scope, asserted in ANALYZE_VARIANTS:
            argv = analyze_argv(file, scope, asserted) + ["--json"]
            doc, reports = recorded_analysis(monkeypatch, argv + ["--closure"])
            assert len(doc["sections"]) == len(reports)
            for section, r in zip(doc["sections"], reports):
                atoms = section["closure"]["atoms"]
                assert len(set(atoms)) == len(atoms)
                decoded = [(atoms[s], atoms[t], chain)
                           for s, t, chain in section["closure"]["arrows"]]
                assert decoded == arrow_triples(r.closure), (argv, r.kind)
                # the routes are the closure's arrows into full termination
                # from any other atom, in closure order
                assert [(a["from"], a["to"], a["chain"]) for a in section["routes"]] == [
                    arrow for arrow in decoded if is_full(arrow[1]) and not is_full(arrow[0])
                ]
            # the flag adds the closure and changes nothing else
            plain, _ = recorded_analysis(monkeypatch, argv)
            for section in doc["sections"]:
                del section["closure"]
            assert plain == doc, argv


def test_default_analyze_builds_no_whole_closure(monkeypatch):
    """Text and --json ask the closure search only for routes and
    conclusions; --closure asks it for every pair once per section."""
    wanted = []
    search = analyzer._closure

    def recording(arrows, selection=analyzer.EVERY):
        wanted.append(selection)
        return search(arrows, selection)

    monkeypatch.setattr(analyzer, "_closure", recording)
    for file in CORPUS_FILES:
        for scope, asserted in ANALYZE_VARIANTS:
            argv = analyze_argv(file, scope, asserted)
            for extra in ([], ["--json"], ["--json", "--closure"]):
                wanted.clear()
                out = io.StringIO()
                with redirect_stdout(out):
                    assert main(argv + extra) == 0, argv + extra
                whole = sum(w == analyzer.EVERY for w in wanted)
                if "--closure" in extra:
                    sections = len(json.loads(out.getvalue())["sections"])
                    assert whole == sections, argv
                else:
                    assert whole == 0 and wanted, argv + extra


def test_analyze_engines_share_one_property_report(monkeypatch):
    """On a trivial-probability system the nonprob and prob engines share
    one property report, so one bounded local-confluence check, and one
    spareness verdict."""
    calls = Counter()
    for module, name in ((props, "bounded_wcr"), (analyzer, "property_report"),
                         (analyzer, "prove_spare")):
        def counted(*args, original=getattr(module, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    trivial = 0
    for file in CORPUS_FILES:
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["analyze", str(file), "--scope", "basic"]) == 0
        is_trivial = load_system(file.stem).is_trivial
        assert calls == Counter(property_report=1, prove_spare=1, bounded_wcr=int(is_trivial)), file
        trivial += is_trivial
    assert trivial >= 3


def test_analyze_json_routes_are_the_text_routes(capsys):
    def text_routes(out):
        sections, lines = [], None
        for line in out.splitlines():
            if line.startswith("["):
                sections.append([])
            elif line == "  routes to full termination:":
                lines = sections[-1]
            elif lines is not None and line.startswith("    ") and " ⇒ " in line:
                lines.append(line)
            else:
                lines = None
        return sections

    def shown(token):
        return parse_prop_token(token).display()

    routed = 0
    for file in CORPUS_FILES:
        for scope, asserted in ANALYZE_VARIANTS:
            argv = analyze_argv(file, scope, asserted)
            code, out, _ = run(capsys, *argv)
            assert code == 0
            doc = run_json(capsys, *argv, "--json")
            from_json = [
                [f"    {shown(a['from'])} ⇒ {shown(a['to'])}  [{', '.join(a['chain'])}]"
                 for a in section["routes"]]
                for section in doc["sections"]
            ]
            assert from_json == text_routes(out), argv
            routed += sum(map(len, from_json))
    assert routed > 100


def test_analyze_closure_needs_json(capsys):
    code, out, err = run(capsys, "analyze", path("srw"), "--closure")
    assert code == 1 and out == ""
    assert "--closure requires --json" in err


def test_schema_rejects_format_1_and_sections_without_routes(capsys):
    doc = run_json(capsys, "analyze", path("srw"), "--json")
    old = dict(doc, format="past-lift/1")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(old, SCHEMA)
    for section in doc["sections"]:
        section["closure"] = section.pop("routes")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


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
    lo, hi = doc["estimate_interval"]
    assert 0.9 < lo < 1.0 and hi == 1.0


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
    # s1, on which Thm 6 is blocked: full rewriting's worst case is below i's
    for strategy, bound in (("full", "19/64"), ("i", "7/16")):
        doc = run_json(
            capsys,
            "adversary", path("s1"), "--term", "g", "--strategy", strategy,
            "--depth", "4", "--json",
        )
        assert doc["strategy"] == strategy and doc["lower_bound"] == bound


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


def run_module(*argv, preexec_fn=None):
    """``python -m pastlift`` from this checkout, in its own process, which
    calls ``preexec_fn`` first when one is given."""
    src = str(SYSTEMS_DIR.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pastlift", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=preexec_fn,
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


def test_running_out_of_memory_exits_like_a_cap_hit():
    """An exact unfolding whose support outgrows the child's 96 MiB of
    address space, under a support cap it never reaches, exits 3 with one
    stderr line and no traceback. The limit is set in the child alone."""
    resource = pytest.importorskip("resource")
    limit = 96 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = run_module(
        "simulate", path("srw"), "--term", "g", "--depth", "40",
        "--support-cap", "100000000", preexec_fn=cap_address_space,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "cap exceeded: out of memory\n"
    )


def test_main_reuses_its_parser_without_carrying_state(capsys):
    # one process builds the parser once; each command must print what it
    # prints in a process of its own, an --assert list must not leak into
    # the next analyze, and a usage error must not spoil the parser
    commands = [
        ("analyze", path("srw"), "--assert", "iAST"),
        ("analyze", path("srw")),
        ("simulate", path("srw"), "--depth", "3"),
        ("simulate", path("srw"), "--term", "g", "--depth", "3", "--json"),
    ]
    in_process = [run(capsys, *argv) for argv in commands]
    for argv, got in zip(commands, in_process):
        proc = run_module(*argv)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    codes = [code for code, _, _ in in_process]
    assert codes == [0, 0, 1, 0]
    assert "asserted iAST yields fAST" in in_process[0][1]
    assert "asserted" not in in_process[1][1]


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


def test_cap_hit_prints_a_partial_document(capsys):
    # srw from g under full/first: supports 1, 2, 3, 5, 8, then 13 > 10
    code, out, err = run(
        capsys,
        "simulate", path("srw"), "--term", "g", "--depth", "60",
        "--support-cap", "10", "--json",
    )
    assert code == 3
    assert err == "cap exceeded: distribution support exceeded 10 entries\n"
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["partial"] is True
    assert doc["depth"] == 4 and doc["support_sizes"] == [1, 2, 3, 5, 8]
    whole = run_json(capsys, "simulate", path("srw"), "--term", "g", "--depth", "4", "--json")
    assert "partial" not in whole
    assert dict(doc, partial=None) == dict(whole, partial=None)
    # the text report prints the step lines of the same finished states,
    # as the whole run to depth 4 prints them, and nothing after them
    code, out, err = run(
        capsys, "simulate", path("srw"), "--term", "g", "--depth", "60", "--support-cap", "10"
    )
    assert code == 3
    assert err == "cap exceeded: distribution support exceeded 10 entries\n"
    code, whole, _ = run(capsys, "simulate", path("srw"), "--term", "g", "--depth", "4")
    assert code == 0
    steps = [line for line in whole.splitlines(keepends=True) if line.startswith("step ")]
    assert out == "".join(steps) and out.endswith("step 4: support 8, nf_mass 5/8\n")
    # a cap of 0 stops before the first step: only the start's line is printed
    code, out, _ = run(
        capsys, "simulate", path("srw"), "--term", "g", "--depth", "3", "--support-cap", "0"
    )
    assert code == 3 and out == "step 0: support 1, nf_mass 0\n"


def test_text_cap_hit_prints_the_finished_steps(capsys):
    # srw's supports under full/first reach 79 at step 8 and pass 100 at step 9
    argv = ("simulate", path("srw"), "--term", "g", "--depth", "30", "--support-cap", "100")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == "cap exceeded: distribution support exceeded 100 entries\n"
    code, printed, _ = run(capsys, *argv, "--json")
    doc = json.loads(printed)
    assert code == 3 and doc["partial"] is True and doc["depth"] == 8
    assert doc["support_sizes"] == [1, 2, 3, 5, 8, 14, 24, 44, 79]
    assert out.splitlines() == [
        f"step {n}: support {size}, nf_mass {mass}"
        for n, (size, mass) in enumerate(zip(doc["support_sizes"], doc["nf_mass"]))
    ]


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
    """``main`` on ``argv`` with the file of a serialised random system and,
    unless ``term_seed`` is None, a start term appended after the subcommand:
    (exit code, stdout, stderr)."""
    system = random_system(random.Random(system_seed))
    term = []
    if term_seed is not None:
        # terms over the system's own signature; without a constant there,
        # over symbols it may not know, which the parser rejects (exit 2)
        symbols = tuple(system.signature.values())
        if not any(sym.arity == 0 for sym in symbols):
            symbols = DEFAULT_SYMBOLS
        start = random_term(random.Random(term_seed), 4, vars_=(), symbols=symbols)
        term = ["--term", term_to_str(start)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "random.ptrs"
        file.write_text(serialize(system))
        with redirect_stdout(out), redirect_stderr(err):
            code = main([argv[0], str(file), *term, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, out, err, kind):
    """Exit 0-3, no traceback, and a schema-valid document on a JSON success."""
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    if code == 0 and "--json" in argv:
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["kind"] == kind
    elif code == 3 and "--json" in argv and kind == "simulate-exact":
        # a support-cap hit still prints the states finished before it
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["kind"] == kind and doc["partial"] is True
        assert doc["depth"] < int(argv[argv.index("--depth") + 1])
    elif code == 3 and kind == "simulate-exact":
        # and the text report prints their step lines, and nothing else
        lines = out.splitlines()
        assert 0 < len(lines) <= int(argv[argv.index("--depth") + 1]), argv
        assert all(line.startswith(f"step {n}: support ") for n, line in enumerate(lines)), argv
    elif code != 0:
        assert out == "", argv


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
    """``adversary`` keeps it too; par and ipar, and only they, are usage
    errors."""
    argv = [
        "adversary", "--strategy", strategy, "--depth", str(depth), "--memo-cap", str(cap),
    ] + (["--json"] if as_json else [])
    code, out, err = run_on_random_system(system_seed, term_seed, argv)
    assert_contract(argv, code, out, err, "adversary")
    assert (code == 1) == (strategy in ("par", "ipar")), argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    system_seed=st.integers(0, 2**32),
    command=st.sampled_from([
        ["check"],
        ["analyze", "--scope", "all"],
        ["analyze", "--scope", "basic"],
        ["spare", "--falsify"],
        ["transform", "--generators"],
    ]),
    join_depth=st.integers(0, 10),
    depth=st.integers(0, 6),
    arg_depth=st.integers(0, 3),
    as_json=st.booleans(),
)
def test_static_exit_code_contract_on_random_systems(
    system_seed, command, join_depth, depth, arg_depth, as_json
):
    """``check``, ``analyze``, ``spare --falsify`` and ``transform
    --generators`` keep the contract too; ``transform`` prints a system, not
    a document."""
    kind = command[0]
    argv = list(command)
    if kind in ("check", "analyze"):
        argv += ["--join-depth", str(join_depth)]
    if kind == "spare":
        argv += ["--depth", str(depth), "--arg-depth", str(arg_depth)]
    if as_json and kind != "transform":
        argv.append("--json")
    code, out, err = run_on_random_system(system_seed, None, argv)
    assert_contract(argv, code, out, err, kind)


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
