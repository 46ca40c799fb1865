"""Command-line front end.

Exit codes: 0 on success, 1 on usage errors, 2 on parse or validation
diagnostics, 3 when a size cap is exceeded or memory runs out.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import report as reportmod
from .analyzer import (
    AnalysisReport,
    Prop,
    analyze,
    analyze_nonprob,
    parse_prop_token,
)
from .fmt import ParseError, ParsedFile, parse_file, parse_script, parse_term, serialize
from .props import PropertyReport, property_report
from .rewriting import FirstMove, Policy, RandomSeeded, RightmostFirst, Scripted, Strategy
from .semantics import (
    DEFAULT_MEMO_CAP,
    DEFAULT_SUPPORT_CAP,
    CapExceeded,
    SemanticsTrace,
    adversarial_lower_bound,
    mc_estimate,
    unfold_exact,
)
from .spareness import default_basic_starts, falsify_spare, prove_spare
from .system import Ptrs
from .terms import term_to_str
from .transform import union_with_generators

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAP = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


@functools.cache
def _build_argparser() -> _Parser:
    """The parser, built on first use and kept for the process: parsing
    leaves it unchanged (an ``append`` copies its default before appending),
    so repeated ``main()`` calls share it."""
    top = _Parser(prog="pastlift", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="syntactic property report")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--join-depth", type=int, default=10)

    p_an = sub.add_parser("analyze", help="strategy-equivalence theorem report")
    p_an.add_argument("file")
    p_an.add_argument("--scope", choices=["all", "basic"], default="all")
    p_an.add_argument(
        "--assert",
        dest="assertions",
        action="append",
        default=[],
        metavar="PROP",
        help="assume a property holds (e.g. iAST, iAST-par, wAST) and list its consequences",
    )
    p_an.add_argument("--join-depth", type=int, default=10)
    p_an.add_argument("--json", action="store_true")
    p_an.add_argument(
        "--closure",
        action="store_true",
        help="with --json, also list the whole implication closure, not only its routes",
    )

    p_sim = sub.add_parser("simulate", help="exact unfolding or Monte-Carlo sampling")
    p_sim.add_argument("file")
    p_sim.add_argument("--term", required=True)
    p_sim.add_argument(
        "--strategy", choices=[s.value for s in Strategy], default="full"
    )
    p_sim.add_argument("--policy", default="first", metavar="first|rightmost|random:SEED|script:FILE")
    p_sim.add_argument("--depth", type=int, default=10)
    p_sim.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_sim.add_argument("--samples", type=int, default=1000)
    p_sim.add_argument("--step-cap", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--support-cap", type=int, default=DEFAULT_SUPPORT_CAP)
    p_sim.add_argument("--coalesce", action="store_true")
    p_sim.add_argument("--json", action="store_true")

    p_adv = sub.add_parser(
        "adversary", help="worst-case bounded termination probability"
    )
    p_adv.add_argument("file")
    p_adv.add_argument("--term", required=True)
    p_adv.add_argument("--strategy", choices=[s.value for s in Strategy if not s.simultaneous], default="i")
    p_adv.add_argument("--depth", type=int, default=20)
    p_adv.add_argument("--memo-cap", type=int, default=DEFAULT_MEMO_CAP)
    p_adv.add_argument("--json", action="store_true")

    p_sp = sub.add_parser("spare", help="spareness verdict and falsifier")
    p_sp.add_argument("file")
    p_sp.add_argument("--falsify", action="store_true")
    p_sp.add_argument("--depth", type=int, default=6)
    p_sp.add_argument("--arg-depth", type=int, default=3)
    p_sp.add_argument("--json", action="store_true")

    p_tr = sub.add_parser("transform", help="emit the generator-extended system")
    p_tr.add_argument("file")
    p_tr.add_argument("--generators", action="store_true")
    p_tr.add_argument("-o", "--output", default=None)
    return top


def _load(path: str) -> ParsedFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_file(fh.read())


def _make_policy(spec: str, system: Ptrs) -> Policy:
    if spec == "first":
        return FirstMove()
    if spec == "rightmost":
        return RightmostFirst()
    if spec.startswith("random:"):
        try:
            return RandomSeeded(int(spec.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"policy {spec!r} needs an integer seed") from None
    if spec.startswith("script:"):
        path = spec.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            return Scripted(parse_script(fh.read(), system))
    raise UsageError(f"unknown policy {spec!r}")


def _emit(doc: dict) -> None:
    print(reportmod.to_json(doc))


def _print_properties(report: PropertyReport, system: Ptrs) -> None:
    flags = [
        ("left-linear", report.left_linear),
        ("right-linear", report.right_linear),
        ("non-erasing", report.non_erasing),
        ("non-duplicating", report.non_duplicating),
        ("non-overlapping", report.non_overlapping),
        ("overlay", report.overlay),
        ("orthogonal", report.orthogonal),
    ]
    for name, value in flags:
        print(f"  {name}: {'yes' if value else 'no'}")
    print(f"  locally-confluent (bounded): {report.wcr.value}")
    if report.overlaps:
        print("  overlaps:")
        for o in report.overlaps:
            print(f"    {o.describe(system)}")


def _print_analysis(r: AnalysisReport) -> None:
    title = "probabilistic criteria" if r.kind == "prob" else "non-probabilistic criteria"
    print(f"[{title}, scope: {r.scope}]")
    if r.spare is not None and r.kind == "prob":
        print(f"  spare: {r.spare.value}")
        if r.spare_evidence:
            for line in r.spare_evidence.splitlines():
                print(f"    {line}")
    for v in r.verdicts:
        print(f"  {v.describe()}")
    routes = r.routes
    if routes:
        print("  routes to full termination:")
        for c in routes:
            chain = ", ".join(c.chain)
            print(f"    {c.source.display()} ⇒ {c.target.display()}  [{chain}]")
    if r.assertions:
        print("  asserted: " + ", ".join(p.display() for p in r.assertions))
        for c in r.conclusions:
            chain = ", ".join(c.chain)
            print(f"    asserted {c.source.display()} yields {c.target.display()}  [{chain}]")
    for note in r.notes:
        print(f"  note: {note}")


def _cmd_check(args) -> int:
    loaded = _load(args.file)
    rep = property_report(loaded.system, args.join_depth)
    if args.json:
        _emit(reportmod.check_doc(loaded.system, rep))
        return EXIT_OK
    print(f"{args.file}: {len(loaded.system.rules)} rules, "
          f"{'trivial probabilities' if loaded.system.is_trivial else 'probabilistic'}")
    _print_properties(rep, loaded.system)
    return EXIT_OK


def _split_assertions(tokens: Sequence[str]) -> tuple[list[Prop], list[Prop]]:
    prob, nonprob = [], []
    for token in tokens:
        prop = parse_prop_token(token)
        (nonprob if prop.notion == "SN" else prob).append(prop)
    return prob, nonprob


def _cmd_analyze(args) -> int:
    if args.closure and not args.json:
        raise UsageError("--closure requires --json")
    loaded = _load(args.file)
    prob_assert, nonprob_assert = _split_assertions(args.assertions)
    reports = []
    if loaded.system.is_trivial:
        reports.append(
            analyze_nonprob(loaded.system, nonprob_assert, join_depth=args.join_depth)
        )
    elif nonprob_assert:
        raise UsageError("SN/WN assertions require a trivial-probability system")
    reports.append(analyze(loaded.system, args.scope, prob_assert, join_depth=args.join_depth))
    if args.json:
        _emit(reportmod.analysis_doc(loaded.system, reports, args.scope, args.closure))
        return EXIT_OK
    for r in reports:
        _print_analysis(r)
    return EXIT_OK


def _print_steps(trace: SemanticsTrace) -> None:
    for n, (mu, mass) in enumerate(zip(trace.states, trace.nf_masses)):
        print(f"step {n}: support {len(mu)}, nf_mass {mass}")


def _cmd_simulate(args) -> int:
    loaded = _load(args.file)
    system = loaded.system
    term = parse_term(args.term, system, sorted(loaded.var_names))
    strategy = Strategy(args.strategy)
    policy = _make_policy(args.policy, system)
    if args.mode == "exact":
        try:
            trace = unfold_exact(
                system,
                term,
                strategy,
                policy,
                args.depth,
                support_cap=args.support_cap,
                coalesce_states=args.coalesce,
            )
        except CapExceeded as exc:
            # the states finished before the cap; main still exits 3
            if args.json:
                _emit(reportmod.exact_trace_doc(system, exc.partial, partial=True))
            else:
                _print_steps(exc.partial)
            raise
        if args.json:
            _emit(reportmod.exact_trace_doc(system, trace))
            return EXIT_OK
        _print_steps(trace)
        print(f"convergence probability in [{trace.lower_bound}, 1]")
        print(f"partial edl after {trace.depth} steps: {trace.partial_edl} "
              f"(~{float(trace.partial_edl):.6g})")
        final = trace.states[-1]
        if reportmod.renders_state(final):
            print("final state:")
            for p, t in final.entries:
                print(f"  {p}: {term_to_str(t)}")
        return EXIT_OK
    summary = mc_estimate(
        system,
        term,
        strategy,
        policy,
        samples=args.samples,
        step_cap=args.step_cap,
        seed=args.seed,
    )
    if args.json:
        _emit(reportmod.mc_doc(summary, term, strategy, policy.name))
        return EXIT_OK
    print(f"samples: {summary.samples}, step cap: {summary.step_cap}, seed: {summary.seed}")
    print(f"termination estimate: {summary.estimate:.4f}")
    print(f"censored fraction: {summary.censored_fraction:.4f}")
    mean = summary.mean_steps_of_terminated
    print(f"mean steps of terminated runs: {'-' if mean is None else f'{mean:.2f}'}")
    return EXIT_OK


def _cmd_adversary(args) -> int:
    loaded = _load(args.file)
    term = parse_term(args.term, loaded.system, sorted(loaded.var_names))
    strategy = Strategy(args.strategy)
    bound = adversarial_lower_bound(
        loaded.system, term, strategy, args.depth, memo_cap=args.memo_cap
    )
    if args.json:
        _emit(reportmod.adversary_doc(term, strategy, args.depth, bound))
        return EXIT_OK
    print(
        f"worst-case probability of reaching a normal form within {args.depth} "
        f"steps: {bound} (~{float(bound):.6g})"
    )
    return EXIT_OK


def _cmd_spare(args) -> int:
    loaded = _load(args.file)
    verdict = prove_spare(loaded.system)
    cex = None
    if args.falsify:
        starts = default_basic_starts(loaded.system, args.arg_depth)
        cex = falsify_spare(loaded.system, args.depth, starts)
    if args.json:
        _emit(
            reportmod.spare_doc(verdict, cex, args.falsify, args.depth, args.arg_depth)
        )
        return EXIT_OK
    print(f"spareness: {verdict.value}")
    if args.falsify:
        if cex is None:
            print(
                f"falsifier: no non-spare step up to depth {args.depth} from basic "
                f"starts of argument depth <= {args.arg_depth}"
            )
        else:
            print("falsifier: found a reachable non-spare step")
            print(cex.describe())
    return EXIT_OK


def _cmd_transform(args) -> int:
    if not args.generators:
        raise UsageError("transform requires --generators")
    loaded = _load(args.file)
    text = serialize(union_with_generators(loaded.system))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "adversary": _cmd_adversary,
    "spare": _cmd_spare,
    "transform": _cmd_transform,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        for diag in exc.diagnostics:
            print(str(diag), file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("cap exceeded: out of memory", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
