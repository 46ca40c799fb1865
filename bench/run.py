#!/usr/bin/env python3
"""pastlift benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload exact|mc|static --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program under test is ``src/pastlift``
and the inputs are the bundled ``systems/``. The run is a closed loop with one
client and no threads: it issues every command of the workload's seeded
sequence in-process through ``pastlift.cli.main(argv)`` and times each call.
It repeats the whole sequence, pass after pass, for ``--seconds`` (at least
``MIN_PASSES`` passes), trimming the intern pool back between passes so that
every pass starts from the same state, and takes each command's time as its
fastest pass. Between passes it times a fixed piece of reference work that
runs no pastlift code, and scales every reported time to the host speed at
which that work takes ``HOST_SECONDS``, so that the load other tenants put
on a shared host moves the figures less. After the passes it checks the
first pass's outputs against the schema and the oracles in ``oracles.py``,
and every later pass's outputs against the first's.

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
first runs one pass of the same seed untraced in a child process, then one
pass with the layer wrappers of ``layertrace.py`` installed, prints the
per-layer metrics with the tracing overhead, and fails unless both runs
produced the same outputs and the same work counts. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import layertrace
import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_REPEATS = 15
# The reference work (see reference_work) and its time on the machine named
# in README.md at its fastest. Reported times are scaled by
# HOST_SECONDS / Passes.host_seconds() of the run.
SMALL, SMALL_REPEATS = 3_500, 200
LARGE, LARGE_REPEATS = 40_000, 20
HOST_SECONDS = 0.09
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
DETAIL_PREFIX = "detail "


@dataclass
class Outcome:
    command: workloads.Command
    seconds: float
    code: Any  # exit code, or the name of the exception that escaped main
    stdout: str
    stderr: str
    doc: Optional[dict] = None
    problem: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.problem is None


def run_sequence(cmds, tracer: Optional[layertrace.Tracer], first: int) -> list[Outcome]:
    """Run the commands in order; ``first`` numbers the first one in the trace."""
    from pastlift.cli import main

    outcomes = []
    for index, cmd in enumerate(cmds, start=first):
        out, err = io.StringIO(), io.StringIO()

        def call(argv=cmd.argv):
            try:
                return main(list(argv))
            except Exception as exc:  # a crash is a result to report, not to stop on
                print(f"{type(exc).__name__}: {exc}"[:300], file=sys.stderr)
                return type(exc).__name__

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = call() if tracer is None else tracer.run_command(index, call)
            seconds = perf_counter() - start
        outcomes.append(Outcome(cmd, seconds, code, out.getvalue(), err.getvalue()))
        # A CLI command normally starts with an empty heap. Collecting and then
        # freezing what is left keeps the collector from rescanning earlier
        # commands' objects, so a command's cost does not depend on its place
        # in the sequence.
        gc.collect()
        gc.freeze()
    return outcomes


def check(outcome: Outcome, validator: oracles.Validator) -> Optional[str]:
    if outcome.code != 0:
        return f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"
    cmd = outcome.command
    if cmd.kind == "transform":
        return check_transform(outcome.stdout, cmd.system)
    try:
        doc = outcome.doc = json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    problem = validator.problem(doc)
    for extra in cmd.checks:
        problem = problem or extra(doc)
    return problem


def check_transform(text: str, path: str) -> Optional[str]:
    from pastlift.fmt import ParseError, parse, parse_file

    original = parse_file((ROOT / path).read_text(encoding="utf-8")).system
    try:
        extended = parse(text)
    except ParseError as exc:
        return f"emitted system does not parse: {exc}"
    # one enc rule per symbol, one argenc rule per defined symbol and per constructor
    expected = len(original.rules) + 2 * len(original.signature)
    if len(extended.rules) != expected:
        return f"emitted {len(extended.rules)} rules, expected {expected}"
    return None


def starts_expected(cmd: workloads.Command) -> int:
    """Closed-form count of the basic starts ``spare --falsify`` enumerates."""
    from pastlift.fmt import parse_file

    system = parse_file((ROOT / cmd.system).read_text(encoding="utf-8")).system
    by_arity: dict[int, int] = {}
    for sym in system.constructor_symbols:
        by_arity[sym.arity] = by_arity.get(sym.arity, 0) + 1
    return oracles.basic_start_count(by_arity, [s.arity for s in system.defined_symbols],
                                     arg_depth=cmd.arg_depth)


def measure_setup(systems: list[str]) -> float:
    """Fresh interpreter until pastlift is imported and the systems parsed."""
    code = ("import sys; sys.path.insert(0, 'src'); import pastlift.cli; "
            "from pastlift.fmt import parse_file\n"
            f"for p in {systems!r}: parse_file(open(p, encoding='utf-8').read())")
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - start


class _Node:
    __slots__ = ("head", "args", "hash")

    def __init__(self, head: str, args: tuple) -> None:
        self.head, self.args, self.hash = head, args, hash((head, args))


def reference_work(size: int) -> int:
    """A fixed piece of pure-Python work of the kinds pastlift's inner loops
    do: interning ``size`` nodes under tuple keys in a dict, each built on
    earlier nodes picked all over the pool, then a sum of Fractions. It runs
    no pastlift code, so no change to the program can move its time; only
    the speed the host gives the process does."""
    pool: dict[tuple, _Node] = {}
    nodes = [_Node("0", ())]
    for i in range(size):
        a, b = nodes[(i * 7919) % len(nodes)], nodes[(i * 104729) % len(nodes)]
        key = ("g" if i % 3 else "c", (a, b) if i % 2 else (a,))
        got = pool.get(key)
        if got is None:
            got = pool[key] = _Node(*key)
        nodes.append(got)
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, 2 ** (i % 30) + i)
    return len(pool) + total.denominator.bit_length()


def reference_time(size: int) -> float:
    start = perf_counter()
    reference_work(size)
    return perf_counter() - start


def trim_pool(size: Optional[int]) -> None:
    """Drop the terms interned since the pool held ``size`` entries.

    The pool is an insertion-ordered dict that the program only appends to,
    so popping the newest entries restores it exactly. Nothing outlives a
    command that holds one of the dropped terms. A pool of another kind (a
    weak one lets go of a command's terms by itself) is left alone."""
    from pastlift import terms

    pool = getattr(terms, "_APP_POOL", None)
    if size is None or type(pool) is not dict:
        return
    while len(pool) > size:
        pool.popitem()


@dataclass
class Passes:
    first: list[Outcome]  # the first pass in full
    best: list[float]  # each command's fastest time over all passes
    walls: list[float]  # each pass's total time
    differs: set[int]  # commands whose output changed in a later pass
    pool_inserts: Optional[int]  # pool growth over the first pass
    peak_rss_mb: float  # the process's peak at the end of the first pass
    setup: list[float]
    small: list[float]  # times of reference_work(SMALL), between passes
    large: list[float]  # times of reference_work(LARGE), between passes

    def host_seconds(self) -> float:
        """The reference unit at the speed the host gave this run: ten small
        pools (they fit in the processor's caches) and one large pool (it
        does not), each at its fastest. In ten trial runs of each workload on
        a shared host, the times scaled by the sum spread less than those
        scaled by either part alone."""
        return 10 * min(self.small) + min(self.large)


def run_passes(timed, systems: list[str], seconds: float,
               passes_wanted: Optional[int]) -> Passes:
    """Run the timed commands pass after pass from the same pool state.

    Only the first pass's outcomes are kept; later passes leave their times
    and whether their outputs matched, so memory does not grow with the
    number of passes. The set-up times and the reference work are sampled
    between passes, each at a steady rate over the whole run, so that they
    see the same moments of the host's load as the commands."""
    result = Passes([], [], [], set(), None, 0.0, [], [], [])
    samplers = [(result.setup, SETUP_REPEATS, lambda: measure_setup(systems)),
                (result.small, SMALL_REPEATS, lambda: reference_time(SMALL)),
                (result.large, LARGE_REPEATS, lambda: reference_time(LARGE))]
    start = perf_counter()
    while True:
        mark = pool_size()
        outcomes = run_sequence(timed, None, 0)
        if not result.first:
            result.first = outcomes
            result.best = [o.seconds for o in outcomes]
            result.pool_inserts = None if mark is None else pool_size() - mark
            # before any reference work, whose pools are larger than some passes'
            result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for i, (o, again) in enumerate(zip(result.first, outcomes)):
            result.best[i] = min(result.best[i], again.seconds)
            if (again.code, again.stdout) != (o.code, o.stdout):
                result.differs.add(i)
        result.walls.append(sum(o.seconds for o in outcomes))
        del outcomes
        elapsed = perf_counter() - start
        done_passes = len(result.walls)
        if passes_wanted is not None:
            done = done_passes >= passes_wanted
        else:  # stop unless another pass of the mean length still fits
            done = (done_passes >= MIN_PASSES
                    and elapsed * (done_passes + 1) / done_passes > seconds)
        if done:
            break
        for samples, target, take in samplers:
            while len(samples) < target * elapsed / seconds:
                samples.append(take())
        trim_pool(mark)
    for samples, target, take in samplers:
        while len(samples) < target:
            samples.append(take())
    return result


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. With a few dozen commands of mixed cost it is much
    steadier than any single order statistic."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    steps = 64 * n  # midpoint rule for the Beta(a, b) mass of each [(i-1)/n, i/n]
    for k in range(steps):
        x = (k + 0.5) / steps
        density = math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights[k * n // steps] += density / steps
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def tail(values: list[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it
    (nearest rank), falling back to the median below twenty samples."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p, quantile(values, p / 100)
    return 50, quantile(values, 0.5)


def work_counts(outcomes: list[Outcome]) -> dict[str, int]:
    entries = steps = 0
    for o in outcomes:
        if not o.ok or o.doc is None or o.command.probe:
            continue
        if o.command.kind == "exact":
            entries += sum(o.doc["support_sizes"][:-1])
        elif o.command.kind.startswith("mc"):
            steps += mc_steps(o.doc)
    return {"exact_entries": entries, "mc_steps": steps}


def mc_steps(doc: dict) -> int:
    done = doc["terminated"]
    mean = doc["mean_steps_of_terminated"] or 0
    return round(done * mean) + (doc["samples"] - done) * doc["step_cap"]


def digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps([o.command.argv, str(o.code), o.stdout]).encode())
    return h.hexdigest()


def pool_size() -> Optional[int]:
    from pastlift import terms

    pool = getattr(terms, "_APP_POOL", None)
    return None if pool is None else len(pool)


def end_to_end(workload: str, timed: list[Outcome], probes: list[Outcome],
               passes: Passes) -> dict:
    """``timed`` holds the first pass's checked outcomes, each carrying the
    command's fastest time over all passes. Times are scaled to the host
    speed at which the reference work takes HOST_SECONDS."""
    scale = HOST_SECONDS / passes.host_seconds()
    everything = timed + probes
    good = [o for o in timed if o.ok]
    if workload == "exact":
        useful = [o for o in good if o.command.kind == "exact"]
        work = work_counts(useful)["exact_entries"]
    elif workload == "mc":
        useful = [o for o in good if o.command.kind.startswith("mc")]
        work = work_counts(useful)["mc_steps"]
    else:
        useful = good
        work = len(useful)
    best = [scale * o.seconds for o in good]
    pct, tail_s = tail(best)
    wall = sum(o.seconds for o in timed)
    return {
        "setup_s": (statistics.median(passes.setup), "s",
                    f"median of {len(passes.setup)}, not scaled"),
        "wall_s": (scale * wall, "s", f"{len(timed)} commands, each at its fastest of "
                   f"{len(passes.walls)} passes; {wall:.4g} s before scaling"),
        "cmd_p50_ms": (1e3 * quantile(best, 0.5), "ms", f"n={len(best)}"),
        "cmd_tail_ms": (1e3 * tail_s, "ms", f"p{pct:g} of n={len(best)}"),
        "peak_rss_mb": (passes.peak_rss_mb, "MB", "at the end of the first pass"),
        "ok_ops_pct": (100 * sum(o.ok for o in everything) / len(everything), "%",
                       f"{sum(not o.ok for o in everything)} of {len(everything)} "
                       f"failed, {len(probes)} are depth probes"),
        "work_per_s": (work / (scale * sum(o.seconds for o in useful)), "1/s",
                       {"exact": "distribution entries", "mc": "sampled steps",
                        "static": "commands"}[workload] + " per second of command time"),
    }


def per_layer(tracer: layertrace.Tracer, outcomes: list[Outcome], pool_inserts: Optional[int],
              traced_wall: float, untraced_wall: float) -> dict:
    stats = tracer.stats
    m: dict[str, tuple[float, str]] = {}

    def have(*names):
        return all(n in stats for n in names)

    def sec(*names):
        return sum(stats[n].seconds for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    docs = [o for o in outcomes if o.ok and o.doc is not None and not o.command.probe]
    if have("fmt.parse_file", "fmt.parse_term"):
        m["fmt.parse_s"] = (sec("fmt.parse_file", "fmt.parse_term"), "s")
    if pool_inserts is not None:
        m["terms.pool_inserts"] = (pool_inserts, "count")
        if have("terms.app"):
            m["terms.intern_hit_ratio"] = (1 - ratio(pool_inserts, stats["terms.app"].calls),
                                           "ratio")
    if have("terms.replace_at"):
        s = stats["terms.replace_at"]
        m["terms.replace_at_calls"] = (s.calls, "count")
        m["terms.replace_at_s"] = (s.seconds, "s")
        if s.amount is not None:
            m["terms.spine_len_mean"] = (ratio(s.amount, s.calls), "count")
    if have("terms.unify"):
        m["terms.unify_s"] = (sec("terms.unify"), "s")
    if have("system.Ptrs.is_normal_form"):
        s = stats["system.Ptrs.is_normal_form"]
        m["system.nf_calls"] = (s.calls, "count")
        m["system.nf_hit_ratio"] = (ratio(s.hits, s.calls), "ratio")
    if have("system.MultiDistribution.__init__"):
        s = stats["system.MultiDistribution.__init__"]
        m["system.dist_builds"] = (s.calls, "count")
        # self time: the entries argument is often a generator that runs the
        # rewrite steps inside the constructor
        m["system.dist_s"] = (s.self_seconds, "s")
    if have("system.Ptrs.is_basic"):
        m["system.is_basic_calls"] = (stats["system.Ptrs.is_basic"].calls, "count")
        m["system.is_basic_s"] = (sec("system.Ptrs.is_basic"), "s")
    bits = [max(q.numerator.bit_length(), q.denominator.bit_length())
            for o in docs for q in oracles.rationals(o.doc)]
    m["system.rational_bits_max"] = (max(bits, default=0), "bits")
    if have("rewriting.lift_step"):
        m["rewriting.lift_step_s"] = (sec("rewriting.lift_step"), "s")
    if have("rewriting.entry_step"):
        m["rewriting.entry_step_calls"] = (stats["rewriting.entry_step"].calls, "count")
        m["rewriting.entry_step_s"] = (sec("rewriting.entry_step"), "s")
    enum = ("rewriting.redexes", "rewriting.innermost_redexes", "rewriting.first_move_redex")
    if have(*enum):
        m["rewriting.redex_enum_calls"] = (sum(stats[n].calls for n in enum), "count")
        if all(stats[n].amount is not None for n in enum):
            m["rewriting.redexes_found"] = (sum(stats[n].amount for n in enum), "count")
        m["rewriting.redex_enum_s"] = (sec(*enum), "s")
    if have("rewriting.simultaneous_groups"):
        m["rewriting.sim_groups_s"] = (sec("rewriting.simultaneous_groups"), "s")
    if have("semantics.unfold_exact"):
        m["semantics.unfold_s"] = (sec("semantics.unfold_exact"), "s")
    sizes = [n for o in docs if o.command.kind == "exact" for n in o.doc["support_sizes"]]
    m["semantics.support_max"] = (max(sizes, default=0), "count")
    if have("semantics.adversarial_lower_bound"):
        m["semantics.adversary_s"] = (sec("semantics.adversarial_lower_bound"), "s")
    generic = [(i, o) for i, o in enumerate(outcomes)
               if o.ok and o.command.kind == "mc-generic" and not o.command.probe]
    m["semantics.mc_generic_steps"] = (sum(mc_steps(o.doc) for _, o in generic), "count")
    if have("semantics.mc_estimate"):
        per_cmd = tracer.per_command("semantics.mc_estimate", 4)
        by_cap: dict[int, list[float]] = {}
        for i, o in generic:
            acc = by_cap.setdefault(o.doc["step_cap"], [0.0, 0])
            acc[0] += per_cmd[i]
            acc[1] += mc_steps(o.doc)
        total_s = sum(s for s, _ in by_cap.values())
        total_steps = sum(n for _, n in by_cap.values())
        m["semantics.mc_generic_us_per_step"] = (1e6 * ratio(total_s, total_steps), "us")
        if len(by_cap) >= 2:
            lo, hi = by_cap[min(by_cap)], by_cap[max(by_cap)]
            m["semantics.mc_generic_growth"] = (ratio(ratio(hi[0], hi[1]), ratio(lo[0], lo[1])),
                                                "x")
        else:
            m["semantics.mc_generic_growth"] = (0.0, "x")
    if have("runsim.run_innermost_first"):
        s = stats["runsim.run_innermost_first"]
        m["runsim.runs"] = (s.calls, "count")
        if s.amount is not None:
            m["runsim.steps"] = (s.amount, "count")
            m["runsim.us_per_step"] = (1e6 * ratio(s.seconds, s.amount), "us")
    if have("props.property_report"):
        m["props.report_s"] = (sec("props.property_report"), "s")
    if have("props.critical_overlaps") and stats["props.critical_overlaps"].amount is not None:
        m["props.overlaps"] = (stats["props.critical_overlaps"].amount, "count")
    if have("props.bounded_wcr"):
        m["props.wcr_s"] = (sec("props.bounded_wcr"), "s")
    if have("spareness.prove_spare"):
        m["spareness.prove_s"] = (sec("spareness.prove_spare"), "s")
    if have("spareness.default_basic_starts"):
        s = stats["spareness.default_basic_starts"]
        if s.amount is not None:
            m["spareness.starts"] = (s.amount, "count")
        m["spareness.starts_s"] = (s.seconds, "s")
    if have("spareness.falsify_spare"):
        m["spareness.falsify_s"] = (sec("spareness.falsify_spare"), "s")
    analyzers = [n for n in ("analyzer.analyze", "analyzer.analyze_nonprob") if n in stats]
    if analyzers:
        m["analyzer.analyze_s"] = (sec(*analyzers), "s")
        if all(stats[n].amount is not None for n in analyzers):
            m["analyzer.closure_arrows"] = (sum(stats[n].amount for n in analyzers), "count")
    if have("transform.union_with_generators"):
        m["transform.generators_s"] = (sec("transform.union_with_generators"), "s")
    if have("transform.generator_rules") and stats["transform.generator_rules"].amount is not None:
        m["transform.rules_emitted"] = (stats["transform.generator_rules"].amount, "count")
    docs_fns = [n for n, _, _ in layertrace.TARGETS if n.startswith("report.") and n in stats]
    if docs_fns:
        m["report.doc_s"] = (sec(*docs_fns), "s")
    m["report.json_bytes"] = (sum(len(o.stdout.encode()) for o in outcomes if o.command.json),
                              "bytes")
    for layer in ("cli", "fmt", "terms", "system", "rewriting", "semantics", "runsim", "props",
                  "spareness", "analyzer", "transform", "report"):
        m[f"{layer}.self_s"] = (tracer.layer_self.get(layer, 0.0), "s")
    m["trace.overhead"] = (ratio(traced_wall, untraced_wall), "x")
    return m


def untraced_child(args) -> dict:
    """Run one pass of the same seed untraced in a fresh process; return its
    detail."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--passes", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run failed: {proc.stderr.strip()[-500:]}")
    for line in proc.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX):])
    raise RuntimeError("untraced run printed no detail line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="run exactly this many passes instead of filling --seconds")
    args = parser.parse_args(argv)

    systems_dir = ROOT / "systems"
    if not (SRC / "pastlift" / "cli.py").is_file() or not systems_dir.is_dir():
        print(f"error: no pastlift checkout at {ROOT} (need src/pastlift and systems/)",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    systems = sorted(f"systems/{p.name}" for p in systems_dir.glob("*.ptrs"))

    reference = untraced_child(args) if args.trace else None
    sequence = workloads.commands(args.workload, args.seed, systems)
    timed_cmds = [c for c in sequence if not c.probe]
    probe_cmds = [c for c in sequence if c.probe]

    import pastlift.cli  # noqa: F401  (load every module before wrapping)

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            mark = pool_size()
            first = run_sequence(timed_cmds, tracer, 0)
            pool_inserts = None if mark is None else pool_size() - mark
            probes = run_sequence(probe_cmds, tracer, len(timed_cmds))
        finally:
            tracer.uninstall()
        walls = [sum(o.seconds for o in first)]
    else:
        used = sorted({c.argv[1] for c in timed_cmds})
        passes = run_passes(timed_cmds, used, args.seconds, args.passes)
        first, pool_inserts, walls = passes.first, passes.pool_inserts, passes.walls
        probes = run_sequence(probe_cmds, None, 0)

    validator = oracles.Validator(SRC / "pastlift" / "report_schema.json")
    for o in first + probes:
        o.problem = check(o, validator)
    wall = walls[0]
    if tracer is None:
        for i, o in enumerate(first):
            o.seconds = passes.best[i]
            if i in passes.differs and o.ok:
                o.problem = "output differs between passes"
    print(f"passes: {len(walls)}, pass wall fastest {min(walls):.3f} s, "
          f"median {statistics.median(walls):.3f} s, slowest {max(walls):.3f} s")
    failed = [o for o in first if not o.ok]
    for o in failed[:10]:
        print(f"FAILED {' '.join(o.command.argv)[:160]}: {o.problem}", file=sys.stderr)
    outcomes = first + probes
    detail = {"digest": digest(outcomes), "wall_s": wall, "pool_inserts": pool_inserts,
              **work_counts(outcomes)}
    if tracer is None:
        detail["best_wall_s"] = sum(o.seconds for o in first)
        detail["host_s"] = passes.host_seconds()
        detail["pass_walls"] = passes.walls
    print(DETAIL_PREFIX + json.dumps(detail))
    correct = not failed

    if tracer is None:
        print(f"host: reference work {passes.host_seconds():.4f} s at its fastest "
              f"(nominal {HOST_SECONDS} s); times scaled by "
              f"{HOST_SECONDS / passes.host_seconds():.4f}")
        metrics = end_to_end(args.workload, first, probes, passes)
    else:
        spans_path = ROOT / "bench" / "out" / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans_path, [o.command.argv for o in outcomes])
        metrics = {k: (v, unit, "") for k, (v, unit) in
                   per_layer(tracer, outcomes, pool_inserts, wall, reference["wall_s"]).items()}
        mismatches = [k for k in ("digest", "pool_inserts", "exact_entries", "mc_steps")
                      if detail[k] != reference[k]]
        # no untraced count of basic starts exists, so the traced count of each
        # `spare --falsify` is held against the closed form
        starts = tracer.per_command("spareness.default_basic_starts", 6)
        if "spareness.default_basic_starts" in tracer.stats and any(
                starts[i] != starts_expected(o.command)
                for i, o in enumerate(outcomes) if o.command.kind == "spare"):
            mismatches.append("spareness.starts")
        if mismatches:
            print(f"SELF-TEST FAILED: traced and untraced runs differ in {mismatches}",
                  file=sys.stderr)
            correct = False
        print(f"self-test: traced and untraced runs agree: {not mismatches}; spans in {spans_path}")

    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit:6s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(first),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
