"""The three workload menus. A workload seed fixes the command order and the
seeded parameters; pastlift receives only the generated argv.

Every command except the depth probes exits 0 with checked output. The probes
parse srw2 start terms 600 to 3000 levels deep; at the seed commit they die
in the recursive term parser, so they count against ``ok_ops_pct`` until the
parser is made iterative. They stay cheap either way.

Only the order and the probe depths come from the workload seed. MC
``--seed`` values and ``random:S`` policy seeds are fixed per menu entry: the
walks sampled here are heavy-tailed and the cost of a step depends on the
shape the policy builds, so drawing them would make a run's cost depend on
luck more than on the code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import oracles
from oracles import Check

WORKLOADS = ("exact", "mc", "static")


@dataclass
class Command:
    argv: list[str]
    kind: str  # exact | adversary | mc-generic | mc-fast | check | analyze | spare | transform
    checks: list[Check] = field(default_factory=list)
    probe: bool = False
    system: Optional[str] = None  # systems/ file, for checks that need its signature

    @property
    def json(self) -> bool:
        return "--json" in self.argv

    @property
    def arg_depth(self) -> int:
        """``spare``'s argument depth for the start enumeration (CLI default 3)."""
        argv = self.argv
        return int(argv[argv.index("--arg-depth") + 1]) if "--arg-depth" in argv else 3


def _sys(name: str) -> str:
    return f"systems/{name}.ptrs"


def _exact(name, term, strategy, depth, *extra, checks=(), policy="first"):
    argv = ["simulate", _sys(name), "--term", term, "--strategy", strategy,
            "--policy", policy, "--depth", str(depth), "--mode", "exact", *extra, "--json"]
    return Command(argv, "exact", [oracles.exact_consistent, *checks])


def _adversary(name, term, strategy, depth, check):
    argv = ["adversary", _sys(name), "--term", term, "--strategy", strategy,
            "--depth", str(depth), "--json"]
    return Command(argv, "adversary", [check])


def _mc(name, term, strategy, policy, samples, cap, seed, expected=None):
    argv = ["simulate", _sys(name), "--term", term, "--strategy", strategy,
            "--policy", policy, "--mode", "mc", "--samples", str(samples),
            "--step-cap", str(cap), "--seed", str(seed), "--json"]
    # strategy and policy at the seed commit decide the path: innermost
    # first-move runs take the runsim fast path, everything else the generic one
    fast = strategy in ("i", "li") and policy == "first"
    checks = [oracles.mc_consistent]
    if expected is not None:
        checks.append(oracles.mc_near(float(expected)))
    return Command(argv, "mc-fast" if fast else "mc-generic", checks)


def _deep_srw2(levels: int) -> str:
    return "g(" * levels + "0" + ")" * levels


def exact_menu(rng: random.Random) -> list[Command]:
    walk = oracles.nf_mass_is(oracles.walk_mass)
    s1 = oracles.nf_mass_is(oracles.s1_mass)
    s6 = oracles.nf_mass_is(oracles.s6_par_mass)

    def srw(policy, depth):
        return _exact("srw", "g", "full", depth, checks=[walk], policy=policy)

    def s1_(strategy, depth):
        return _exact("s1", "g", strategy, depth, checks=[s1])

    def srw2(depth):
        return _exact("srw2", "g(0)", "i", depth, "--coalesce", checks=[walk])

    def walk_bound(strategy, depth):
        return _adversary("srw2", "g(0)", strategy, depth,
                          oracles.bound_is(oracles.walk_mass(depth)))

    def s4_bound(strategy, depth):
        return _adversary("s4", "f(a,b)", strategy, depth,
                          oracles.bound_is(oracles.s4_bound(strategy, depth)))

    # Cost tiers at the seed commit, so that the median and p75 fall in the
    # middle of a tier of similar commands rather than in a gap between very
    # different ones. Each system's last entry runs first (see commands()).
    # Tier 1 (14, a few ms):
    cmds = [_exact("s5", "f(a,a)", strategy, depth)
            for strategy in ("par", "ipar") for depth in (10, 14, 18)]
    cmds += [_exact("s3", "f(a,a)", "par", depth) for depth in (14, 18)]
    cmds += [_exact("s6", "g", "par", depth, checks=[s6]) for depth in (10, 12)]
    cmds += [s4_bound(strategy, depth) for strategy in ("i", "li") for depth in (20, 40)]
    # tier 2 (23, 20 to 120 ms)
    cmds += [s1_("i", depth) for depth in (40, 50, 60, 70, 80)]
    cmds += [s1_("li", depth) for depth in (40, 50, 60, 70)]
    cmds += [srw(policy, depth) for policy in ("first", "rightmost") for depth in (10, 11, 12)]
    cmds += [srw2(depth) for depth in (30, 40, 50, 60)]
    cmds += [_exact("s3", "f(a,a)", "ipar", depth) for depth in (16, 17)]
    cmds += [_exact("s6", "g", "ipar", depth) for depth in (10, 11)]
    # tier 3 (3, 0.2 to 0.6 s): the deepest spines, the widest support (srw
    # at depth 14) and the largest rationals (the srw2 bound at depth 100)
    cmds += [s1_("i", 100), srw("first", 14), walk_bound("i", 100)]
    for _ in range(2):
        probe = Command(["simulate", _sys("srw2"), "--term", _deep_srw2(rng.randint(600, 3000)),
                         "--depth", "1", "--mode", "exact", "--json"],
                        "exact", [oracles.probe_exact], probe=True)
        cmds.append(probe)
    return cmds


def mc_menu(rng: random.Random) -> list[Command]:
    # MC seeds 1 and 3 are left out: their walks reach the long caps often
    # enough to make a pass twice as long.
    seeds = (2, 4)
    cmds = []
    for seed in seeds:
        for cap in (250, 1000):  # the generic path's cost per step grows with run length
            walk = oracles.walk_mass_float(cap)
            for name, term, samples in (("srw", "g", 15), ("srw2", "g(0)", 50)):
                for policy in (f"random:{seed}", "rightmost"):
                    cmds.append(_mc(name, term, "full", policy, samples, cap, seed, walk))
            cmds.append(_mc("s6", "g", "par", "first", 200, cap, seed, oracles.s6_par_mass(cap)))
            cmds.append(_mc("s6", "g", "par", f"random:{seed}", 200, cap, seed))
        for strategy in ("i", "li"):
            for name, term in (("srw", "g"), ("srw2", "g(0)")):
                cmds.append(_mc(name, term, strategy, "first", 100, 50_000, seed,
                                oracles.walk_mass_float(50_000)))
            for samples, cap in ((50, 2_000), (20, 20_000)):
                cmds.append(_mc("s8", "f(g)", strategy, "first", samples, cap, seed,
                                oracles.s8_mass(cap)))
    for _ in range(2):
        probe = _mc("srw2", _deep_srw2(rng.randint(600, 3000)), "full", "first", 3, 3, 0)
        probe.checks.append(oracles.probe_mc)
        probe.probe = True
        cmds.append(probe)
    return cmds


def static_menu(systems: list[str]) -> list[Command]:
    cmds = []
    for path in systems:
        cmds.append(Command(["check", path, "--json"], "check"))
        cmds.append(Command(["analyze", path, "--scope", "all", "--json"], "analyze"))
        cmds.append(Command(["analyze", path, "--scope", "basic", "--json"], "analyze"))
        # At the CLI default (--arg-depth 3) s5 enumerates 2,008,009 basic
        # starts, which takes half a minute and a gigabyte: too long to repeat
        # within a run. One level less gives 201 starts; every other file
        # keeps the default.
        extra = ["--arg-depth", "2"] if path == "systems/s5.ptrs" else []
        cmds.append(Command(["spare", path, "--falsify", *extra, "--json"], "spare",
                            system=path))
        cmds.append(Command(["transform", path, "--generators"], "transform", system=path))
    return cmds


def commands(workload: str, seed, systems: list[str]) -> list[Command]:
    """The workload's command sequence for one seed, in run order.

    Commands on the same system file share interned terms, so a command
    that follows a deeper one on the same system costs less. Each system's
    commands therefore run in reverse menu order, most expensive first, and
    the seed only interleaves the systems. The probes run last, so that the
    terms they intern once they parse cannot change the cost of any timed
    command.
    """
    rng = random.Random(f"pastlift-bench:{workload}:{seed}")
    if workload == "exact":
        menu = exact_menu(rng)
    elif workload == "mc":
        menu = mc_menu(rng)
    else:
        menu = static_menu(systems)
    queues: dict[str, list[Command]] = {}
    for cmd in menu:
        if not cmd.probe:
            queues.setdefault(cmd.argv[1], []).append(cmd)
    order = [name for name, queue in queues.items() for _ in queue]
    rng.shuffle(order)  # a uniformly random interleaving of the per-system queues
    return [queues[name].pop() for name in order] + [c for c in menu if c.probe]
