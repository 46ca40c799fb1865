"""Expected values for the benchmark's commands, derived by hand from the
systems' rules and never from pastlift's own output, plus the structural
checks every report document must pass.

Closed forms used (n is a step count or depth):

* ``walk_mass(n)`` = sum over odd k <= n of Catalan((k-1)/2) / 2^k: the
  probability that a fair +-1 walk started at 1 hits 0 within n steps. It is
  the normal-form mass of srw (``g -> {1/2: c(g,g), 1/2: bot}``) after n steps
  of any full-rewriting policy, and of srw2 (``g(x) -> {1/2: g(g(x)), 1/2: x}``)
  under any strategy, because each step moves the number of g symbols by one.
  It is also srw2's innermost adversary bound, since srw2 terms have a single
  innermost redex and leave the adversary no choice.
* s1 under i/li: ``g`` becomes ``d^j(bot)`` after j+1 steps with probability
  (3/4)^j/4 and then needs j more steps, so nf-mass is 1-(3/4)^k at steps
  2k-1 and 2k.
* s4 adversary: under ``i`` the adversary rewrites ``b`` first and answers
  with the matching ``a`` rule, so the bound is 0; under ``li`` it must pick
  the ``a`` rule first, so the run ends at step 3j+2 with probability
  2^-(j+1) and the bound is 1-2^-((n+1) div 3).
* s6 under par/first: ``d(g,g)`` is contracted at the root back to ``g``, so
  the run ends at step 2j+1 with probability (3/4)^j/4.
* s8 from ``f(g)`` under i/li: ``g`` yields ``s^k(bot)`` after k+1 steps with
  probability (3/4)^k/4, then ``f(s^k(bot))`` unfolds in 2^k-1 steps, so a
  run of cap N ends iff k+2^k <= N.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import jsonschema

Check = Callable[[dict], Optional[str]]

# z for the Wilson interval of MC estimates: a false alarm has probability
# below 1e-6 per command, so no workload seed trips it by chance.
WILSON_Z = 5.0


def walk_mass(n: int) -> Fraction:
    top = n if n % 2 else n - 1  # the largest odd k <= n
    if top < 1:
        return Fraction(0)
    numerator, catalan = 0, 1  # catalan is Catalan(m) for k = 2m+1
    for m, k in enumerate(range(1, top + 1, 2)):
        numerator += catalan << (top - k)
        catalan = catalan * 2 * (2 * m + 1) // (m + 2)
    return Fraction(numerator, 1 << top)


def walk_mass_float(n: int) -> float:
    """walk_mass(n) in floating point, for caps where the exact sum is slow."""
    total, term = 0.0, 0.5  # term is Catalan(m) / 2^(2m+1)
    for m, _ in enumerate(range(1, n + 1, 2)):
        total += term
        term *= (2 * m + 1) / (2 * (m + 2))
    return total


def s1_mass(step: int) -> Fraction:
    return 1 - Fraction(3, 4) ** ((step + 1) // 2)


def s4_bound(strategy: str, depth: int) -> Fraction:
    return Fraction(0) if strategy == "i" else 1 - Fraction(1, 2 ** ((depth + 1) // 3))


def s6_par_mass(step: int) -> Fraction:
    return 1 - Fraction(3, 4) ** ((step + 1) // 2)


def s8_mass(cap: int) -> Fraction:
    k = 0
    while (k + 1) + 2 ** (k + 1) <= cap:
        k += 1
    return 1 - Fraction(3, 4) ** (k + 1)


def wilson(successes: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    p = successes / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return centre - half, centre + half


def basic_start_count(n_constructors_by_arity: dict[int, int], defined_arities: list[int],
                      arg_depth: int) -> int:
    """Number of basic terms with ground constructor arguments of depth at
    most ``arg_depth``: what ``spare --falsify`` enumerates at CLI defaults."""
    upto = 0  # constructor terms of depth <= d
    for _ in range(arg_depth):
        upto = sum(count * upto**arity if arity else count
                   for arity, count in n_constructors_by_arity.items())
    return sum(upto**arity if arity else 1 for arity in defined_arities)


def rationals(doc: dict) -> list[Fraction]:
    out = [Fraction(x) for x in doc.get("nf_mass", [])]
    out += [Fraction(doc[k]) for k in ("lower_bound", "partial_edl") if k in doc]
    return out


class Validator:
    def __init__(self, schema_path: Path):
        with open(schema_path, "rb") as fh:
            schema = json.load(fh)
        self._validator = jsonschema.Draft7Validator(schema)

    def problem(self, doc: dict) -> Optional[str]:
        err = jsonschema.exceptions.best_match(self._validator.iter_errors(doc))
        return None if err is None else f"schema: {err.message}"


def exact_consistent(doc: dict) -> Optional[str]:
    masses = [Fraction(x) for x in doc["nf_mass"]]
    if len(masses) != doc["depth"] + 1 or len(doc.get("support_sizes", masses)) != len(masses):
        return "trace length differs from depth+1"
    if any(not 0 <= m <= 1 for m in masses) or masses != sorted(masses):
        return "nf_mass is not a non-decreasing sequence in [0,1]"
    if Fraction(doc["lower_bound"]) != masses[-1]:
        return "lower_bound differs from the last nf_mass"
    if Fraction(doc["partial_edl"]) != sum((1 - m for m in masses[:-1]), Fraction(0)):
        return "partial_edl differs from the sum of non-normal mass"
    return None


def nf_mass_is(expected: Callable[[int], Fraction]) -> Check:
    def check(doc: dict) -> Optional[str]:
        for step, got in enumerate(doc["nf_mass"]):
            if Fraction(got) != expected(step):
                return f"nf_mass at step {step} is {got}, expected {expected(step)}"
        return None
    return check


def bound_is(expected: Fraction) -> Check:
    def check(doc: dict) -> Optional[str]:
        if Fraction(doc["lower_bound"]) != expected:
            return f"adversary bound {doc['lower_bound']}, expected {expected}"
        return None
    return check


def mc_consistent(doc: dict) -> Optional[str]:
    n, ok = doc["samples"], doc["terminated"]
    if not 0 <= ok <= n or doc["estimate"] != ok / n:
        return "estimate differs from terminated/samples"
    if abs(doc["censored_fraction"] - (n - ok) / n) > 1e-12:
        return "censored_fraction differs from 1-estimate"
    return None


def mc_near(expected: float) -> Check:
    def check(doc: dict) -> Optional[str]:
        lo, hi = wilson(doc["terminated"], doc["samples"])
        if not lo <= expected <= hi:
            return (f"estimate {doc['estimate']} has Wilson interval [{lo:.4f}, {hi:.4f}] "
                    f"excluding {expected:.4f}")
        return None
    return check


def probe_exact(doc: dict) -> Optional[str]:
    if doc.get("support_sizes") != [1, 2] or doc["nf_mass"] != ["0", "0"]:
        return "one step from a deep srw2 term must give two non-normal entries"
    return None


def probe_mc(doc: dict) -> Optional[str]:
    return None if doc["terminated"] == 0 else "a deep srw2 term cannot terminate within the cap"
