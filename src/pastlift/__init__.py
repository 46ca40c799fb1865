"""pastlift: probabilistic term rewriting, strategy analysis and semantics.

The package splits into:

- ``terms``      first-order terms, positions, matching, unification
- ``system``     probabilistic rules, multi-distributions, signature split
- ``props``      syntactic properties and bounded local confluence
- ``spareness``  sound spareness check and bounded falsifier
- ``rewriting``  the five rewrite relations, policies, lifting
- ``semantics``  exact unfolding, adversary bounds, sampling
- ``transform``  generator rules and basic-term encodings
- ``analyzer``   the strategy-equivalence theorem engine
- ``fmt``        rule file parsing and serialization
- ``cli``        the command-line front end
"""

from .analyzer import analyze, analyze_nonprob
from .fmt import parse, parse_file, serialize
from .props import property_report
from .rewriting import Strategy
from .semantics import adversarial_lower_bound, mc_estimate, unfold_exact
from .spareness import default_basic_starts, falsify_spare, prove_spare
from .system import MultiDistribution, ProbRule, Ptrs
from .terms import Symbol, Term, app, var

__all__ = [
    "MultiDistribution",
    "ProbRule",
    "Ptrs",
    "Strategy",
    "Symbol",
    "Term",
    "adversarial_lower_bound",
    "analyze",
    "analyze_nonprob",
    "app",
    "default_basic_starts",
    "falsify_spare",
    "mc_estimate",
    "parse",
    "parse_file",
    "property_report",
    "prove_spare",
    "serialize",
    "unfold_exact",
    "var",
]

__version__ = "0.1.0"
