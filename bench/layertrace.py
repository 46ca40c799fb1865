"""Layer tracing from outside the program: wrappers around pastlift's public
functions at each module boundary, installed by rebinding every name a
caller uses (``pastlift.cli.unfold_exact`` as well as
``pastlift.semantics.unfold_exact``), so no file under ``src/`` changes.

Three kinds of wrapper:

* ``COUNT`` counts calls only. It is for the hottest calls (``app``,
  ``match``, ``is_normal_form``); their time stays with the caller's layer.
* ``TIMED`` counts calls and time and takes part in self-time accounting,
  but records no span, because it runs up to millions of times per command.
* ``SPAN`` does the same and also records a span (id, command, name, start,
  end, parent span, amount). Spans stay in memory and are written out at the
  end.

A layer's self time is the time inside its TIMED and SPAN wrappers minus the
time inside wrappers they called. A target that does not exist is skipped,
so its metrics are absent rather than the benchmark failing.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

COUNT, TIMED, SPAN = "count", "timed", "span"

Amount = Optional[Callable[[tuple, Any], int]]


def _closure_arrows(args, report) -> int:
    return len(report.closure)


# (module.attribute within pastlift, wrapper kind, amount recorded per call)
TARGETS: list[tuple[str, str, Amount]] = [
    ("terms.app", COUNT, None),
    ("terms.match", COUNT, None),
    ("terms.replace_at", TIMED, lambda a, r: len(a[1])),
    ("terms.unify", TIMED, None),
    ("system.Ptrs.is_normal_form", COUNT, None),
    ("system.Ptrs.is_basic", TIMED, None),
    ("system.MultiDistribution.__init__", TIMED, None),
    ("rewriting.lift_step", SPAN, None),
    ("rewriting.entry_step", TIMED, None),
    ("rewriting.redexes", TIMED, lambda a, r: len(r)),
    ("rewriting.innermost_redexes", TIMED, lambda a, r: len(r)),
    ("rewriting.first_move_redex", TIMED, lambda a, r: 1),
    ("rewriting.simultaneous_groups", TIMED, None),
    ("semantics.unfold_exact", SPAN, None),
    ("semantics.adversarial_lower_bound", SPAN, None),
    ("semantics.mc_estimate", SPAN, None),
    ("runsim.run_innermost_first", TIMED, lambda a, r: r[1]),
    ("fmt.parse_file", SPAN, None),
    ("fmt.parse_term", SPAN, None),
    ("props.property_report", SPAN, None),
    ("props.critical_overlaps", SPAN, lambda a, r: len(r)),
    ("props.bounded_wcr", SPAN, None),
    ("spareness.prove_spare", SPAN, None),
    ("spareness.default_basic_starts", SPAN, lambda a, r: len(r)),
    ("spareness.falsify_spare", SPAN, None),
    ("analyzer.analyze", SPAN, _closure_arrows),
    ("analyzer.analyze_nonprob", SPAN, _closure_arrows),
    ("transform.union_with_generators", SPAN, None),
    ("transform.generator_rules", SPAN, lambda a, r: len(r.rules)),
    ("report.check_doc", SPAN, None),
    ("report.analysis_doc", SPAN, None),
    ("report.exact_trace_doc", SPAN, None),
    ("report.mc_doc", SPAN, None),
    ("report.adversary_doc", SPAN, None),
    ("report.spare_doc", SPAN, None),
]

ROOT_SPAN = "cli.main"


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds", "amount", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0  # excluding time inside other TIMED/SPAN wrappers
        self.amount: Optional[int] = 0  # None once an amount could not be read
        self.hits = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.layer_self: dict[str, float] = defaultdict(float)
        # [id, command, name, start, end, parent id, amount or None]
        self.spans: list[list] = []
        self.command = -1
        self._child_time: list[float] = []  # one slot per open TIMED/SPAN frame
        self._span = -1  # id of the innermost open span
        self._next_span = 0
        self._undo: list[tuple[object, str, object]] = []

    # installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pastlift" or name.startswith("pastlift."))]
        for qualname, kind, amount in TARGETS:
            owner, attr, original = self._resolve(qualname)
            if original is None:
                continue
            stat = self.stats[qualname] = Stat()
            layer = qualname.split(".", 1)[0]
            if qualname == "system.Ptrs.is_normal_form":
                wrapper = self._nf_counter(original, stat)
            elif kind == COUNT:
                wrapper = self._counter(original, stat)
            else:
                wrapper = self._timer(original, stat, layer, qualname, kind == SPAN, amount)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    @staticmethod
    def _resolve(qualname: str):
        module_name, *path = qualname.split(".")
        try:
            owner = importlib.import_module(f"pastlift.{module_name}")
        except ImportError:
            return None, None, None
        for part in path[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        if isinstance(owner, type):  # the function itself, not a bound or inherited one
            return owner, path[-1], vars(owner).get(path[-1])
        return owner, path[-1], getattr(owner, path[-1], None)

    # wrappers ---------------------------------------------------------------

    @staticmethod
    def _counter(original, stat: Stat):
        def counted(*args, **kwargs):
            stat.calls += 1
            return original(*args, **kwargs)
        return counted

    @staticmethod
    def _nf_counter(original, stat: Stat):
        def counted(system, term):
            stat.calls += 1
            try:
                if term in system._nf_cache:
                    stat.hits += 1
            except AttributeError:
                pass
            return original(system, term)
        return counted

    def _timer(self, original, stat: Stat, layer: str, name: str, span: bool, amount: Amount):
        tracer = self
        child_time = self._child_time
        layer_self = self.layer_self

        def timed(*args, **kwargs):
            if span:
                parent, sid = tracer._span, tracer._next_span
                tracer._next_span += 1
                tracer._span = sid
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                inner = child_time.pop()
                elapsed = end - start
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - inner
                layer_self[layer] += elapsed - inner
                if child_time:
                    child_time[-1] += elapsed
                if span:
                    tracer._span = parent
                    record = [sid, tracer.command, name, start, end, parent, None]
                    tracer.spans.append(record)
            if amount is not None and stat.amount is not None:
                try:
                    got = amount(args, result)
                except (TypeError, IndexError, AttributeError):
                    stat.amount = None
                else:
                    stat.amount += got
                    if span:
                        record[6] = got
            return result
        return timed

    def run_command(self, index: int, fn: Callable[[], Any]) -> Any:
        """Run one CLI command as the root span of its own span tree."""
        self.command = index
        root = self._timer(fn, self.stats.setdefault(ROOT_SPAN, Stat()), "cli", ROOT_SPAN,
                           True, None)
        return root()

    # results ------------------------------------------------------------------

    def per_command(self, name: str, field: int) -> dict[int, float]:
        """Sum of one span field (4: duration, 6: amount) per command."""
        per: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[2] == name:
                per[span[1]] += span[4] - span[3] if field == 4 else (span[6] or 0)
        return per

    def dump(self, path: Path, argvs: list[list[str]]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"commands": argvs,
                       "fields": ["id", "command", "name", "start", "end", "parent", "amount"],
                       "spans": self.spans}, fh)
