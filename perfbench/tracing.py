"""Layer spans for the traced benchmark run, installed from outside `src/`.

Each wrapped function records a span: name, start, end, parent span and item
id.  Spans stay in memory and are written out when the run ends.  The
wrappers rebind every module attribute that refers to a wrapped function,
because several modules import layer functions by name (`spaces` imports
`exact_divide_many`, `g2` imports `localization_pushforward`, `cli` imports
`parse_to_polynomial`).  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import eqpush
from eqpush import (algebra, characters, cli, cohomology, elimination, exprparse, g2,
                    g2core, polyfam, residue, spaces, verification)

MODULES = (eqpush, algebra, characters, cli, cohomology, elimination, exprparse, g2,
           g2core, polyfam, residue, spaces, verification)


class Tracer:
    """In-memory spans [name, start, end, parent index or -1, item id] plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.counters = {}
        self._undo = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.item])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span; a call from inside a span of the same name (one
        layer function calling another through a second binding) is not
        a new span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, *args)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        for owner, attr, name, before, after in _hooks():
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, before, after)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        return self

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def absorb(self, data: dict, item) -> None:
        """Append the spans and counters another process dumped, under item."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, item])
        for name, value in data["counters"].items():
            if name.endswith("_max"):
                self.peak(name, value)
            else:
                self.add(name, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# -- what is wrapped ---------------------------------------------------------------


def _mul_before(tracer, a, b):
    if isinstance(b, algebra.LaurentPolynomial):
        tracer.add("algebra.mul.term_products", len(a.terms) * len(b.terms))


def _mul_after(tracer, result):
    tracer.peak("algebra.mul.out_terms_max", len(result.terms))


def _divide_before(tracer, p, divisors):
    tracer.add("algebra.divide.divisors", len(divisors))
    tracer.peak("algebra.divide.in_terms_max", len(p.terms))
    if tracer.inside("elimination."):
        tracer.peak("elimination.entry_terms_max", len(p.terms))


def _divide_one_before(tracer, p, d):
    _divide_before(tracer, p, [d])


def _at_zero_before(tracer, form, var):
    low = form.numerator.min_degree(var)
    if low is not None and low < 0:
        tracer.peak("residue.bound_max", -1 - low)


def _at_zero_after(tracer, result):
    tracer.peak("residue.out_terms_max", len(result.numerator.terms))


def _hooks():
    """(owner, attribute, span name, before, after) for every wrapped callable."""
    return [
        (algebra.LaurentPolynomial, "__mul__", "algebra.mul", _mul_before, _mul_after),
        (algebra, "exact_divide_many", "algebra.divide", _divide_before, None),
        (algebra, "exact_divide", "algebra.divide", _divide_one_before, None),
        (characters, "bracket", "characters.bracket", None, None),
        (residue, "iterated_residue", "residue.iterated", None, None),
        (residue, "residue_at_zero", "residue.at_zero", _at_zero_before, _at_zero_after),
        (residue, "residue_at_infinity", "residue.at_infinity", None, None),
        (spaces, "localization_pushforward", "spaces.localization", None, None),
        (spaces, "residue_pushforward", "spaces.residue", None, None),
        (spaces.LocalizationEngine, "sum_values", "spaces.sum_values", None, None),
        (spaces._SpaceCalc, "__init__", "spaces.setup", None, None),
        (spaces._SpaceCalc, "loc_class_value", "spaces.loc_class", None, None),
        (spaces._SpaceCalc, "res_class_value", "spaces.res_class", None, None),
        (polyfam, "grothendieck_pair", "polyfam.grothendieck_pair", None, None),
        (g2, "grothendieck_table", "g2.table", None, None),
        (g2, "intersection_matrix", "g2.matrix", None, None),
        (g2, "fundamental_class_solve", "g2.class_solve", None, None),
        (g2, "ambient_pushforward", "g2.ambient", None, None),
        (elimination, "bareiss_determinant", "elimination.determinant", None, None),
        (elimination, "bareiss_solve", "elimination.solve", None, None),
        (cohomology, "g2_integral", "cohomology.integrals", None, None),
        (cohomology, "cohomology_class_check", "cohomology.class_check", None, None),
        (exprparse, "parse_to_polynomial", "exprparse.parse", None, None),
        (cli, "emit", "cli.emit", None, None),
        (cli, "main", "cli.main", None, None),
    ]


# -- metrics --------------------------------------------------------------------


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, counters) -> dict:
    """Per-layer numbers from spans and counters: `<span>.calls`, `.self_s` and
    `.total_s` of every span name, the counters, the orbit-cache hit ratios and
    bench.generate_s.  run.py picks the metrics BENCHMARK.json names; a layer
    a workload does not use has no spans and reads 0 there."""
    out = dict(counters)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + (end - start)

    def hit_ratio(lookup: str, work: str) -> float:
        missed = {parent for name, _, _, parent, _ in spans
                  if name == work and parent >= 0 and spans[parent][0] == lookup}
        lookups = out.get(f"{lookup}.calls", 0)
        return 1.0 - len(missed) / lookups if lookups else 0.0

    out["spaces.loc_cache_hit_ratio"] = hit_ratio("spaces.loc_class", "spaces.sum_values")
    out["spaces.res_cache_hit_ratio"] = hit_ratio("spaces.res_class", "residue.iterated")
    out["bench.generate_s"] = out.get("bench.generate.total_s", 0.0)
    return out
