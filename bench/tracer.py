"""Outside-in tracer for one heiscalc CLI invocation.

The tracer replaces public functions and methods of the heiscalc modules
with timing wrappers, from outside the package: nothing under src/
changes.  Every binding of a wrapped function is replaced, so a call
made through `rumin.exterior_derivative` (bound by `from .frame import
exterior_derivative`) is seen just like one made through `frame`.

Each wrapper is one of three kinds:

- "span": a span (id, name, start, end, parent) is kept in memory and
  written out at the end;
- "agg": hot functions (the coefficient ring, wedge, frame derivations,
  table builders, linear algebra) are timed and nested like spans, but
  only their totals are kept, because they run hundreds of thousands of
  times;
- "count": the call is counted, not timed.

Self time of a span is its duration minus the time its child spans (of
either timed kind) cover.  Inclusive time of a name counts only its
outermost calls, so recursion and nested table builders are not counted
twice.

Run as a script, it executes one CLI invocation in-process under the
tracer and writes a JSON report:

    PYTHONPATH=src python bench/tracer.py REPORT.json SPANS.tsv -- verify --n 2
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

MODULES = ("coeff", "frame", "_linalg", "rumin", "contact", "sampling", "surface", "cli")

# (module, attribute path, stat name, kind)
TARGETS = [
    ("coeff", "PolyCoeff.__mul__", "coeff.mul", "mul"),
    ("coeff", "PolyCoeff.__add__", "coeff.add", "count"),
    ("coeff", "PolyCoeff.__init__", "coeff.new", "count"),
    ("coeff", "PolyCoeff.partial", "coeff.partial", "count"),
    ("coeff", "PolyCoeff.substitute", "coeff.substitute", "agg"),
    ("frame", "exterior_derivative", "frame.d", "span"),
    ("frame", "_GradedElement.wedge", "frame.wedge", "agg"),
    ("frame", "frame_apply", "frame.apply", "agg"),
    ("frame", "_GradedElement.__init__", "frame.form_new", "count"),
    ("rumin", "project_quotient", "rumin.project", "span"),
    ("rumin", "in_subspace", "rumin.in_subspace", "span"),
    ("rumin", "lift", "rumin.lift", "span"),
    ("rumin", "D_second_order", "rumin.D", "span"),
    ("rumin", "d_Q_low", "rumin.d_Q_low", "span"),
    ("rumin", "d_Q_high", "rumin.d_Q_high", "span"),
    ("rumin", "dc_operator", "rumin.dc", "span"),
    ("rumin", "Pi_E", "rumin.Pi_E", "span"),
    ("rumin", "P_apply", "rumin.P", "span"),
    ("rumin", "d0_inverse", "rumin.d0_inverse", "span"),
    ("rumin", "verify_complex", "rumin.suite.complex", "span"),
    ("rumin", "verify_lifting", "rumin.suite.lifting", "span"),
    ("rumin", "verify_dc", "rumin.suite.dc", "span"),
    ("contact", "verify_subspaces", "contact.suite.subspaces", "span"),
    ("contact", "pullback_form", "contact.pullback", "span"),
    ("contact", "pullback_quotient", "contact.pullback_quotient", "span"),
    ("contact", "pullback_J", "contact.pullback_J", "span"),
    ("contact", "parse_map", "contact.parse_map", "span"),
    ("contact", "is_contact", "contact.is_contact", "span"),
    ("contact", "commute_check", "contact.commute", "commute"),
    ("sampling", "random_combination", "sampling.combination", "span"),
    ("surface", "mobius_surface", "surface.mobius_surface", "span"),
    ("surface", "scan_grid", "surface.scan_grid", "scan"),
    ("surface", "find_characteristic_points", "surface.find", "find"),
    ("surface", "_newton_2d", "surface.newton", "count"),
]


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps heiscalc functions and accumulates spans and counters."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.term_hist: dict[int, int] = {}
        self.max_degree = 0
        self.scan_keys: set = set()
        self.surface = {"cells": 0, "points": 0, "failures": 0}
        self.cached: list = []
        self._originals: dict[int, object] = {}
        # Each frame is [child seconds, span id]; the root frame is id 0.
        self._stack: list[list] = [[0.0, 0]]
        self._next_id = 1

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # -- wrappers ---------------------------------------------------------

    def timed(self, fn, name: str, record: bool, on_result=None, name_of=None):
        stack, spans = self._stack, self.spans
        fixed = None if name_of else self.stat(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stat = fixed
            label = name
            if stat is None:
                label = name_of(args, kwargs)
                stat = tracer.stat(label)
            parent = stack[-1]
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            stat.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                stat.depth -= 1
                if stat.depth == 0:
                    stat.incl_s += elapsed
                if record:
                    spans.append((span_id, label, start, end, parent[1]))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        stat = self.stat(name)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_product(self, args, result) -> None:
        terms = getattr(result, "terms", None)
        if terms is None:
            return
        size = len(terms)
        self.term_hist[size] = self.term_hist.get(size, 0) + 1
        if size:
            degree = max(map(sum, terms))
            if degree > self.max_degree:
                self.max_degree = degree

    def _on_scan(self, args, result) -> None:
        surface, grid = args[0], tuple(args[1])
        self.scan_keys.add((id(surface), grid))
        self.surface["cells"] += grid[0] * grid[1]

    def _on_find(self, args, result) -> None:
        self.surface["points"] += len(result.points)
        self.surface["failures"] += len(result.failures)

    def make_wrapper(self, fn, name: str, kind: str):
        if kind == "count":
            return self.counted(fn, name)
        if kind == "mul":
            return self.timed(fn, name, False, on_result=self._on_product)
        if kind == "agg":
            return self.timed(fn, name, False)
        if kind == "scan":
            return self.timed(fn, name, True, on_result=self._on_scan)
        if kind == "find":
            return self.timed(fn, name, True, on_result=self._on_find)
        if kind == "commute":
            def name_of(args, kwargs):
                k = kwargs["k"] if "k" in kwargs else args[1]
                return f"{name}.k{k}"
            return self.timed(fn, name, True, name_of=name_of)
        return self.timed(fn, name, True)

    # -- patching ---------------------------------------------------------

    @staticmethod
    def owners(modules) -> list:
        """The modules plus every class they define (with its bases there)."""
        found = list(modules)
        for module in modules:
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == module.__name__:
                    found.extend(k for k in value.__mro__
                                 if k.__module__ == module.__name__ and k not in found)
        return found

    def install(self) -> None:
        """Wrap every target and every linalg and lru-cached table function."""
        import importlib

        modules = [importlib.import_module(f"heiscalc.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        replacements: dict[int, object] = {}

        def add(fn, name, kind):
            if id(fn) not in replacements:
                self._originals[id(fn)] = fn
                replacements[id(fn)] = self.make_wrapper(fn, name, kind)

        for module_name, path, name, kind in TARGETS:
            owner = by_name[module_name]
            for part in path.split("."):
                owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
            add(owner, name, kind)
        linalg = by_name["_linalg"]
        for value in vars(linalg).values():
            if callable(value) and getattr(value, "__module__", None) == linalg.__name__:
                add(value, "linalg", "agg")
        for value in vars(by_name["rumin"]).values():
            if hasattr(value, "cache_info"):
                self.cached.append(value)
                add(value, "rumin.tables", "agg")

        for owner in self.owners(modules):
            for key, value in list(vars(owner).items()):
                if self._is_original(value):
                    setattr(owner, key, replacements[id(value)])
        self.modules = modules

    def _is_original(self, value) -> bool:
        return id(value) in self._originals and self._originals[id(value)] is value

    def unpatched(self) -> list[str]:
        """Bindings that still reach an original function: must be empty."""
        found = []
        for owner in self.owners(self.modules):
            for key, value in vars(owner).items():
                holders = [value]
                if isinstance(value, (list, tuple)):
                    holders = list(value)
                elif isinstance(value, dict):
                    holders = list(value.values())
                for held in holders:
                    if self._is_original(held):
                        found.append(f"{owner.__name__}.{key}")
        return found

    # -- report -----------------------------------------------------------

    def cache_info(self) -> dict:
        hits = sum(fn.cache_info().hits for fn in self.cached)
        misses = sum(fn.cache_info().misses for fn in self.cached)
        return {"hits": hits, "misses": misses}

    def report(self) -> dict:
        return {
            "stats": {
                name: {"calls": s.calls, "s": s.incl_s, "self_s": s.self_s}
                for name, s in sorted(self.stats.items())
            },
            "term_hist": {str(k): v for k, v in sorted(self.term_hist.items())},
            "max_degree": self.max_degree,
            "scan_distinct": len(self.scan_keys),
            "surface": dict(self.surface),
            "cache": self.cache_info(),
            "spans": len(self.spans),
            "unpatched": self.unpatched(),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("id\tname\tstart\tend\tparent\n")
            for span_id, name, start, end, parent in self.spans:
                handle.write(f"{span_id}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def main(argv: list[str]) -> int:
    report_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py REPORT.json SPANS.tsv -- CLI ARGS...")
    import heiscalc.cli

    tracer = Tracer()
    tracer.install()
    run = tracer.timed(heiscalc.cli.main, "cli", True)
    exit_code = run(cli_args, standalone_mode=False) or 0
    sys.stdout.flush()
    with open(report_path, "w") as handle:
        json.dump(tracer.report(), handle)
    tracer.write_spans(spans_path)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
