"""Spans around the public functions of ``kuranishi``, installed from outside.

The tracer replaces each traced function by a timing wrapper, both in the
module that defines it and in every ``kuranishi`` module that imported it by
name (``from .groebner import normal_form`` binds a second name that must be
replaced too).  Spans nest through a stack; a span's self time is its
duration minus the time covered by its direct children.  Inclusive time is
counted only for the outermost span of a name, so a function that calls
itself is not counted twice.

Spans are kept in memory and summarised per name; the worker hands the
summary to the benchmark at the end of the analysis.  ``scalars`` and
``poly`` get no span: their calls are too many and too fine to wrap without
changing what is measured, so their cost shows in the self time of the
layers above them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, function) pairs wrapped in a traced run.  ``report.render`` is
# not a function of the program: the worker opens it around
# ``build_report`` and ``render_json``.
TRACED = (
    ("config", "load_config"),
    ("builders", "build_pair_dgla"),
    ("dgla", "validate_dgla"),
    ("dgla", "hodge_decomposition"),
    ("linalg", "rref"),
    ("engine", "expand_series"),
    ("engine", "analyze_obstructions"),
    ("engine", "germ_invariants"),
    ("engine", "assess_splitting"),
    ("groebner", "minimalize_generators"),
    ("groebner", "ideal_membership"),
    ("groebner", "reduced_groebner_basis"),
    ("groebner", "groebner_basis"),
    ("groebner", "normal_form"),
    ("analysis", "analyze_structure"),
)


class Tracer:
    """Span stack and per-name totals for one analysis process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        # one [child_ns] cell per open span
        self.stack: list[list[int]] = []
        # name -> [calls, inclusive_ns, self_ns, open_depth]
        self.totals: dict[str, list[int]] = {}
        self.top_level_ns = 0
        self.redundant = 0
        self.inputs: set[tuple] = set()

    def _open(self, name: str) -> tuple[list[int], list[int], int]:
        totals = self.totals.setdefault(name, [0, 0, 0, 0])
        totals[3] += 1
        cell = [0]
        self.stack.append(cell)
        return totals, cell, self.clock()

    def _close(self, totals: list[int], cell: list[int], start: int) -> None:
        elapsed = self.clock() - start
        self.stack.pop()
        totals[0] += 1
        totals[2] += elapsed - cell[0]
        totals[3] -= 1
        if totals[3] == 0:
            totals[1] += elapsed
        if self.stack:
            self.stack[-1][0] += elapsed
        else:
            self.top_level_ns += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the caller opens itself."""
        state = self._open(name)
        try:
            yield
        finally:
            self._close(*state)

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close

        if name == "groebner.ideal_membership":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = open_(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(*state)
                if result:
                    self.redundant += 1
                return result

        elif name == "groebner.reduced_groebner_basis":

            @functools.wraps(fn)
            def wrapper(generators, *args, **kwargs):
                # The key is hashed outside the span and its cost is taken
                # out of the caller's self time.
                began = self.clock()
                generators = list(generators)
                self.inputs.add(tuple(generators))
                if self.stack:
                    self.stack[-1][0] += self.clock() - began
                state = open_(name)
                try:
                    return fn(generators, *args, **kwargs)
                finally:
                    close(*state)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(*state)

        return wrapper

    def install(self) -> None:
        """Replace every traced function wherever ``kuranishi`` bound it."""
        import kuranishi.report  # noqa: F401  (loads every traced module)

        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "kuranishi" or key.startswith("kuranishi.")
        ]
        for module_name, function_name in TRACED:
            defining = sys.modules[f"kuranishi.{module_name}"]
            original = getattr(defining, function_name)
            wrapper = self.wrap(f"{module_name}.{function_name}", original)
            for module in modules:
                if getattr(module, function_name, None) is original:
                    setattr(module, function_name, wrapper)

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, and the counters."""
        spans = {
            name: {"calls": calls, "s": incl / 1e9, "self_s": own / 1e9}
            for name, (calls, incl, own, _) in sorted(self.totals.items())
        }
        return {
            "spans": spans,
            "top_level_s": self.top_level_ns / 1e9,
            "redundant": self.redundant,
            "distinct_inputs": len(self.inputs),
        }
