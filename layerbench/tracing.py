"""Spans and counters around tadet's public functions, installed from outside.

A wrapper replaces a function in every loaded tadet module that holds it
(or a method on its class), so calls between tadet's own modules are seen
too.  Each outermost call records a span (name, start, end, parent) and
bumps ``<name>.calls``; a call made while the same function is already
running is passed straight through, so recursion is neither counted nor
timed twice.  Spans stay in memory until :meth:`Tracer.take`, and
:meth:`Tracer.uninstall` puts the original functions back.
"""

from __future__ import annotations

import sys
from collections import defaultdict


def _nodes(counts, args, result):
    counts["unfold.unfold.nodes"] += result.location_count()


def _removed(counts, args, result):
    counts["silent.remove_all_silent.removed"] += args[0].silent_count()


def _words(counts, args, result):
    counts["equivalence.path_constraints.words"] += len(result)


def _traces(counts, args, result):
    counts["equivalence.sample_traces.traces"] += len(result)


def _true(counts, args, result):
    counts["solver.is_satisfiable.true"] += bool(result)


def _bytes(counts, args, result):
    counts["modelio.serialize_model.bytes"] += len(result.encode())


def _close(counts, args, result):
    n = len(args[0].vars)
    counts["solver.close.cells"] += n ** 3
    if n > counts["solver.close.max_dim"]:
        counts["solver.close.max_dim"] = n


# (module, function, span name, timed, observer).  Generator functions are
# counted only: their call returns before any work is done.
FUNCTIONS = [
    ("unfold", "unfold", "unfold.unfold", True, _nodes),
    ("unfold", "rename_clocks", "unfold.rename_clocks", True, None),
    ("silent", "remove_all_silent", "silent.remove_all_silent", True, _removed),
    ("determinize", "determinize_guard_oriented", "determinize.guard_oriented", True, None),
    ("determinize", "determinize_standard", "determinize.standard", True, None),
    ("determinize", "pipeline_on_the_fly", "determinize.on_the_fly", True, None),
    ("determinize", "check_deterministic", "determinize.check_deterministic", True, None),
    ("equivalence", "language_equal", "equivalence.language_equal", True, None),
    ("equivalence", "path_constraints", "equivalence.path_constraints", True, _words),
    ("equivalence", "sample_traces", "equivalence.sample_traces", True, _traces),
    ("solver", "is_satisfiable", "solver.is_satisfiable", True, _true),
    ("solver", "difference_witness", "solver.difference_witness", True, None),
    ("solver", "feasible_systems", "solver.feasible_systems", False, None),
    ("solver", "complement_guard", "solver.complement_guard", False, None),
    ("modelio", "parse_model", "modelio.parse_model", True, None),
    ("modelio", "serialize_model", "modelio.serialize_model", True, _bytes),
]
METHODS = [
    ("solver", "DifferenceSystem", "close", "solver.close", True, _close),
    ("solver", "DifferenceSystem", "copy", "solver.copy", False, None),
]


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # what spans are timed with
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(int)
        self._open: list[int] = []
        self._running: set[str] = set()
        self._replaced: list[tuple] = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, timed: bool, observe):
        spans, counts, open_, running = self.spans, self.counts, self._open, self._running
        clock = self.clock

        def traced(*args, **kwargs):
            if name in running:
                return fn(*args, **kwargs)
            running.add(name)
            counts[name + ".calls"] += 1
            if timed:
                span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
                open_.append(len(spans))
                spans.append(span)
                span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if timed:
                    span[2] = clock()
                    open_.pop()
                running.discard(name)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self, lib) -> None:
        """Wrap the targets in every loaded ``tadet`` module."""
        modules = [m for n, m in sys.modules.items() if n == "tadet" or n.startswith("tadet.")]
        for mod, fname, name, timed, observe in FUNCTIONS:
            original = getattr(getattr(lib, mod), fname)
            wrapper = self.wrap(name, original, timed, observe)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, attr, wrapper)
        for mod, cls_name, meth, name, timed, observe in METHODS:
            cls = getattr(getattr(lib, mod), cls_name)
            self._replace(cls, meth, self.wrap(name, vars(cls)[meth], timed, observe))

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every function that :meth:`install` wrapped."""
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, dict]:
        """The spans and counts recorded so far; start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans: list, counts: dict, seconds) -> dict[str, float]:
    """Per-name span time (``.s``), self time (``.self_s``) and the counts;
    ``seconds(start, end)`` measures an interval."""
    out: dict[str, float] = defaultdict(float)
    child = [0.0] * len(spans)
    length = [seconds(start, end) for _, start, end, _ in spans]
    for (_, _, _, parent), t in zip(spans, length):
        if parent >= 0:
            child[parent] += t
    for (name, _, _, _), t, covered in zip(spans, length, child):
        out[name + ".s"] += t
        out[name + ".self_s"] += t - covered
    out.update(counts)
    return out
