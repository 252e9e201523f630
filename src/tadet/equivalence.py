"""Bounded language comparison of tree automata via timestamp constraints.

Every root path ending in an accepting location induces a constraint over
the absolute firing times of its transitions: each guard atom on clock x
becomes a difference atom between the current timestamp and the timestamp
of x's most recent reset.  Silent steps contribute internal timestamps
that are projected out exactly, so two automata accept the same traces for
a word iff the resulting formulas are equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    FALSE,
    REL_SWAP,
    TRUE,
    Atom,
    Clock,
    FalseGuard,
    Guard,
    TimedTrace,
    Transition,
    compare,
    conj,
    disj,
    eval_guard,
    guard_atoms,
    map_atoms,
)
from .unfold import Tree
from . import solver
from .solver import DifferenceSystem, ZERO_VAR


def obs_var(j: int) -> Clock:
    """Timestamp of the j-th observable event (1-based)."""
    return Clock(f"t{j}")


def _silent_var(j: int) -> Clock:
    return Clock(f"t{j}'")


@dataclass(frozen=True)
class PathConstraint:
    word: tuple[str, ...]
    formula: Guard  # over obs_var(1..len(word)), silent times eliminated


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    word: Optional[tuple[str, ...]] = None
    times: Optional[tuple[Fraction, ...]] = None
    direction: Optional[str] = None  # "left-only" / "right-only"

    def counterexample_trace(self) -> TimedTrace:
        if self.equal:
            raise ValueError("no counterexample: languages are equal")
        return TimedTrace(tuple(zip(self.times, self.word)))


def _translate_guard(g: Guard, now: Clock, reset_at: dict[Clock, Clock]) -> Guard:
    """Guard over clocks -> formula over timestamps at firing time ``now``.

    A clock's value is now - (its last reset time); clocks never reset read
    as now - 0.  Diagonals x - y turn into the difference of the two reset
    times (the shared "now" cancels).
    """

    def tr(a: Atom) -> Guard:
        if a.right is None:
            r = reset_at.get(a.left)
            return Atom(now, a.rel, a.bound, r)
        ra = reset_at.get(a.left)
        rb = reset_at.get(a.right)
        # x - y = (now - ra) - (now - rb) = rb - ra
        if ra is None and rb is None:
            return TRUE if compare(0, a.rel, a.bound) else FALSE
        if rb is None:
            # -ra rel bound, i.e. ra (>=rel flipped) -bound
            return Atom(ra, REL_SWAP[a.rel], -a.bound)
        if ra is None:
            return Atom(rb, a.rel, a.bound)
        return Atom(rb, a.rel, a.bound, ra)

    return map_atoms(g, tr)


def _accepting_paths(tree: Tree, word: Optional[tuple[str, ...]] = None):
    """All root paths ending at an accepting node (DAG-safe), depth-first;
    with ``word``, only those whose observable word is ``word``, leaving a
    branch as soon as its actions stop being a prefix of it.
    """
    children = tree.build_children_index()
    path: list[Transition] = []
    # (edge into the node or None at the root, path length above the edge,
    # observable events on the path including the edge)
    stack: list[tuple[Optional[Transition], int, int]] = [(None, 0, 0)]
    while stack:
        edge, depth, seen = stack.pop()
        del path[depth:]
        if edge is None:
            nid = tree.root
        else:
            path.append(edge)
            nid = edge.target
        if tree.nodes[nid].accepting and (word is None or seen == len(word)):
            yield tuple(path)
        for t in reversed(children[nid]):
            if t.is_silent:
                stack.append((t, len(path), seen))
            elif word is None or (seen < len(word) and t.action == word[seen]):
                stack.append((t, len(path), seen + 1))


def _path_formula(tree: Tree, path) -> PathConstraint:
    """Constraint over observable timestamps for one accepting path.

    Timestamps are non-decreasing along the path; that they are
    non-negative is left to the consumers, which all impose it.
    """
    word: list[str] = []
    step_vars: list[Clock] = []
    silent_vars: list[Clock] = []
    reset_at: dict[Clock, Clock] = {}
    parts: list[Guard] = []
    prev: Optional[Clock] = None
    for t in path:
        if t.is_silent:
            var = _silent_var(len(silent_vars) + 1)
            silent_vars.append(var)
        else:
            word.append(t.action)
            var = obs_var(len(word))
        step_vars.append(var)
        if prev is not None:
            parts.append(Atom(var, ">=", 0, prev))
        parts.append(_translate_guard(t.guard, var, reset_at))
        for c in t.resets:
            reset_at[c] = var
        prev = var

    formula = conj(*parts)
    if silent_vars:
        formula = _project(formula, silent_vars, step_vars)
    return PathConstraint(tuple(word), formula)


def _project(formula: Guard, drop: list[Clock], all_vars: list[Clock]) -> Guard:
    """Exact existential elimination of ``drop``, branch by branch."""
    results: list[Guard] = []
    for sys in solver.feasible_systems(formula, nonneg=all_vars, variables=all_vars):
        for v in drop:
            sys = sys.project_out(v)
        results.append(conj(*sys.reduced_atoms()))
    return disj(*results)


def path_constraints(t: Tree) -> dict[tuple[str, ...], Guard]:
    """Per observable word, the disjunction of accepting-path formulas."""
    out: dict[tuple[str, ...], list[Guard]] = {}
    for path in _accepting_paths(t):
        pc = _path_formula(t, path)
        if isinstance(pc.formula, FalseGuard):
            continue
        out.setdefault(pc.word, []).append(pc.formula)
    return {w: disj(*fs) for w, fs in out.items()}


def language_equal(t1: Tree, t2: Tree, k: Optional[int] = None) -> EquivalenceResult:
    """Compare bounded languages word by word; witness on first difference."""
    m1 = path_constraints(t1)
    m2 = path_constraints(t2)
    words = sorted(set(m1) | set(m2), key=lambda w: (len(w), w))
    for word in words:
        if k is not None and len(word) > k:
            continue
        f1 = m1.get(word, FALSE)
        f2 = m2.get(word, FALSE)
        tvars = [obs_var(j) for j in range(1, len(word) + 1)]
        for fa, fb, direction in ((f1, f2, "left-only"), (f2, f1, "right-only")):
            assignment = solver.difference_witness(fa, fb, nonneg=tvars)
            if assignment is not None:
                times = tuple(assignment.get(v, Fraction(0)) for v in tvars)
                return EquivalenceResult(False, word, times, direction)
    return EquivalenceResult(True)


def trace_in_language(t: Tree, trace: TimedTrace) -> bool:
    """Exact membership of a concrete timed trace (silent times solved for)."""
    valuation = {obs_var(j + 1): ts for j, (ts, _) in enumerate(trace.events)}
    return any(
        eval_guard(_path_formula(t, path).formula, valuation)
        for path in _accepting_paths(t, trace.word)
    )


def sample_traces(
    t: Tree,
    grid_denominator: int,
    max_explored: int = 2_000_000,
) -> set[TimedTrace]:
    """All accepted traces with timestamps on the 1/d grid.

    Inter-event delays range over [0, max constant + 1]; for integer-bound
    difference constraints every feasible word has such a grid
    representative once d exceeds the number of variables in scope.
    """
    maxc = max(
        (abs(a.bound) for tr in t.transitions for a in guard_atoms(tr.guard)),
        default=0,
    )
    horizon = maxc + 1
    d = grid_denominator
    explored = 0
    out: set[TimedTrace] = set()
    for word, formula in path_constraints(t).items():
        n = len(word)
        if n == 0:
            out.add(TimedTrace(()))
            continue
        tvars = [obs_var(j) for j in range(1, n + 1)]
        systems = list(solver.feasible_systems(formula, nonneg=tvars, variables=tvars))
        if not systems:
            continue

        stack: list[tuple[int, tuple[Fraction, ...]]] = [(0, ())]
        while stack:
            j, times = stack.pop()
            if j == n:
                out.add(TimedTrace(tuple(zip(times, word))))
                continue
            base = times[-1] if times else Fraction(0)
            for step in range(0, horizon * d + 1):
                explored += 1
                if explored > max_explored:
                    from .core import ResourceLimitError

                    raise ResourceLimitError("sampling grid exceeds exploration cap")
                ts = base + Fraction(step, d)
                cand = times + (ts,)
                if any(_prefix_feasible(sys, cand) for sys in systems):
                    stack.append((j + 1, cand))
    return out


def _prefix_feasible(sys: DifferenceSystem, times: tuple[Fraction, ...]) -> bool:
    probe = sys.copy()
    for j, ts in enumerate(times, start=1):
        v = obs_var(j)
        probe.add_difference(v, ZERO_VAR, ts, False)
        probe.add_difference(ZERO_VAR, v, -ts, False)
    return probe.is_satisfiable()
