"""Bounded language comparison of tree automata via zones over timestamps.

A depth-first walk carries a zone (a closed difference system) over the
absolute firing times of the transitions on the current root path.  Each
edge extends it by the edge's timestamp t, by t >= the previous timestamp
and by the edge's guard atoms, each atom on clock x becoming a difference
atom between t and the timestamp of x's most recent reset.  A shared
prefix is thus extended once, not once per path below it.  Guard parts
that are not atoms (the disjunctions of complements in determinized
outputs) are deferred to the next accepting node, which meets the path's
last branch zones with its zone and expands only the parts deferred
since: each part once per root path.  Silent steps contribute internal
timestamps that are projected out exactly, so each observable word gets
a federation (a list of zones) over its observable timestamps:
:func:`path_constraints`.  The zone is the one form of a word's timed
language here.  Two automata accept the same traces for a word iff
:func:`tadet.solver.difference_witness` finds no point of one federation
outside the other.  Membership tests a trace's concrete timestamps
against the zones, and grid sampling reads the grid steps that each
prefix leaves the next timestamp off their raw bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    FALSE,
    REL_SWAP,
    TRUE,
    And,
    Atom,
    Clock,
    FalseGuard,
    Guard,
    ResourceLimitError,
    TimedTrace,
    Transition,
    TrueGuard,
    compare,
    conj,
    guard_atoms,
    map_atoms,
)
from .unfold import Tree
from . import solver
from .solver import DifferenceSystem, ZERO_VAR


def obs_var(j: int) -> Clock:
    """Timestamp of the j-th observable event (1-based)."""
    return Clock(f"t{j}")


# candidate grid steps that sample_traces may count before giving up
SAMPLE_LIMIT = 2_000_000


def _silent_var(j: int) -> Clock:
    return Clock(f"t{j}'")


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
        # x - y = (now - ra) - (now - rb) = rb - ra; equal reset times
        # (both reset on one edge, or neither reset) cancel to 0
        if ra == rb:
            return TRUE if compare(0, a.rel, a.bound) else FALSE
        if rb is None:
            # -ra rel bound, i.e. ra (>=rel flipped) -bound
            return Atom(ra, REL_SWAP[a.rel], -a.bound)
        if ra is None:
            return Atom(rb, a.rel, a.bound)
        return Atom(rb, a.rel, a.bound, ra)

    return map_atoms(g, tr)


def path_constraints(
    tree: Tree, word: Optional[tuple[str, ...]] = None
) -> dict[tuple[str, ...], list[DifferenceSystem]]:
    """Per observable word, the deduplicated closed zones over the zero
    var and ``t1..tw``, in that order, of the tree's accepting paths; with
    ``word``, only that word's, leaving a branch as soon as its actions
    stop being a prefix of it.  Every word in the result has at least one
    zone.

    Depth-first; each node's zone is its parent's, extended by the edge's
    timestamp, ``t >= previous``, and the edge's guard atoms.  The guard's
    other parts wait until an accepting node.  There the branch zones of
    the path's last expansion (at first, the node's zone) are met with its
    zone and expanded by the parts deferred since; the distinct results
    are carried below, a node left with none ends the walk, and the
    silent timestamps are projected out.
    """
    children = tree.build_children_index()
    root = DifferenceSystem(())
    root.close()
    out: dict[tuple[str, ...], dict[tuple, DifferenceSystem]] = {}
    # (edge into the node or None at the root, the state above the edge:
    # zone, last timestamp, reset times, guard parts deferred since the
    # last expansion, its branch zones or None before the first one,
    # observable word, silent timestamps)
    stack: list[tuple[Optional[Transition], tuple]] = [
        (None, (root, ZERO_VAR, {}, (), None, (), ()))
    ]
    while stack:
        edge, state = stack.pop()
        if edge is None:
            nid = tree.root
        else:
            zone, prev, reset_at, deferred, branches, seen, silent = state
            if edge.is_silent:
                var = _silent_var(len(silent) + 1)
                silent += (var,)
            else:
                var = obs_var(len(seen) + 1)
                seen += (edge.action,)
            zone = zone.extend(var)
            zone.add_difference(prev, var, 0, False)
            g = _translate_guard(edge.guard, var, reset_at)
            for p in g.parts if isinstance(g, And) else (g,):
                if isinstance(p, Atom):
                    zone.add_atom(p)
                elif isinstance(p, FalseGuard):
                    zone = None
                    break
                elif not isinstance(p, TrueGuard):
                    deferred += (p,)
            if zone is None or not zone.is_satisfiable():
                continue
            if edge.resets:
                reset_at = {**reset_at, **dict.fromkeys(edge.resets, var)}
            nid = edge.target
            state = (zone, var, reset_at, deferred, branches, seen, silent)
        zone, prev, reset_at, deferred, branches, seen, silent = state
        if tree.nodes[nid].accepting and (word is None or len(seen) == len(word)):
            zones = out.setdefault(seen, {})
            systems = [zone] if branches is None else [
                z for z in map(zone.meet, branches) if z.is_satisfiable()
            ]
            if deferred:
                # distinct branches only: many choices of disjuncts give one zone
                systems = branches = list({
                    tuple(map(tuple, z.m)): z for met in systems
                    for z in solver.feasible_systems(conj(*deferred), zone=met)
                }.values())
                state = (zone, prev, reset_at, (), branches, seen, silent)
            if not systems:
                continue  # no zone below is satisfiable either
            for z in systems:
                z = z.project_out(*silent)
                zones.setdefault(tuple(map(tuple, z.m)), z)
        for t in reversed(children[nid]):
            if t.is_silent or word is None or (
                len(seen) < len(word) and t.action == word[len(seen)]
            ):
                stack.append((t, state))
    return {w: list(zones.values()) for w, zones in out.items() if zones}


def language_equal(t1: Tree, t2: Tree) -> EquivalenceResult:
    """Compare bounded languages word by word; witness on first difference."""
    m1 = path_constraints(t1)
    m2 = path_constraints(t2)
    words = sorted(set(m1) | set(m2), key=lambda w: (len(w), w))
    for word in words:
        f1 = m1.get(word, [])
        f2 = m2.get(word, [])
        tvars = [obs_var(j) for j in range(1, len(word) + 1)]
        for fa, fb, direction in ((f1, f2, "left-only"), (f2, f1, "right-only")):
            assignment = solver.difference_witness(fa, fb)
            if assignment is not None:
                times = tuple(assignment[v] for v in tvars)
                return EquivalenceResult(False, word, times, direction)
    return EquivalenceResult(True)


def trace_in_language(t: Tree, trace: TimedTrace) -> bool:
    """Exact membership of a concrete timed trace (silent times solved for)."""
    point = (0, *(ts for ts, _ in trace.events))
    return any(z.contains(point) for z in path_constraints(t, trace.word).get(trace.word, ()))


def sample_traces(t: Tree, grid_denominator: int) -> set[TimedTrace]:
    """All accepted traces with timestamps on the 1/d grid.

    Inter-event delays range over [0, max constant + 1]; for integer-bound
    difference constraints every feasible word has such a grid
    representative once d exceeds the number of variables in scope.

    Each word's grid prefixes are walked depth first, each with the zones
    of the word that hold it.  A closed zone's projection onto its first
    variables is their sub-matrix, so given a prefix the next timestamp
    ranges over one interval per holding zone, read off its raw bounds
    with timestamps as ints in units of 1/d (a strict end moves by one
    step; ``Fraction`` times are built only for emitted traces).  The
    prefix's children are the grid steps in the union of these intervals,
    each held by the zones whose interval has it.  Every expanded prefix
    counts all of its (max constant + 1) * d + 1 steps toward
    ``SAMPLE_LIMIT``, as if it probed each one.  A ``grid_denominator`` that is not a positive int
    raises :class:`ValueError`.
    """
    if not isinstance(grid_denominator, int) or grid_denominator < 1:
        raise ValueError(f"grid denominator must be a positive int, not {grid_denominator!r}")
    maxc = max(
        (abs(a.bound) for tr in t.transitions for a in guard_atoms(tr.guard)),
        default=0,
    )
    d = grid_denominator
    top = (maxc + 1) * d  # the last step, in units of 1/d
    explored = 0
    out: set[TimedTrace] = set()
    for word, zones in path_constraints(t).items():
        n = len(word)
        if n == 0:
            out.add(TimedTrace(()))
            continue
        # a prefix: the zero var's 0, then the timestamps of a prefix of
        # the word, in steps of 1/d; and the zones whose projection holds it
        stack: list[tuple[tuple[int, ...], list[DifferenceSystem]]] = [((0,), zones)]
        while stack:
            point, holding = stack.pop()
            i = len(point)
            if i > n:
                out.add(TimedTrace(tuple(zip((Fraction(p, d) for p in point[1:]), word))))
                continue
            explored += top + 1
            if explored > SAMPLE_LIMIT:
                raise ResourceLimitError("sampling grid exceeds exploration cap")
            prev = point[-1]
            children: dict[int, list[DifferenceSystem]] = {}
            for z in holding:
                first, last = 0, top  # steps past prev
                for j, p in enumerate(point):
                    b = z.m[j][i]  # p - x <= c: x >= p - c
                    if b is not None:
                        first = max(first, p - prev - (b >> 1) * d + (not b & 1))
                    b = z.m[i][j]  # x - p <= c: x <= p + c
                    if b is not None:
                        last = min(last, p - prev + (b >> 1) * d - (not b & 1))
                for step in range(first, last + 1):
                    children.setdefault(step, []).append(z)
            for step, inside in children.items():
                stack.append((point + (prev + step,), inside))
    return out
