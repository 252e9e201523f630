"""Core types for timed automata with silent transitions.

Clocks, guards, transitions and automata are immutable values; the trace
semantics (delay/jump) is implemented with exact rational arithmetic so
that guard evaluation at integer bounds is never subject to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Union

Rational = Union[int, Fraction]
LocId = Hashable

RELS = ("<", "<=", "=", ">=", ">")
# the relation of the complement ('=' splits in two and has none) and the
# relation read from the other side (a rel b iff b SWAP[rel] a)
REL_COMPLEMENT = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}
REL_SWAP = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}


class StructuralError(ValueError):
    """A run or automaton violates a structural precondition."""


class UnsupportedInputError(ValueError):
    """Input uses a feature outside the supported fragment."""


class ResourceLimitError(RuntimeError):
    """A configurable expansion limit was exceeded."""


# ---------------------------------------------------------------------------
# clocks


@dataclass(frozen=True, order=True)
class Clock:
    """A clock variable.

    ``level``/``silent`` identify clocks introduced by renaming: ``x_i`` is
    reset on the i-th observable transition of a path, ``x_{i,j}`` on the
    j-th consecutive silent transition after observable level i.  Original
    model clocks carry ``level == -1``.
    """

    name: str
    level: int = -1
    silent: int = -1

    @property
    def is_renamed(self) -> bool:
        return self.level >= 0

    def __str__(self) -> str:
        return self.name


def level_clock(i: int) -> Clock:
    if i < 0:
        raise ValueError("observable level must be non-negative")
    return Clock(f"x{i}", level=i)


def silent_clock(i: int, j: int) -> Clock:
    if i < 0 or j < 0:
        raise ValueError("silent-level indices must be non-negative")
    return Clock(f"x{i}.{j}", level=i, silent=j)


X0 = level_clock(0)


# ---------------------------------------------------------------------------
# guards


class Guard:
    """Base class for the negation-free guard formula tree."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueGuard(Guard):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseGuard(Guard):
    def __str__(self) -> str:
        return "false"


TRUE = TrueGuard()
FALSE = FalseGuard()


@dataclass(frozen=True)
class Atom(Guard):
    """``left rel bound`` or, with ``right`` present, ``left - right rel bound``."""

    left: Clock
    rel: str
    bound: int
    right: Optional[Clock] = None

    def __post_init__(self) -> None:
        if self.rel not in RELS:
            raise ValueError(f"bad relation {self.rel!r}")
        if type(self.bound) is not int:
            raise ValueError(f"bound must be an integer, got {self.bound!r}")
        if self.right is not None and self.right == self.left:
            raise ValueError("diagonal atom needs two distinct clocks")

    def __str__(self) -> str:
        lhs = self.left.name if self.right is None else f"{self.left.name}-{self.right.name}"
        return f"{lhs}{self.rel}{self.bound}"


@dataclass(frozen=True)
class And(Guard):
    parts: tuple[Guard, ...]

    def __str__(self) -> str:
        return "(" + " & ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Or(Guard):
    parts: tuple[Guard, ...]

    def __str__(self) -> str:
        return "(" + " | ".join(str(p) for p in self.parts) + ")"


def conj(*parts: Guard) -> Guard:
    """Conjunction with flattening; True units and False short-circuit."""
    flat: list[Guard] = []
    for p in parts:
        if isinstance(p, FalseGuard):
            return FALSE
        if isinstance(p, TrueGuard):
            continue
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts: Guard) -> Guard:
    flat: list[Guard] = []
    for p in parts:
        if isinstance(p, TrueGuard):
            return TRUE
        if isinstance(p, FalseGuard):
            continue
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def guard_clocks(g: Guard) -> frozenset[Clock]:
    if isinstance(g, Atom):
        return frozenset((g.left,) if g.right is None else (g.left, g.right))
    if isinstance(g, (And, Or)):
        out: frozenset[Clock] = frozenset()
        for p in g.parts:
            out |= guard_clocks(p)
        return out
    return frozenset()


def guard_atoms(g: Guard) -> list[Atom]:
    """All atoms of the formula tree, in left-to-right order."""
    if isinstance(g, Atom):
        return [g]
    if isinstance(g, (And, Or)):
        out: list[Atom] = []
        for p in g.parts:
            out.extend(guard_atoms(p))
        return out
    return []


def map_atoms(g: Guard, fn) -> Guard:
    """Rebuild the formula with ``fn`` applied to each atom (fn returns a Guard)."""
    if isinstance(g, Atom):
        return fn(g)
    if isinstance(g, And):
        return conj(*(map_atoms(p, fn) for p in g.parts))
    if isinstance(g, Or):
        return disj(*(map_atoms(p, fn) for p in g.parts))
    return g


def rename_guard(g: Guard, mapping: Mapping[Clock, Clock]) -> Guard:
    def sub(a: Atom) -> Guard:
        left = mapping.get(a.left, a.left)
        right = mapping.get(a.right, a.right) if a.right is not None else None
        if right is not None and left == right:
            return TRUE if compare(0, a.rel, a.bound) else FALSE
        return Atom(left, a.rel, a.bound, right)

    return map_atoms(g, sub)


def compare(value: Rational, rel: str, bound: Rational) -> bool:
    if rel == "<":
        return value < bound
    if rel == "<=":
        return value <= bound
    if rel == "=":
        return value == bound
    if rel == ">=":
        return value >= bound
    return value > bound


def eval_guard(g: Guard, valuation: Mapping[Clock, Rational]) -> bool:
    if isinstance(g, TrueGuard):
        return True
    if isinstance(g, FalseGuard):
        return False
    if isinstance(g, Atom):
        v = valuation[g.left]
        if g.right is not None:
            v = v - valuation[g.right]
        return compare(v, g.rel, g.bound)
    if isinstance(g, And):
        return all(eval_guard(p, valuation) for p in g.parts)
    if isinstance(g, Or):
        return any(eval_guard(p, valuation) for p in g.parts)
    raise TypeError(f"not a guard: {g!r}")


# A bound on a difference from above is one raw int, ``c << 1 | weak``:
# ``c`` is the constant and ``weak`` is 1 for ``<=`` and 0 for ``<``; None
# is +infinity.  A plain ``<`` on raw bounds compares tightness (the raw
# encoding of the UPPAAL DBM library; Bengtsson & Yi, *Timed Automata:
# Semantics, Algorithms and Tools*, 2004).
RAW_ZERO = 1  # raw "<= 0"; a cycle whose sum lies below it is empty


def raw_add(a: int, b: int) -> int:
    """Sum of two raw bounds: values add, the sum is weak iff both are."""
    return a + b - ((a | b) & 1)


# "Clock | None", not Optional[Clock]: typing caches its subscriptions, and
# the cache would keep every imported copy of this module alive
BoundTable = dict[tuple[Clock, Clock | None], list[int | None]]


def conjunction_atoms(g: Guard) -> Optional[list[Atom]]:
    """The atoms of a conjunction of atoms (none for ``true``); None for
    ``false`` and for anything containing a disjunction."""
    if isinstance(g, TrueGuard):
        return []
    if isinstance(g, Atom):
        return [g]
    if isinstance(g, And) and all(isinstance(p, Atom) for p in g.parts):
        return list(g.parts)
    return None


def tighten(bounds: BoundTable, key: tuple[Clock, Clock | None], side: int, raw: int) -> None:
    """Tighten side ``side`` of the row ``key`` of ``bounds`` by the raw
    bound ``raw``."""
    row = bounds.get(key)
    if row is None:
        row = bounds[key] = [None, None]
    if row[side] is None or raw < row[side]:
        row[side] = raw


def atom_bounds(a: Atom) -> tuple[int | None, int | None]:
    """The raw bounds of ``a`` on ``right - left`` and on ``left - right``
    (``right`` None reads as the zero clock); None where it sets none, and
    ``=`` sets both, weak."""
    rel, c = a.rel, a.bound
    return (None if rel == "<" or rel == "<=" else -c << 1 | (rel != ">"),
            None if rel == ">" or rel == ">=" else c << 1 | (rel != "<"))


def add_bounds(bounds: BoundTable, atoms: Iterable[Atom]) -> BoundTable:
    """Tighten the bound table ``bounds`` by ``atoms`` in place; returns it.

    The table maps ``(left, right)`` to the raw bounds ``[on right - left,
    on left - right]`` (:func:`atom_bounds`), each the tightest that the
    atoms set: one entry pair of a difference-bound matrix
    (``solver.DifferenceSystem``), without closure.
    """
    for a in atoms:
        key = (a.left, a.right)
        row = bounds.get(key)
        if row is None:
            row = bounds[key] = [None, None]
        lo, up = atom_bounds(a)
        if lo is not None and (row[0] is None or lo < row[0]):
            row[0] = lo
        if up is not None and (row[1] is None or up < row[1]):
            row[1] = up
    return bounds


def empty_interval(lo: int | None, up: int | None) -> bool:
    """True iff no value meets both raw bounds of a row: ``lo`` on
    right - left and ``up`` on left - right."""
    return lo is not None and up is not None and raw_add(lo, up) < RAW_ZERO


def table_guard(bounds: BoundTable) -> Guard:
    """The conjunction a bound table stands for, sorted by clock names;
    ``false`` when some interval is empty."""
    out: list[Guard] = []
    for (left, right), (lo, up) in sorted(
        bounds.items(), key=lambda kv: (kv[0][0].name, kv[0][1].name if kv[0][1] else "")
    ):
        if empty_interval(lo, up):
            return FALSE
        if lo is not None and up is not None and -(lo >> 1) == up >> 1:
            out.append(Atom(left, "=", up >> 1, right))
            continue
        if lo is not None:
            out.append(Atom(left, ">=" if lo & 1 else ">", -(lo >> 1), right))
        if up is not None:
            out.append(Atom(left, "<=" if up & 1 else "<", up >> 1, right))
    return conj(*out)


def simplify_conjunction(g: Guard) -> Guard:
    """Keep only the tightest lower/upper bound per clock (or clock pair).

    Only applies when ``g`` is a conjunction of atoms; ``false`` and anything
    containing a disjunction are returned unchanged.  Semantics-preserving.
    """
    atoms = conjunction_atoms(g)
    return g if atoms is None else table_guard(add_bounds({}, atoms))


# ---------------------------------------------------------------------------
# automata


@dataclass(frozen=True)
class Transition:
    source: LocId
    target: LocId
    action: Optional[str]  # None for silent
    guard: Guard = TRUE
    resets: frozenset[Clock] = frozenset()

    @property
    def is_silent(self) -> bool:
        return self.action is None

    def __str__(self) -> str:
        label = "eps" if self.is_silent else self.action
        rst = "{" + ",".join(sorted(c.name for c in self.resets)) + "}"
        return f"{self.source} --{label},{self.guard},{rst}--> {self.target}"


@dataclass(frozen=True)
class TimedAutomaton:
    """A timed automaton, possibly with silent transitions.

    The same type represents input eNTA models and the tree-shaped
    intermediate forms of the pipeline; tree instances carry node metadata
    in :class:`tadet.unfold.Tree`.
    """

    locations: frozenset[LocId]
    initial: LocId
    accepting: frozenset[LocId]
    clocks: frozenset[Clock]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if self.initial not in self.locations:
            raise StructuralError("initial location not declared")
        for q in self.accepting:
            if q not in self.locations:
                raise StructuralError(f"accepting location {q!r} not declared")
        for i, t in enumerate(self.transitions):
            if t.source not in self.locations or t.target not in self.locations:
                raise StructuralError(f"transition {i} endpoint not declared")
            for c in guard_clocks(t.guard) | t.resets:
                if c not in self.clocks:
                    raise StructuralError(f"transition {i} references undeclared clock {c.name}")

    def silent_transitions(self) -> list[Transition]:
        return [t for t in self.transitions if t.is_silent]


def make_automaton(
    locations: Iterable[LocId],
    initial: LocId,
    accepting: Iterable[LocId],
    clocks: Iterable[Clock],
    transitions: Iterable[Transition],
) -> TimedAutomaton:
    return TimedAutomaton(
        locations=frozenset(locations),
        initial=initial,
        accepting=frozenset(accepting),
        clocks=frozenset(clocks),
        transitions=tuple(transitions),
    )


# ---------------------------------------------------------------------------
# runs and traces


@dataclass(frozen=True)
class TimedTrace:
    """Observable timed trace: non-decreasing absolute timestamps."""

    events: tuple[tuple[Fraction, str], ...]

    def __post_init__(self) -> None:
        last = Fraction(0)
        for ts, _ in self.events:
            if ts < last:
                raise StructuralError("timestamps must be non-decreasing")
            last = ts

    @property
    def word(self) -> tuple[str, ...]:
        return tuple(a for _, a in self.events)

    def __len__(self) -> int:
        return len(self.events)


def timed_trace(*events: tuple[Rational, str]) -> TimedTrace:
    return TimedTrace(tuple((Fraction(ts), a) for ts, a in events))


@dataclass(frozen=True)
class Run:
    """Alternating delays and transitions; well-behaving runs end observably."""

    steps: tuple[tuple[Fraction, Transition], ...]

    def observable_trace(self) -> TimedTrace:
        now = Fraction(0)
        events = []
        for d, t in self.steps:
            now += d
            if not t.is_silent:
                events.append((now, t.action))
        return TimedTrace(tuple(events))


def run_of(*steps: tuple[Rational, Transition]) -> Run:
    return Run(tuple((Fraction(d), t) for d, t in steps))


def check_run(a: TimedAutomaton, r: Run, require_well_behaving: bool = True) -> bool:
    """Replay ``r`` on ``a``: true iff every delay/jump is admissible.

    Raises :class:`StructuralError` for runs that are not paths of ``a``
    rooted at the initial location; an infeasible (guard-violating) run
    returns False.  Acceptance is not part of the verdict: inspect the final
    location separately.
    """
    if not r.steps:
        return True
    if require_well_behaving and r.steps[-1][1].is_silent:
        raise StructuralError("well-behaving runs end with an observable action")
    loc = a.initial
    val: dict[Clock, Fraction] = {c: Fraction(0) for c in a.clocks}
    known = set(a.transitions)
    for d, t in r.steps:
        if d < 0:
            raise StructuralError("negative delay")
        if t not in known:
            raise StructuralError(f"transition not part of the automaton: {t}")
        if t.source != loc:
            raise StructuralError(f"transition {t} does not start at current location {loc!r}")
        val = {c: v + d for c, v in val.items()}
        if not eval_guard(t.guard, val):
            return False
        for c in t.resets:
            val[c] = Fraction(0)
        loc = t.target
    return True


# ---------------------------------------------------------------------------
# structural checks


def check_strong_responsiveness(a: TimedAutomaton) -> bool:
    """True iff the silent-transition subgraph is acyclic (no silent loops)."""
    silent = a.silent_transitions()
    adj: dict[LocId, list[LocId]] = {}
    indegree: dict[LocId, int] = {}
    for t in silent:
        adj.setdefault(t.source, []).append(t.target)
        indegree[t.target] = indegree.get(t.target, 0) + 1
    # peel off locations that no remaining silent edge enters (Kahn's
    # algorithm, with an explicit stack); the edges of a loop are never peeled
    ready = [u for u in adj if u not in indegree]
    peeled = 0
    while ready:
        for v in adj.get(ready.pop(), ()):
            peeled += 1
            indegree[v] -= 1
            if not indegree[v]:
                ready.append(v)
    return peeled == len(silent)
