"""Satisfiability of clock guards via strictness-aware difference systems.

Guards are conjunctions/disjunctions of unary and diagonal atoms with
integer bounds: pure difference logic.  Satisfiability branches over the
disjunctions lazily and closes a bound matrix over the clocks plus a zero
reference by shortest paths; a negative cycle means UNSAT.  Implication
subtracts federations (unions of closed matrices) in disjoint pieces.

The matrix holds each bound as one raw Python int, ``c << 1 | weak``
(:func:`tadet.core.raw_add`; the encoding of the UPPAAL DBM library), so
closure does integer additions and comparisons only.  Every bound is an
integer; rationals appear only in concrete points, which are read off a
closed matrix.  A closed satisfiable matrix absorbs each further
constraint with an O(n^2) update instead of a new O(n^3) closure
(Bengtsson & Yi, *Timed Automata: Semantics, Algorithms and Tools*, 2004).
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import (
    FALSE,
    TRUE,
    And,
    Atom,
    Clock,
    FalseGuard,
    Guard,
    Or,
    RAW_ZERO,
    REL_COMPLEMENT,
    ResourceLimitError,
    TrueGuard,
    atom_bounds,
    conj,
    disj,
    guard_clocks,
    raw_add,
)

DEFAULT_DNF_LIMIT = 10**6

# calls since import of is_satisfiable, feasible_systems and
# DifferenceSystem.close, each bumped on entry; a caller reads the
# difference over a span of its own (cli.run_pipeline, per stage)
CALLS = {"is_satisfiable": 0, "feasible_systems": 0, "close": 0}


# ---------------------------------------------------------------------------
# complement


def complement_atom(a: Atom) -> Guard:
    """Negation-free complement: flip the relation; equality splits."""
    if a.rel == "=":
        return disj(Atom(a.left, "<", a.bound, a.right), Atom(a.left, ">", a.bound, a.right))
    return Atom(a.left, REL_COMPLEMENT[a.rel], a.bound, a.right)


def complement_guard(g: Guard) -> Guard:
    """De Morgan over the formula tree with complement_atom at the leaves."""
    if isinstance(g, TrueGuard):
        return FALSE
    if isinstance(g, FalseGuard):
        return TRUE
    if isinstance(g, Atom):
        return complement_atom(g)
    if isinstance(g, And):
        return disj(*(complement_guard(p) for p in g.parts))
    if isinstance(g, Or):
        return conj(*(complement_guard(p) for p in g.parts))
    raise TypeError(f"not a guard: {g!r}")


# ---------------------------------------------------------------------------
# difference systems


# level -2: a model clock has level -1 and a renamed one a level >= 0, so
# no reader and no renaming makes this clock
ZERO_VAR = Clock("__zero__", level=-2)


class DifferenceSystem:
    """Bound matrix on pairwise differences of clocks (plus a zero var).

    Entry ``m[i][j]`` bounds ``vars[i] - vars[j]`` from above as a raw int
    ``c << 1 | weak``, where ``weak`` is 1 for ``<=`` and 0 for ``<``, or
    is None for +infinity.  On raw entries a plain ``<`` compares tightness
    and :func:`tadet.core.raw_add` adds two bounds.

    :meth:`close` is the full O(n^3) shortest-path closure; a diagonal
    entry below raw ``<= 0`` witnesses a negative cycle, i.e.
    unsatisfiability.  A closed satisfiable matrix stays closed:
    :meth:`add_difference` folds a tightened entry in place in O(n^2) and
    finds any negative cycle through it, so ``copy()``, a few atoms and
    :meth:`is_satisfiable` need no further full closure.
    """

    def __init__(self, variables: Iterable[Clock]):
        self.vars: list[Clock] = [ZERO_VAR] + sorted(set(variables) - {ZERO_VAR})
        self._index = {v: i for i, v in enumerate(self.vars)}
        n = len(self.vars)
        self.m: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            self.m[i][i] = RAW_ZERO
        self._closed = False
        self._sat = True  # meaningful once closed

    def copy(self) -> "DifferenceSystem":
        out = DifferenceSystem.__new__(DifferenceSystem)
        out.vars = self.vars  # vars and index are never mutated: shared
        out._index = self._index
        out.m = [row[:] for row in self.m]
        out._closed = self._closed
        out._sat = self._sat
        return out

    def extend(self, var: Clock) -> "DifferenceSystem":
        """A copy with one more variable, ``var``, left unconstrained; a
        closed matrix stays closed."""
        n = len(self.vars)
        out = DifferenceSystem.__new__(DifferenceSystem)
        out.vars = self.vars + [var]
        out._index = {**self._index, var: n}
        out.m = [row + [None] for row in self.m]
        out.m.append([None] * n + [RAW_ZERO])
        out._closed = self._closed
        out._sat = self._sat
        return out

    def extend_reset(self, var: Clock) -> "DifferenceSystem":
        """A copy with one more variable, ``var``, equal to the zero var: a
        fresh clock just reset.  Its row and column copy the zero var's, so
        the matrix stays closed; a matrix that is not closed is closed
        first."""
        if not self._closed:
            self.close()
        old = [*range(len(self.vars)), 0]
        return self._remapped(self.vars + [var], old, old)

    def up(self) -> None:
        """Let time elapse: drop the upper bound on every variable's value.

        On a closed satisfiable matrix this gives the closed matrix of all
        points reached by a delay from a point of the system (Bengtsson &
        Yi 2004); an unclosed matrix is closed first.
        """
        if self.is_satisfiable():
            for row in self.m[1:]:
                row[0] = None

    def add_difference(self, u: Clock, v: Clock, value: int, strict: bool) -> None:
        """Constrain u - v <= value (strict: <)."""
        self._constrain(self._index[u], self._index[v], value << 1 | (not strict))

    def _constrain(self, i: int, j: int, b: int) -> None:
        """Constrain entry ``m[i][j]`` by the raw bound ``b``."""
        old = self.m[i][j]
        if old is not None and old <= b:
            return
        if self._closed and self._sat:
            self._tighten(i, j, b)
        else:
            self.m[i][j] = b

    def _tighten(self, i: int, j: int, b: int) -> None:
        """Set ``m[i][j] = b`` in a closed satisfiable matrix, keeping it closed.

        Every path that gets shorter runs through the new edge, so one
        pass ``m[k][l] = min(m[k][l], m[k][i] + b + m[j][l])`` over the
        old entries restores closure (Bengtsson & Yi 2004), unless the
        edge closes a negative cycle with ``m[j][i]``.
        """
        m = self.m
        back = m[j][i]
        if back is not None and raw_add(back, b) < RAW_ZERO:
            m[i][j] = b
            self._sat = False
            return
        # row j and column i do not change: m[j][i] + b is not negative
        cols = [(l, d) for l, d in enumerate(m[j]) if d is not None]
        for row in m:
            dki = row[i]
            if dki is None:
                continue
            via_i = dki + b - ((dki | b) & 1)
            for l, djl in cols:
                via = via_i + djl - ((via_i | djl) & 1)
                dkl = row[l]
                if dkl is None or via < dkl:
                    row[l] = via

    def add_atom(self, a: Atom) -> None:
        i = self._index[a.left]
        j = 0 if a.right is None else self._index[a.right]  # 0: the zero var
        lo, up = atom_bounds(a)
        if up is not None:
            self._constrain(i, j, up)
        if lo is not None:
            self._constrain(j, i, lo)

    def admits(self, a: Atom) -> bool:
        """Whether this closed matrix stays satisfiable with the atom ``a``,
        without a copy: each new bound against the opposite entry, as in
        :meth:`_tighten` (an ``=`` atom's own two bounds sum to ``<= 0``)."""
        if not self._sat:
            return False
        m = self.m
        i = self._index[a.left]
        j = 0 if a.right is None else self._index[a.right]
        lo, up = atom_bounds(a)
        return not (
            up is not None and m[j][i] is not None and raw_add(m[j][i], up) < RAW_ZERO
            or lo is not None and m[i][j] is not None and raw_add(m[i][j], lo) < RAW_ZERO
        )

    def meet(self, other: "DifferenceSystem") -> "DifferenceSystem":
        """A copy of this closed system tightened by every entry of the
        closed system ``other``, whose variables begin this one's: the
        intersection of the two, closed without a full closure."""
        out = self.copy()
        for i, row in enumerate(other.m):
            for j, b in enumerate(row):
                if b is not None:
                    out._constrain(i, j, b)
        return out

    def add_nonneg(self, clocks: Iterable[Clock]) -> None:
        for c in clocks:
            if c in self._index and c != ZERO_VAR:
                self._constrain(0, self._index[c], RAW_ZERO)

    def admits_nonneg(self) -> bool:
        """Whether this system has a point with every clock >= 0.

        The added edges ``0 - x <= 0`` all leave the zero var, so a negative
        cycle through them runs ``0 -> x ~> 0`` and costs at least
        ``m[x][0]``: the system admits them iff it is satisfiable and no
        clock's bound ``x - 0`` lies below raw ``<= 0``.
        """
        return self.is_satisfiable() and all(row[0] is None or row[0] >= RAW_ZERO for row in self.m)

    def close(self) -> None:
        """Floyd-Warshall closure; stops at the first negative cycle."""
        CALLS["close"] += 1
        m = self.m
        self._closed = True
        self._sat = False
        if any(row[i] < RAW_ZERO for i, row in enumerate(m)):
            return
        for k, rowk in enumerate(m):
            cols = [(j, d) for j, d in enumerate(rowk) if d is not None]
            for i, rowi in enumerate(m):
                dik = rowi[k]
                if dik is None or i == k:
                    continue
                for j, dkj in cols:
                    via = dik + dkj - ((dik | dkj) & 1)
                    dij = rowi[j]
                    if dij is None or via < dij:
                        rowi[j] = via
                if rowi[i] < RAW_ZERO:
                    return
        self._sat = True

    def is_satisfiable(self) -> bool:
        if not self._closed:
            self.close()
        return self._sat

    def project_out(self, *drop: Clock) -> "DifferenceSystem":
        """Existentially eliminate the variables ``drop``; exact for
        difference systems.

        The closed matrix already holds every bound that a path through a
        dropped variable implies, so dropping its row and column leaves the
        closed matrix of the projection.
        """
        if not self._closed:
            self.close()
        gone = {self._index[v] for v in drop}
        keep = [i for i in range(len(self.vars)) if i not in gone]
        return self._remapped([self.vars[i] for i in keep], keep, keep)

    def over(self, clocks: Iterable[Clock]) -> "DifferenceSystem":
        """The system over the sorted union of its variables and ``clocks``,
        where each added clock is only known to be >= 0; ``self`` when it
        has them all.

        Off its diagonal, an added clock v has finite entries in the closure
        only in its column: u - v <= (u - 0) + (0 - v) <= m[u][0].  So that
        column copies the zero var's, and the matrix stays closed.  A
        matrix that is not closed is closed first.
        """
        added = set(clocks).difference(self.vars)
        if not added:
            return self
        if not self._closed:
            self.close()
        variables = [ZERO_VAR] + sorted(added.union(self.vars[1:]))
        old = [self._index.get(v) for v in variables]
        return self._remapped(variables, old, [0 if j is None else j for j in old])

    def rebased(self, anchor: Clock, clocks: Iterable[Clock]) -> "DifferenceSystem":
        """This closed system read relative to a later reset of ``anchor``,
        over the sorted union of its clocks, ``anchor`` and ``clocks``: the
        zero var's row and column become ``anchor``'s, as each unary atom
        ``x ~ n`` becomes ``x - anchor ~ n`` (``determinize.rebase_guard``).
        The fresh zero var and each added clock are unbounded, so the
        matrix stays closed.
        """
        if anchor in self._index:
            raise ValueError(f"the system already reads {anchor}")
        variables = self.vars[:]
        for v in {anchor, *clocks}.difference(self.vars):
            insort(variables, v, 1)
        old = [None] + [0 if v is anchor else self._index.get(v) for v in variables[1:]]
        return self._remapped(variables, old, old)

    def _remapped(
        self, variables: list[Clock], rows: list[Optional[int]], cols: list[Optional[int]]
    ) -> "DifferenceSystem":
        """The system over ``variables`` whose k-th row is this closed
        system's row ``rows[k]`` read at the columns ``cols``; a row or
        column that is None is unbounded.  Marked closed: :meth:`over`,
        :meth:`rebased`, :meth:`project_out` and :meth:`extend_reset` map a
        closed matrix onto a closed one."""
        out = DifferenceSystem.__new__(DifferenceSystem)
        out.vars = variables
        out._index = {v: i for i, v in enumerate(variables)}
        out.m = []
        for k, i in enumerate(rows):
            if i is None:
                row = [None] * len(rows)
                row[k] = RAW_ZERO
            else:
                src = self.m[i]
                row = [None if j is None else src[j] for j in cols]
            out.m.append(row)
        out._closed = True
        out._sat = self._sat
        return out

    def _minimal_constraints(self) -> list[tuple[int, int, int]]:
        """``(i, j, raw)`` triples, each bounding ``vars[i] - vars[j]`` by
        the raw bound ``raw``, whose closure is this (satisfiable) system;
        ordered by the later variable of each pair.

        Zero-cycle classes (variables at fixed offsets from each other) are
        collapsed onto one representative, each member tied to it by two
        opposite bounds; among representatives an entry is dropped when it
        is the exact sum of two others (minimal form of a closed matrix
        without zero cycles; Larsen et al., RTSS 1997).
        """
        if not self.is_satisfiable():
            raise ValueError("system is unsatisfiable")
        m = self.m

        def fixed(u: int, v: int) -> bool:
            duv, dvu = m[u][v], m[v][u]
            # both weak and opposite: raw (2c + 1) + (-2c + 1) == 2
            return duv is not None and dvu is not None and duv & dvu & 1 and duv + dvu == 2

        rep: list[int] = []
        for v in range(len(m)):
            rep.append(next((r for r in rep if fixed(v, r)), v))
        reps = [v for v, r in enumerate(rep) if v == r]
        out = [(v, r, m[v][r]) for v, r in enumerate(rep) if v != r]
        out += [(r, v, m[r][v]) for v, r in enumerate(rep) if v != r]
        out += [
            (u, v, m[u][v]) for u in reps for v in reps
            if u != v and m[u][v] is not None and not any(
                w != u and w != v and m[u][w] is not None and m[w][v] is not None
                and raw_add(m[u][w], m[w][v]) == m[u][v]
                for w in reps
            )
        ]
        out.sort(key=lambda c: (max(c[0], c[1]), min(c[0], c[1])))
        return out

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Whether the values ``point`` of the first variables, the zero
        var's (0) first, meet every entry among those variables.

        The projection of a closed matrix onto some of its variables is
        their sub-matrix, so on a closed one this says whether the values
        extend to a point of the system.
        """
        m = self.m
        for i, p in enumerate(point):
            row = m[i]
            for j, q in enumerate(point):
                d = row[j]
                if d is not None:
                    diff, c = p - q, d >> 1
                    if diff > c or (diff == c and not d & 1):
                        return False
        return True

    def next_bounds(
        self, point: Sequence[Fraction]
    ) -> tuple[Optional[Fraction], bool, Optional[Fraction], bool]:
        """The interval that the values ``point`` of the first variables, the
        zero var's (0) first, leave the next variable, as ``(low,
        low_strict, high, high_strict)``; an unbounded end is None.

        It is read off the entries between the next variable and those
        before it.  On a closed matrix whose projection holds ``point`` it
        is exactly the set of values that extend ``point`` to a point of the
        projection onto one more variable, and it is never empty.
        """
        m = self.m
        i = len(point)
        low = high = None
        low_strict = high_strict = False
        for j, p in enumerate(point):
            d = m[j][i]  # p - x <= c: x >= p - c
            if d is not None:
                v = p - (d >> 1)
                if low is None or v > low or (v == low and not d & 1):
                    low, low_strict = v, not d & 1
            d = m[i][j]  # x - p <= c: x <= p + c
            if d is not None:
                v = p + (d >> 1)
                if high is None or v < high or (v == high and not d & 1):
                    high, high_strict = v, not d & 1
        return low, low_strict, high, high_strict

    def witness(self) -> dict[Clock, Fraction]:
        """One satisfying assignment (zero var pinned to 0).

        Fixes the variables in order, each to a point of the interval that
        :meth:`next_bounds` reads for it; on the closed matrix that
        interval is never empty.  Requires satisfiability.
        """
        if not self.is_satisfiable():
            raise ValueError("system is unsatisfiable")
        point = [Fraction(0)]
        for _ in range(1, len(self.m)):
            point.append(_pick(*self.next_bounds(point)))
        return dict(zip(self.vars[1:], point[1:]))


def _pick(
    low: Optional[Fraction], low_strict: bool, high: Optional[Fraction], high_strict: bool
) -> Fraction:
    """A value in the interval from ``low`` to ``high``, which is not empty.

    A weak end of the interval is preferred (the lower one first), then
    the midpoint; with one end unbounded, the finite end or, if strict,
    one time unit inside it.
    """
    if high is None:
        return Fraction(0) if low is None else low + low_strict
    if low is None:
        return high - high_strict
    if not low_strict:
        return low
    if not high_strict:
        return high
    return (low + high) / 2


# ---------------------------------------------------------------------------
# satisfiability, implication


def split_parts(parts: Sequence[Guard]) -> Optional[tuple[list[Atom], list[Or]]]:
    """Flatten a conjunction into atoms and disjunctions; None if False."""
    atoms: list[Atom] = []
    ors: list[Or] = []
    stack = list(parts)
    while stack:
        p = stack.pop()
        if isinstance(p, TrueGuard):
            continue
        if isinstance(p, FalseGuard):
            return None
        if isinstance(p, Atom):
            atoms.append(p)
        elif isinstance(p, And):
            stack.extend(p.parts)
        elif isinstance(p, Or):
            ors.append(p)
        else:
            raise TypeError(f"not a guard: {p!r}")
    return atoms, ors


def nonneg_zone(clocks: Iterable[Clock]) -> DifferenceSystem:
    """The system over ``clocks`` that only says each clock is >= 0."""
    zone = DifferenceSystem(clocks)
    zone.add_nonneg(zone.vars)
    return zone


def feasible_systems(g: Guard, zone: Optional[DifferenceSystem] = None):
    """Satisfiable difference systems covering g & zone, one per feasible
    branch.

    The search starts from a copy of ``zone``, which must range over the
    guard's clocks; by default from ``nonneg_zone(guard_clocks(g))``.
    Disjunctions are branched one at a time with the accumulated system
    checked before descending, so an infeasible prefix cuts off all DNF
    conjuncts below it.  Unit propagation drops the disjuncts that the
    system refuses, deciding a single atom on the system itself
    (:meth:`DifferenceSystem.admits`), any other on a copy, and commits a
    disjunction left with one.  More than ``DEFAULT_DNF_LIMIT`` branches raise
    :class:`ResourceLimitError`.  The zone is copied at the call; the
    search runs as the systems are drawn.
    """
    CALLS["feasible_systems"] += 1
    base = zone.copy() if zone is not None else nonneg_zone(guard_clocks(g))
    visited = [0]

    def compatible(sys: DifferenceSystem, d: Guard) -> bool:
        # necessary check only: nested disjunctions of d are ignored
        if isinstance(d, Atom):
            return sys.admits(d)
        split = split_parts([d])
        if split is None:
            return False
        probe = sys.copy()
        for a in split[0]:
            probe.add_atom(a)
        return probe.is_satisfiable()

    def expand(sys: DifferenceSystem, parts: list[Guard]):
        split = split_parts(parts)
        if split is None:
            return
        atoms, ors = split
        for a in atoms:
            sys.add_atom(a)
        visited[0] += 1
        if visited[0] > DEFAULT_DNF_LIMIT:
            raise ResourceLimitError(f"guard search exceeds {DEFAULT_DNF_LIMIT} branches")
        if not sys.is_satisfiable():
            return
        # propagate: drop infeasible disjuncts, commit forced ones
        pending = [list(o.parts) for o in ors]
        while True:
            committed = False
            filtered: list[list[Guard]] = []
            for disjuncts in pending:
                feasible = [d for d in disjuncts if compatible(sys, d)]
                if not feasible:
                    return
                if len(feasible) == 1:
                    sub = split_parts(feasible)
                    for a in sub[0]:
                        sys.add_atom(a)
                    filtered.extend(list(o.parts) for o in sub[1])
                    committed = True
                else:
                    filtered.append(feasible)
            pending = filtered
            if not committed:
                break
            if not sys.is_satisfiable():
                return
        if not pending:
            yield sys
            return
        pending.sort(key=len)
        first, *rest = pending
        tail = [disj(*lst) for lst in rest]
        for d in first:
            yield from expand(sys.copy(), [d, *tail])

    return expand(base, [g])


def is_satisfiable(g: Guard) -> bool:
    """True iff some non-negative assignment satisfies g."""
    CALLS["is_satisfiable"] += 1
    return next(feasible_systems(g), None) is not None


def uncovered_piece(
    fed1: Sequence[DifferenceSystem], fed2: Sequence[DifferenceSystem]
) -> Optional[DifferenceSystem]:
    """A satisfiable closed piece of ``fed1`` that no point of ``fed2``
    meets, or None if ``fed1`` implies ``fed2``.

    Both arguments are federations: sequences of satisfiable closed
    difference systems over one variable list, read as their union.

    Each zone of fed1 is cut by the zones of fed2 in turn (DBM subtraction,
    Bengtsson & Yi 2004).  Subtracting a zone with minimal constraints
    c_0 .. c_m from a piece leaves the disjoint pieces
    piece & c_0 & .. & c_{j-1} & ~c_j, one per c_j that the piece does not
    already imply; a zone disjoint from the piece is skipped whole.  The
    first piece that outlives every zone of fed2 is returned.  The pieces
    wait on an explicit stack, and each zone's minimal constraints are
    computed once, when a piece is first checked against it.  A zone of
    fed1 that lies within one zone of fed2 (entrywise, on closed matrices) is
    skipped before any of that.  No zone of either argument is changed.
    """
    zones = [*fed1, *fed2]
    if any(z.vars != zones[0].vars for z in zones):
        raise ValueError("federations must range over one variable list")

    minimal: dict[int, list[tuple[int, int, int]]] = {}

    def constraints(i: int) -> list[tuple[int, int, int]]:
        cons = minimal.get(i)
        if cons is None:
            cons = minimal[i] = fed2[i]._minimal_constraints()
        return cons

    for zone in fed1:
        if any(_within(zone.m, z.m) for z in fed2):
            continue  # nothing of the zone is left to subtract
        # (piece, the zones of fed2 still to subtract from it)
        stack: list[tuple[DifferenceSystem, Sequence[int]]] = [(zone.copy(), range(len(fed2)))]
        while stack:
            piece, todo = stack.pop()
            m = piece.m
            for n, i in enumerate(todo):
                # a negative two-cycle shows disjointness without a copy
                if any(m[v][u] is not None and m[v][u] <= 1 - b for u, v, b in constraints(i)):
                    continue
                overlap = piece.copy()
                for u, v, b in constraints(i):
                    overlap._constrain(u, v, b)
                if overlap.is_satisfiable():
                    break
            else:
                return piece
            rest_todo = todo[n + 1:]
            for u, v, b in constraints(i):
                d = m[u][v]
                if d is not None and d <= b:
                    continue  # the piece already implies c: ~c cuts nothing
                rest = piece.copy()
                rest._constrain(v, u, 1 - b)  # ~(u - v <= c) is v - u < -c
                if rest.is_satisfiable():
                    stack.append((rest, rest_todo))
                piece._constrain(u, v, b)
            # what is left of the piece lies inside fed2[i]
    return None


def difference_witness(
    fed1: Sequence[DifferenceSystem], fed2: Sequence[DifferenceSystem]
) -> Optional[dict[Clock, Fraction]]:
    """A point in ``fed1`` but not in ``fed2``, or None if ``fed1`` implies
    ``fed2``: the :meth:`DifferenceSystem.witness` of
    :func:`uncovered_piece`, which takes the same arguments."""
    piece = uncovered_piece(fed1, fed2)
    return None if piece is None else piece.witness()


def _within(m1: list[list[Optional[int]]], m2: list[list[Optional[int]]]) -> bool:
    """Whether every entry of the matrix ``m1`` is at least as tight as the
    same entry of ``m2``: when ``m1`` is closed and satisfiable, whether
    its zone lies within the other.  Equal rows, common when both sides
    walked the same word, are passed by one list comparison."""
    return all(
        r1 == r2 or all(b is None or (a is not None and a <= b) for a, b in zip(r1, r2))
        for r1, r2 in zip(m1, m2)
    )

