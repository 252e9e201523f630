"""Satisfiability of clock guards via strictness-aware difference systems.

Guards are conjunctions/disjunctions of unary and diagonal atoms with
integer bounds: pure difference logic.  Satisfiability branches over the
disjunctions lazily and closes a bound matrix over the clocks plus a zero
reference by shortest paths; a negative cycle means UNSAT.  Implication
subtracts federations (unions of closed matrices) in disjoint pieces.
SMT-LIB export is kept for differential testing against an external solver.

The matrix holds each bound as one Python int, ``(c * scale) << 1 | weak``
(the raw encoding of the UPPAAL DBM library), so closure does integer
additions and comparisons only.  ``scale`` is a per-system multiplier that
keeps the exact ``Fraction`` timestamps of trace probes integral.  A closed
satisfiable matrix absorbs each further constraint with an O(n^2) update
instead of a new O(n^3) closure (Bengtsson & Yi, *Timed Automata:
Semantics, Algorithms and Tools*, 2004).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .core import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bound,
    Clock,
    FalseGuard,
    Guard,
    Or,
    REL_COMPLEMENT,
    ResourceLimitError,
    TrueGuard,
    conj,
    disj,
    guard_clocks,
)

DEFAULT_DNF_LIMIT = 10**6


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
# bounds: raw ints (c * scale) << 1 | weak, with None meaning +infinity


_RAW_ZERO = 1  # raw "<= 0"; a diagonal entry below it is a negative cycle


def _raw_add(a: int, b: int) -> int:
    """Sum of two raw bounds: values add, the sum is weak iff both are."""
    return a + b - ((a | b) & 1)


ZERO_VAR = Clock("__zero__")


class DifferenceSystem:
    """Bound matrix on pairwise differences of clocks (plus a zero var).

    Entry ``m[i][j]`` bounds ``vars[i] - vars[j]`` from above as a raw int
    ``(c * scale) << 1 | weak``, where ``weak`` is 1 for ``<=`` and 0 for
    ``<``, or is None for +infinity.  On raw entries a plain ``<`` compares
    tightness and :func:`_raw_add` adds two bounds.  Model bounds are
    integers; the only other values are exact ``Fraction`` timestamps.
    A value whose denominator does not divide ``scale`` rescales the whole
    matrix to the least common multiple, so every entry stays an exact
    integer.  :meth:`bound` decodes an entry to ``(Fraction, strict)``.

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
            self.m[i][i] = _RAW_ZERO
        self.scale = 1
        self._closed = False
        self._sat = True  # meaningful once closed

    def copy(self) -> "DifferenceSystem":
        out = DifferenceSystem.__new__(DifferenceSystem)
        out.vars = self.vars  # vars and index are never mutated: shared
        out._index = self._index
        out.m = [row[:] for row in self.m]
        out.scale = self.scale
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
        out.m.append([None] * n + [_RAW_ZERO])
        out.scale = self.scale
        out._closed = self._closed
        out._sat = self._sat
        return out

    def add_difference(self, u: Clock, v: Clock, value, strict: bool) -> None:
        """Constrain u - v <= value (strict: <)."""
        i, j = self._index[u], self._index[v]
        if type(value) is int:
            value *= self.scale
        else:
            value = Fraction(value)
            den = value.denominator
            if self.scale % den:
                self._rescale(den // gcd(self.scale, den))
            value = value.numerator * (self.scale // den)
        self._constrain(i, j, value << 1 if strict else (value << 1) | 1)

    def _constrain(self, i: int, j: int, b: int) -> None:
        """Constrain entry ``m[i][j]`` by the raw bound ``b``."""
        old = self.m[i][j]
        if old is not None and old <= b:
            return
        if self._closed and self._sat:
            self._tighten(i, j, b)
        else:
            self.m[i][j] = b

    def _rescale(self, factor: int) -> None:
        """Multiply ``scale`` and every finite bound by ``factor``."""
        self.scale *= factor
        for row in self.m:
            for j, d in enumerate(row):
                if d is not None:
                    row[j] = d * factor - (d & 1) * (factor - 1)

    def _tighten(self, i: int, j: int, b: int) -> None:
        """Set ``m[i][j] = b`` in a closed satisfiable matrix, keeping it closed.

        Every path that gets shorter runs through the new edge, so one
        pass ``m[k][l] = min(m[k][l], m[k][i] + b + m[j][l])`` over the
        old entries restores closure (Bengtsson & Yi 2004), unless the
        edge closes a negative cycle with ``m[j][i]``.
        """
        m = self.m
        back = m[j][i]
        if back is not None and _raw_add(back, b) < _RAW_ZERO:
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
        left, right = a.left, a.right if a.right is not None else ZERO_VAR
        if a.rel in ("<", "<="):
            self.add_difference(left, right, a.bound, a.rel == "<")
        elif a.rel in (">", ">="):
            self.add_difference(right, left, -a.bound, a.rel == ">")
        else:  # '='
            self.add_difference(left, right, a.bound, False)
            self.add_difference(right, left, -a.bound, False)

    def add_nonneg(self, clocks: Iterable[Clock]) -> None:
        for c in clocks:
            if c in self._index and c != ZERO_VAR:
                self.add_difference(ZERO_VAR, c, 0, False)

    def close(self) -> None:
        """Floyd-Warshall closure; stops at the first negative cycle."""
        m = self.m
        self._closed = True
        self._sat = False
        if any(row[i] < _RAW_ZERO for i, row in enumerate(m)):
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
                if rowi[i] < _RAW_ZERO:
                    return
        self._sat = True

    def is_satisfiable(self) -> bool:
        if not self._closed:
            self.close()
        return self._sat

    def bound(self, u: Clock, v: Clock) -> Bound:
        """The upper bound on u - v as ``(value, strict)``; None if unbounded."""
        d = self.m[self._index[u]][self._index[v]]
        return None if d is None else (Fraction(d >> 1, self.scale), not d & 1)

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
        out = DifferenceSystem.__new__(DifferenceSystem)
        out.vars = [self.vars[i] for i in keep]
        out._index = {v: i for i, v in enumerate(out.vars)}
        out.m = [[self.m[i][j] for j in keep] for i in keep]
        out.scale = self.scale
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
                and _raw_add(m[u][w], m[w][v]) == m[u][v]
                for w in reps
            )
        ]
        out.sort(key=lambda c: (max(c[0], c[1]), min(c[0], c[1])))
        return out

    def reduced_atoms(self) -> list[Atom]:
        """A small atom set whose closure, together with x >= 0 for every
        variable, equals this (satisfiable) system: its minimal constraints
        less the plain x >= 0 entries (raw ``<= 0`` on 0 - x), which the
        caller must supply as ambient constraints."""
        vs, scale = self.vars, self.scale
        atoms: list[Atom] = []
        for u, v, d in self._minimal_constraints():
            if u == 0 and d == _RAW_ZERO:
                continue
            value, strict = Fraction(d >> 1, scale), not d & 1
            if v == 0:
                atoms.append(Atom(vs[u], "<" if strict else "<=", value))
            elif u == 0:
                atoms.append(Atom(vs[v], ">" if strict else ">=", -value))
            else:
                atoms.append(Atom(vs[u], "<" if strict else "<=", value, vs[v]))
        return atoms

    def witness(self) -> dict[Clock, Fraction]:
        """One satisfying assignment (zero var pinned to 0).

        Fixes the variables in order, each to a point of the interval that
        the closed matrix leaves it once the earlier ones are fixed; every
        value is pinned with two weak bounds on a copy, which stays closed,
        so the interval is non-empty.  Requires satisfiability.
        """
        if not self.is_satisfiable():
            raise ValueError("system is unsatisfiable")
        probe = self.copy()
        assign: dict[Clock, Fraction] = {}
        for i, v in enumerate(self.vars[1:], start=1):
            value = _pick(probe.m[0][i], probe.m[i][0], probe.scale)
            probe.add_difference(v, ZERO_VAR, value, False)
            probe.add_difference(ZERO_VAR, v, -value, False)
            assign[v] = value
        return assign


def _pick(lo: Optional[int], hi: Optional[int], scale: int) -> Fraction:
    """A value x with raw bounds ``lo`` on -x and ``hi`` on x.

    A weak end of the interval is preferred (the lower one first), then
    the midpoint; with one end unbounded, the finite end or, if strict,
    one time unit inside it.
    """
    if hi is None:
        if lo is None:
            return Fraction(0)
        return Fraction(-(lo >> 1) + (0 if lo & 1 else scale), scale)
    h = hi >> 1
    if lo is None:
        return Fraction(h - (0 if hi & 1 else scale), scale)
    low = -(lo >> 1)
    if lo & 1 and low <= h and not (low == h and not hi & 1):
        return Fraction(low, scale)
    if hi & 1 and low <= h:
        return Fraction(h, scale)
    return Fraction(low + h, 2 * scale)


# ---------------------------------------------------------------------------
# satisfiability, implication


def _split_parts(parts: Sequence[Guard]) -> Optional[tuple[list[Atom], list[Or]]]:
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
    conjuncts below it.  More than ``DEFAULT_DNF_LIMIT`` branches raise
    :class:`ResourceLimitError`.
    """
    base = zone.copy() if zone is not None else nonneg_zone(guard_clocks(g))
    visited = [0]

    def compatible(sys: DifferenceSystem, d: Guard) -> bool:
        # necessary check only: nested disjunctions of d are ignored
        split = _split_parts([d])
        if split is None:
            return False
        probe = sys.copy()
        for a in split[0]:
            probe.add_atom(a)
        return probe.is_satisfiable()

    def expand(sys: DifferenceSystem, parts: list[Guard]):
        split = _split_parts(parts)
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
                    sub = _split_parts(feasible)
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

    yield from expand(base, [g])


def is_satisfiable(g: Guard) -> bool:
    """True iff some non-negative assignment satisfies g."""
    return next(feasible_systems(g), None) is not None


def difference_witness(
    g1: Guard | Sequence[DifferenceSystem],
    g2: Guard | Sequence[DifferenceSystem],
) -> Optional[dict[Clock, Fraction]]:
    """A point in g1 but not in g2, or None if g1 implies g2.

    Both arguments are guards, or both are federations: sequences of
    satisfiable closed difference systems over one variable list, read as
    their union.  Guards are first expanded by :func:`feasible_systems`
    from one :func:`nonneg_zone` of their joint clocks.

    Each zone of g1 is cut by the zones of g2 in turn (DBM subtraction,
    Bengtsson & Yi 2004).  Subtracting a zone with minimal constraints
    c_0 .. c_m from a piece leaves the disjoint pieces
    piece & c_0 & .. & c_{j-1} & ~c_j, one per c_j that the piece does not
    already imply; a zone disjoint from the piece is skipped whole.  A
    piece that outlives every zone of g2 holds the witness.  The pieces
    wait on an explicit stack, and each zone's minimal constraints are
    computed once, when a piece is first checked against it.
    """
    if isinstance(g1, Guard):
        zone = nonneg_zone(guard_clocks(g1) | guard_clocks(g2))
        fed1, fed2 = (list(feasible_systems(g, zone)) for g in (g1, g2))
    else:
        fed1, fed2 = list(g1), list(g2)
    zones = fed1 + fed2
    if any(z.vars != zones[0].vars for z in zones):
        raise ValueError("federations must range over one variable list")
    scale = lcm(*(z.scale for z in zones))
    for fed in (fed1, fed2):
        for n, z in enumerate(fed):
            if z.scale != scale:
                fed[n] = z = z.copy()
                z._rescale(scale // z.scale)

    minimal: dict[int, list[tuple[int, int, int]]] = {}

    def constraints(i: int) -> list[tuple[int, int, int]]:
        cons = minimal.get(i)
        if cons is None:
            cons = minimal[i] = fed2[i]._minimal_constraints()
        return cons

    for zone in fed1:
        # (piece, the zones of g2 still to subtract from it)
        stack: list[tuple[DifferenceSystem, Sequence[int]]] = [(zone.copy(), range(len(fed2)))]
        while stack:
            piece, todo = stack.pop()
            m = piece.m
            # a piece of this one can only meet zones that this one meets;
            # a negative two-cycle shows disjointness without a copy
            todo = [
                i for i in todo
                if not any(m[v][u] is not None and m[v][u] <= 1 - b for u, v, b in constraints(i))
            ]
            for n, i in enumerate(todo):
                overlap = piece.copy()
                for u, v, b in constraints(i):
                    overlap._constrain(u, v, b)
                if overlap.is_satisfiable():
                    break
            else:
                return piece.witness()
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


def implies(g1: Guard, g2: Guard) -> bool:
    """g1 => g2, i.e. no non-negative point satisfies g1 but not g2."""
    return difference_witness(g1, g2) is None


def equivalent(g1: Guard, g2: Guard) -> bool:
    return implies(g1, g2) and implies(g2, g1)


# ---------------------------------------------------------------------------
# SMT-LIB export


def _smt_symbol(c: Clock) -> str:
    return "c_" + c.name.replace(".", "_")


def _smt_guard(g: Guard) -> str:
    if isinstance(g, TrueGuard):
        return "true"
    if isinstance(g, FalseGuard):
        return "false"
    if isinstance(g, Atom):
        lhs = _smt_symbol(g.left)
        if g.right is not None:
            lhs = f"(- {lhs} {_smt_symbol(g.right)})"
        bound = str(g.bound) if g.bound >= 0 else f"(- {-g.bound})"
        return f"({g.rel} {lhs} {bound})"
    op = "and" if isinstance(g, And) else "or"
    return "(" + op + " " + " ".join(_smt_guard(p) for p in g.parts) + ")"


def to_smtlib(g: Guard, clocks: Optional[Iterable[Clock]] = None) -> str:
    """Self-contained QF_LRA script asserting ``g`` over non-negative reals."""
    cs = sorted(set(clocks) if clocks is not None else guard_clocks(g))
    lines = ["(set-logic QF_LRA)"]
    for c in cs:
        lines.append(f"(declare-const {_smt_symbol(c)} Real)")
    for c in cs:
        lines.append(f"(assert (>= {_smt_symbol(c)} 0))")
    lines.append(f"(assert {_smt_guard(g)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
