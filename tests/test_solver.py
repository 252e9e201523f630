"""Difference-system solver: complements, satisfiability, witnesses."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tadet.core import (
    Atom,
    Clock,
    conj,
    disj,
    guard_clocks,
)
from tadet.solver import (
    DifferenceSystem,
    ZERO_VAR,
    complement_atom,
    complement_guard,
    difference_witness,
    feasible_systems,
    is_satisfiable,
    nonneg_zone,
)

from tadet.modelio import parse_model

from guards import equivalent, federations, implies
from runs import eval_guard

X = Clock("x")
Y = Clock("y")
Z = Clock("z")

clocks_st = st.sampled_from([X, Y, Z])


@st.composite
def atoms(draw):
    left = draw(clocks_st)
    right = draw(st.one_of(st.none(), clocks_st))
    if right == left:
        right = None
    rel = draw(st.sampled_from(["<", "<=", "=", ">=", ">"]))
    return Atom(left, rel, draw(st.integers(0, 4)), right)


def guards(depth=2):
    if depth == 0:
        return atoms()
    sub = guards(depth - 1)
    return st.one_of(
        atoms(),
        st.lists(sub, min_size=1, max_size=3).map(lambda ps: conj(*ps)),
        st.lists(sub, min_size=1, max_size=3).map(lambda ps: disj(*ps)),
    )


def grid_points(denominator=4, horizon=5):
    steps = [Fraction(i, denominator) for i in range(horizon * denominator + 1)]
    for vx, vy, vz in product(steps, repeat=3):
        yield {X: vx, Y: vy, Z: vz}


def grid_satisfiable(g) -> bool:
    return any(eval_guard(g, v) for v in grid_points())


@given(atoms(), st.dictionaries(clocks_st, st.integers(0, 16).map(lambda n: Fraction(n, 4)), min_size=3))
def test_complement_atom_is_semantic_negation(a, v):
    assert eval_guard(complement_atom(a), v) == (not eval_guard(a, v))


@given(guards(), st.dictionaries(clocks_st, st.integers(0, 16).map(lambda n: Fraction(n, 4)), min_size=3))
def test_complement_guard_is_semantic_negation(g, v):
    assert eval_guard(complement_guard(g), v) == (not eval_guard(g, v))


@settings(max_examples=200)
@given(guards())
def test_satisfiability_agrees_with_grid(g):
    # integer bounds <= 4: the quarter grid up to 5 is exhaustive enough
    # to witness every satisfiable combination over three clocks.  A grid
    # witness must make the guard satisfiable; the grid is scanned once, and
    # only when the solver says unsatisfiable, to keep each example well
    # inside hypothesis's deadline
    if not is_satisfiable(g):
        assert not grid_satisfiable(g)


@settings(max_examples=100)
@given(guards(), guards())
def test_difference_witness_separates(g1, g2):
    w = difference_witness(*federations(g1, g2))
    if w is None:
        assert not is_satisfiable(conj(g1, complement_guard(g2)))
    else:
        full = {c: w.get(c, Fraction(0)) for c in guard_clocks(g1) | guard_clocks(g2)}
        assert eval_guard(g1, full) and not eval_guard(g2, full)


@settings(max_examples=100)
@given(guards(), guards())
def test_difference_witness_on_federations(g1, g2):
    # the guards' branches as federations over one variable list give the
    # same verdict, and a witness lies in g1 and outside g2
    clocks = guard_clocks(g1) | guard_clocks(g2) | {X}
    fed1, fed2 = (list(feasible_systems(g, nonneg_zone(clocks))) for g in (g1, g2))
    w = difference_witness(fed1, fed2)
    assert (w is None) == (difference_witness(*federations(g1, g2)) is None)
    if w is not None:
        assert eval_guard(g1, w) and not eval_guard(g2, w)


@settings(max_examples=200)
@given(guards())
def test_over_matches_the_search_over_more_clocks(g):
    # "d" sorts before x, y and z, and a guard may read any of those, so
    # added clocks land before and between kept ones
    more = [Clock("d"), X, Y, Z]
    lifted = [s.over(more) for s in feasible_systems(g)]
    direct = list(feasible_systems(g, nonneg_zone(more)))
    assert [s.vars for s in lifted] == [s.vars for s in direct]
    assert [s.m for s in lifted] == [s.m for s in direct]
    for s in feasible_systems(g, nonneg_zone(more)):
        assert s.over(more) is s


@settings(max_examples=100)
@given(guards())
def test_feasible_systems_cover_guard(g):
    branches = list(feasible_systems(g))
    assert bool(branches) == is_satisfiable(g)
    for s in branches:
        w = s.witness()
        full = {c: w.get(c, Fraction(0)) for c in guard_clocks(g)}
        assert eval_guard(g, full)


def test_atom_rejects_a_bound_that_is_not_an_int():
    # every bound is a raw int in the solver's matrices; anything else is
    # refused where it would enter
    for bound in (Fraction(1, 2), Fraction(1), 1.0, True):
        with pytest.raises(ValueError):
            Atom(X, "<", bound)


def test_implies_and_equivalent():
    g = conj(Atom(X, ">", 1), Atom(X, "<", 2))
    assert implies(g, Atom(X, ">", 0))
    assert not implies(Atom(X, ">", 0), g)
    assert equivalent(
        disj(Atom(X, "<", 1), Atom(X, ">=", 1)), Atom(X, ">=", 0)
    )


def test_negative_cycle_detected():
    s = DifferenceSystem([X, Y])
    s.add_atom(Atom(X, "<", 1, Y))
    s.add_atom(Atom(Y, "<", -1, X))
    assert not s.is_satisfiable()


def test_close_is_idempotent():
    s = DifferenceSystem([X, Y])
    s.add_atom(Atom(X, "<=", 3))
    s.add_atom(Atom(Y, ">=", 1, X))
    s.close()
    before = [row[:] for row in s.m]
    s.close()
    assert s.m == before


def test_project_out_preserves_satisfiability():
    s = DifferenceSystem([X, Y, Z])
    s.add_nonneg([X, Y, Z])
    s.add_atom(Atom(X, "<", 2))
    s.add_atom(Atom(Y, "<", 1, X))
    s.add_atom(Atom(Z, "<=", 1, Y))
    assert s.is_satisfiable()
    p = s.project_out(Y)
    assert p.is_satisfiable()
    assert Y not in p.vars
    # z - x < 2 via the eliminated middle variable
    assert entry(p, Z, X) == 2 << 1


def test_minimal_constraints_round_trip():
    # difference_witness subtracts a zone through these triples, so their
    # closure must be the zone itself
    s = DifferenceSystem([X, Y])
    s.add_nonneg([X, Y])
    s.add_atom(Atom(X, ">", 1))
    s.add_atom(Atom(X, "<=", 3))
    s.add_atom(Atom(Y, "=", 2, X))
    s.close()
    rebuilt = DifferenceSystem([X, Y])
    for i, j, raw in s._minimal_constraints():
        rebuilt.add_difference(s.vars[i], s.vars[j], raw >> 1, not raw & 1)
    rebuilt.close()
    assert rebuilt.m == s.m


def entry(s, u, v):
    """The raw entry of ``s`` that bounds u - v."""
    return s.m[s.vars.index(u)][s.vars.index(v)]


# ---------------------------------------------------------------------------
# kernel differential test: DifferenceSystem against a reference closure over
# (Fraction, strict) tuples


KERNEL_VARS = [ZERO_VAR, X, Y, Z]
WEAK_ZERO = (Fraction(0), False)


def ref_tighter(a, b):
    """a is a strictly tighter upper bound than b (None = +infinity)."""
    if b is None:
        return a is not None
    if a is None:
        return False
    return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])


def ref_add(a, b):
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] or b[1])


def ref_closure(variables, constraints):
    """Floyd-Warshall from scratch: every pair's bound, and satisfiability."""
    idx = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    d = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = WEAK_ZERO
    for u, v, value, strict in constraints:
        b = (Fraction(value), strict)
        if ref_tighter(b, d[idx[u]][idx[v]]):
            d[idx[u]][idx[v]] = b
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = ref_add(d[i][k], d[k][j])
                if ref_tighter(via, d[i][j]):
                    d[i][j] = via
    sat = not any(ref_tighter(d[i][i], WEAK_ZERO) for i in range(n))
    return {(u, v): d[idx[u]][idx[v]] for u in variables for v in variables}, sat


def ref_eliminate(constraints, var):
    """Fourier-Motzkin: combine every u - var <= a with every var - v <= b."""
    rest = [c for c in constraints if var not in (c[0], c[1])]
    into = [c for c in constraints if c[1] == var and c[0] != var]
    out = [c for c in constraints if c[0] == var and c[1] != var]
    for u, _, a, sa in into:
        for _, v, b, sb in out:
            rest.append((u, v, Fraction(a) + Fraction(b), sa or sb))
    return rest


def ref_raw(b):
    """A reference bound in the kernel's raw encoding, c << 1 | weak."""
    if b is None:
        return None
    assert b[0].denominator == 1
    return int(b[0]) << 1 | (not b[1])


def assert_matches_reference(s, constraints):
    ref, sat = ref_closure(KERNEL_VARS, constraints)
    assert s.is_satisfiable() == sat
    if not sat:
        return
    for (u, v), b in ref.items():
        assert entry(s, u, v) == ref_raw(b)
    w = s.witness()
    w[ZERO_VAR] = Fraction(0)
    for u, v, value, strict in constraints:
        diff = w[u] - w[v]
        assert diff < value if strict else diff <= value
    # rational points, around the witness and anywhere: a full point or a
    # prefix lies in the system iff pinning it keeps the reference satisfiable
    rng = random.Random(str(constraints))
    for trial in range(2):
        point = [
            (w[v] if trial % 2 else 0) + Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3)))
            for v in KERNEL_VARS[1:]
        ]
        for k in (rng.randrange(1, len(point)), len(point)):
            pins = [pin for v, p in zip(KERNEL_VARS[1:], point[:k])
                    for pin in ((v, ZERO_VAR, p, False), (ZERO_VAR, v, -p, False))]
            assert s.contains((0, *point[:k])) == ref_closure(KERNEL_VARS, constraints + pins)[1]
    for var in (X, Y, Z):
        p = s.project_out(var)
        rest = [v for v in KERNEL_VARS if v != var]
        assert p.vars == rest
        pref, psat = ref_closure(rest, ref_eliminate(constraints, var))
        assert psat and p.is_satisfiable()
        for (u, v), b in pref.items():
            assert entry(p, u, v) == ref_raw(b)


kernel_values = st.integers(-3, 3)
kernel_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(KERNEL_VARS),
            st.sampled_from(KERNEL_VARS),
            kernel_values,
            st.booleans(),
        ),
        st.just(("sat",)),
        st.just(("copy",)),
    ),
    max_size=25,
)


@settings(max_examples=300)
@given(kernel_ops)
@example([  # x - y = 1 on a closed matrix, then the zero cycle turned strict
    ("add", X, Y, 1, False), ("sat",),
    ("add", Y, X, -1, False), ("sat",),
    ("add", Y, X, -1, True),
])
def test_kernel_agrees_with_reference_closure(ops):
    # "sat" closes the matrix, so later additions take the incremental path;
    # "copy" goes on with a copy and checks the original at the end, with the
    # constraints it had when it was copied
    s = DifferenceSystem([X, Y, Z])
    added = []
    finished = []
    for op in ops:
        if op[0] == "add":
            s.add_difference(*op[1:])
            added.append(op[1:])
        elif op[0] == "sat":
            assert_matches_reference(s, added)
        else:
            finished.append((s, list(added)))
            s = s.copy()
    finished.append((s, added))
    for system, constraints in finished:
        assert_matches_reference(system, constraints)


kernel_constraints = st.lists(
    st.tuples(st.sampled_from(KERNEL_VARS), st.sampled_from(KERNEL_VARS), kernel_values, st.booleans()),
    max_size=8,
)
D = Clock("d")
W = Clock("w")


def system_of(constraints):
    s = DifferenceSystem([X, Y, Z])
    for c in constraints:
        s.add_difference(*c)
    return s


@settings(max_examples=300)
@given(kernel_constraints)
def test_up_agrees_with_reference_closure(constraints):
    # after a delay d >= 0 each clock u reads u + d and the zero var stays,
    # so a bound on u - 0 before it is a bound on u - d after it; the
    # reference eliminates d by Fourier-Motzkin
    s = system_of(constraints)
    s.up()

    def delayed(w, other):
        return D if w == ZERO_VAR and other != ZERO_VAR else w

    shifted = [(delayed(u, v), delayed(v, u), value, strict) for u, v, value, strict in constraints]
    ref, sat = ref_closure(KERNEL_VARS, ref_eliminate(shifted + [(ZERO_VAR, D, 0, False)], D))
    assert s.is_satisfiable() == sat
    if sat:
        for (u, v), b in ref.items():
            assert entry(s, u, v) == ref_raw(b)


@settings(max_examples=300)
@given(kernel_constraints)
def test_extend_reset_agrees_with_reference_closure(constraints):
    s = system_of(constraints)
    s.close()
    r = s.extend_reset(W)
    assert r.vars == KERNEL_VARS + [W] and s.vars == KERNEL_VARS
    ref, sat = ref_closure(
        KERNEL_VARS + [W], constraints + [(W, ZERO_VAR, 0, False), (ZERO_VAR, W, 0, False)])
    assert r.is_satisfiable() == sat
    if sat:
        for (u, v), b in ref.items():
            assert entry(r, u, v) == ref_raw(b)


RELS = ["<", "<=", "=", ">=", ">"]


def atom_over(draw, clocks):
    left = draw(st.sampled_from(clocks))
    right = draw(st.sampled_from([None, *(c for c in clocks if c != left)]))
    return Atom(left, draw(st.sampled_from(RELS)), draw(st.integers(-3, 3)), right)


def admits_by_copy(s, a):
    probe = s.copy()
    probe.add_atom(a)
    return probe.is_satisfiable()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_admits_agrees_with_a_copy(data):
    # feasible_systems decides a single-atom disjunct on the closed system
    # itself; it must agree with adding the atom to a copy
    clocks = [X, Y, Z, W][:data.draw(st.integers(2, 4))]
    names = [ZERO_VAR, *clocks]
    s = DifferenceSystem(clocks)
    for _ in range(data.draw(st.integers(0, 6))):
        s.add_difference(data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names)),
                         data.draw(st.integers(-3, 3)), data.draw(st.booleans()))
    assume(s.is_satisfiable())
    before = [row[:] for row in s.m]
    for _ in range(4):
        a = atom_over(data.draw, clocks)
        assert s.admits(a) == admits_by_copy(s, a)
    assert s.m == before


def test_an_unsatisfiable_zone_admits_no_atom():
    s = DifferenceSystem([X, Y])
    s.add_difference(X, ZERO_VAR, 1, False)
    s.add_difference(ZERO_VAR, X, -2, False)
    assert not s.is_satisfiable()
    for left, right in ((X, None), (Y, None), (X, Y), (Y, X)):
        for rel in RELS:
            for bound in range(-3, 4):
                a = Atom(left, rel, bound, right)
                assert not s.admits(a) and not admits_by_copy(s, a)


# five clocks and one more for the anchor, named so that the anchor sorts
# among them
V, U = Clock("v"), Clock("u")
SIX_CLOCKS = [U, V, W, X, Y, Z]


def closure_of(variables, atoms):
    s = DifferenceSystem(variables)
    for a in atoms:
        s.add_atom(a)
    s.close()
    return s


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_nonneg_closure_equals_a_fresh_closure(data):
    # x >= 0 folded into a closed zone by tightenings, against the same
    # atoms searched from nonneg_zone
    clocks = SIX_CLOCKS[:data.draw(st.integers(1, 5))]
    atoms = [atom_over(data.draw, clocks) for _ in range(data.draw(st.integers(0, 6)))]
    bare = closure_of(clocks, atoms)
    before = [row[:] for row in bare.m]
    ref = nonneg_zone(clocks)
    for a in atoms:
        ref.add_atom(a)
    ref.close()
    got = bare.copy()
    got.add_nonneg(got.vars)
    assert bare.m == before and got._closed
    assert got.is_satisfiable() == bare.admits_nonneg() == ref.is_satisfiable() == ref._sat == got._sat
    if ref.is_satisfiable():
        assert got.vars == ref.vars and got.m == ref.m


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_rebased_zone_equals_the_closure_of_rebased_atoms(data):
    # moving the zero var onto the anchor, against closing the rebased atoms;
    # then the atoms of a guard below, folded in, against closing them all
    order = data.draw(st.permutations(SIX_CLOCKS))
    n = data.draw(st.integers(1, 5))
    clocks, anchor = order[:n], order[n]
    atoms = [atom_over(data.draw, clocks) for _ in range(data.draw(st.integers(0, 6)))]
    bare = closure_of(clocks, atoms)
    assume(bare.is_satisfiable())
    rebased = [a if a.right is not None else Atom(a.left, a.rel, a.bound, anchor) for a in atoms]
    below = [atom_over(data.draw, order[:n + 1 + data.draw(st.integers(0, 5 - n))])
             for _ in range(data.draw(st.integers(0, 4)))]
    below_clocks = {c for a in below for c in (a.left, a.right) if c is not None}
    variables = {*clocks, *below_clocks, anchor}
    got = bare.rebased(anchor, below_clocks)
    ref = closure_of(variables, rebased)
    assert got.vars == ref.vars and got.m == ref.m and got.is_satisfiable()
    for a in below:
        got.add_atom(a)
    ref = closure_of(variables, rebased + below)
    assert got.is_satisfiable() == ref.is_satisfiable()
    assert got.admits_nonneg() == is_satisfiable(conj(*rebased, *below))
    if ref.is_satisfiable():
        assert got.m == ref.m


def test_a_rebased_zone_refuses_its_own_anchor():
    with pytest.raises(ValueError):
        closure_of([X], [Atom(X, "<", 1)]).rebased(X, ())


def test_a_model_clock_named_like_the_zero_var_is_an_ordinary_clock():
    clock = parse_model(json.dumps({
        "format": "ta/1", "clocks": ["__zero__"], "initial": "q0",
        "locations": [{"id": "q0", "accepting": True}], "transitions": [],
    })).clocks
    assert clock == {Clock("__zero__")} and ZERO_VAR not in clock
    assert is_satisfiable(Atom(Clock("__zero__"), ">", 5))
    assert not is_satisfiable(Atom(Clock("__zero__"), "<", 0))
