"""Guards, runs and structural checks."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tadet.core import (
    FALSE,
    TRUE,
    Atom,
    Clock,
    FalseGuard,
    StructuralError,
    check_run,
    check_strong_responsiveness,
    conj,
    disj,
    eval_guard,
    guard_atoms,
    guard_clocks,
    level_clock,
    make_automaton,
    run_of,
    silent_clock,
    simplify_conjunction,
    timed_trace,
    Transition,
)
from tadet.corpus import coffee_machine
from tadet.unfold import unfold

X = Clock("x")
Y = Clock("y")

clocks_st = st.sampled_from([X, Y])
rel_st = st.sampled_from(["<", "<=", "=", ">=", ">"])


@st.composite
def atoms(draw):
    left = draw(clocks_st)
    right = draw(st.one_of(st.none(), clocks_st))
    if right == left:
        right = None
    return Atom(left, draw(rel_st), draw(st.integers(0, 4)), right)


def guards(depth=2):
    if depth == 0:
        return atoms()
    sub = guards(depth - 1)
    return st.one_of(
        atoms(),
        st.lists(sub, min_size=1, max_size=3).map(lambda ps: conj(*ps)),
        st.lists(sub, min_size=1, max_size=3).map(lambda ps: disj(*ps)),
    )


valuations = st.fixed_dictionaries({
    X: st.integers(0, 16).map(lambda n: Fraction(n, 4)),
    Y: st.integers(0, 16).map(lambda n: Fraction(n, 4)),
})


def test_conj_flattens_and_short_circuits():
    a = Atom(X, "<", 2)
    assert conj() is TRUE
    assert conj(a, TRUE) == a
    assert isinstance(conj(a, FALSE), FalseGuard)
    assert disj() is FALSE
    assert disj(a, TRUE) is TRUE


def test_guard_clocks_and_atoms():
    g = conj(Atom(X, "<", 2), disj(Atom(Y, ">", 1), Atom(X, "=", 3, Y)))
    assert guard_clocks(g) == frozenset((X, Y))
    assert len(guard_atoms(g)) == 3


@given(st.lists(atoms(), min_size=1, max_size=4), valuations)
def test_simplify_conjunction_preserves_semantics(parts, v):
    g = conj(*parts)
    assert eval_guard(simplify_conjunction(g), v) == eval_guard(g, v)


@given(st.one_of(st.just(FALSE), st.just(TRUE), st.lists(atoms(), min_size=1, max_size=4).map(
    lambda ps: conj(*ps))), valuations)
def test_simplify_conjunction_is_idempotent(g, v):
    # contradictory inputs simplify to FALSE, which must simplify to itself
    assert eval_guard(simplify_conjunction(simplify_conjunction(g)), v) == eval_guard(g, v)


def test_simplify_conjunction_detects_contradiction():
    g = conj(Atom(X, "<", 1), Atom(X, ">", 2))
    assert isinstance(simplify_conjunction(g), FalseGuard)


def test_level_and_silent_clock_names():
    assert level_clock(2).name == "x2"
    assert silent_clock(1, 0).name == "x1.0"
    assert level_clock(2).is_renamed


def test_accepted_run_on_coffee_machine():
    a = coffee_machine()
    ts = {(t.source, t.target, t.action): t for t in a.transitions}
    r = run_of(
        (1, ts[("q0", "q1", "coin")]),
        (2, ts[("q1", "q4", "beep")]),
        (1, ts[("q4", "q0", "refund")]),
    )
    assert check_run(a, r)
    assert r.observable_trace() == timed_trace((1, "coin"), (3, "beep"), (4, "refund"))


def test_run_violating_guard_is_rejected():
    a = coffee_machine()
    ts = {(t.source, t.target, t.action): t for t in a.transitions}
    r = run_of((1, ts[("q0", "q1", "coin")]), (5, ts[("q1", "q4", "beep")]))
    assert not check_run(a, r)


def test_run_ending_silently_is_not_well_behaving():
    a = coffee_machine()
    ts = {(t.source, t.target, t.action): t for t in a.transitions}
    r = run_of(
        (1, ts[("q0", "q1", "coin")]),
        (1, ts[("q1", "q2", "beep")]),
        (Fraction(1, 2), ts[("q2", "q3", None)]),
    )
    with pytest.raises(StructuralError):
        check_run(a, r)
    assert check_run(a, r, require_well_behaving=False)


def test_strong_responsiveness():
    assert check_strong_responsiveness(coffee_machine())
    looped = make_automaton(
        ["q0", "q1"], "q0", ["q0"], [X],
        [
            Transition("q0", "q1", None, TRUE, frozenset((X,))),
            Transition("q1", "q0", None, TRUE, frozenset((X,))),
        ],
    )
    assert not check_strong_responsiveness(looped)


def test_strong_responsiveness_on_a_long_silent_chain():
    # 3000 silent edges, beyond the interpreter's recursion limit; unfold
    # checks strong responsiveness first
    n = 3000
    chain = [Transition(f"q{i}", f"q{i + 1}", None, TRUE, frozenset((X,))) for i in range(n)]
    chain.append(Transition(f"q{n}", "end", "a"))
    locs = [f"q{i}" for i in range(n + 1)] + ["end"]
    a = make_automaton(locs, "q0", ["end"], [X], chain)
    assert check_strong_responsiveness(a)
    assert unfold(a, 1).location_count() == n + 2
    back = Transition(f"q{n}", "q0", None, TRUE, frozenset((X,)))
    assert not check_strong_responsiveness(make_automaton(locs, "q0", ["end"], [X], chain + [back]))


def test_no_private_module_name_is_dead():
    # a module-level name starting with "_" that its own module never reads
    # is dead: nothing else may import it
    dead = []
    for path in sorted((Path(__file__).parent.parent / "src" / "tadet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined: set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        dead += [f"{path.stem}.{name}" for name in sorted(defined - read)
                 if name.startswith("_") and not name.startswith("__")]
    assert dead == []
