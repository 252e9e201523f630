"""Guards, runs and structural checks."""

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tadet.core import (
    FALSE,
    TRUE,
    And,
    Atom,
    Clock,
    FalseGuard,
    StructuralError,
    check_strong_responsiveness,
    conj,
    disj,
    guard_atoms,
    guard_clocks,
    level_clock,
    make_automaton,
    Or,
    silent_clock,
    simplify_conjunction,
    Transition,
)
from tadet.corpus import NAMED_MODELS
from tadet.unfold import unfold

from runs import check_run, eval_guard, run_of, timed_trace

coffee_machine = NAMED_MODELS["coffee-machine"]

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
    assert level_clock(2).level >= 0


def test_clocks_are_interned():
    assert Clock("x") is X
    assert level_clock(2) is level_clock(2)
    assert silent_clock(1, 0) is silent_clock(1, 0)
    assert Clock("x2", level=2) is level_clock(2)
    assert Clock("x", level=0) is not X
    assert not hasattr(X, "__dict__")


def test_clocks_sort_by_name_level_and_silent():
    cs = [silent_clock(1, 0), level_clock(10), Y, level_clock(2), X, silent_clock(1, 1),
          Clock("x1.0"), level_clock(1), Clock("x", level=3), silent_clock(0, 2)]
    assert sorted(cs) == sorted(cs, key=lambda c: (c.name, c.level, c.silent))
    assert X < Y and Y > X and X <= X and X >= X and not X < X


def test_clock_fields_cannot_be_set():
    with pytest.raises(AttributeError):
        X.name = "z"
    with pytest.raises(AttributeError):
        del level_clock(2).level
    assert X.name == "x" and level_clock(2).level == 2


def test_pickle_and_deepcopy_give_back_the_interned_clock():
    g = conj(Atom(X, "<", 2), disj(Atom(silent_clock(1, 0), ">", 1), Atom(X, "=", 3, level_clock(2))))
    guard_clocks(g)  # fill the cache before copying
    for copy_of in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        assert copy_of(level_clock(2)) is level_clock(2)
        assert copy_of(X) is X
        h = copy_of(g)
        assert h == g and hash(h) == hash(g)
        assert guard_clocks(h) == frozenset((X, silent_clock(1, 0), level_clock(2)))


# a nested guard, built alike in this process and in a child process
NESTED_GUARD = """conj(
    Atom(Clock("x"), "<", 2),
    disj(
        Atom(silent_clock(1, 0), ">", 1),
        conj(Atom(Clock("x"), "=", 3, level_clock(2)), Atom(Clock("y"), ">=", 0)),
    ),
)"""
LOAD_NESTED_GUARD = f"""
import pickle, sys
from tadet.core import Atom, Clock, conj, disj, level_clock, silent_clock
loaded = pickle.loads(sys.stdin.buffer.read())
built = {NESTED_GUARD}
assert loaded == built
assert hash(loaded) == hash(built)
assert {{built: "found"}}.get(loaded) == "found"
print(hash("x"))
"""


def test_unpickled_guard_hashes_in_the_loading_process():
    # the kept hash is not pickled: Clock hashes by identity and str by
    # PYTHONHASHSEED, so a hash made here means nothing in another process
    g = eval(NESTED_GUARD)
    hash(g)  # fill the kept hashes before pickling
    assert all(p._hash is not None for p in (g, *g.parts, *g.parts[1].parts))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = Path(importlib.import_module("tadet").__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
    child = subprocess.run(
        [sys.executable, "-B", "-c", LOAD_NESTED_GUARD],
        input=pickle.dumps(g), capture_output=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr.decode()
    assert int(child.stdout) != hash("x")  # the child hashed strings differently


@given(guards())
def test_cached_guard_clocks_match_the_atoms(g):
    atoms_clocks = frozenset(c for a in guard_atoms(g) for c in (a.left, a.right) if c is not None)
    first = guard_clocks(g)
    assert first == atoms_clocks
    assert guard_clocks(g) == atoms_clocks
    if isinstance(g, (And, Or)):
        assert guard_clocks(g) is first


def test_guard_nodes_have_no_instance_dict():
    a, b = Atom(X, "<", 2), Atom(Y, ">", 1, X)
    for g in (a, conj(a, b), disj(a, b)):
        assert not hasattr(g, "__dict__")


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


def test_observable_step_on_the_silent_name_is_rejected():
    # "ta/1" writes a silent step's action as "eps" and reads it back as
    # silent, so an observable "eps" would not round-trip
    with pytest.raises(StructuralError, match="eps"):
        make_automaton(["p", "q"], "p", ["q"], [], [Transition("p", "q", "eps")])


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


def test_traced_names_resolve():
    # the layered benchmark's tracer wraps these by name; a rename that it
    # misses would break its traced runs.  Its source is read and executed
    # in a fresh namespace, so nothing is written next to it
    path = Path(__file__).parent.parent / "layerbench" / "tracing.py"
    tracing: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    missing = []
    for mod, fname, *_ in tracing["FUNCTIONS"]:
        if not callable(getattr(importlib.import_module(f"tadet.{mod}"), fname, None)):
            missing.append(f"{mod}.{fname}")
    for mod, cls, meth, *_ in tracing["METHODS"]:
        owner = getattr(importlib.import_module(f"tadet.{mod}"), cls, None)
        if not callable(getattr(owner, meth, None)):
            missing.append(f"{mod}.{cls}.{meth}")
    assert missing == []


def test_a_fresh_import_frees_the_old_copy():
    # the layered benchmark imports tadet afresh several times; a copy kept
    # alive (say, by typing's cache of a module-level Optional[...] alias)
    # would add its memory to every later measurement
    import gc
    import sys
    import weakref

    def ours():
        return [n for n in sys.modules if n == "tadet" or n.startswith("tadet.")]

    saved = {n: sys.modules.pop(n) for n in ours()}
    try:
        modules = [importlib.import_module(f"tadet.{m}") for m in (
            "core", "unfold", "silent", "determinize", "equivalence", "solver", "modelio", "corpus")]
        copies = [weakref.ref(m.__dict__[name]) for m in modules for name in vars(m)
                  if isinstance(vars(m)[name], type) and vars(m)[name].__module__ == m.__name__]
        for n in ours():
            del sys.modules[n]
        del modules
        gc.collect()
        assert [r() for r in copies if r() is not None] == []
    finally:
        for n in ours():
            del sys.modules[n]
        sys.modules.update(saved)
