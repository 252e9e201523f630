"""Silent-transition removal: bypass, taken guard, future updates."""

import hashlib
import pytest
from fractions import Fraction

from tadet.core import (
    TRUE,
    Atom,
    Clock,
    StructuralError,
    Transition,
    UnsupportedInputError,
    conj,
    disj,
    level_clock,
    make_automaton,
    silent_clock,
)
from tadet.corpus import NAMED_MODELS, coffee_machine, random_automaton, sync_chain
from tadet.modelio import serialize_model
from tadet.equivalence import language_equal, trace_in_language
from tadet.silent import (
    _context,
    enabling_guard,
    remove_all_silent,
    stripped_unfolding,
    taken_guard,
)
from tadet.unfold import rename_clocks, unfold

from guards import equivalent
from runs import timed_trace

X1, X2 = level_clock(1), level_clock(2)


def removed_coffee(k=4):
    return remove_all_silent(rename_clocks(unfold(coffee_machine(), k)))


def test_removal_leaves_no_silent_edges():
    for make in NAMED_MODELS.values():
        t = remove_all_silent(rename_clocks(unfold(make(), 3)))
        assert t.silent_count() == 0


def test_removal_requires_renamed_tree():
    with pytest.raises(StructuralError):
        remove_all_silent(unfold(coffee_machine(), 2))


def test_bypass_guard_on_coffee_machine():
    # the silent step with guard 1<x<2 after a beep at 0<x1<3 can fire
    # some delay later iff the beep happened before 2
    t = removed_coffee()
    bypass = [
        tr for tr in t.transitions
        if tr.action == "beep" and equivalent(
            tr.guard, conj(Atom(X1, ">", 0), Atom(X1, "<", 3), Atom(X1, "<", 2))
        )
    ]
    assert len(bypass) == 1


def first_silent_context(tree):
    """The removal context of the tree's first silent edge, whose
    predecessor is the observable edge into its source."""
    silent = next(tr for tr in tree.transitions if tr.is_silent)
    pred = next(tr for tr in tree.transitions if tr.target == silent.source)
    return _context(silent, pred, {})


def test_enabling_guard_drops_silent_clock_terms():
    tree = rename_clocks(unfold(coffee_machine(), 4))
    ctx = first_silent_context(tree)
    eg = enabling_guard(ctx)
    assert equivalent(eg, Atom(X1, "<", 2))


def test_taken_guard_names_the_silent_clock():
    tree = rename_clocks(unfold(coffee_machine(), 4))
    ctx = first_silent_context(tree)
    tg = taken_guard(ctx)
    assert equivalent(tg, Atom(silent_clock(2, 0), ">=", 0))


def test_updated_coffee_guard_is_exact():
    t = removed_coffee()
    (coffee,) = [tr.guard for tr in t.transitions if tr.action == "coffee"]
    exact = conj(Atom(X1, ">", 2), Atom(X1, "<", 3), Atom(X2, ">=", 1))
    assert equivalent(coffee, exact)
    # dropping the x2 bound admits a trace the original machine rejects:
    # beep at 1.9 then coffee at 2.5 forces the brew step before the beep
    loose = conj(Atom(X1, ">", 2), Atom(X1, "<", 3), Atom(X1, ">", 1))
    assert not equivalent(coffee, loose)
    original = rename_clocks(unfold(coffee_machine(), 4))
    bad = timed_trace(
        (Fraction(0), "coin"), (Fraction(19, 10), "beep"), (Fraction(5, 2), "coffee")
    )
    assert not trace_in_language(original, bad)
    assert trace_in_language(t, bad) is False


def test_sync_chain_couples_both_future_guards():
    t = remove_all_silent(rename_clocks(unfold(sync_chain(), 2)))
    by_level = sorted(
        (tr for tr in t.transitions if tr.action == "alpha"),
        key=lambda tr: t.nodes[tr.source].obs_level,
    )
    first, second = by_level
    x0 = level_clock(0)
    assert equivalent(
        first.guard, conj(Atom(x0, ">", 3), Atom(x0, "<", 4))
    )
    assert equivalent(
        second.guard,
        conj(Atom(x0, ">", 5), Atom(x0, "<", 6), Atom(level_clock(1), "=", 2)),
    )


@pytest.mark.parametrize("name", sorted(NAMED_MODELS))
def test_removal_preserves_bounded_language(name):
    tree = rename_clocks(unfold(NAMED_MODELS[name](), 3))
    assert language_equal(tree, remove_all_silent(tree)).equal


def three_edge_example():
    # the second silent edge can never fire (x < 0 after a reset), so
    # neither can b
    x = Clock("x")
    return make_automaton(
        locations=["q0", "q1", "q2", "q3", "q4"], initial="q0", accepting=["q4"],
        clocks=[x],
        transitions=[
            Transition("q0", "q1", "a", TRUE, frozenset((x,))),
            Transition("q1", "q2", None, TRUE, frozenset((x,))),
            Transition("q2", "q3", None, Atom(x, "<", 0)),
            Transition("q3", "q4", "b"),
        ],
    )


# configurations where an earlier round rewrites a silent guard to false;
# the removed tree must keep that edge impossible, not make it always enabled
@pytest.mark.parametrize("make,k", [
    pytest.param(lambda: random_automaton(302), 2, id="random-302-2"),
    pytest.param(lambda: random_automaton(317), 2, id="random-317-2"),
    pytest.param(lambda: random_automaton(476), 2, id="random-476-2"),
    pytest.param(lambda: random_automaton(109), 3, id="random-109-3"),
    pytest.param(three_edge_example, 2, id="three-edge-example-2"),
])
def test_removal_keeps_false_guards_false(make, k):
    tree = rename_clocks(unfold(make(), k))
    assert language_equal(tree, remove_all_silent(tree)).equal


def test_removal_preserves_language_on_random_sweep():
    unequal = []
    for k in (2, 3):
        for seed in range(100, 1100):
            tree = rename_clocks(unfold(random_automaton(seed), k))
            if not language_equal(tree, remove_all_silent(tree)).equal:
                unequal.append((seed, k))
    assert unequal == []


def test_leading_silent_reattaches_children_to_root():
    t = remove_all_silent(rename_clocks(unfold(sync_chain(), 2)))
    assert t.silent_count() == 0
    assert all(tr.source != t.root or not tr.is_silent for tr in t.transitions)
    assert any(tr.source == t.root and tr.action == "alpha" for tr in t.transitions)


# hand-built automata whose silent and future guards carry several bounds
# per clock, for the pinned removal outputs
XC, YC, ZC = Clock("x"), Clock("y"), Clock("z")


def _chain(*transitions, accepting):
    locations = {t.source for t in transitions} | {t.target for t in transitions}
    return make_automaton(sorted(locations), "q0", accepting, [XC, YC, ZC], transitions)


def _edge(source, target, action, *atoms, reset=XC):
    return Transition(source, target, action, conj(*atoms), frozenset((reset,)))


def two_bounds_each_side():
    # two lower and two upper bounds on x in one silent guard, one of each on y
    return _chain(
        _edge("q0", "q1", "a"),
        _edge("q1", "q2", None, Atom(XC, ">", 1), Atom(YC, "<", 6), Atom(XC, ">=", 2),
              Atom(XC, "<", 5), Atom(YC, ">=", 1), Atom(XC, "<=", 4), reset=ZC),
        _edge("q2", "q3", "b", Atom(ZC, ">=", 1), Atom(ZC, "<", 3)),
        _edge("q3", "q1", "a"),
        accepting=["q3"],
    )


def exact_on_two_clocks():
    # '=' on two clocks: the first one in guard order, y, picks the clock
    return _chain(
        _edge("q0", "q1", "a"),
        _edge("q1", "q2", "b", reset=YC),
        _edge("q2", "q3", None, Atom(YC, "=", 1), Atom(XC, "=", 3), reset=ZC),
        _edge("q3", "q4", "c", Atom(ZC, "<=", 2), Atom(ZC, ">", 0)),
        accepting=["q4"],
    )


def several_future_bounds():
    return _chain(
        _edge("q0", "q1", "a"),
        _edge("q1", "q2", None, Atom(XC, ">=", 1), Atom(XC, "<", 2), reset=ZC),
        _edge("q2", "q3", "b", Atom(ZC, ">", 0), Atom(ZC, ">=", 1), Atom(ZC, "<", 4),
              Atom(ZC, "<=", 3), Atom(ZC, "<=", 5), Atom(XC, "<", 7)),
        accepting=["q3"],
    )


def two_future_guards():
    # b and c both read the silent clock z on one path, so Table 3 couples them
    return _chain(
        _edge("q0", "q1", "a"),
        _edge("q1", "q2", None, Atom(XC, ">", 1), Atom(XC, "<", 3), reset=ZC),
        _edge("q2", "q3", "b", Atom(ZC, ">=", 1), Atom(ZC, ">", 1), Atom(ZC, "<", 2),
              Atom(ZC, "<=", 3), reset=YC),
        _edge("q3", "q4", "c", Atom(ZC, ">", 2), Atom(ZC, ">=", 3), Atom(ZC, "<=", 5),
              Atom(ZC, "<", 6), Atom(YC, "<", 4)),
        accepting=["q4"],
    )


# serialize_model digests of the removed trees, one configuration per
# removal path; each round removes the first silent edge in depth-first
# order, so the digests also pin that order
@pytest.mark.parametrize("make,k,digest", [
    pytest.param(
        NAMED_MODELS["nondet-silent-a"], 6,
        "f239ba1f4c5386f1636b69a8f305c896c763570753f77e8f38d6ef80efa13d08",
        id="bypass-chain-silent-a-6"),
    pytest.param(
        sync_chain, 3,
        "2b6c93307c0f0656a38bc49db56a76964237a76a2444d382331ce6ee51bcac8c",
        id="root-sync-chain-3"),
    pytest.param(
        lambda: random_automaton(18), 2,
        "5842fdf93c701cb1592127421450bd76a0c346fa6e5627522c627d9dd63c5547",
        id="root-random-18-2"),
    pytest.param(
        lambda: random_automaton(12), 2,
        "ada093727fa99c492e6bc27dc1e293ae33c7dc269b12cd93fd07c6c9be96f7c7",
        id="pruned-random-12-2"),
    pytest.param(
        lambda: random_automaton(16), 3,
        "008ccbdeaf5494378df9a7ab99e7be5352c79771282c6fad681e8bd2283e2538",
        id="pruned-random-16-3"),
    pytest.param(
        lambda: random_automaton(27), 2,
        "32a13f4e08fd1a4230cfc1d038dd27097ba87b01194d957c1aeb68081cfd21d6",
        id="pruned-random-27-2"),
    pytest.param(
        lambda: random_automaton(17), 4,
        "fa5572a993e0dd643e3ea5cfe71520e249e3c2a229b432a025ffda55d359b789",
        id="two-silent-from-one-node-random-17-4"),
    pytest.param(
        two_bounds_each_side, 4,
        "81d2ff63f89ee006f4cae2bd9e8846b36d298a32aa67665c151ac21ce1142372",
        id="two-bounds-each-side-4"),
    pytest.param(
        exact_on_two_clocks, 3,
        "959b907f0f8b6defbfbb03606f8181f40b5dcb73970202139684f5581f04ab10",
        id="exact-on-two-clocks-3"),
    pytest.param(
        several_future_bounds, 2,
        "ae9d43297ffd06892dedfa1e8717029d7883437bcf830e615d8977c427923005",
        id="several-future-bounds-2"),
    pytest.param(
        two_future_guards, 3,
        "0819f8b372d61d5eb9b2fc6cb2c6049d7112ea0676f15e8a21d3b1aa515c2952",
        id="two-future-guards-3"),
])
def test_pinned_removal_outputs(make, k, digest):
    t = remove_all_silent(rename_clocks(unfold(make(), k)))
    text = serialize_model(t.to_automaton())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("silent_guard,future_guard", [
    pytest.param(Atom(XC, "<", 2, YC), TRUE, id="diagonal-silent-guard"),
    pytest.param(disj(Atom(XC, "<", 1), Atom(XC, ">", 2)), TRUE, id="disjunctive-silent-guard"),
    pytest.param(TRUE, Atom(ZC, "<", 2, XC), id="diagonal-future-atom-on-silent-clock"),
])
def test_unsupported_guards_are_rejected(silent_guard, future_guard):
    a = _chain(
        _edge("q0", "q1", "a"),
        Transition("q1", "q2", None, silent_guard, frozenset((ZC,))),
        Transition("q2", "q3", "b", future_guard),
        accepting=["q3"],
    )
    with pytest.raises(UnsupportedInputError):
        remove_all_silent(rename_clocks(unfold(a, 2)))


def test_silent_clock_inside_a_future_disjunction_is_rejected():
    # only a future guard's top-level atoms are rewritten; z < 1 | z > 3
    # kept as it was would read the renamed z after the bypass no longer
    # resets it, and accept a@0 b@1, which the input rejects
    a = _chain(
        _edge("q0", "q1", "a"),
        _edge("q1", "q2", None, Atom(XC, ">=", 1), reset=ZC),
        Transition("q2", "q3", "b",
                   conj(Atom(XC, "<", 5), disj(Atom(ZC, "<", 1), Atom(ZC, ">", 3)))),
        accepting=["q3"],
    )
    with pytest.raises(UnsupportedInputError, match="disjunction"):
        remove_all_silent(rename_clocks(unfold(a, 2)))


@pytest.mark.parametrize("name,objects,dag_edges", [
    ("nondet-silent-a", 126, 126),
    ("nondet-silent-b", 301, 316),
    ("nondet-silent-d", 39, 54),
])
def test_stripped_copies_share_guards(name, objects, dag_edges):
    # tree copies of a removal share the guards that it builds: the
    # stripped tree holds no more guard objects than the stripped DAG,
    # which builds each node once, has edges
    a = NAMED_MODELS[name]()
    t = remove_all_silent(rename_clocks(unfold(a, 9)))
    assert len({id(tr.guard) for tr in t.transitions}) == objects
    assert len(stripped_unfolding(a, 9).transitions) == dag_edges
    assert objects <= dag_edges


def test_silent_clock_inside_a_disjunction_is_rejected_in_every_copy():
    # a and b lead to two tree copies of the silent step and of the
    # disjunction below it that reads the silent clock; the removal's
    # memo keeps results only, so the copy that meets the guard first
    # raises, and so does the one-walk DAG, which builds the guard once
    a = _chain(
        _edge("q0", "q1", "a"),
        _edge("q0", "q1", "b"),
        _edge("q1", "q2", None, Atom(XC, ">=", 1), reset=ZC),
        Transition("q2", "q3", "c",
                   conj(Atom(XC, "<", 5), disj(Atom(ZC, "<", 1), Atom(ZC, ">", 3)))),
        accepting=["q3"],
    )
    tree = rename_clocks(unfold(a, 2))
    copies = [tr for tr in tree.transitions if tr.action == "c"]
    assert len(copies) == 2 and copies[0].guard is copies[1].guard
    with pytest.raises(UnsupportedInputError, match="disjunction"):
        remove_all_silent(tree)
    with pytest.raises(UnsupportedInputError, match="disjunction"):
        stripped_unfolding(a, 2)


def test_removal_on_a_deep_tree():
    # 2200 edges deep, beyond the interpreter's recursion limit: every walk
    # over the tree has to be iterative
    x = Clock("x")
    loop = make_automaton(
        locations=["q0", "q1"], initial="q0", accepting=["q0"], clocks=[x],
        transitions=[
            Transition("q0", "q1", None, Atom(x, "<=", 1), frozenset((x,))),
            Transition("q1", "q0", "a"),
        ],
    )
    t = remove_all_silent(rename_clocks(unfold(loop, 1100)))
    assert t.silent_count() == 0
    children = t.build_children_index()
    reached = [t.root]
    for nid in reached:
        reached.extend(tr.target for tr in children[nid])
    assert sorted(reached) == sorted(t.nodes)
