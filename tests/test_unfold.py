"""Bounded unfolding and clock renaming."""

import pytest

from tadet.core import (
    Atom, Clock, StructuralError, Transition, TrueGuard, guard_clocks,
    level_clock, make_automaton,
)
from tadet.corpus import (
    NAMED_MODELS,
    coffee_machine,
    nondet_plain_c,
    nondet_silent_a,
    random_automaton,
)
from tadet.unfold import Tree, rename_clocks, unfold

X0 = level_clock(0)


@pytest.mark.parametrize("k,locations", [(2, 8), (5, 78)])
def test_unfolding_counts_observable_loop_model(k, locations):
    assert unfold(nondet_silent_a(), k).location_count() == locations


@pytest.mark.parametrize("k,locations", [(2, 5), (5, 11), (10, 21)])
def test_unfolding_counts_plain_model(k, locations):
    assert unfold(nondet_plain_c(), k).location_count() == locations


def test_unfolding_is_a_tree_with_leveled_nodes():
    t = unfold(coffee_machine(), 4)
    assert t.is_tree()
    children = t.build_children_index()
    for tr in t.transitions:
        parent, child = t.nodes[tr.source], t.nodes[tr.target]
        if tr.is_silent:
            assert child.obs_level == parent.obs_level
            assert child.silent_index == (
                0 if parent.silent_index is None else parent.silent_index + 1
            )
        else:
            assert child.obs_level == parent.obs_level + 1
            assert child.silent_index is None
    for nid, node in t.nodes.items():
        if node.obs_level == 4:
            assert all(c.is_silent for c in children[nid])


def test_silent_reached_copies_are_never_accepting():
    t = unfold(coffee_machine(), 3)
    for tr in t.transitions:
        if tr.is_silent:
            assert not t.nodes[tr.target].accepting


def test_prune_nonaccepting_leaves():
    full = unfold(nondet_plain_c(), 3)
    pruned = unfold(nondet_plain_c(), 3, prune_nonaccepting_leaves=True)
    assert pruned.location_count() < full.location_count()
    children = pruned.build_children_index()
    for nid, node in pruned.nodes.items():
        if not children[nid]:
            assert node.accepting


def test_deep_tree_is_pruned_and_renamed_iteratively():
    # 2200 edges deep, beyond the interpreter's recursion limit; every
    # level also has a non-accepting "b" leaf for the pruning to drop
    x = Clock("x")
    a = make_automaton(["q0", "q1", "q2"], "q0", ["q0"], [x], [
        Transition("q0", "q1", None, Atom(x, "<=", 1), frozenset((x,))),
        Transition("q1", "q0", "a"),
        Transition("q0", "q2", "b"),
    ])
    assert unfold(a, 1100).location_count() == 3301
    t = rename_clocks(unfold(a, 1100, prune_nonaccepting_leaves=True))
    assert t.location_count() == 2201
    assert {tr.action for tr in t.transitions} == {None, "a"}
    assert t.transitions[-1].resets == frozenset((level_clock(1100),))


def test_silent_loop_is_rejected():
    from tadet.core import TRUE, Transition, make_automaton, Clock

    x = Clock("x")
    a = make_automaton(
        ["q0", "q1"], "q0", ["q0"], [x],
        [
            Transition("q0", "q1", None, TRUE, frozenset((x,))),
            Transition("q1", "q0", None, TRUE, frozenset((x,))),
        ],
    )
    with pytest.raises(StructuralError):
        unfold(a, 2)


def test_rename_gives_one_fresh_reset_per_edge():
    t = rename_clocks(unfold(coffee_machine(), 4))
    assert t.renamed
    for tr in t.transitions:
        assert len(tr.resets) == 1
        (r,) = tr.resets
        assert r.level >= 0
        child = t.nodes[tr.target]
        if tr.is_silent:
            assert r.name == f"x{child.obs_level}.{child.silent_index}"
        else:
            assert r == level_clock(child.obs_level)


def test_renamed_guards_use_most_recent_reset():
    t = rename_clocks(unfold(nondet_silent_a(), 3))
    root_edges = t.build_children_index()[t.root]
    for tr in root_edges:
        if not isinstance(tr.guard, TrueGuard):
            assert guard_clocks(tr.guard) == frozenset((X0,))


@pytest.mark.parametrize("seed", range(6))
def test_rename_depth_equals_level_on_silent_free(seed):
    drawn = random_automaton(seed)  # with each silent edge relabelled alpha
    a = make_automaton(drawn.locations, drawn.initial, drawn.accepting, drawn.clocks, [
        Transition(t.source, t.target, t.action or "alpha", t.guard, t.resets)
        for t in drawn.transitions
    ])
    t = rename_clocks(unfold(a, 3))
    depth = {t.root: 0}
    for tr in t.transitions:
        depth[tr.target] = depth[tr.source] + 1
        assert tr.resets == frozenset((level_clock(depth[tr.target]),))
        assert t.nodes[tr.target].obs_level == depth[tr.target]


def test_named_models_unfold_without_silent_at_leaf_frontier():
    for make in NAMED_MODELS.values():
        t = unfold(make(), 2)
        assert isinstance(t, Tree)
        assert t.is_tree()
