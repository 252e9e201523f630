"""Bounded unfolding and clock renaming."""

import pytest

from tadet.core import (
    Atom, Clock, StructuralError, Transition, TrueGuard, guard_clocks,
    level_clock, make_automaton,
)
from tadet.corpus import NAMED_MODELS, random_automaton
from tadet.silent import stripped_unfolding
from tadet.unfold import Tree, prune_nonaccepting, rename_clocks, unfold

from dags import path_count, unfolded

coffee_machine = NAMED_MODELS["coffee-machine"]
nondet_plain_c = NAMED_MODELS["nondet-plain-c"]
nondet_silent_a = NAMED_MODELS["nondet-silent-a"]
nondet_silent_b = NAMED_MODELS["nondet-silent-b"]
nondet_silent_d = NAMED_MODELS["nondet-silent-d"]

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
    pruned = unfold(nondet_plain_c(), 3)
    prune_nonaccepting(pruned)
    assert pruned.location_count() < full.location_count()
    children = pruned.build_children_index()
    for nid, node in pruned.nodes.items():
        if not children[nid]:
            assert node.accepting


@pytest.mark.parametrize("make,k", [
    pytest.param(nondet_silent_a, 6, id="silent-a-6"),
    pytest.param(nondet_silent_b, 5, id="silent-b-5"),
    pytest.param(nondet_silent_d, 6, id="silent-d-6"),
])
def test_pruning_a_dag_prunes_the_tree_it_unfolds_to(make, k):
    dag = stripped_unfolding(make(), k)
    tree = unfolded(dag)
    prune_nonaccepting(dag)
    prune_nonaccepting(tree)
    assert path_count(dag) == tree.location_count()
    assert dag.location_count() < tree.location_count()


def test_pruning_visits_each_dag_node_once():
    # the tree that this DAG unfolds to has about 2.7e9 nodes
    dag = stripped_unfolding(nondet_silent_a(), 30)
    assert (dag.location_count(), dag.transition_count()) == (931, 1365)
    prune_nonaccepting(dag)
    assert (dag.location_count(), dag.transition_count()) == (466, 900)
    children = dag.build_children_index()
    assert all(dag.nodes[n].accepting for n in dag.nodes if not children[n])


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
    t = unfold(a, 1100)
    prune_nonaccepting(t)
    t = rename_clocks(t)
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


@pytest.mark.parametrize("make,edges,guards", [
    (nondet_silent_a, 1277, 34),
    (nondet_silent_b, 8360, 34),
    (nondet_silent_d, 107, 27),
])
def test_renamed_copies_share_each_guard(make, edges, guards):
    # every tree copy of an edge whose guard renames to the same value
    # holds the same guard object
    t = rename_clocks(unfold(make(), 9))
    assert len(t.transitions) == edges
    assert len({tr.guard for tr in t.transitions}) == guards
    assert len({id(tr.guard) for tr in t.transitions}) == guards


def test_named_models_unfold_without_silent_at_leaf_frontier():
    for make in NAMED_MODELS.values():
        t = unfold(make(), 2)
        assert isinstance(t, Tree)
        assert t.is_tree()
