"""Determinization variants and their agreement."""

import hashlib
from collections import Counter

import pytest

from tadet import determinize, solver
from tadet.core import (
    FALSE,
    TRUE,
    Atom,
    Clock,
    StructuralError,
    Transition,
    UnsupportedInputError,
    conj,
    disj,
    guard_clocks,
    level_clock,
    make_automaton,
)
from tadet.corpus import NAMED_MODELS, random_automaton
from tadet.determinize import (
    _reaches_outside,
    _regions,
    check_deterministic,
    determinize_guard_oriented,
    determinize_on_the_fly,
    determinize_standard,
    pipeline_on_the_fly,
    rebase_guard,
)
from tadet.equivalence import language_equal
from tadet.modelio import serialize_model
from tadet.silent import remove_all_silent
from tadet.unfold import rename_clocks, unfold

from dags import path_count, unfolded
from guards import equivalent

coffee_machine = NAMED_MODELS["coffee-machine"]

X1, X2 = level_clock(1), level_clock(2)


def removed(name, k):
    return remove_all_silent(rename_clocks(unfold(NAMED_MODELS[name](), k)))


def test_rebase_unary_atoms_become_diagonals():
    g = rebase_guard(Atom(X1, "<", 3), X2)
    assert g == Atom(X1, "<", 3, X2)
    diag = Atom(X1, "<", 1, level_clock(0))
    assert rebase_guard(diag, X2) == diag
    with pytest.raises(StructuralError):
        rebase_guard(Atom(X2, "<", 1), X2)


def test_coffee_machine_merges_beeps():
    d = determinize_guard_oriented(removed("coffee-machine", 4))
    beeps = [t for t in d.transitions if t.action == "beep"]
    assert len(beeps) == 1
    from tadet.core import conj, disj

    golden = disj(
        conj(Atom(X1, ">", 0), Atom(X1, "<", 3), Atom(X1, "<", 2)),
        Atom(X1, "=", 2),
        conj(Atom(X1, ">", 0), Atom(X1, "<", 3)),
    )
    assert equivalent(beeps[0].guard, golden)
    assert check_deterministic(d)


def test_nondeterministic_input_detected():
    t = removed("coffee-machine", 4)
    assert not check_deterministic(t)  # two beep guards overlap at 1.5


@pytest.mark.parametrize("k,locations", [(2, 7), (5, 63)])
def test_guard_oriented_counts_observable_loop_model(k, locations):
    assert determinize_guard_oriented(removed("nondet-silent-a", k)).location_count() == locations


@pytest.mark.parametrize("k,locations", [(2, 4), (5, 8), (10, 16)])
def test_guard_oriented_counts_plain_model(k, locations):
    assert determinize_guard_oriented(removed("nondet-plain-c", k)).location_count() == locations


@pytest.mark.parametrize("name,k", [("nondet-plain-c", 4), ("nondet-silent-d", 4)])
def test_guard_oriented_not_larger_than_standard(name, k):
    # against the tree that the shared std output unfolds to
    t = removed(name, k)
    assert determinize_guard_oriented(t).location_count() <= path_count(determinize_standard(t))


@pytest.mark.parametrize("name", sorted(NAMED_MODELS))
def test_variants_agree_on_named_models(name):
    t = removed(name, 3)
    new = determinize_guard_oriented(t)
    std = determinize_standard(t)
    otf = pipeline_on_the_fly(NAMED_MODELS[name](), 3)
    # otf is the staged pipeline with a sharing merge, byte for byte
    assert serialize_model(determinize_on_the_fly(t).to_automaton()) == \
        serialize_model(otf.to_automaton())
    assert check_deterministic(new)
    assert check_deterministic(std)
    assert check_deterministic(otf)
    assert language_equal(new, std).equal
    assert language_equal(new, otf).equal


@pytest.mark.parametrize("seed", range(8))
def test_variants_agree_on_random_models(seed):
    a = random_automaton(seed)
    t = remove_all_silent(rename_clocks(unfold(a, 3)))
    new = determinize_guard_oriented(t)
    std = determinize_standard(t)
    assert check_deterministic(new) and check_deterministic(std)
    assert language_equal(new, std).equal


def test_deterministic_input_stays_put():
    t = removed("sync-chain", 2)  # single chain, nothing to merge
    d = determinize_guard_oriented(t)
    assert d.location_count() == t.location_count()
    assert d.transition_count() == t.transition_count()


def test_silent_edge_rejected():
    t = rename_clocks(unfold(coffee_machine(), 3))
    with pytest.raises(StructuralError):
        determinize_guard_oriented(t)


# serialize_model digests of merge outputs where same-action edges are
# merged and, with otf, locations are shared; they pin the sharing keys
# and the location numbering
@pytest.mark.parametrize("make,k,new_digest,otf_digest", [
    pytest.param(
        NAMED_MODELS["nondet-silent-b"], 4,
        "a44578dfb16fd521aabd8123e0ac6449318f55008cb47da61bb63ffdfe3545ac",
        "3bc45d3be73a40987bde98d4e83be1fe0f90622b42f757d79b0b20c9a0d7fde9",
        id="silent-b-4"),
    pytest.param(
        NAMED_MODELS["nondet-silent-a"], 5,
        "a6158401481881d131bb30b14b07ce6f8ffaa1dbf7e2937ed9caf083d5870af1",
        "5c62b0bd98e3ec58c5c1d75d0db6a7bf23d5c2a10a9a9234bafb4e956e412590",
        id="silent-a-5"),
    pytest.param(
        lambda: random_automaton(17), 4,
        "faae981998101672968e43ef87e01cd28abc9230085b7308137aadc85853dbbc",
        "092bc758740f4d6eb4221539cd7f86b46edafc01cde818194716877b6e876729",
        id="random-17-4"),
    pytest.param(
        NAMED_MODELS["nondet-silent-d"], 12,
        "3192a76b6913f754ba4a299eee709555ce91d53e0ee8daa443332bb62cb56018",
        "3192a76b6913f754ba4a299eee709555ce91d53e0ee8daa443332bb62cb56018",
        id="silent-d-12"),
])
def test_pinned_merge_outputs(make, k, new_digest, otf_digest):
    def digest(t):
        return hashlib.sha256(serialize_model(t.to_automaton()).encode()).hexdigest()

    new = determinize_guard_oriented(remove_all_silent(rename_clocks(unfold(make(), k))))
    assert digest(new) == new_digest
    assert digest(pipeline_on_the_fly(make(), k)) == otf_digest


def members(guards):
    return [(g, list(solver.feasible_systems(g))) for g in guards]


def complement_search(nacc, acc):
    """The merge's former decision: search the non-accepting guards met
    with the complement of the accepting ones."""
    return solver.is_satisfiable(conj(disj(*nacc), solver.complement_guard(disj(*acc))))


def test_non_accepting_decision_matches_the_complement_search(monkeypatch):
    # every group with accepting and non-accepting members that the merge
    # meets on the corpus
    seen = []

    def spy(nacc, acc):
        keep = _reaches_outside(nacc, acc)
        seen.append(([g for g, _ in nacc], [g for g, _ in acc], keep))
        return keep

    monkeypatch.setattr(determinize, "_reaches_outside", spy)
    for seed in range(100, 300):
        for k in (2, 3):
            determinize_guard_oriented(remove_all_silent(rename_clocks(unfold(random_automaton(seed), k))))
    assert sum(keep for _, _, keep in seen) == 73
    assert sum(not keep for _, _, keep in seen) == 75
    for nacc, acc, keep in seen:
        assert keep == complement_search(nacc, acc), (nacc, acc)


@pytest.mark.parametrize("nacc,acc,keep", [
    # the non-accepting guard lies inside the accepting one
    ([Atom(X1, "<", 3)], [Atom(X1, "<", 5)], False),
    # two accepting zones cover it together, neither alone
    ([Atom(X1, "<", 3)], [disj(Atom(X1, "<", 2), Atom(X1, ">=", 1))], False),
    # one of the non-accepting guard's two zones sticks out
    ([disj(Atom(X1, "<", 1), Atom(X1, ">", 4))], [Atom(X1, "<", 2)], True),
    # a clock that only one side reads: x2 >= 0 is all the other knows
    ([Atom(X2, "<=", 1, X1)], [Atom(X1, ">", 0)], True),
    # two non-accepting guards, each inside an accepting TRUE
    ([Atom(X1, ">", 0), Atom(X1, "=", 0)], [TRUE], False),
    # one accepting zone: the first non-accepting zone lies inside, the second sticks out
    ([Atom(X1, "<", 3), Atom(X1, ">", 4)], [Atom(X1, "<", 5)], True),
    # one accepting zone holding both non-accepting ones
    ([Atom(X1, "<", 3), Atom(X1, "=", 4)], [Atom(X1, "<", 5)], False),
    # one accepting zone over fewer clocks: put over x1 too, it holds the
    # other; read without x1, its x2 row would be compared with x1's
    ([conj(Atom(X1, "<", 10), Atom(X2, "<", 3))], [Atom(X2, "<", 5)], False),
], ids=["inside", "covered-by-two", "several-zones", "joint-clocks", "true",
        "one-zone-sticks-out", "one-zone-holds-both", "one-zone-fewer-clocks"])
def test_non_accepting_decision_hand_rows(nacc, acc, keep):
    assert _reaches_outside(members(nacc), members(acc)) == keep == complement_search(nacc, acc)


def test_merge_drops_a_non_accepting_edge_inside_the_accepting_one():
    a = make_automaton(["q0", "q1", "q2"], "q0", ["q1"], [XC], [
        Transition("q0", "q1", "a", Atom(XC, "<", 5)),
        Transition("q0", "q2", "a", Atom(XC, "<", 3)),
    ])
    new = determinize_guard_oriented(remove_all_silent(rename_clocks(unfold(a, 1))))
    assert [(t.action, t.guard) for t in new.transitions] == [("a", Atom(level_clock(0), "<", 5))]
    assert new.nodes[new.transitions[0].target].accepting


def test_merge_reads_member_zones_over_nonnegative_clocks():
    # x >= 0 covers x < 3 only where clocks can be
    a = make_automaton(["q0", "q1", "q2"], "q0", ["q1"], [XC], [
        Transition("q0", "q1", "a", Atom(XC, ">=", 0)),
        Transition("q0", "q2", "a", Atom(XC, "<", 3)),
    ])
    new = determinize_guard_oriented(remove_all_silent(rename_clocks(unfold(a, 1))))
    assert [(t.action, t.guard) for t in new.transitions] == [("a", Atom(level_clock(0), ">=", 0))]


def test_guard_oriented_unfolds_to_the_on_the_fly_tree():
    # new copies where otf shares; both unfold to the same tree, byte for byte
    def tree_text(dag):
        return serialize_model(unfolded(dag).to_automaton())

    configurations = [(make, k) for make in NAMED_MODELS.values() for k in range(1, 7)]
    configurations += [(lambda s=s: random_automaton(s), k) for s in range(100, 300) for k in (2, 3)]
    for make, k in configurations:
        t = remove_all_silent(rename_clocks(unfold(make(), k)))
        assert tree_text(determinize_guard_oriented(t)) == tree_text(determinize_on_the_fly(t))


def test_each_carried_verdict_matches_a_fresh_search(monkeypatch):
    # a pushed guard conj(c.guard, rebase_guard(g, anchor)) gets an edge iff
    # its carried zone admits x >= 0; the merge rebases g just before it
    # pushes g's children, so the last rebased guard is the one pushed
    pushes = []
    verdicts = Counter()
    carry = determinize._carry

    def rebased(g, anchor):
        pushes.append(rebase_guard(g, anchor))
        return pushes[-1]

    def checked(zone, anchor, g):
        carried = carry(zone, anchor, g)
        cg = conj(g, pushes[-1])
        assert bool(carried) == solver.is_satisfiable(cg), cg
        verdicts[bool(carried)] += 1
        return carried

    monkeypatch.setattr(determinize, "rebase_guard", rebased)
    monkeypatch.setattr(determinize, "_carry", checked)
    configurations = [(make, k) for make in NAMED_MODELS.values() for k in range(1, 7)]
    configurations += [(lambda s=s: random_automaton(s), k) for s in range(100, 300) for k in (2, 3)]
    for make, k in configurations:
        determinize_guard_oriented(remove_all_silent(rename_clocks(unfold(make(), k))))
    assert verdicts[True] and verdicts[False]


def with_any(a):
    """``a`` with each observable guard g that reads no clock a silent edge
    resets widened to ``g | x > 2``, x the least clock that g reads."""
    silent = {c for t in a.transitions if t.is_silent for c in t.resets}

    def widened(t):
        clocks = guard_clocks(t.guard)
        if t.is_silent or not clocks or clocks & silent:
            return t
        return Transition(t.source, t.target, t.action, disj(t.guard, Atom(min(clocks), ">", 2)), t.resets)

    return make_automaton(a.locations, a.initial, a.accepting, a.clocks, map(widened, a.transitions))


def test_merge_on_disjunctive_input_guards(monkeypatch):
    # the pushed guards that hold a disjunction, each with its carried zones
    pushed = []
    group_by_action = determinize._group_by_action

    def spied(edges):
        pushed.extend((g, z) for _, g, _, z in edges if z is not None and solver.split_parts([g])[1])
        return group_by_action(edges)

    monkeypatch.setattr(determinize, "_group_by_action", spied)
    digests = {"new": hashlib.sha256(), "otf": hashlib.sha256()}
    for seed in range(100, 300):
        for k in (2, 3):
            a = with_any(random_automaton(seed))
            new = determinize_guard_oriented(remove_all_silent(rename_clocks(unfold(a, k))))
            for variant, t in (("new", new), ("otf", pipeline_on_the_fly(a, k))):
                digests[variant].update(serialize_model(t.to_automaton()).encode())
    # recorded before the merge kept one zone form, when such guards were
    # searched afresh
    assert {v: h.hexdigest() for v, h in digests.items()} == {
        "new": "a8813a9900671a5724be632f0a6ec55b7e608d71ceec304a9c78161df706084f",
        "otf": "b297c01eba4e4ce81f6d037485074d64e52ac98ae600ae8f586bb5608412f23a",
    }
    assert len(pushed) == 1364
    uncarried = 0
    for g, zones in pushed:
        carried = [z.copy() for z in zones]
        for z in carried:
            z.add_nonneg(z.vars)
        searched = list(solver.feasible_systems(g))
        clocks = frozenset().union(*(z.vars[1:] for z in carried + searched))
        carried, searched = ([z.over(clocks) for z in fed] for fed in (carried, searched))
        # every carried point meets g
        assert solver.uncovered_piece(carried, searched) is None, g
        # a zone that misses x >= 0 is dropped whole, and once rebased it may
        # hold points of g where a clock exceeds one reset before it; a run
        # never reaches those, and every other point of g is carried
        uncarried += solver.uncovered_piece(searched, carried) is not None
        reached = [z.copy() for z in searched]
        for z in reached:
            for u in clocks:
                for v in clocks:
                    if u.level < v.level:
                        z.add_difference(v, u, 0, False)
        reached = [z for z in reached if z.is_satisfiable()]
        assert solver.uncovered_piece(reached, carried) is None, g
    assert uncarried == 142


def test_merge_drops_an_edge_that_no_run_reaches():
    # the widened seed 380 at k=4 meets a group whose non-accepting guards
    # leave the accepting ones only where a clock exceeds one reset before
    # it; the carried zones hold no such point, so that edge goes, and with
    # new its location (searching the guards kept them: 24 locations and 35
    # transitions for new, 13 and 35 for otf), and the language stays the same
    a = with_any(random_automaton(380))
    new = determinize_guard_oriented(remove_all_silent(rename_clocks(unfold(a, 4))))
    otf = pipeline_on_the_fly(a, 4)
    assert (new.location_count(), new.transition_count()) == (23, 34)
    assert (otf.location_count(), otf.transition_count()) == (13, 34)
    assert language_equal(unfold(a, 4), new).equal and language_equal(unfold(a, 4), otf).equal


def test_guard_oriented_pushes_each_pending_content_once(monkeypatch):
    # a repeated (level, pending content) is copied, not merged again, so
    # new rebases as many guards as otf, which builds it once
    calls = []

    def counted(g, anchor):
        calls.append(g)
        return rebase_guard(g, anchor)

    monkeypatch.setattr(determinize, "rebase_guard", counted)
    t = removed("nondet-silent-a", 9)
    determinize_on_the_fly(t)
    otf_calls = len(calls)
    calls.clear()
    new = determinize_guard_oriented(t)
    assert len(calls) == otf_calls == 72
    assert new.location_count() == 1023


def test_guard_oriented_copies_a_repeated_subtree():
    # a and b both reach q1 with no reset, so the tree's two copies of q1's
    # subtree have the same content: the second is the first block of
    # locations and transitions again, under fresh consecutive ids, with the
    # same guard objects
    a = make_automaton(["q0", "q1", "q2", "q3", "q4", "q5"], "q0", ["q2", "q4", "q5"], [XC], [
        Transition("q0", "q1", "a", TRUE),
        Transition("q0", "q1", "b", TRUE),
        Transition("q1", "q2", "c", Atom(XC, "<", 3)),
        Transition("q1", "q3", "c", Atom(XC, ">", 1)),
        Transition("q2", "q4", "d", Atom(XC, "<", 5)),
        Transition("q3", "q5", "d", Atom(XC, "<", 4)),
    ])
    t = remove_all_silent(rename_clocks(unfold(a, 3)))
    new = determinize_guard_oriented(t)
    assert [(e.source, e.target, e.action) for e in new.transitions] == [
        (3, 2, "d"), (4, 2, "d"), (1, 3, "c"), (1, 4, "c"),
        (7, 6, "d"), (8, 6, "d"), (5, 7, "c"), (5, 8, "c"),
        (0, 1, "a"), (0, 5, "b"),
    ]
    assert [new.nodes[n] for n in range(1, 5)] == [new.nodes[n] for n in range(5, 9)]
    first, second = new.transitions[:4], new.transitions[4:8]
    assert all(e.guard is f.guard and e.resets == f.resets for e, f in zip(first, second))
    assert determinize_on_the_fly(t).location_count() == 5


def staged_on_the_fly(a, k):
    return determinize_on_the_fly(remove_all_silent(rename_clocks(unfold(a, k))))


XC, YC, ZC = Clock("x"), Clock("y"), Clock("z")


def _chain(*transitions):
    # q0 -a, reset x-> q1 -silent, x >= 1, reset z-> q2, then ``transitions``
    head = [Transition("q0", "q1", "a", TRUE, frozenset((XC,))),
            Transition("q1", "q2", None, Atom(XC, ">=", 1), frozenset((ZC,)))]
    locations = sorted({q for t in transitions for q in (t.source, t.target)} | {"q0", "q1", "q2"})
    return make_automaton(locations, "q0", [locations[-1]], [XC, YC, ZC], head + list(transitions))


def _disjunction_below_a_spent_rewrite():
    # the silent step's rewrite is spent once b resets z again, so the
    # disjunction of c reads no silent clock
    return _chain(
        Transition("q2", "q3", "b", TRUE, frozenset((ZC,))),
        Transition("q3", "q4", "c", disj(Atom(XC, "<", 1), Atom(YC, ">", 3))))


def test_removal_accepts_a_disjunction_that_reads_no_silent_clock():
    tree = rename_clocks(unfold(_disjunction_below_a_spent_rewrite(), 3))
    stripped = remove_all_silent(tree)
    assert not any(t.is_silent for t in stripped.transitions)
    assert language_equal(tree, stripped).equal


def test_on_the_fly_dag_matches_the_staged_tree():
    # pipeline_on_the_fly merges the stripped unfolding built as a DAG; the
    # staged tree is the reference, byte for byte
    def digest(t):
        return hashlib.sha256(serialize_model(t.to_automaton()).encode()).hexdigest()

    # the second silent step resets x, which b resets again, so no model
    # clock holds its clock at c; but c reads z, so the first step's Table 3
    # names that clock there, and the second step's rewrite must remove it
    spent = _chain(
        Transition("q2", "q3", None, Atom(XC, "<=", 3), frozenset((XC,))),
        Transition("q3", "q4", "b", TRUE, frozenset((XC,))),
        Transition("q4", "q5", "c", Atom(ZC, "<", 5)),
    )
    configurations = [(make, k) for make in NAMED_MODELS.values() for k in range(2, 7)]
    configurations += [(lambda s=s: random_automaton(s), k) for s in range(100) for k in (2, 3)]
    configurations += [(lambda: spent, 3), (_disjunction_below_a_spent_rewrite, 3)]
    for make, k in configurations:
        assert digest(pipeline_on_the_fly(make(), k)) == digest(staged_on_the_fly(make(), k))


@pytest.mark.parametrize("make,k,error", [
    pytest.param(coffee_machine, 0, ValueError, id="depth-zero"),
    pytest.param(lambda: make_automaton(["q0", "q1"], "q0", ["q0"], [XC], [
        Transition("q0", "q1", None, TRUE, frozenset((XC,))),
        Transition("q1", "q0", None, TRUE, frozenset((XC,))),
    ]), 2, StructuralError, id="silent-loop"),
    pytest.param(lambda: _chain(
        Transition("q2", "q3", None, Atom(XC, "<", 2, YC), frozenset((YC,))),
        Transition("q3", "q4", "b")), 3, UnsupportedInputError, id="diagonal-silent-guard"),
    pytest.param(lambda: _chain(
        Transition("q2", "q3", "b", conj(Atom(XC, "<", 5), disj(Atom(ZC, "<", 1), Atom(ZC, ">", 3))))),
        2, UnsupportedInputError, id="silent-clock-in-a-disjunction"),
    # two edges below the silent target, a top-level disjunction that
    # reads the silent clock
    pytest.param(lambda: _chain(
        Transition("q2", "q3", "b"),
        Transition("q3", "q4", "c", disj(Atom(ZC, "<", 1), Atom(YC, ">", 3)))),
        3, UnsupportedInputError, id="disjunction-reading-the-silent-clock-two-edges-below"),
    # z < 0 never fires; the staged removal rewrites its subtree before it
    # prunes it
    pytest.param(lambda: _chain(
        Transition("q2", "q3", None, Atom(ZC, "<", 0), frozenset((YC,))),
        Transition("q3", "q4", "c", conj(Atom(XC, "<", 5), disj(Atom(ZC, "<", 1), Atom(ZC, ">", 3))))),
        3, UnsupportedInputError, id="disjunction-below-a-pruned-step"),
])
def test_on_the_fly_dag_rejects_what_the_staged_tree_rejects(make, k, error):
    with pytest.raises(error):
        staged_on_the_fly(make(), k)
    with pytest.raises(error):
        pipeline_on_the_fly(make(), k)


# serialize_model digests of subset-construction outputs, unfolded to the
# tree and as built; they pin the region order, the emitted guards, the
# sharing and the location numbering
@pytest.mark.parametrize("make,k,tree_digest,dag_digest", [
    pytest.param(
        NAMED_MODELS["nondet-silent-d"], 5,
        "c9b200643cfa8a20e64032aba44cb182521bd5d830edb5eda4824ad78c65de07",
        "ca58f4e9e21fa76e1d10f8df104c3be9c9ca4905d60fc438579e04fc3a8ce7c7",
        id="silent-d-5"),
    pytest.param(
        lambda: random_automaton(17), 4,
        "b1bae53e138eab4368833709dbd29ebf501c0ba783d70ec58c1bfb481f88836d",
        "f38277e8184f3fec8147af6e7549529d5d8b790b79b4e6fcb919a0b23f4de65d",
        id="random-17-4"),
    pytest.param(
        lambda: random_automaton(141), 3,
        "24b58ffe67b88d69baa1dd05fe73cc27394b4b31cb0a5718ea6d93b0548bc75c",
        "f7fc204f75ad8a50e2c03fbf581bf072a137ee436e4340ea81db4e99344f2406",
        id="random-141-3"),
])
def test_pinned_standard_outputs(make, k, tree_digest, dag_digest):
    std = determinize_standard(remove_all_silent(rename_clocks(unfold(make(), k))))

    def digest(t):
        return hashlib.sha256(serialize_model(t.to_automaton()).encode()).hexdigest()

    assert digest(unfolded(std)) == tree_digest
    assert digest(std) == dag_digest


def _two_ways(reset):
    """a leads to q1 for x <= 1 and to q2 for x <= 2; b leads from q1 for
    x < 1 and from q2 always, to q4, resetting x iff ``reset``; c below q4
    reads x."""
    return make_automaton(["q0", "q1", "q2", "q3", "q4", "q5"], "q0", ["q3", "q4", "q5"], [XC], [
        Transition("q0", "q1", "a", Atom(XC, "<=", 1)),
        Transition("q0", "q2", "a", Atom(XC, "<=", 2)),
        Transition("q1", "q3", "b", Atom(XC, "<", 1)),
        Transition("q2", "q4", "b", TRUE, frozenset((XC,)) if reset else frozenset()),
        Transition("q4", "q5", "c", Atom(XC, "<=", 3)),
    ])


@pytest.mark.parametrize("reset,locations,b_targets", [
    # b enters q4 alone from {q2} (1 < x <= 2 on a) and from {q1, q2} (x <= 1
    # on a, x >= 1 on b); with x reset, both entries see only x >= 0 below
    (True, 6, [1, 2]),
    # without the reset, c reads x, which is > 1 on the first entry and
    # >= 1 on the second: two locations
    (False, 7, [1, 1, 1]),
], ids=["same-zone", "other-zone"])
def test_standard_shares_a_location_only_in_the_same_zone(reset, locations, b_targets):
    tree = rename_clocks(unfold(_two_ways(reset), 3))
    std = determinize_standard(remove_all_silent(tree))
    assert std.location_count() == locations
    incoming = Counter(t.target for t in std.transitions if t.action == "b")
    assert sorted(incoming.values()) == b_targets
    # the accepting leaves below c are one location
    assert len({t.target for t in std.transitions if t.action == "c"}) == 1
    assert path_count(std) == unfolded(std).location_count() == 9
    assert check_deterministic(std)
    assert language_equal(tree, std).equal


def brute_regions(guards, zone=None):
    """Every region of ``guards`` that meets ``zone`` (by default: that is
    non-empty), one search per mask."""
    m = len(guards)
    return [
        mask for mask in range(1, 1 << m)
        if next(solver.feasible_systems(conj(
            *(guards[i] for i in range(m) if mask >> i & 1),
            *(solver.complement_guard(guards[i]) for i in range(m) if not mask >> i & 1),
        ), zone), None) is not None
    ]


def regions(guards):
    """The walk from the zone that only says each clock is >= 0."""
    zone = solver.nonneg_zone(frozenset().union(*map(guard_clocks, guards)))
    zone.close()
    return [mask for mask, _ in _regions(guards, [solver.complement_guard(g) for g in guards], zone)]


@pytest.mark.parametrize("guards,expected", [
    # an equality, whose complement is a disjunction
    ([Atom(X1, "=", 1), Atom(X1, "<=", 1)], [2, 3]),
    # a diagonal atom next to unary ones
    ([Atom(X1, "<", 0, X2), Atom(X1, ">", 2), Atom(X2, "<=", 1)], [1, 2, 3, 4, 5, 6]),
    # a disjunctive guard
    ([disj(Atom(X1, "<", 1), Atom(X1, ">", 3)), Atom(X1, ">=", 2)], [1, 2, 3]),
    # every region empty
    ([Atom(X1, "<", 0), Atom(X2, "<", 0)], []),
    ([FALSE, FALSE], []),
    # one edge
    ([Atom(X1, "<=", 1)], [1]),
    ([Atom(X1, "<", 0)], []),
], ids=["equality", "diagonal", "disjunction", "all-empty", "false", "one", "one-empty"])
def test_regions_hand_rows(guards, expected):
    assert regions(guards) == expected == brute_regions(guards)


def test_regions_of_one_edge_cost_one_search(monkeypatch):
    calls = []
    search = solver.feasible_systems
    monkeypatch.setattr(solver, "feasible_systems", lambda *a: calls.append(a) or search(*a))
    assert regions([disj(Atom(X1, "<", 1), Atom(X2, ">", 3))]) == [1]
    assert len(calls) == 1


def test_regions_match_brute_force_on_random_models(monkeypatch):
    # every action group that the subset construction meets on the corpus
    seen = []

    def spy(guards, comps, zone):
        leaves = _regions(guards, comps, zone)
        seen.append((guards, comps, zone, leaves))
        return leaves

    monkeypatch.setattr(determinize, "_regions", spy)
    for seed in range(100):
        for k in (2, 3):
            determinize_standard(remove_all_silent(rename_clocks(unfold(random_automaton(seed), k))))
    assert max(len(guards) for guards, _, _, _ in seen) > 8
    for guards, comps, zone, leaves in seen:
        assert [mask for mask, _ in leaves] == brute_regions(guards, zone), guards
        # each leaf zone is the start zone met with the region's atoms
        for mask, leaf in leaves:
            region = [guards[i] if mask >> i & 1 else comps[i] for i in range(len(guards))]
            expected = zone.copy()
            for a in solver.split_parts(region)[0]:
                expected.add_atom(a)
            assert leaf.vars == expected.vars and leaf.m == expected.m


def test_standard_drops_an_edge_that_no_run_reaches():
    # b's guard x < 1 is satisfiable on its own, but b follows a's x > 2
    # and x is not reset in between
    a = make_automaton(["q0", "q1", "q2"], "q0", ["q1", "q2"], [XC], [
        Transition("q0", "q1", "a", Atom(XC, ">", 2)),
        Transition("q1", "q2", "b", Atom(XC, "<", 1)),
    ])
    tree = rename_clocks(unfold(a, 2))
    std = determinize_standard(remove_all_silent(tree))
    assert [(t.action, t.guard) for t in std.transitions] == [("a", Atom(level_clock(0), ">", 2))]
    assert std.location_count() == 2
    assert check_deterministic(std)
    assert language_equal(tree, std).equal
