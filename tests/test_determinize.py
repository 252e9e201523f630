"""Determinization variants and their agreement."""

import hashlib

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
    level_clock,
    make_automaton,
)
from tadet.corpus import NAMED_MODELS, coffee_machine, random_automaton
from tadet.determinize import (
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
    assert solver.equivalent(beeps[0].guard, golden)
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
    t = removed(name, k)
    assert (
        determinize_guard_oriented(t).location_count()
        <= determinize_standard(t).location_count()
    )


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
])
def test_pinned_merge_outputs(make, k, new_digest, otf_digest):
    def digest(t):
        return hashlib.sha256(serialize_model(t.to_automaton()).encode()).hexdigest()

    new = determinize_guard_oriented(remove_all_silent(rename_clocks(unfold(make(), k))))
    assert digest(new) == new_digest
    assert digest(pipeline_on_the_fly(make(), k)) == otf_digest


def staged_on_the_fly(a, k):
    return determinize_on_the_fly(remove_all_silent(rename_clocks(unfold(a, k))))


XC, YC, ZC = Clock("x"), Clock("y"), Clock("z")


def _chain(*transitions):
    # q0 -a, reset x-> q1 -silent, x >= 1, reset z-> q2, then ``transitions``
    head = [Transition("q0", "q1", "a", TRUE, frozenset((XC,))),
            Transition("q1", "q2", None, Atom(XC, ">=", 1), frozenset((ZC,)))]
    locations = sorted({q for t in transitions for q in (t.source, t.target)} | {"q0", "q1", "q2"})
    return make_automaton(locations, "q0", [locations[-1]], [XC, YC, ZC], head + list(transitions))


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
    configurations += [(lambda: spent, 3)]
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
    # the silent step's rewrite is spent once z is reset again, but the
    # staged removal still rejects a disjunctive guard below it
    pytest.param(lambda: _chain(
        Transition("q2", "q3", "b", TRUE, frozenset((ZC,))),
        Transition("q3", "q4", "c", disj(Atom(XC, "<", 1), Atom(YC, ">", 3)))),
        3, UnsupportedInputError, id="disjunction-below-a-spent-rewrite"),
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


# serialize_model digests of subset-construction outputs; they pin the
# region order, the emitted guards and the location numbering
@pytest.mark.parametrize("make,k,digest", [
    pytest.param(
        NAMED_MODELS["nondet-silent-d"], 5,
        "fa255c35ed0d85cc6ea8a54a1fdd2a44717fc366b7eb08f317f907e8693b92d4",
        id="silent-d-5"),
    pytest.param(
        lambda: random_automaton(17), 4,
        "762eba45f42d008d05cf2f9a524c29368759e6c1314ab26fc2b19ec6f88977dd",
        id="random-17-4"),
    pytest.param(
        lambda: random_automaton(141), 3,
        "24b58ffe67b88d69baa1dd05fe73cc27394b4b31cb0a5718ea6d93b0548bc75c",
        id="random-141-3"),
])
def test_pinned_standard_outputs(make, k, digest):
    std = determinize_standard(remove_all_silent(rename_clocks(unfold(make(), k))))
    assert hashlib.sha256(serialize_model(std.to_automaton()).encode()).hexdigest() == digest


def brute_regions(guards):
    """Every non-empty region of ``guards``, one satisfiability query per mask."""
    m = len(guards)
    return [
        mask for mask in range(1, 1 << m)
        if solver.is_satisfiable(conj(
            *(guards[i] for i in range(m) if mask >> i & 1),
            *(solver.complement_guard(guards[i]) for i in range(m) if not mask >> i & 1),
        ))
    ]


def regions(guards):
    return _regions(guards, [solver.complement_guard(g) for g in guards])


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

    def spy(guards, comps):
        masks = _regions(guards, comps)
        seen.append((guards, masks))
        return masks

    monkeypatch.setattr(determinize, "_regions", spy)
    for seed in range(100):
        for k in (2, 3):
            determinize_standard(remove_all_silent(rename_clocks(unfold(random_automaton(seed), k))))
    assert max(len(guards) for guards, _ in seen) > 8
    for guards, masks in seen:
        assert masks == brute_regions(guards), guards
