"""Bounded language comparison and the sampling cross-check."""

import itertools
import random
from fractions import Fraction

import pytest

from tadet.core import (
    Atom, Clock, TRUE, Transition, conj, guard_atoms, make_automaton,
    map_atoms, timed_trace,
)
from tadet.corpus import coffee_machine, nondet_plain_c, nondet_silent_a, random_automaton
from tadet.determinize import determinize_guard_oriented, determinize_standard
from tadet.equivalence import (
    language_equal,
    obs_var,
    path_constraints,
    sample_traces,
    trace_in_language,
)
from tadet.silent import remove_all_silent
from tadet.solver import ZERO_VAR
from tadet.unfold import rename_clocks, unfold

X = Clock("x")


def chain(bound_first, bound_second):
    """Two-step automaton alpha;beta with adjustable guards."""
    return make_automaton(
        ["q0", "q1", "q2"], "q0", ["q2"], [X],
        [
            Transition("q0", "q1", "alpha", Atom(X, "<", bound_first), frozenset((X,))),
            Transition("q1", "q2", "beta", Atom(X, "<", bound_second), frozenset()),
        ],
    )


def tree_of(a, k=2):
    return rename_clocks(unfold(a, k))


def test_path_constraints_words():
    t = tree_of(coffee_machine(), 4)
    words = set(path_constraints(t))
    assert () in words  # accepting root
    assert ("coin", "beep", "refund") in words
    assert ("coin", "beep", "coffee") in words


def test_projected_path_constraints_range_over_observable_times():
    # on the unfolded tree coin.beep.coffee passes the silent brew step, so
    # its zones are projections; on the removed tree they are not.  Either
    # way each zone ranges over the zero clock and t1..t3 only
    tree = tree_of(coffee_machine(), 4)
    for t in (tree, remove_all_silent(tree)):
        zones = path_constraints(t)[("coin", "beep", "coffee")]
        assert zones
        for z in zones:
            assert sorted(z.vars) == sorted([ZERO_VAR, obs_var(1), obs_var(2), obs_var(3)])


def test_equal_automata_report_equal():
    r = language_equal(tree_of(chain(2, 3)), tree_of(chain(2, 3)))
    assert r.equal and r.word is None


def test_difference_produces_valid_witness():
    t1, t2 = tree_of(chain(2, 3)), tree_of(chain(1, 3))
    r = language_equal(t1, t2)
    assert not r.equal
    assert r.word == ("alpha", "beta")
    trace = r.counterexample_trace()
    assert trace_in_language(t1, trace) != trace_in_language(t2, trace)


def test_direction_of_counterexample():
    r = language_equal(tree_of(chain(1, 3)), tree_of(chain(2, 3)))
    assert not r.equal and r.direction == "right-only"


def test_trace_membership_solves_silent_times():
    t = tree_of(coffee_machine(), 4)
    # brew fires at some u in (5/2, 3); coffee exactly one later
    ok = timed_trace((1, "coin"), (Fraction(5, 2), "beep"), (Fraction(15, 4), "coffee"))
    assert trace_in_language(t, ok)
    late = timed_trace((1, "coin"), (Fraction(5, 2), "beep"), (6, "coffee"))
    assert not trace_in_language(t, late)


def _in_zone(zone, valuation):
    """Whether the point ``valuation`` meets every entry of ``zone``."""
    point = {ZERO_VAR: 0, **valuation}
    for u in zone.vars:
        for v in zone.vars:
            b = zone.bound(u, v)
            if b is not None:
                diff = point[u] - point[v]
                if diff > b[0] or (b[1] and diff == b[0]):
                    return False
    return True


def test_trace_membership_matches_path_constraints():
    # membership builds only the trace word's paths; its verdicts are those
    # of that word's zones in the full path constraints
    t = tree_of(nondet_silent_a(), 5)
    pc = path_constraints(t)
    rng = random.Random(5)
    accepted = rejected = 0
    for n in range(6):
        for word in itertools.product(("alpha", "beta"), repeat=n):
            for _ in range(3):
                times = list(itertools.accumulate(Fraction(rng.randrange(4), 2) for _ in word))
                valuation = {obs_var(j): ts for j, ts in enumerate(times, start=1)}
                expected = any(_in_zone(z, valuation) for z in pc.get(word, ()))
                assert trace_in_language(t, timed_trace(*zip(times, word))) == expected
                if word:
                    accepted += expected
                    rejected += not expected
    assert accepted and rejected


def test_bound_k_restricts_word_length():
    t1, t2 = tree_of(chain(2, 3)), tree_of(chain(2, 4))
    assert not language_equal(t1, t2).equal
    assert language_equal(t1, t2, k=1).equal


def test_sampling_agrees_with_symbolic_membership():
    t = tree_of(chain(2, 3))
    traces = sample_traces(t, 2)
    assert traces, "grid must hit the open region"
    for tr in traces:
        assert trace_in_language(t, tr)
    # exhaustive converse on the same grid
    denom = 2
    horizon = 4
    for i in range(horizon * denom + 1):
        for j in range(i, horizon * denom + 1):
            tr = timed_trace((Fraction(i, denom), "alpha"), (Fraction(j, denom), "beta"))
            assert (tr in traces) == trace_in_language(t, tr)


def test_sampling_matches_across_equal_automata():
    t = tree_of(nondet_silent_a(), 3)
    r = remove_all_silent(tree_of(nondet_silent_a(), 3))
    assert sample_traces(t, 2) == sample_traces(r, 2)


def test_obs_vars_are_stable():
    assert obs_var(1).name == "t1"
    assert obs_var(2) == obs_var(2)


def test_plain_c_depth_8_guard_oriented_output_is_language_equal():
    # regression: this check branched over thousands of difference systems
    # inside difference_witness, each closed from scratch, and ran for minutes
    tree = tree_of(nondet_plain_c(), 8)
    assert language_equal(tree, determinize_guard_oriented(tree)).equal


def test_plain_c_depth_10_guard_oriented_output_is_language_equal():
    # the output's word alpha^10 has 81 zones that tile the tree's one zone;
    # subtracting them from it fragments the piece, and stays small only
    # because each piece meets few of the zones
    tree = tree_of(nondet_plain_c(), 10)
    assert language_equal(tree, determinize_guard_oriented(tree)).equal


def test_deferred_disjunctions_on_random_7_depth_3():
    # the guard-oriented output's guards carry disjunctions of complements;
    # expanding them where they occur instead of at accepting nodes
    # multiplies the branches past the solver's limit
    tree = tree_of(random_automaton(7), 3)
    stripped = remove_all_silent(tree)
    new = determinize_guard_oriented(stripped)
    assert language_equal(tree, new).equal
    assert language_equal(new, determinize_standard(stripped)).equal


def _move_bound(tree, rng):
    """A copy of ``tree`` with one guard bound moved by one, or None."""
    places = [(i, j) for i, t in enumerate(tree.transitions)
              for j in range(len(guard_atoms(t.guard)))]
    if not places:
        return None
    i, j = rng.choice(places)
    delta = rng.choice((-1, 1))
    seen = itertools.count()

    def move(a):
        return Atom(a.left, a.rel, a.bound + delta, a.right) if next(seen) == j else a

    out = tree.copy()
    t = out.transitions[i]
    out.transitions[i] = Transition(t.source, t.target, t.action, map_atoms(t.guard, move), t.resets)
    return out


def test_mutant_counterexamples_replay_on_the_named_side():
    rng = random.Random(8)
    unequal = 0
    for seed in range(100, 160):
        tree = tree_of(random_automaton(seed), 2 + seed % 2)
        mutant = _move_bound(tree, rng)
        if mutant is None:
            continue
        r = language_equal(tree, mutant)
        if r.equal:
            continue
        unequal += 1
        trace = r.counterexample_trace()
        left, right = trace_in_language(tree, trace), trace_in_language(mutant, trace)
        assert left != right
        assert left == (r.direction == "left-only")
    assert unequal >= 10


def test_subtraction_keeps_its_pieces_on_a_stack():
    # a under x < 1500 against 1500 parallel a edges under i <= x < i+1:
    # the piece left after each unit zone is cut by the next, 1500 deep
    one = make_automaton(["q0", "q1"], "q0", ["q1"], [X], [
        Transition("q0", "q1", "a", Atom(X, "<", 1500)),
    ])
    many = make_automaton(["q0", "q1"], "q0", ["q1"], [X], [
        Transition("q0", "q1", "a", conj(Atom(X, ">=", i), Atom(X, "<", i + 1)))
        for i in range(1500)
    ])
    t1, t2 = tree_of(one, 1), tree_of(many, 1)
    assert language_equal(t1, t2).equal
    assert language_equal(t2, t1).equal
