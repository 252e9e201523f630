"""Bounded language comparison and the sampling cross-check."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from tadet import equivalence, solver
from tadet.cli import DETERMINIZERS, run_pipeline
from tadet.core import (
    And, Atom, Clock, FalseGuard, ResourceLimitError, TRUE, TimedTrace, Transition,
    TrueGuard, conj, guard_atoms, make_automaton, map_atoms,
)
from tadet.corpus import NAMED_MODELS, random_automaton
from tadet.determinize import determinize_guard_oriented, determinize_standard
from tadet.equivalence import (
    language_equal,
    obs_var,
    path_constraints,
    sample_traces,
    trace_in_language,
)
from tadet.silent import remove_all_silent
from tadet.solver import DifferenceSystem, ZERO_VAR
from tadet.unfold import Tree, rename_clocks, unfold

from runs import timed_trace

coffee_machine = NAMED_MODELS["coffee-machine"]
nondet_plain_c = NAMED_MODELS["nondet-plain-c"]
nondet_silent_a = NAMED_MODELS["nondet-silent-a"]

X = Clock("x")
Y = Clock("y")


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
    for u, row in zip(zone.vars, zone.m):
        for v, raw in zip(zone.vars, row):
            if raw is not None:
                # raw is c << 1 | weak
                diff, c = point[u] - point[v], raw >> 1
                if diff > c or (diff == c and not raw & 1):
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
            for denominator in (2, 2, 2, 3, 3):
                times = list(itertools.accumulate(
                    Fraction(rng.randrange(2 * denominator), denominator) for _ in word))
                valuation = {obs_var(j): ts for j, ts in enumerate(times, start=1)}
                expected = any(_in_zone(z, valuation) for z in pc.get(word, ()))
                assert trace_in_language(t, timed_trace(*zip(times, word))) == expected
                if word:
                    accepted += expected
                    rejected += not expected
    assert accepted and rejected


@pytest.mark.parametrize("rel, bound, accepts_b", [("<=", 3, True), ("<", 0, False)])
def test_diagonal_on_clocks_reset_together(rel, bound, accepts_b):
    # z - y reads 0 after a resets both: the raw unfolding's diagonal
    # compares two equal reset times, the renamed one two equal clocks
    z = Clock("z")
    m = make_automaton(["q0", "q1", "q2"], "q0", ["q2"], [Y, z], [
        Transition("q0", "q1", "a", TRUE, frozenset((Y, z))),
        Transition("q1", "q2", "b", Atom(z, rel, bound, Y), frozenset()),
    ])
    assert language_equal(unfold(m, 2), rename_clocks(unfold(m, 2))).equal
    assert (("a", "b") in path_constraints(unfold(m, 2))) == accepts_b


def test_bound_k_restricts_word_length():
    t1, t2 = tree_of(chain(2, 3)), tree_of(chain(2, 4))
    assert not language_equal(t1, t2).equal
    # the two differ only on alpha.beta, which an unfolding of depth 1 cuts off
    assert language_equal(tree_of(chain(2, 3), 1), tree_of(chain(2, 4), 1)).equal


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


def _reference_path_constraints(tree, word=None):
    """The walk that ``path_constraints`` replaced: every guard part
    deferred on the path is expanded from each accepting node's own zone."""
    children = tree.build_children_index()
    root = DifferenceSystem(())
    root.close()
    out = {}
    stack = [(None, (root, ZERO_VAR, {}, (), (), ()))]
    while stack:
        edge, state = stack.pop()
        if edge is None:
            nid = tree.root
        else:
            zone, prev, reset_at, deferred, seen, silent = state
            if edge.is_silent:
                var = Clock(f"t{len(silent) + 1}'")
                silent += (var,)
            else:
                var = obs_var(len(seen) + 1)
                seen += (edge.action,)
            zone = zone.extend(var)
            zone.add_difference(prev, var, 0, False)
            g = equivalence._translate_guard(edge.guard, var, reset_at)
            for p in g.parts if isinstance(g, And) else (g,):
                if isinstance(p, Atom):
                    zone.add_atom(p)
                elif isinstance(p, FalseGuard):
                    zone = None
                    break
                elif not isinstance(p, TrueGuard):
                    deferred += (p,)
            if zone is None or not zone.is_satisfiable():
                continue
            if edge.resets:
                reset_at = {**reset_at, **dict.fromkeys(edge.resets, var)}
            nid = edge.target
            state = (zone, var, reset_at, deferred, seen, silent)
        zone, _, _, deferred, seen, silent = state
        if tree.nodes[nid].accepting and (word is None or len(seen) == len(word)):
            systems = solver.feasible_systems(conj(*deferred), zone=zone) if deferred else (zone,)
            for z in systems:
                out.setdefault(seen, set()).add(tuple(map(tuple, z.project_out(*silent).m)))
        for t in reversed(children[nid]):
            if t.is_silent or word is None or (
                len(seen) < len(word) and t.action == word[len(seen)]
            ):
                stack.append((t, state))
    return out


def _zone_sets(found):
    return {w: {tuple(map(tuple, z.m)) for z in zones} for w, zones in found.items()}


def test_path_constraints_expand_each_deferred_part_once_per_path():
    # the branches of the last accepting node, met with the next one's zone
    # and expanded by the parts deferred since, give the zones that
    # expanding every deferred part from that node's zone gives
    configurations = [(NAMED_MODELS[name], k) for name, k in (
        ("nondet-plain-c", 10), ("nondet-silent-b", 4), ("nondet-silent-d", 6))]
    configurations += [(functools.partial(random_automaton, seed), k)
                       for seed in range(12, 32) for k in (2, 3, 4)]
    deferred = 0
    for make, k in configurations:
        for variant in DETERMINIZERS:
            out = run_pipeline(make(), k, variant).final
            assert _zone_sets(path_constraints(out)) == _reference_path_constraints(out)
            deferred += any(not isinstance(g, (Atom, TrueGuard)) for t in out.transitions
                            for g in (t.guard.parts if isinstance(t.guard, And) else (t.guard,)))
    assert deferred >= 60  # outputs with a guard part that waits
    out = run_pipeline(nondet_plain_c(), 10, "new").final
    word = max(path_constraints(out), key=len)
    assert len(word) == 10
    restricted = path_constraints(out, word)
    assert list(restricted) == [word]
    assert _zone_sets(restricted) == _reference_path_constraints(out, word)


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

    out = Tree(tree.root, tree.nodes, list(tree.transitions), tree.renamed)
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


def test_a_zone_within_one_zone_needs_no_minimal_constraints(monkeypatch):
    # a self-loop a under x <= 1 that resets x: each of the 60 words has one
    # zone of dimension up to 61 on both sides, the same zone; containment
    # is seen entrywise, without the cubic scan for minimal constraints
    loop = make_automaton(["q"], "q", ["q"], [X], [
        Transition("q", "q", "a", Atom(X, "<=", 1), frozenset((X,))),
    ])
    tree = tree_of(loop, 60)
    new = determinize_guard_oriented(remove_all_silent(tree))

    def refuse(self):
        raise AssertionError("minimal constraints computed")

    monkeypatch.setattr(DifferenceSystem, "_minimal_constraints", refuse)
    assert language_equal(tree, new).equal


def _probe_samples(t, d):
    """The point-probing sampler that ``sample_traces`` replaced: every grid
    step of every prefix, tested against every zone of the word."""
    horizon = max(
        (abs(a.bound) for tr in t.transitions for a in guard_atoms(tr.guard)),
        default=0,
    ) + 1
    out = set()
    for word, zones in equivalence.path_constraints(t).items():
        n = len(word)
        if n == 0:
            out.add(TimedTrace(()))
            continue
        stack = [(Fraction(0),)]
        while stack:
            point = stack.pop()
            if len(point) > n:
                out.add(TimedTrace(tuple(zip(point[1:], word))))
                continue
            for step in range(0, horizon * d + 1):
                cand = point + (point[-1] + Fraction(step, d),)
                if any(z.contains(cand) for z in zones):
                    stack.append(cand)
    return out


@functools.lru_cache(maxsize=1)
def _sampling_configurations():
    out = []
    for seed in range(100, 150):
        for k in (2, 3):
            tree = tree_of(random_automaton(seed), k)
            out += [tree, determinize_guard_oriented(remove_all_silent(tree))]
    for name in sorted(NAMED_MODELS):
        for k in (2, 3, 4):
            out.append(determinize_standard(remove_all_silent(tree_of(NAMED_MODELS[name](), k))))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sampling_matches_point_probing(d):
    # random_automaton(100..149) at depths 2 and 3, each tree and its new
    # output, and the std outputs of the named models at depths 2 to 4
    sampled = 0
    for t in _sampling_configurations():
        traces = sample_traces(t, d)
        assert traces == _probe_samples(t, d)
        sampled += len(traces)
    assert sampled > 1000


def _one_edge(guard):
    return tree_of(make_automaton(["q0", "q1"], "q0", ["q1"], [X], [
        Transition("q0", "q1", "a", guard),
    ]), 1)


@pytest.mark.parametrize("guard, times", [
    # a strict end on a grid point leaves that point out
    (Atom(X, "<", 1), {0, Fraction(1, 2)}),
    (Atom(X, ">", 1), {Fraction(3, 2), 2}),
    (Atom(X, "=", 1), {1}),
], ids=["strict-upper", "strict-lower", "equal"])
def test_sampling_hand_rows(guard, times):
    t = _one_edge(guard)
    expected = {timed_trace((ts, "a")) for ts in times}
    assert sample_traces(t, 2) == expected == _probe_samples(t, 2)


def test_sampling_reads_a_diagonal():
    # x is reset by a; b needs y - x >= 1 (so a at time 1 or later) and
    # x < 1 (so b less than one unit after a)
    t = tree_of(make_automaton(["q0", "q1", "q2"], "q0", ["q2"], [X, Y], [
        Transition("q0", "q1", "a", TRUE, frozenset((X,))),
        Transition("q1", "q2", "b", conj(Atom(Y, ">=", 1, X), Atom(X, "<", 1))),
    ]), 2)
    expected = {
        timed_trace((Fraction(t1, 2), "a"), (Fraction(t2, 2), "b"))
        for t1 in (2, 3, 4) for t2 in (t1, t1 + 1)
    }
    assert sample_traces(t, 2) == expected == _probe_samples(t, 2)


def test_sampling_clips_steps_below_the_previous_timestamp(monkeypatch):
    # a hand zone without t2 >= t1: 1 <= t1 <= 2 and 0 <= t2 <= 3, so the
    # interval that t2 reads starts below t1 and its steps start at 0
    t1, t2 = obs_var(1), obs_var(2)
    zone = DifferenceSystem([t1, t2])
    zone.add_difference(t1, ZERO_VAR, 2, False)
    zone.add_difference(ZERO_VAR, t1, -1, False)
    zone.add_difference(t2, ZERO_VAR, 3, False)
    zone.add_difference(ZERO_VAR, t2, 0, False)
    zone.close()
    assert zone.next_bounds([Fraction(0), Fraction(2)]) == (0, False, 3, False)
    monkeypatch.setattr(equivalence, "path_constraints", lambda t: {("a", "b"): [zone]})
    t = tree_of(chain(2, 3))  # horizon 4
    expected = {
        timed_trace((a, "a"), (b, "b")) for a in (1, 2) for b in range(a, 4)
    }
    assert sample_traces(t, 1) == expected == _probe_samples(t, 1)


@pytest.mark.parametrize("d", [0, -1, 2.0])
def test_sampling_refuses_a_grid_denominator_that_is_not_a_positive_int(d):
    with pytest.raises(ValueError):
        sample_traces(tree_of(nondet_silent_a(), 2), d)


def test_sampling_cap_trips_where_point_probing_tripped(monkeypatch):
    # the std output of nondet-silent-a at depth 5 on the 1/2 grid expands
    # 129 prefixes of 13 candidate steps each: 1677 candidates
    std = determinize_standard(remove_all_silent(tree_of(nondet_silent_a(), 5)))
    monkeypatch.setattr(equivalence, "SAMPLE_LIMIT", 1677)
    assert len(sample_traces(std, 2)) == 32
    monkeypatch.setattr(equivalence, "SAMPLE_LIMIT", 1676)
    with pytest.raises(ResourceLimitError):
        sample_traces(std, 2)
