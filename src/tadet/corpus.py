"""Benchmark automata: the vending machine, four small nondeterministic
automata exercising every combination of silent transitions and
nondeterminism, a synchronization stress example, and a seeded random
generator of strongly responsive automata.
"""

from __future__ import annotations

import random

from .core import (
    TRUE,
    Atom,
    Clock,
    Guard,
    TimedAutomaton,
    Transition,
    conj,
    make_automaton,
)

X = Clock("x")
Y = Clock("y")


def _edges(rows) -> list[Transition]:
    return [
        Transition(src, dst, action, guard if guard is not None else TRUE, frozenset(resets))
        for src, dst, action, guard, resets in rows
    ]


def coffee_machine() -> TimedAutomaton:
    """Vending machine with a silent internal brewing step."""
    return make_automaton(
        locations=["q0", "q1", "q2", "q3", "q4"],
        initial="q0",
        accepting=["q0"],
        clocks=[X],
        transitions=_edges([
            ("q0", "q1", "coin", None, [X]),
            ("q1", "q4", "beep", Atom(X, "=", 2), []),
            ("q1", "q2", "beep", conj(Atom(X, ">", 0), Atom(X, "<", 3)), []),
            ("q2", "q3", None, conj(Atom(X, ">", 1), Atom(X, "<", 2)), [X]),
            ("q3", "q0", "coffee", Atom(X, "=", 1), []),
            ("q4", "q0", "refund", Atom(X, "<", 4), []),
        ]),
    )


def nondet_silent_a() -> TimedAutomaton:
    """Two locations, an observable loop, and a silent way back."""
    return make_automaton(
        locations=["q0", "q1"],
        initial="q0",
        accepting=["q0"],
        clocks=[X],
        transitions=_edges([
            ("q0", "q0", "alpha", Atom(X, "=", 1), [X]),
            ("q0", "q1", "beta", conj(Atom(X, ">", 0), Atom(X, "<", 1)), []),
            ("q1", "q0", None, Atom(X, "=", 1), [X]),
        ]),
    )


def nondet_silent_b() -> TimedAutomaton:
    """Variant of :func:`nondet_silent_a` with an extra observable loop."""
    return make_automaton(
        locations=["q0", "q1"],
        initial="q0",
        accepting=["q0"],
        clocks=[X],
        transitions=_edges([
            ("q0", "q0", "alpha", Atom(X, "=", 1), [X]),
            ("q0", "q1", "beta", conj(Atom(X, ">", 0), Atom(X, "<", 1)), []),
            ("q1", "q1", "alpha", Atom(X, "=", 1), [X]),
            ("q1", "q0", None, Atom(X, "=", 1), [X]),
        ]),
    )


def nondet_plain_c() -> TimedAutomaton:
    """Nondeterministic, no silent transitions."""
    return make_automaton(
        locations=["p1", "p2", "p3", "p4"],
        initial="p2",
        accepting=["p4"],
        clocks=[X],
        transitions=_edges([
            ("p1", "p2", "alpha", Atom(X, ">", 0), [X]),
            ("p2", "p1", "alpha", Atom(X, ">", 0), [X]),
            ("p2", "p3", "alpha", Atom(X, ">", 0), []),
            ("p3", "p4", "alpha", Atom(X, "=", 1), []),
        ]),
    )


def nondet_silent_d() -> TimedAutomaton:
    """:func:`nondet_plain_c` plus a silent transition back into the cycle."""
    return make_automaton(
        locations=["p1", "p2", "p3", "p4"],
        initial="p2",
        accepting=["p4"],
        clocks=[X],
        transitions=_edges([
            ("p1", "p2", "alpha", Atom(X, ">", 0), [X]),
            ("p2", "p1", "alpha", Atom(X, ">", 0), [X]),
            ("p2", "p3", "alpha", Atom(X, ">", 0), []),
            ("p3", "p4", "alpha", Atom(X, "=", 1), []),
            ("p4", "p2", None, conj(Atom(X, ">", 1), Atom(X, "<", 3)), [X]),
        ]),
    )


def sync_chain() -> TimedAutomaton:
    """Leading silent transition whose reset is read by two later guards.

    Exercises the synchronization step of silent removal: the two later
    guards both constrain the silent clock, so removing the silent
    transition must couple them.
    """
    return make_automaton(
        locations=["q0", "q1", "q2", "q3"],
        initial="q0",
        accepting=["q3"],
        clocks=[X],
        transitions=_edges([
            ("q0", "q1", None, conj(Atom(X, ">", 1), Atom(X, "<", 2)), [X]),
            ("q1", "q2", "alpha", Atom(X, "=", 2), []),
            ("q2", "q3", "alpha", Atom(X, "=", 4), []),
        ]),
    )


NAMED_MODELS = {
    "coffee-machine": coffee_machine,
    "nondet-silent-a": nondet_silent_a,
    "nondet-silent-b": nondet_silent_b,
    "nondet-plain-c": nondet_plain_c,
    "nondet-silent-d": nondet_silent_d,
    "sync-chain": sync_chain,
}


# ---------------------------------------------------------------------------
# random strongly responsive automata


def _random_guard(rng: random.Random, clocks: list[Clock]) -> Guard:
    atoms = []
    for _ in range(rng.randint(1, 2)):
        c = rng.choice(clocks)
        rel = rng.choice(["<", "<=", ">", ">=", "="])
        bound = rng.randint(0, 3)
        if rel == "<" and bound == 0:
            bound = 1  # x < 0 is dead on arrival
        atoms.append(Atom(c, rel, bound))
    return conj(*atoms)


def random_automaton(seed: int) -> TimedAutomaton:
    """Random strongly responsive automaton with silent transitions: 2 to 4
    locations, clocks x (and y), constants up to 3, and a silent edge drawn
    with probability 0.3 where the numbering allows one.

    Silent transitions only ever go from a lower-numbered location to a
    strictly higher-numbered one, so the silent subgraph is acyclic by
    construction.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    locs = [f"q{i}" for i in range(n)]
    clocks = [Clock(nm) for nm in ["x", "y"][: rng.randint(1, 2)]]
    actions = ["alpha", "beta"]
    transitions = []
    n_edges = rng.randint(n, 2 * n)
    for _ in range(n_edges):
        si = rng.randrange(n)
        ti = rng.randrange(n)
        silent = rng.random() < 0.3 and si < ti
        action = None if silent else rng.choice(actions)
        guard = _random_guard(rng, clocks)
        resets = [c for c in clocks if rng.random() < 0.5]
        if silent and not resets:
            resets = [rng.choice(clocks)]
        transitions.append(
            Transition(locs[si], locs[ti], action, guard, frozenset(resets))
        )
    # every location needs an observable way onward for strong responsiveness
    # to be meaningful; acceptance is a random nonempty subset
    n_acc = rng.randint(1, n)
    accepting = rng.sample(locs, n_acc)
    return make_automaton(
        locations=locs,
        initial=locs[0],
        accepting=accepting,
        clocks=clocks,
        transitions=transitions,
    )
