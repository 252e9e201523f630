"""Benchmark automata: the six bundled models and a seeded generator of
random strongly responsive automata.

``NAMED_MODELS`` maps each model's name to a zero-argument callable that
reads ``models/<name>.json`` afresh; the README's "Model format" section
describes the six files.
"""

from __future__ import annotations

import random
from pathlib import Path

from .core import Atom, Clock, Guard, TimedAutomaton, Transition, conj, make_automaton
from .modelio import parse_model

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"


def _bundled(name: str):
    def read() -> TimedAutomaton:
        return parse_model((MODELS_DIR / f"{name}.json").read_text(encoding="utf-8"))

    read.__name__ = name.replace("-", "_")  # e.g. coffee_machine, as pytest ids print it
    return read


NAMED_MODELS = {
    name: _bundled(name)
    for name in (
        "coffee-machine",
        "nondet-silent-a",
        "nondet-silent-b",
        "nondet-plain-c",
        "nondet-silent-d",
        "sync-chain",
    )
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
    # acceptance is a random nonempty subset
    n_acc = rng.randint(1, n)
    accepting = rng.sample(locs, n_acc)
    return make_automaton(
        locations=locs,
        initial=locs[0],
        accepting=accepting,
        clocks=clocks,
        transitions=transitions,
    )
