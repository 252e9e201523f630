"""Correctness checks that share no code with tadet.

Automata are read from the "ta/1" JSON documents (the bundled models and
the emitted outputs), guards are evaluated here with exact ``Fraction``
arithmetic, runs of an input automaton are sampled here, and outputs are
replayed here.  Nothing in this module imports tadet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# guard: ("atom", left, right or None, rel, const) | ("all", parts) | ("any", parts)
Guard = tuple
Trace = tuple[tuple[Fraction, str], ...]

SAMPLES_PER_CONFIG = 8  # accepted traces drawn per (input, depth)
NODE_BUDGET = 300  # walk steps per drawn trace before it is given up


class OracleError(Exception):
    """An output broke a property the benchmark checks."""


@dataclass(frozen=True)
class Edge:
    action: Optional[str]  # None for a silent step
    guard: Guard
    resets: tuple[str, ...]
    target: str


@dataclass
class Automaton:
    clocks: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    out: dict[str, list[Edge]]
    transitions: int
    guard_atoms: int
    max_const: int

    @property
    def locations(self) -> int:
        return len(self.out)


def _node(obj) -> Guard:
    if "all" in obj:
        return ("all", tuple(_node(p) for p in obj["all"]))
    if "any" in obj:
        return ("any", tuple(_node(p) for p in obj["any"]))
    return ("atom", obj["left"], obj.get("right"), obj["rel"], Fraction(obj["const"]))


def _atoms(g: Guard):
    if g[0] == "atom":
        yield g
    else:
        for p in g[1]:
            yield from _atoms(p)


def read_model(doc: dict) -> Automaton:
    """An automaton from a parsed "ta/1" document (action "eps" is silent)."""
    out: dict[str, list[Edge]] = {}
    accepting = set()
    for loc in doc["locations"]:
        if "invariant" in loc:
            raise OracleError(f"location {loc['id']} has an invariant")
        out[loc["id"]] = []
        if loc.get("accepting", False):
            accepting.add(loc["id"])
    atoms = 0
    max_const = 0
    for tr in doc["transitions"]:
        guard = ("all", tuple(_node(n) for n in tr.get("guard", [])))
        for a in _atoms(guard):
            atoms += 1
            max_const = max(max_const, abs(a[4]))
        action = None if tr["action"] == "eps" else tr["action"]
        out[tr["source"]].append(
            Edge(action, guard, tuple(tr.get("resets", [])), tr["target"])
        )
    return Automaton(
        clocks=tuple(doc["clocks"]),
        initial=doc["initial"],
        accepting=frozenset(accepting),
        out=out,
        transitions=len(doc["transitions"]),
        guard_atoms=atoms,
        max_const=int(max_const),
    )


_REL = {
    "<": lambda v, c: v < c,
    "<=": lambda v, c: v <= c,
    "=": lambda v, c: v == c,
    ">=": lambda v, c: v >= c,
    ">": lambda v, c: v > c,
}


def holds(g: Guard, val: dict[str, Fraction]) -> bool:
    kind = g[0]
    if kind == "atom":
        _, left, right, rel, const = g
        v = val[left] if right is None else val[left] - val[right]
        return _REL[rel](v, const)
    if kind == "all":
        return all(holds(p, val) for p in g[1])
    return any(holds(p, val) for p in g[1])


def replay(aut: Automaton, trace: Trace) -> bool:
    """Whether a deterministic, silent-free ``aut`` accepts ``trace``.

    Each step must have at most one enabled edge; more than one, or a silent
    edge, raises :class:`OracleError`.  A step with none rejects.
    """
    loc = aut.initial
    now = Fraction(0)
    val = {c: Fraction(0) for c in aut.clocks}
    for ts, action in trace:
        if ts < now:
            raise OracleError(f"trace goes back in time at {ts}")
        delay = ts - now
        now = ts
        val = {c: v + delay for c, v in val.items()}
        enabled = []
        for e in aut.out[loc]:
            if e.action is None:
                raise OracleError(f"silent edge out of {loc}")
            if e.action == action and holds(e.guard, val):
                enabled.append(e)
        if len(enabled) > 1:
            raise OracleError(f"{len(enabled)} '{action}' edges enabled at {loc} at time {ts}")
        if not enabled:
            return False
        edge = enabled[0]
        for c in edge.resets:
            val[c] = Fraction(0)
        loc = edge.target
    return loc in aut.accepting


def accepts_exactly(aut: Automaton, trace: Trace) -> None:
    """Raise unless ``aut`` accepts ``trace`` with one enabled edge per step."""
    if not replay(aut, trace):
        raise OracleError(f"accepted trace rejected: {format_trace(trace)}")


def format_trace(trace: Trace) -> str:
    return " . ".join(f"{a}@{t}" for t, a in trace) or "(empty)"


# ---------------------------------------------------------------------------
# run sampling on an input automaton


class _Finisher:
    """Which locations can still end accepting with exactly r observable steps.

    Guards are ignored, so this only prunes walks that cannot finish; the
    guards are checked on the walk itself.
    """

    def __init__(self, aut: Automaton):
        self.aut = aut
        self.memo: dict[tuple[str, int], bool] = {}

    def can(self, loc: str, r: int) -> bool:
        """After arriving at ``loc``, r more observable steps can end accepting."""
        if r == 0:
            return False
        key = (loc, r)
        if key not in self.memo:
            self.memo[key] = any(
                self.can(e.target, r) if e.action is None else self.lands(e.target, r - 1)
                for e in self.aut.out[loc]
            )
        return self.memo[key]

    def lands(self, loc: str, r: int) -> bool:
        """An observable step into ``loc`` leaving r steps can still end accepting."""
        return loc in self.aut.accepting if r == 0 else self.can(loc, r)


def sample_traces(aut: Automaton, k: int, rng: random.Random) -> list[Trace]:
    """Up to ``SAMPLES_PER_CONFIG`` observable traces of accepted runs with
    at most k events.

    A run is a random walk with delays on a 1/d grid, d drawn per trace; a
    silent step is taken and hidden, and a run ends with an observable step
    into an accepting location (the empty trace counts when the initial
    location accepts).  Walks are depth-first with random move order and a
    budget of ``NODE_BUDGET`` steps, so a trace that exists may be missed but
    none is invented.
    """
    finish = _Finisher(aut)
    lengths = [n for n in range(1, k + 1) if finish.can(aut.initial, n)]
    traces: list[Trace] = [()] if aut.initial in aut.accepting else []
    if not lengths:
        return traces
    horizon = aut.max_const + 1
    for _ in range(3 * SAMPLES_PER_CONFIG):
        if len(traces) >= SAMPLES_PER_CONFIG:
            break
        length = rng.choice(lengths)
        denom = rng.choice((1, 2, 3, 4))
        delays = [Fraction(j, denom) for j in range(horizon * denom + 1)]
        budget = [NODE_BUDGET]
        val = {c: Fraction(0) for c in aut.clocks}
        found = _walk(aut, finish, aut.initial, val, Fraction(0), length, (), delays, rng, budget)
        if found is not None:
            traces.append(found)
    return traces


def _walk(aut, finish, loc, val, now, left, events, delays, rng, budget):
    budget[0] -= 1
    if budget[0] < 0:
        return None
    moves = []
    for e in aut.out[loc]:
        if e.action is None:
            if not finish.can(e.target, left):
                continue
        elif not finish.lands(e.target, left - 1):
            continue
        for d in delays:
            if holds(e.guard, {c: v + d for c, v in val.items()}):
                moves.append((d, e))
    rng.shuffle(moves)
    for d, e in moves[:4]:
        nxt = {c: v + d for c, v in val.items()}
        for c in e.resets:
            nxt[c] = Fraction(0)
        if e.action is None:
            found = _walk(aut, finish, e.target, nxt, now + d, left, events, delays, rng, budget)
        else:
            step = events + ((now + d, e.action),)
            if left == 1:
                return step  # finish.lands guaranteed an accepting target
            found = _walk(aut, finish, e.target, nxt, now + d, left - 1, step, delays, rng, budget)
        if found is not None:
            return found
    return None
