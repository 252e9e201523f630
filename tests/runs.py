"""Concrete runs of an automaton and guard evaluation at a clock
valuation, in exact rational arithmetic: the reference that the run and
trace tests replay against."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from tadet.core import (
    And,
    Atom,
    Clock,
    FalseGuard,
    Guard,
    Or,
    Rational,
    StructuralError,
    TimedAutomaton,
    TimedTrace,
    Transition,
    TrueGuard,
    compare,
)


def eval_guard(g: Guard, valuation: Mapping[Clock, Rational]) -> bool:
    if isinstance(g, TrueGuard):
        return True
    if isinstance(g, FalseGuard):
        return False
    if isinstance(g, Atom):
        v = valuation[g.left]
        if g.right is not None:
            v = v - valuation[g.right]
        return compare(v, g.rel, g.bound)
    if isinstance(g, And):
        return all(eval_guard(p, valuation) for p in g.parts)
    if isinstance(g, Or):
        return any(eval_guard(p, valuation) for p in g.parts)
    raise TypeError(f"not a guard: {g!r}")


def timed_trace(*events: tuple[Rational, str]) -> TimedTrace:
    return TimedTrace(tuple((Fraction(ts), a) for ts, a in events))


@dataclass(frozen=True)
class Run:
    """Alternating delays and transitions; well-behaving runs end observably."""

    steps: tuple[tuple[Fraction, Transition], ...]

    def observable_trace(self) -> TimedTrace:
        now = Fraction(0)
        events = []
        for d, t in self.steps:
            now += d
            if not t.is_silent:
                events.append((now, t.action))
        return TimedTrace(tuple(events))


def run_of(*steps: tuple[Rational, Transition]) -> Run:
    return Run(tuple((Fraction(d), t) for d, t in steps))


def check_run(a: TimedAutomaton, r: Run, require_well_behaving: bool = True) -> bool:
    """Replay ``r`` on ``a``: true iff every delay/jump is admissible.

    Raises :class:`StructuralError` for runs that are not paths of ``a``
    rooted at the initial location; an infeasible (guard-violating) run
    returns False.  Acceptance is not part of the verdict: inspect the final
    location separately.
    """
    if not r.steps:
        return True
    if require_well_behaving and r.steps[-1][1].is_silent:
        raise StructuralError("well-behaving runs end with an observable action")
    loc = a.initial
    val: dict[Clock, Fraction] = {c: Fraction(0) for c in a.clocks}
    known = set(a.transitions)
    for d, t in r.steps:
        if d < 0:
            raise StructuralError("negative delay")
        if t not in known:
            raise StructuralError(f"transition not part of the automaton: {t}")
        if t.source != loc:
            raise StructuralError(f"transition {t} does not start at current location {loc!r}")
        val = {c: v + d for c, v in val.items()}
        if not eval_guard(t.guard, val):
            return False
        for c in t.resets:
            val[c] = Fraction(0)
        loc = t.target
    return True
