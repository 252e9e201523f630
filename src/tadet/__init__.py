"""Determinization of bounded timed automata with silent transitions."""

from .core import (
    FALSE,
    TRUE,
    And,
    Atom,
    Clock,
    Guard,
    Or,
    ResourceLimitError,
    StructuralError,
    TimedAutomaton,
    TimedTrace,
    Transition,
    UnsupportedInputError,
    check_strong_responsiveness,
    conj,
    disj,
    make_automaton,
)

__all__ = [
    "FALSE",
    "TRUE",
    "And",
    "Atom",
    "Clock",
    "Guard",
    "Or",
    "ResourceLimitError",
    "StructuralError",
    "TimedAutomaton",
    "TimedTrace",
    "Transition",
    "UnsupportedInputError",
    "check_strong_responsiveness",
    "conj",
    "disj",
    "make_automaton",
]

__version__ = "0.1.0"
