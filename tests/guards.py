"""Implication and equivalence of guards, read off the solver's
federation subtraction."""

from tadet.core import Guard
from tadet.solver import uncovered_piece


def implies(g1: Guard, g2: Guard) -> bool:
    """g1 => g2, i.e. no non-negative point satisfies g1 but not g2."""
    return uncovered_piece(g1, g2) is None


def equivalent(g1: Guard, g2: Guard) -> bool:
    return implies(g1, g2) and implies(g2, g1)
