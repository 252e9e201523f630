"""Implication and equivalence of guards, read off the solver's
federation subtraction."""

from tadet.core import Guard, guard_clocks
from tadet.solver import DifferenceSystem, feasible_systems, nonneg_zone, uncovered_piece


def federations(g1: Guard, g2: Guard) -> tuple[list[DifferenceSystem], list[DifferenceSystem]]:
    """Both guards' feasible zones, expanded from one non-negative zone of
    their joint clocks, so that they range over one variable list."""
    zone = nonneg_zone(guard_clocks(g1) | guard_clocks(g2))
    return list(feasible_systems(g1, zone)), list(feasible_systems(g2, zone))


def implies(g1: Guard, g2: Guard) -> bool:
    """g1 => g2, i.e. no non-negative point satisfies g1 but not g2."""
    return uncovered_piece(*federations(g1, g2)) is None


def equivalent(g1: Guard, g2: Guard) -> bool:
    return implies(g1, g2) and implies(g2, g1)
