"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HupLabError",
    "IllConditionedError",
    "BelowMinimumError",
    "NonpositiveMinimumError",
    "OscillationBudgetError",
    "WitnessConstructionError",
    "DegenerateWitnessError",
]


class HupLabError(Exception):
    """Base class for package-specific failures."""


class IllConditionedError(HupLabError):
    """A node system is too close to degenerate to solve reliably.

    Carries ``min_gap``, the smallest pairwise distance between nodes.
    """

    def __init__(self, message: str, min_gap: float):
        super().__init__(message)
        self.min_gap = float(min_gap)


class BelowMinimumError(HupLabError, ValueError):
    """A requested inverse value lies below the function minimum."""


class NonpositiveMinimumError(HupLabError):
    """The line-phase minimum is not strictly positive, so the square-root
    substitution is unavailable."""


class OscillationBudgetError(HupLabError):
    """The requested transform oscillates faster than the quadrature budget
    allows; refusing is preferred over returning an untrusted number."""


class WitnessConstructionError(HupLabError, ValueError):
    """A witness construction precondition failed."""


class DegenerateWitnessError(WitnessConstructionError):
    """The witness would be the zero measure."""
