"""Central tolerance constants and grid policy.

Every numeric threshold used by the library lives here so that tests,
the CLI, and the acceptance suite all read the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Bundle of the numeric tolerances used across the package."""

    # symmetric-polynomial identities
    unimodular_eps: float = 1e-12
    identity: float = 1e-12
    generating_function: float = 1e-10

    # linear systems
    node_gap: float = 1e-9          # below this pairwise gap a system is refused
    canonical_tau: float = 1e-10    # solver output vs. closed-form coefficients
    pivot_rel: float = 1e-9         # pivot product vs. determinant, relative
    discriminant: float = 1e-9      # threshold separating "zero" discriminants

    # point sets
    merge: float = 1e-9             # coordinate tolerance when folding/merging

    # transforms and quadrature
    quad_abs: float = 1e-9          # absolute target for oscillatory quadrature
    grid_vanish: float = 1e-12      # closed-form transforms vanishing on a grid
    curve_vanish: float = 1e-6      # quadrature-verified vanishing on a line
    nonzero_floor: float = 1e-3     # witnesses must exceed this off the null set


TOL = Tolerances()

# Default verification grid for transform sweeps (scenarios may override).
XI_MIN = -10.0
XI_MAX = 10.0
XI_STEP = 0.02

# Oscillatory quadrature policy.  Densities on the exponential curve are
# declared to vanish outside [-SUPPORT_RADIUS, SUPPORT_RADIUS]; the refusal
# budget corresponds to |y| <= 20 at the default radius 2.5.
SUPPORT_RADIUS = 2.5
OSC_BUDGET = 20.0 * math.exp(SUPPORT_RADIUS**2)
PHASE_PER_PANEL = math.pi / 4.0

# Classification search is refused beyond this many (n+2)-subsets of a fiber,
# each costing one h evaluation.
SUBSET_CAP = 100_000
