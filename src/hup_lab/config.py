"""Central tolerance constants, quadrature policy and the grid size cap.

The library's tolerances live here so that tests, the CLI, and the
acceptance suite all read the same numbers.  The CLI's check floors
(``_OFF_SET_FLOOR``, ``_MASS_RATIO_FLOOR``, ``_NONPERIODIC_FLOOR``) live
in ``cli.py`` beside the runners that read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TOL", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    """Bundle of the numeric tolerances used across the package."""

    # linear systems
    node_gap: float = 1e-9          # below this pairwise gap a system is refused
    pivot_rel: float = 1e-9         # pivot product vs. determinant, relative
    discriminant: float = 1e-9      # threshold separating "zero" discriminants

    # point sets
    merge: float = 1e-9             # coordinate tolerance when folding/merging

    # transforms and quadrature
    quad_abs: float = 1e-9          # absolute target for oscillatory quadrature
    grid_vanish: float = 1e-12      # closed-form transforms vanishing on a grid
    curve_vanish: float = 1e-6      # quadrature-verified vanishing on a line


TOL = Tolerances()

# Oscillatory quadrature policy.  Densities on the exponential curve are
# declared to vanish outside [-SUPPORT_RADIUS, SUPPORT_RADIUS]; the refusal
# budget corresponds to |y| <= 20 at the default radius 2.5.  A first-pass
# panel turns the phase by at most PHASE_PER_PANEL: at pi/2 the 15-node
# Kronrod sum is still exact to rounding, and its 7-node Gauss estimate is
# about 1e-13.
SUPPORT_RADIUS = 2.5
OSC_BUDGET = 20.0 * math.exp(SUPPORT_RADIUS**2)
PHASE_PER_PANEL = math.pi / 2.0

# A scenario grid (an axis, a surface, a sample set or an xi x eta table) of
# more points than this is refused before anything is allocated.
GRID_CAP = 10_000_000
