"""Constructions and checks for Fourier uniqueness pairs.

The package covers three interlocking pieces:

* symmetric-polynomial kernels and power-column linear systems
  (:mod:`hup_lab.sympoly`, :mod:`hup_lab.linsys`),
* discrete measures on line systems and their transforms, plus explicit
  annihilating witnesses (:mod:`hup_lab.measures`),
* densities carried by exponential-phase curves, their oscillatory
  transforms, and the fiber classifier for periodized point sets
  (:mod:`hup_lab.curves`, :mod:`hup_lab.classifier`).

``hup_lab.cli`` exposes the ``hup-lab`` scenario runner.
"""

from .classifier import (
    FiberPartition,
    LambdaSet,
    classify_fiber,
    fiber,
    fold_periodic,
    partition,
)
from .config import TOL, Tolerances
from .curves import (
    CurveDensity,
    LinePhase,
    QuadResult,
    absolute_mass,
    construct_single_line_witness,
    exp_curve_ft,
    line_phase,
    odd_profile,
    standard_witness_profile,
    surface_ft,
)
from .errors import (
    BelowMinimumError,
    DegenerateWitnessError,
    HupLabError,
    IllConditionedError,
    NonpositiveMinimumError,
    OscillationBudgetError,
    WitnessConstructionError,
)
from .linsys import (
    PowerSolution,
    PowerSystem,
    Reduction,
    canonical_coefficients,
    final_pivot_formula,
    hup_discriminant,
    power_column_matrix,
    solve_power_system,
    triangularize_power_system,
    vandermonde_det,
)
from .measures import (
    CrossMeasure,
    Density,
    DensityAtom,
    LineMeasure,
    box,
    construct_consecutive_witness,
    construct_cross_diagonal_witness,
    cross_ft,
    gaussian,
    line_system_ft,
    odd_bump,
    odd_pair,
    translation_periodicity_residual,
    triangle,
    zero_density,
)
from .sympoly import (
    UnimodularTuple,
    complete_homogeneous,
    elementary_symmetric,
    h_difference,
    h_difference_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BelowMinimumError",
    "CrossMeasure",
    "CurveDensity",
    "Density",
    "DensityAtom",
    "DegenerateWitnessError",
    "FiberPartition",
    "HupLabError",
    "IllConditionedError",
    "LambdaSet",
    "LineMeasure",
    "LinePhase",
    "NonpositiveMinimumError",
    "OscillationBudgetError",
    "PowerSolution",
    "PowerSystem",
    "QuadResult",
    "Reduction",
    "TOL",
    "Tolerances",
    "UnimodularTuple",
    "WitnessConstructionError",
    "absolute_mass",
    "box",
    "canonical_coefficients",
    "classify_fiber",
    "complete_homogeneous",
    "construct_consecutive_witness",
    "construct_cross_diagonal_witness",
    "construct_single_line_witness",
    "cross_ft",
    "elementary_symmetric",
    "exp_curve_ft",
    "fiber",
    "final_pivot_formula",
    "fold_periodic",
    "gaussian",
    "h_difference",
    "h_difference_residual",
    "hup_discriminant",
    "line_phase",
    "line_system_ft",
    "odd_bump",
    "odd_pair",
    "odd_profile",
    "partition",
    "power_column_matrix",
    "solve_power_system",
    "standard_witness_profile",
    "surface_ft",
    "translation_periodicity_residual",
    "triangle",
    "vandermonde_det",
    "zero_density",
]
