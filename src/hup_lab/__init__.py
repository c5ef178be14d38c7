"""Constructions and checks for Fourier uniqueness pairs.

The package covers three interlocking pieces:

* symmetric-polynomial kernels and power-column linear systems
  (:mod:`hup_lab.sympoly`, :mod:`hup_lab.linsys`),
* discrete measures on line systems and their transforms, plus explicit
  annihilating witnesses (:mod:`hup_lab.measures`),
* densities carried by exponential-phase curves, their oscillatory
  transforms, and the fiber classifier for periodized point sets
  (:mod:`hup_lab.curves`, :mod:`hup_lab.classifier`).

``hup_lab.cli`` exposes the ``hup-lab`` scenario runner.  The package
exports the union of its library modules' ``__all__`` lists.
"""

from . import classifier, config, curves, errors, linsys, measures, sympoly
from .classifier import *
from .config import *
from .curves import *
from .errors import *
from .linsys import *
from .measures import *
from .sympoly import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (classifier, config, curves, errors, linsys, measures, sympoly)
    for name in module.__all__
)
