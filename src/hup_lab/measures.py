"""Densities on lines, their closed-form transforms, and witness measures.

The transform convention throughout the package is

    ft(f)(xi) = integral f(x) * exp(-i * pi * x * xi) dx

and a measure supported on horizontal lines ``y = h_j`` carrying densities
``f_j`` therefore has the two-variable transform

    mu_hat(xi, eta) = sum_j exp(-i * pi * h_j * eta) * ft(f_j)(xi).

A cross measure places densities ``f_k`` on the horizontal lines ``y = k``
and their negatives on the vertical lines ``x = k``:

    mu_hat(xi, eta) = sum_k exp(-i*pi*k*eta) * ft(f_k)(xi)
                           - exp(-i*pi*k*xi)  * ft(f_k)(eta),

which is antisymmetric under (xi, eta) -> (eta, xi) and hence vanishes on
the diagonal identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateWitnessError

__all__ = [
    "ATOM_KINDS",
    "DensityAtom",
    "Density",
    "LineMeasure",
    "CrossMeasure",
    "gaussian",
    "box",
    "triangle",
    "odd_bump",
    "zero_density",
    "odd_pair",
    "line_system_ft",
    "cross_ft",
    "construct_consecutive_witness",
    "construct_cross_diagonal_witness",
    "translation_periodicity_residual",
]

ATOM_KINDS = ("gaussian", "box", "triangle", "odd_bump")


def _scalar_or_array(val):
    """A 0-d ``val`` as a Python ``float`` or ``complex``; any other as it is.

    Every evaluator here and in ``curves`` reads its argument through
    ``np.asarray(x, dtype=float)`` and returns through this helper.
    """
    val = np.asarray(val)
    return val.item() if val.ndim == 0 else val


@dataclass(frozen=True)
class DensityAtom:
    """One closed-form building block of a density.

    kind      shape (all centred at ``center`` with scale ``width > 0``)
    --------  ------------------------------------------------------------
    gaussian  A * exp(-pi * (x - c)^2 / w^2)
    box       A on [c - w/2, c + w/2], zero elsewhere
    triangle  A * max(0, 1 - |x - c| / w)
    odd_bump  A * (x - c) * exp(-pi * (x - c)^2 / w^2)

    gaussian, box, and triangle are even about ``center``; odd_bump is odd
    about ``center`` and has zero total mass.
    """

    kind: str
    center: float
    width: float
    amplitude: complex = 1.0 + 0j

    def __post_init__(self):
        if self.kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not self.width > 0:
            raise ValueError("atom width must be positive")

    def value_at(self, x):
        """Pointwise value; accepts scalars or numpy arrays."""
        u = np.asarray(x, dtype=float) - self.center
        a = self.amplitude
        w = self.width
        if self.kind == "gaussian":
            val = a * np.exp(-math.pi * u * u / (w * w))
        elif self.kind == "box":
            val = np.where(np.abs(u) <= 0.5 * w, a, 0j)
        elif self.kind == "triangle":
            val = a * np.maximum(0.0, 1.0 - np.abs(u) / w)
        else:  # odd_bump
            val = a * u * np.exp(-math.pi * u * u / (w * w))
        return _scalar_or_array(val)

    def ft(self, xi):
        """Closed-form transform under the exp(-i*pi*x*xi) convention."""
        arr = np.asarray(xi, dtype=float)
        a = self.amplitude
        w = self.width
        shift = np.exp(-1j * math.pi * self.center * arr)
        if self.kind == "gaussian":
            val = a * w * shift * np.exp(-math.pi * w * w * arr * arr / 4.0)
        elif self.kind == "box":
            val = a * w * shift * np.sinc(w * arr / 2.0)
        elif self.kind == "triangle":
            val = a * w * shift * np.sinc(w * arr / 2.0) ** 2
        else:  # odd_bump
            val = (
                -0.5j
                * a
                * w**3
                * arr
                * shift
                * np.exp(-math.pi * w * w * arr * arr / 4.0)
            )
        return _scalar_or_array(val)

    def support(self) -> tuple[float, float] | None:
        """Exact support interval, its first and last knots; None without knots."""
        knots = self.breakpoints()
        return (knots[0], knots[-1]) if knots else None

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the atom is not smooth (kinks and jumps)."""
        if self.kind == "box":
            return (self.center - 0.5 * self.width, self.center + 0.5 * self.width)
        if self.kind == "triangle":
            return (
                self.center - self.width,
                self.center,
                self.center + self.width,
            )
        return ()

    def reflected(self) -> "DensityAtom":
        """The atom of ``x -> value_at(-x)``."""
        if self.kind == "odd_bump":
            return replace(self, center=-self.center, amplitude=-self.amplitude)
        return replace(self, center=-self.center)

    def scaled(self, factor: complex) -> "DensityAtom":
        return replace(self, amplitude=self.amplitude * complex(factor))


@dataclass(frozen=True)
class Density:
    """A finite sum of atoms, closed under addition/negation/scaling."""

    atoms: tuple[DensityAtom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def value_at(self, x):
        arr = np.asarray(x, dtype=float)
        total = np.zeros(arr.shape, dtype=complex)
        for atom in self.atoms:
            total += atom.value_at(arr)
        return _scalar_or_array(total)

    def ft(self, xi):
        arr = np.asarray(xi, dtype=float)
        total = np.zeros(arr.shape, dtype=complex)
        for atom in self.atoms:
            total += atom.ft(arr)
        return _scalar_or_array(total)

    def is_zero(self) -> bool:
        return all(atom.amplitude == 0 for atom in self.atoms)

    def support_intervals(self) -> tuple[tuple[float, float], ...] | None:
        """Merged union of atom supports; None if any atom is unbounded."""
        spans = []
        for atom in self.atoms:
            if atom.amplitude == 0:
                continue
            span = atom.support()
            if span is None:
                return None
            spans.append(span)
        spans.sort()
        merged: list[list[float]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return tuple((lo, hi) for lo, hi in merged)

    def breakpoints(self) -> tuple[float, ...]:
        pts: set[float] = set()
        for atom in self.atoms:
            if atom.amplitude != 0:
                pts.update(atom.breakpoints())
        return tuple(sorted(pts))

    def reflected(self) -> "Density":
        return Density(tuple(atom.reflected() for atom in self.atoms))

    def scaled(self, factor: complex) -> "Density":
        return Density(tuple(atom.scaled(factor) for atom in self.atoms))

    def __add__(self, other: "Density") -> "Density":
        return Density(self.atoms + other.atoms)

    def __sub__(self, other: "Density") -> "Density":
        return self + other.scaled(-1)

    def __neg__(self) -> "Density":
        return self.scaled(-1)


def gaussian(center=0.0, width=1.0, amplitude=1.0) -> Density:
    return Density((DensityAtom("gaussian", center, width, amplitude),))


def box(center=0.0, width=1.0, amplitude=1.0) -> Density:
    return Density((DensityAtom("box", center, width, amplitude),))


def triangle(center=0.0, width=1.0, amplitude=1.0) -> Density:
    return Density((DensityAtom("triangle", center, width, amplitude),))


def odd_bump(center=0.0, width=1.0, amplitude=1.0) -> Density:
    return Density((DensityAtom("odd_bump", center, width, amplitude),))


def zero_density() -> Density:
    return Density(())


def odd_pair(lobe: Density) -> Density:
    """Antisymmetrise a lobe: returns ``u -> lobe(u) - lobe(-u)``.

    The result is odd about the origin whatever the lobe; with a lobe
    supported in ``u > 0`` the two halves do not overlap.
    """
    return lobe - lobe.reflected()


@dataclass(frozen=True)
class LineMeasure:
    """Densities on the horizontal lines ``y = heights[j]``."""

    heights: tuple[float, ...]
    densities: tuple[Density, ...]

    def __post_init__(self):
        heights = tuple(float(h) for h in self.heights)
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "densities", tuple(self.densities))
        if len(heights) != len(self.densities):
            raise ValueError("need one density per line height")
        if any(a >= b for a, b in zip(heights, heights[1:])):
            raise ValueError("line heights must be strictly increasing")


def line_system_ft(measure: LineMeasure, xi, eta):
    """Transform of a line measure: sum of height-modulated 1-D transforms."""
    return _levels_ft(measure, xi, eta)


@dataclass(frozen=True)
class CrossMeasure:
    """Densities ``f_k`` on lines ``y = k`` minus the same on ``x = k``."""

    densities: tuple[Density, ...]

    def __post_init__(self):
        object.__setattr__(self, "densities", tuple(self.densities))
        if not self.densities:
            raise ValueError("need at least one density level")


def cross_ft(measure: CrossMeasure, xi, eta):
    """Transform of a cross measure; antisymmetric in (xi, eta)."""
    return _levels_ft(measure, xi, eta)


def _levels(measure: LineMeasure | CrossMeasure) -> list[tuple[float, Density, bool]]:
    """One ``(height, density, mirrored)`` entry per level: the density on
    ``y = height`` and, on a mirrored (cross) level, its negative on ``x = height``."""
    if isinstance(measure, CrossMeasure):
        return [(k, f, True) for k, f in enumerate(measure.densities)]
    return [(h, f, False) for h, f in zip(measure.heights, measure.densities)]


def _levels_ft(measure: LineMeasure | CrossMeasure, xi, eta):
    """The transform of either measure, summed level by level."""
    xi_arr = np.asarray(xi, dtype=float)
    eta_arr = np.asarray(eta, dtype=float)
    total = np.zeros(np.broadcast(xi_arr, eta_arr).shape, dtype=complex)
    for h, f, mirrored in _levels(measure):
        term = np.exp(-1j * math.pi * h * eta_arr) * f.ft(xi_arr)
        if mirrored:
            term = term - np.exp(-1j * math.pi * h * xi_arr) * f.ft(eta_arr)
        total = total + term
    return _scalar_or_array(total)


# xi rows per block of grid rows: enough to form each level's product over
# the block in one numpy call, few enough that a block's arrays stay a small
# transient beside a CSV write
_ROWS = 8


def _ft_rows(measure: LineMeasure | CrossMeasure, xi: np.ndarray, eta: np.ndarray):
    """The transform over ``xi`` by ``eta`` as ``(xs, values, mags)`` blocks of
    at most ``_ROWS`` xi rows, bitwise a one-xi ``line_system_ft`` or ``cross_ft``.

    The factors no xi changes are formed once per grid: each level's phase
    along eta and, on a mirrored level, its density's transform along eta.
    The factors that vary with xi stay one call per xi: on numpy scalars the
    triangle transform's ``** 2``, an atom's complex amplitude times its
    phase and ``exp`` round differently from the same operations on an
    array.  The products run on the block's rows laid end to end, since a
    complex product whose result is one element of a 2-D array may round
    differently from the same product in a 1-D array.  ``np.hypot`` of the
    parts rounds as Python's ``abs`` of a complex does; ``np.abs`` may not.
    """
    width = len(eta)
    fixed = [
        (h, np.exp(-1j * math.pi * h * eta), f, f.ft(eta) if mirrored else None)
        for h, f, mirrored in _levels(measure)
    ]
    for start in range(0, len(xi), _ROWS):
        xs = xi[start:start + _ROWS]
        points = [np.asarray(x) for x in xs.tolist()]  # 0-d, as a call takes xi
        total = np.zeros(len(xs) * width, dtype=complex)
        for h, phase, f, along in fixed:
            term = np.tile(phase, len(xs)) * np.repeat([f.ft(x) for x in points], width)
            if along is not None:
                shift = [np.exp(-1j * math.pi * h * x) for x in points]
                term = term - np.repeat(shift, width) * np.tile(along, len(xs))
            total = total + term
        values = total.reshape(len(xs), width)
        yield xs, values, np.hypot(values.real, values.imag)


def construct_consecutive_witness(
    n: int, seed_density: Density
) -> tuple[LineMeasure, tuple[float, ...]]:
    """Measure on the consecutive heights ``0..n+1`` annihilated by a grid.

    The seed goes on the top line, its negative on the bottom line, and the
    ``n`` middle lines stay empty.  The returned phase grid lists the
    heights ``2k/(n+1)`` for ``k = 0..n``; on the lines ``eta = 2k/(n+1)``
    the two seed contributions cancel because the modulation factor has
    period dividing ``n + 1`` in the height index.
    """
    if n < 1:
        raise ValueError("need at least one middle line (n >= 1)")
    if seed_density.is_zero():
        raise DegenerateWitnessError("seed density is zero")
    heights = tuple(float(j) for j in range(n + 2))
    densities = (
        (-seed_density,)
        + tuple(zero_density() for _ in range(n))
        + (seed_density,)
    )
    lam = tuple(2.0 * k / (n + 1) for k in range(n + 1))
    return LineMeasure(heights, densities), lam


def construct_cross_diagonal_witness(densities: Sequence[Density]) -> CrossMeasure:
    """Cross measure with ``densities[k]`` on level ``k``; any nonzero choice
    kills the diagonal."""
    densities = tuple(densities)
    if all(f.is_zero() for f in densities):
        raise DegenerateWitnessError("all cross levels are zero")
    return CrossMeasure(densities)


def translation_periodicity_residual(
    f: Density, alpha: float, sample_count: int = 401
) -> float:
    """Max of ``|ft(f)(t + alpha) - ft(f)(t)|`` over ``t in [-20, 20]``.

    A strictly positive value certifies the transform is not
    ``alpha``-periodic; the samples are equally spaced.
    """
    alpha = float(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if sample_count < 2:
        raise ValueError("need at least two samples")
    t = np.linspace(-20.0, 20.0, int(sample_count))
    return float(np.max(np.abs(f.ft(t + alpha) - f.ft(t))))
