"""Measures on the exponential curve ``y = exp(t**2)`` and its n = 2 surface.

A density ``g`` on the curve has the two-variable transform

    mu_hat(x, y) = integral g(t) * exp(-i*pi*(x*t + y*exp(t**2))) dt.

Restricted to a slanted line ``y = c*x`` the phase completes to a square:
``x*t + c*x*exp(t**2) = c*x*H(t) - x/(4c)`` with

    H(t) = exp(t**2) + t/c + 1/(4*c**2)
         = (t + 1/(2c))**2 + exp(t**2) - t**2,

which is strictly convex (H'' = (2 + 4t**2) exp(t**2) > 0) and, because
``exp(s) >= 1 + s``, satisfies ``H >= 1`` everywhere.  Substituting
``u = sqrt(H(t))`` branch by branch turns the restricted transform into a
Fresnel-type integral of the profile returned by :func:`odd_profile`; the
transform vanishes along the whole line exactly when that profile is odd.

All densities on the curve are *defined* to vanish outside
``[-support_radius, support_radius]``, so truncating the integral there is
exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .config import OSC_BUDGET, PHASE_PER_PANEL, SUPPORT_RADIUS, TOL
from .errors import (
    BelowMinimumError,
    DegenerateWitnessError,
    NonpositiveMinimumError,
    OscillationBudgetError,
    WitnessConstructionError,
)
from .measures import Density, _scalar_or_array, odd_pair, triangle

__all__ = [
    "LinePhase",
    "line_phase",
    "CurveDensity",
    "QuadResult",
    "odd_profile",
    "construct_single_line_witness",
    "standard_witness_profile",
    "exp_curve_ft",
    "surface_ft",
    "absolute_mass",
]

@cache
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _phase(t: float, c: float) -> float:
    """``H(t) = exp(t**2) + t/c + 1/(4c**2)`` at one point, through ``math.exp``."""
    return math.exp(t * t) + t / c + 1.0 / (4.0 * c * c)


def _slope(t: float, c: float) -> float:
    """``H'(t) = 2t*exp(t**2) + 1/c`` at one point, through ``math.exp``."""
    return 2.0 * t * math.exp(t * t) + 1.0 / c


def _bracketed_root(
    fun: Callable[[float], float],
    dfun: Callable[[float], float],
    lo: float,
    hi: float,
    ftol: float,
) -> float:
    """Newton iteration safeguarded by a sign-changing bracket [lo, hi]."""
    flo = fun(lo)
    if abs(flo) <= ftol:
        return lo
    fhi = fun(hi)
    if abs(fhi) <= ftol:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("root is not bracketed")
    t = 0.5 * (lo + hi)
    for _ in range(200):
        ft = fun(t)
        if abs(ft) <= ftol:
            return t
        if (ft > 0) == (fhi > 0):
            hi, fhi = t, ft
        else:
            lo, flo = t, ft
        d = dfun(t)
        t_next = 0.5 * (lo + hi)
        if d != 0:
            candidate = t - ft / d
            if min(lo, hi) < candidate < max(lo, hi):
                t_next = candidate
        t = t_next
    raise ArithmeticError("root solve did not converge")


def _root_beyond(
    fun: Callable[[float], float],
    dfun: Callable[[float], float],
    anchor: float,
    direction: float,
    ftol: float,
) -> float:
    """Root of ``fun`` on the ``direction`` side (+1 or -1) of ``anchor``.

    The far end steps out by 1, 2, 4, ... until ``fun`` changes sign
    there, and the bracket goes to :func:`_bracketed_root`.
    """
    positive = fun(anchor) > 0
    step = 1.0
    far = anchor + direction * step
    while (fun(far) > 0) == positive:
        step *= 2.0
        far = anchor + direction * step
    return _bracketed_root(fun, dfun, min(anchor, far), max(anchor, far), ftol)


@dataclass(frozen=True)
class LinePhase:
    """Completed-square phase for the slanted line ``y = c*x``.

    ``t_min`` is the unique minimiser (the root of ``2*t*exp(t**2) = -1/c``)
    and ``h_min = value(t_min) >= 1`` is the minimum value.  Build through
    :func:`line_phase`, which solves for both.
    """

    c: float
    t_min: float
    h_min: float

    @property
    def sqrt_min(self) -> float:
        return math.sqrt(self.h_min)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        c = self.c
        return _scalar_or_array(np.exp(t * t) + t / c + 1.0 / (4.0 * c * c))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return _scalar_or_array(2.0 * t * np.exp(t * t) + 1.0 / self.c)

    def inverse(self, v: float, branch: str) -> float:
        """Solve ``value(t) = v`` on one side of the minimum.

        ``branch='right'`` returns ``t >= t_min``; ``branch='left'`` returns
        ``t <= t_min``.  The result satisfies ``|value(t) - v| <=
        1e-12 * max(1, v)``.  Values below ``h_min`` raise
        ``BelowMinimumError``.
        """
        if branch not in ("left", "right"):
            raise ValueError("branch must be 'left' or 'right'")
        v = float(v)
        ftol = 1e-13 * max(1.0, abs(v))
        if v < self.h_min - 1e-12 * max(1.0, abs(v)):
            raise BelowMinimumError(
                f"value {v} lies below the phase minimum {self.h_min}"
            )
        if v <= self.h_min:
            return self.t_min
        c = self.c
        return _root_beyond(
            lambda t: _phase(t, c) - v,
            lambda t: _slope(t, c),
            self.t_min,
            1.0 if branch == "right" else -1.0,
            ftol,
        )


def line_phase(c: float) -> LinePhase:
    """Construct the phase record for slope ``c != 0``.

    The minimiser is found by safeguarded Newton on the derivative to an
    equation defect below 1e-13 * max(1, 1/|c|).
    """
    c = float(c)
    if c == 0:
        raise ValueError("the slanted line needs a nonzero slope")

    # H'(0) = 1/c, so the minimiser lies on the side opposite to the sign of c
    t_min = _root_beyond(
        lambda t: _slope(t, c),
        lambda t: (2.0 + 4.0 * t * t) * math.exp(t * t),
        0.0,
        -1.0 if c > 0 else 1.0,
        1e-13 * max(1.0, abs(1.0 / c)),
    )
    h_min = _phase(t_min, c)
    if not h_min > 0:
        # unreachable: exp(s) >= 1 + s forces h >= 1; kept as a hard guard
        raise NonpositiveMinimumError(f"phase minimum {h_min} is not positive")
    return LinePhase(c, t_min, h_min)


@dataclass(frozen=True)
class CurveDensity:
    """Density on the exponential curve, in one of two representations.

    Either a plain atom ``mixture`` (truncated at ``support_radius``), or a
    witness pair ``(phase, profile)`` encoding

        g(t) = profile(sqrt(H(t))) * H'(t) / (2 * sqrt(H(t))),

    the pull-back of an odd profile through the square-root substitution.
    """

    mixture: Density | None = None
    phase: LinePhase | None = None
    profile: Density | None = None
    support_radius: float = SUPPORT_RADIUS

    def __post_init__(self):
        object.__setattr__(self, "support_radius", float(self.support_radius))
        if not self.support_radius > 0:
            raise ValueError("support radius must be positive")
        has_mixture = self.mixture is not None
        has_witness = self.phase is not None and self.profile is not None
        if has_mixture == has_witness:
            raise ValueError("need exactly one of mixture or (phase, profile)")

    @classmethod
    def from_density(
        cls, f: Density, support_radius: float = SUPPORT_RADIUS
    ) -> "CurveDensity":
        return cls(mixture=f, support_radius=support_radius)

    def value_at(self, t):
        arr = np.asarray(t, dtype=float)
        if self.mixture is not None:
            val = self.mixture.value_at(arr)
        else:
            u = np.sqrt(self.phase.value(arr))
            # numpy's complex division, also for a scalar: Python's rounds differently
            val = np.asarray(self.profile.value_at(u), dtype=complex)
            val = val * self.phase.derivative(arr) / (2.0 * u)
        return _scalar_or_array(np.where(np.abs(arr) <= self.support_radius, val, 0j))

    def smooth_pieces(self) -> tuple[tuple[float, float], ...]:
        """Disjoint intervals covering the support, smooth in their interiors."""
        return self._pieces

    @cached_property
    def _pieces(self) -> tuple[tuple[float, float], ...]:
        radius = self.support_radius
        if self.mixture is not None:
            spans = self.mixture.support_intervals()
            if spans is None:
                spans = ((-radius, radius),)
            cuts = self.mixture.breakpoints()
            pieces = [pair for lo, hi in spans for pair in _knot_pairs(lo, hi, cuts)]
        else:
            # witness representation: map profile knots through both branches
            spans = self.profile.support_intervals()
            if spans is None:
                raise WitnessConstructionError("witness profile must be compact")
            cuts = self.profile.breakpoints()
            pieces = []
            for lo, hi in spans:
                if hi <= 0:
                    continue  # mirrored half; covered through the left branch
                for branch in ("right", "left"):
                    pieces += _knot_pairs(
                        lo, hi, cuts, lambda k: self.phase.inverse(k * k, branch)
                    )
        return tuple(
            (max(lo, -radius), min(hi, radius))
            for lo, hi in sorted(pieces)
            if lo < radius and hi > -radius
        )


def _knot_pairs(lo, hi, cuts, through=float) -> list[tuple[float, float]]:
    """Intervals between consecutive knots, each knot mapped by ``through``.

    The knots are ``lo``, the cuts inside ``(lo, hi)`` and ``hi``; a
    decreasing map yields its intervals reversed, and empty ones are dropped.
    """
    knots = [through(k) for k in (lo, *(b for b in cuts if lo < b < hi), hi)]
    return [(min(a, b), max(a, b)) for a, b in zip(knots, knots[1:]) if a != b]


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with its accumulated error estimate."""

    value: complex
    error: float


def _panel_sums(fun, a, b, n_panels):
    """7- and 15-node Gauss-Legendre sums on ``n_panels`` panels of [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    sums = []
    for order in (7, 15):
        nodes, weights = _gl(order)
        t = mid[:, None] + half[:, None] * nodes[None, :]
        v = fun(t.reshape(-1)).reshape(t.shape)
        sums.append((v @ weights) * half)
    return sums


def _oscillatory_sum(fun, pieces, rate, abs_tol):
    """Paired Gauss-Legendre sum over ``pieces``, refined until its error
    estimate is within ``abs_tol``; refuses if four passes do not get there.
    Over no pieces the first pass gives ``QuadResult(0j, 0.0)``, so an empty
    support needs no case of its own.  Chunks of length at most 0.5 get
    enough panels that a phase turning at ``rate(m)``, ``m`` the chunk's
    largest ``|t|``, turns by at most ``PHASE_PER_PANEL`` per panel."""
    chunks = []
    for lo, hi in pieces:
        edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / 0.5)) + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            turn = (b - a) * rate(max(abs(a), abs(b))) / PHASE_PER_PANEL
            chunks.append((a, b, max(1, math.ceil(turn))))
    for attempt in range(4):
        total = 0j
        err = 0.0
        for a, b, n_panels in chunks:
            coarse, fine = _panel_sums(fun, a, b, n_panels * 2**attempt)
            total += complex(fine.sum())
            err += float(np.abs(fine - coarse).sum())
        if err <= abs_tol:
            return QuadResult(total, err)
    raise OscillationBudgetError(
        f"quadrature error {err:.6g} still exceeds the tolerance {abs_tol:.6g} "
        "after the last refinement pass"
    )


def exp_curve_ft(
    g: CurveDensity, x: float, y: float, *, abs_tol: float = TOL.quad_abs
) -> QuadResult:
    """Transform of a curve density at frequency ``(x, y)``.

    Panels are sized so the oscillatory phase ``pi*(x*t + y*exp(t**2))``
    advances at most pi/4 per panel, then integrated by paired
    Gauss-Legendre rules; the reported error is the sum of the pairwise
    rule differences.  Frequencies whose oscillation ``|y| * exp(T**2)``
    exceeds the documented budget are refused outright rather than
    returning an untrusted number, and so is a sum whose error estimate
    still exceeds ``abs_tol`` after the last refinement pass.
    """
    x = float(x)
    y = float(y)
    radius = g.support_radius
    if radius * radius > 700.0 or abs(y) * math.exp(radius * radius) > OSC_BUDGET:
        raise OscillationBudgetError(
            f"|y|*exp(T^2) = {abs(y):.3g}*exp({radius:.3g}^2) exceeds the "
            f"oscillation budget {OSC_BUDGET:.6g}"
        )

    def integrand(t: np.ndarray) -> np.ndarray:
        phase = np.exp(-1j * math.pi * (x * t + y * np.exp(t * t)))
        return phase * g.value_at(t)

    def rate(m: float) -> float:
        return math.pi * (abs(x) + 2.0 * abs(y) * m * math.exp(m * m))

    return _oscillatory_sum(integrand, g.smooth_pieces(), rate, abs_tol)


def absolute_mass(g: CurveDensity) -> QuadResult:
    """Integral of ``|g|`` over the support (non-oscillatory panels)."""

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.abs(g.value_at(t)).astype(complex)

    # a rate of 4*pi gives 16 panels per unit length to the smooth integrand
    return _oscillatory_sum(
        integrand, g.smooth_pieces(), lambda m: 4.0 * math.pi, TOL.quad_abs
    )


def odd_profile(g: CurveDensity, c: float, u):
    """Profile of ``g`` in the square-root variable of the line ``y = c*x``.

    For ``|u| > sqrt(h_min)`` this is ``g(t(u)) * 2u / H'(t(u))`` where
    ``t(u)`` inverts ``H(t) = u**2`` on the right branch for ``u > 0`` and
    the left branch for ``u < 0``; inside the fold it is 0.  The transform
    of ``g`` vanishes on the whole line ``y = c*x`` exactly when this
    profile is an odd function of ``u``.  A scalar ``u`` gives a Python
    ``complex``; an array gives a complex array of its shape, empty ones too.
    """
    c = float(c)
    if g.phase is not None and g.phase.c == c:
        phase = g.phase
    else:
        phase = line_phase(c)

    def single(uv: float) -> complex:
        if abs(uv) <= phase.sqrt_min:
            return 0j
        branch = "right" if uv > 0 else "left"
        t = phase.inverse(uv * uv, branch)
        d = phase.derivative(t)
        if d == 0:
            return 0j
        return g.value_at(t) * (2.0 * uv) / d

    arr = np.asarray(u, dtype=float)
    values = [single(v) for v in arr.reshape(-1).tolist()]
    return _scalar_or_array(np.array(values, dtype=complex).reshape(arr.shape))


def standard_witness_profile(c: float) -> Density:
    """Odd triangle-pair profile clearing the fold of the slope-``c`` phase.

    The positive lobe is a triangle of half-width 0.5 supported on
    ``[sqrt(h_min) + 0.2, sqrt(h_min) + 1.2]``, a gap of 0.2 clear of the
    fold.
    """
    phase = line_phase(c)
    return odd_pair(triangle(center=phase.sqrt_min + 0.2 + 0.5, width=0.5))


def construct_single_line_witness(c: float, phi: Density) -> CurveDensity:
    """Curve density whose transform vanishes on the single line ``y = c*x``.

    ``phi`` must be odd, compactly supported, and clear the fold:
    ``|u| >= sqrt(h_min) + 1e-3`` on its support.  The witness is the
    pull-back of ``phi`` through the square-root substitution, so its
    profile *is* ``phi`` and the line-restricted transform is the integral
    of an odd function.
    """
    phase = line_phase(c)
    if phi.is_zero():
        raise DegenerateWitnessError("witness profile is zero")
    spans = phi.support_intervals()
    if spans is None:
        raise WitnessConstructionError("witness profile must be compactly supported")
    need = phase.sqrt_min + 1e-3
    for lo, hi in spans:
        if not (lo >= need or hi <= -need):
            raise WitnessConstructionError(
                f"profile support [{lo:.6g}, {hi:.6g}] enters the fold region "
                f"(|u| < {need:.6g})"
            )
    extent = max(max(abs(lo), abs(hi)) for lo, hi in spans)
    grid = np.linspace(0.0, extent, 1025)
    odd_defect = np.max(np.abs(phi.value_at(grid) + phi.value_at(-grid)))
    scale = max(1.0, float(np.max(np.abs(phi.value_at(grid)))))
    if odd_defect > 1e-12 * scale:
        raise WitnessConstructionError("witness profile is not odd")
    t_right = phase.inverse(extent * extent, "right")
    t_left = phase.inverse(extent * extent, "left")
    radius = max(abs(t_left), abs(t_right))
    return CurveDensity(phase=phase, profile=phi, support_radius=radius)


def surface_ft(
    tau_density: CurveDensity,
    h_density: CurveDensity,
    x: Sequence[float],
    *,
    abs_tol: float = TOL.quad_abs,
) -> QuadResult:
    """Transform of the separable density ``tau(u1)*h(u2)`` on the surface
    ``x3 = exp(u1**2) + exp(u2**2)`` at a frequency 3-vector.

    The kernel ``exp(-i*pi*(x1*u1 + x2*u2 + x3*(exp(u1^2) + exp(u2^2))))``
    factorises over the two coordinates, so the tensor-product panel rule
    collapses to the product of two curve transforms; the error bound
    combines both factors' estimates.
    """
    x = tuple(float(v) for v in x)
    if len(x) != 3:
        raise ValueError("need a frequency 3-vector (x1, x2, x3)")
    first = exp_curve_ft(tau_density, x[0], x[2], abs_tol=abs_tol)
    second = exp_curve_ft(h_density, x[1], x[2], abs_tol=abs_tol)
    value = first.value * second.value
    error = (
        abs(first.value) * second.error
        + abs(second.value) * first.error
        + first.error * second.error
    )
    return QuadResult(value, error)
