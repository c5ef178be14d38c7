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
from dataclasses import dataclass, field
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
    "CurveDensity",
    "QuadResult",
    "odd_profile",
    "construct_single_line_witness",
    "standard_witness_profile",
    "exp_curve_ft",
    "exp_curve_ft_many",
    "surface_ft",
    "absolute_mass",
]

# Frequencies that share one panel layout, and about the most complex
# entries of the phase matrix formed at once.
_GROUP = 32
_BLOCK = 16384


@cache
def _paired_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 15 Gauss-Kronrod nodes on [-1, 1], ascending, and two rows of
    weights: the Kronrod ones, and those of the 7-node Gauss rule, whose
    nodes are the ones at odd positions (QUADPACK ``qk15``)."""
    half = np.array([
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ])
    kronrod = np.array([
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ])
    gauss = np.array([
        0.0, 0.129484966168869693270611432679082,
        0.0, 0.279705391489276667901467771423780,
        0.0, 0.381830050505118944950369775488975,
        0.0, 0.417959183673469387755102040816327,
    ])
    nodes = np.concatenate([-half, [0.0], half[::-1]])
    weights = np.stack([np.concatenate([w, w[-2::-1]]) for w in (kronrod, gauss)])
    return nodes, weights


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
    there, and the bracket goes to :func:`_bracketed_root`.  A search whose
    far end overflows ``exp(t**2)`` (``|t| > 26.6``) first is refused.
    """
    positive = fun(anchor) > 0
    step = 1.0
    far = anchor + direction * step
    try:
        while (fun(far) > 0) == positive:
            step *= 2.0
            far = anchor + direction * step
    except OverflowError:
        raise ValueError(
            f"the outward root search from t = {anchor:.6g} left the float range "
            f"of exp(t**2) at t = {far:.6g} before finding a sign change"
        ) from None
    return _bracketed_root(fun, dfun, min(anchor, far), max(anchor, far), ftol)


@dataclass(frozen=True)
class LinePhase:
    """Completed-square phase for the slanted line ``y = c*x``, ``c != 0``.

    ``t_min`` is the unique minimiser (the root of ``2*t*exp(t**2) = -1/c``),
    found by safeguarded Newton on the derivative to an equation defect below
    ``1e-13 * max(1, 1/|c|)``, and ``h_min = value(t_min) >= 1`` is the
    minimum value.  Both are solved for from ``c``.
    """

    c: float
    t_min: float = field(init=False)
    h_min: float = field(init=False)

    def __post_init__(self):
        c = float(self.c)
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
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "t_min", t_min)
        object.__setattr__(self, "h_min", h_min)

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


@dataclass(frozen=True)
class CurveDensity:
    """Density on the exponential curve, truncated at ``support_radius``.

    Without a ``phase`` it is ``density`` read directly.  With one it is the
    pull-back of ``density``, an odd profile, through the square-root
    substitution of that phase:

        g(t) = density(sqrt(H(t))) * H'(t) / (2 * sqrt(H(t))).
    """

    density: Density
    phase: LinePhase | None = None
    support_radius: float = SUPPORT_RADIUS

    def __post_init__(self):
        object.__setattr__(self, "support_radius", float(self.support_radius))
        if not self.support_radius > 0:
            raise ValueError("support radius must be positive")

    def value_at(self, t):
        arr = np.asarray(t, dtype=float)
        if self.phase is None:
            val = self.density.value_at(arr)
        else:
            u = np.sqrt(self.phase.value(arr))
            # numpy's complex division, also for a scalar: Python's rounds differently
            val = np.asarray(self.density.value_at(u), dtype=complex)
            val = val * self.phase.derivative(arr) / (2.0 * u)
        return _scalar_or_array(np.where(np.abs(arr) <= self.support_radius, val, 0j))

    def smooth_pieces(self) -> tuple[tuple[float, float], ...]:
        """Disjoint intervals covering the support, smooth in their interiors."""
        return self._pieces

    @cached_property
    def _pieces(self) -> tuple[tuple[float, float], ...]:
        radius = self.support_radius
        spans, cuts = self.density.support_intervals(), self.density.breakpoints()
        if self.phase is None:
            if spans is None:
                spans = ((-radius, radius),)
            pieces = [pair for lo, hi in spans for pair in _knot_pairs(lo, hi, cuts)]
        else:
            # a pulled-back profile: map its knots through both branches
            if spans is None:
                raise WitnessConstructionError("witness profile must be compact")
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


def _chunks(pieces, rate) -> list[tuple[float, float, int]]:
    """``(a, b, panels)`` for each piece cut into chunks of length at most 0.5,
    with enough panels that a phase turning at ``rate(m)``, ``m`` the chunk's
    largest ``|t|``, turns by at most ``PHASE_PER_PANEL`` per panel."""
    out = []
    for lo, hi in pieces:
        edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / 0.5)) + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            turn = (b - a) * rate(max(abs(a), abs(b))) / PHASE_PER_PANEL
            out.append((a, b, max(1, math.ceil(turn))))
    return out


def _panel_nodes(a, b, panels) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the paired rule on ``panels`` equal panels of [a, b], one row
    per panel, and its two rows of weights scaled to each panel."""
    nodes, weights = _paired_rule()
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * nodes, half[:, None, None] * weights


def _paired_sums(fun, chunks, kernel, columns, stepped=False):
    """One pass of the paired rule over ``chunks`` for ``fun`` times each of
    ``columns`` kernels.

    ``kernel(t, part)`` sums ``part``, the Kronrod and the Gauss row of
    ``w * fun`` on each panel of the nodes ``t``, against every kernel: one
    ``(panels, 2, columns)`` array (None: the plain integral, one column).
    ``fun`` is read once per chunk; the kernel is formed a few panels at a
    time, about ``_BLOCK`` entries.  Returns per column the Kronrod sum and
    the sum over panels of ``|Kronrod - Gauss|``, and the moments against
    which :func:`_stepped_kernels` states its rounding bound: over the
    panels, ``sum |w * fun|`` with the Kronrod weights times ``(1, m,
    exp(m**2), m**2 * exp(m**2))``, ``m`` the panel's largest ``|t|``.
    The moments are formed only when ``stepped``, when some kernel column
    is a step power; otherwise no coefficient weighs them and they are 0.
    """
    total = np.zeros(columns, dtype=complex)
    err = np.zeros(columns)
    moments = np.zeros(4)
    for a, b, panels in chunks:
        t, w = _panel_nodes(a, b, panels)
        values = fun(t)[:, None, :] * w  # per panel: a Kronrod and a Gauss row
        if stepped:
            reach = np.abs(t).max(axis=1)
            grow = np.exp(reach * reach)
            powers = np.stack([np.ones_like(reach), reach, grow, reach * reach * grow])
            moments += powers @ np.abs(values[:, 0]).sum(axis=1)
        step = max(1, _BLOCK // (t.shape[1] * columns))
        for i in range(0, panels, step):
            part = values[i : i + step]
            if kernel is None:
                sums = part.sum(axis=-1)[..., None]
            else:
                sums = kernel(t[i : i + step], part)
            total += sums[:, 0].sum(axis=0)
            err += np.abs(sums[:, 0] - sums[:, 1]).sum(axis=0)
    return total, err, moments


def _stepped_kernels(x, y, opens):
    """Kernels of the frequencies ``(x[j], y[j])``, read as pieces of evenly
    stepped runs: a piece runs from each column where ``opens`` is True to
    the next such column.

    A piece anchored at its first column ``(x0, y0)``, with the step
    ``(dx, dy)`` taken from its end points, gives its column ``k`` as
    ``exp(-i*pi*(x0*t + y0*exp(t**2))) * exp(-i*pi*(dx*t + dy*exp(t**2)))**k``:
    two complex ``exp`` per node, the powers by doubling.  A piece of one
    column is its plain ``exp``.  Returns the kernel as :func:`_paired_sums`
    takes it, and per column the coefficients of its rounding bound against
    the moments that function returns: ``k`` products (``4 eps`` each,
    with the rounding of the step's ``exp``), ``k`` times the phase error
    of the step factor, and the distance from ``(x[j], y[j])`` to the grid
    point ``(x0 + k*dx, y0 + k*dy)``, each against ``|t|`` and
    ``exp(t**2)``.  Column 0 of a piece has none, so when no piece has a
    second column the coefficients are None.
    """
    count = len(x)
    first = np.flatnonzero(opens)
    last = np.append(first[1:], count) - 1
    piece = np.cumsum(opens) - 1
    power = np.arange(count) - first[piece]
    top = int(power.max())
    dx, dy = ((v[last] - v[first]) / np.maximum(last - first, 1) for v in (x, y))
    rounding = None
    if top:
        eps, k, once = np.finfo(float).eps, power.astype(float), np.minimum(power, 1)

        def mismatch(v, dv):
            v0 = v[first][piece]
            slack = eps * (k * np.abs(dv) + once * (np.abs(v0) + np.abs(v)))
            return np.abs(v - (v0 + k * dv)) + slack

        step_x, step_y = dx[piece], dy[piece]
        rounding = np.stack([
            4.0 * eps * k,
            math.pi * (2.0 * eps * k * np.abs(step_x) + mismatch(x, step_x)),
            math.pi * (3.0 * eps * k * np.abs(step_y) + mismatch(y, step_y)),
            math.pi * eps * k * np.abs(step_y),
        ], axis=-1)
    take = power * first.size + piece
    x0, y0, sx, sy = (v[:, None, None] for v in (x[first], y[first], dx, dy))

    def kernel(t, part):
        grow = np.exp(t * t)

        def turn(a, b):
            return np.exp(-1j * math.pi * (t * a + grow * b))

        # ladder[k, q] = anchor * step**k of piece q at the nodes, by doubling
        ladder = np.empty((top + 1, first.size, *t.shape), dtype=complex)
        ladder[0] = turn(x0, y0)
        done = 1
        step = turn(sx, sy) if top else None
        while done <= top:
            reach = min(done, top + 1 - done)
            np.multiply(ladder[:reach], step, out=ladder[done : done + reach])
            done += reach
            step = step * step
        rows = ladder.reshape(-1, *t.shape).transpose(1, 0, 2)
        return (rows @ part.transpose(0, 2, 1))[:, take].transpose(0, 2, 1)

    return kernel, rounding


def _refined_sums(fun, chunks, abs_tol, x=None, y=None, run=None):
    """Gauss-Kronrod (7, 15) sums of ``fun`` over ``chunks``, one per
    frequency ``(x[k], y[k])`` against ``exp(-i*pi*(x*t + y*exp(t**2)))``,
    or a single plain sum when ``x`` is None.

    In each pass the frequencies still to be summed that lie next to each
    other and share a ``run`` label form one piece of
    :func:`_stepped_kernels`.  Each frequency keeps its own error
    estimate: ``|K15 - G7|`` summed over the panels, plus the rounding
    bound of its kernel.  The ones not yet within ``abs_tol`` (a NaN
    estimate or tolerance never is) are summed again on twice the panels,
    and the call refuses if five passes do not bring every one within it.
    The fifth pass cuts each first-pass panel into 16, so its panels turn
    the phase by at most pi/32.  Over no chunks the first pass gives zeros,
    so an empty support needs no case of its own.
    """
    count = 1 if x is None else len(x)
    values = np.zeros(count, dtype=complex)
    errors = np.zeros(count)
    todo = np.arange(count)
    if run is not None:
        run = np.array(run)
    kernel, rounding = None, None
    for attempt in range(5):
        layout = [(a, b, panels << attempt) for a, b, panels in chunks]
        if x is not None:
            opens = np.ones(todo.size, dtype=bool)
            opens[1:] = (np.diff(run[todo]) != 0) | (np.diff(todo) != 1)
            kernel, rounding = _stepped_kernels(x[todo], y[todo], opens)
        stepped = rounding is not None
        total, err, moments = _paired_sums(fun, layout, kernel, len(todo), stepped)
        rounded = rounding @ moments if stepped else np.zeros(len(todo))
        values[todo], errors[todo] = total, err + rounded
        # a frequency whose recurrence rounding takes half the tolerance
        # is summed by its own exp from the next pass on
        if run is not None:
            alone = todo[rounded > 0.5 * abs_tol]
            run[alone] = -1 - alone
        todo = todo[~(errors[todo] <= abs_tol)]
        if not todo.size:
            return values, errors
    raise OscillationBudgetError(
        f"quadrature error {errors[todo].max():.6g} still exceeds the tolerance "
        f"{abs_tol:.6g} after the last refinement pass"
    )


def _run_starts(x, y) -> np.ndarray:
    """Where each run of the batch starts, in the caller's order.

    A run is a stretch of three or more frequencies evenly stepped to
    within a few ulp: every second difference of ``x`` and of ``y`` is at
    most 16 eps of the batch's largest ``|x|`` and ``|y|``.  Every other
    frequency is a run of its own.
    """
    flat = np.ones(max(len(x) - 2, 0), dtype=bool)
    for v in (x, y):
        flat &= np.abs(np.diff(v / (np.abs(v).max() or 1.0), 2)) <= 16 * np.finfo(float).eps
    flat = flat.tolist()
    starts, i = [], 0
    while i < len(x):
        starts.append(i)
        j = i
        while j < len(flat) and flat[j]:
            j += 1
        i = j + 2 if j > i else i + 1
    return np.array(starts)


def exp_curve_ft_many(
    g: CurveDensity, xs, ys, *, abs_tol: float = TOL.quad_abs
) -> tuple[np.ndarray, np.ndarray]:
    """Transform of a curve density at the frequencies ``(xs, ys)``, which
    broadcast together: an array of values and one of error estimates, both
    of the broadcast shape.

    Every frequency that is not finite, or whose oscillation
    ``|y| * exp(T**2)`` exceeds the documented budget, is refused first; an
    empty batch gives empty arrays.  The rest are cut, in the caller's
    order, into evenly stepped runs (:func:`_run_starts`); the runs are
    ordered by the rate at which their fastest phase ``pi*(x*t +
    y*exp(t**2))`` turns at the support edge, and the frequencies are taken
    ``_GROUP`` at a time.  A group shares one panel layout, sized so that
    its largest ``|x|`` and ``|y|`` turn the phase by at most pi/2 per
    panel, and ``g`` is read once per chunk of it; each piece of a run in
    it forms its kernel as anchor times step powers
    (:func:`_stepped_kernels`).  The Gauss-Kronrod (7, 15) rule gives each
    frequency its value and error estimate, the sum of ``|K15 - G7|`` over
    the panels plus the rounding bound of its kernel; a frequency whose
    estimate still exceeds ``abs_tol`` after the last refinement pass is
    refused.
    """
    shape = np.broadcast_shapes(np.shape(xs), np.shape(ys))
    x = np.broadcast_to(np.asarray(xs, dtype=float), shape).reshape(-1)
    y = np.broadcast_to(np.asarray(ys, dtype=float), shape).reshape(-1)
    radius = g.support_radius
    for x_k, y_k in zip(x.tolist(), y.tolist()):
        if not (math.isfinite(x_k) and math.isfinite(y_k)):
            raise ValueError(f"frequency (x, y) = ({x_k}, {y_k}) is not finite")
        if radius * radius > 700.0 or abs(y_k) * math.exp(radius * radius) > OSC_BUDGET:
            raise OscillationBudgetError(
                f"|y|*exp(T^2) = {abs(y_k):.3g}*exp({radius:.3g}^2) exceeds the "
                f"oscillation budget {OSC_BUDGET:.6g}"
            )
    values = np.zeros(x.shape, dtype=complex)
    errors = np.zeros(x.shape)
    if not x.size:
        # no frequency to refuse a wide support for: exp(edge**2) may overflow
        return values.reshape(shape), errors.reshape(shape)
    pieces = g.smooth_pieces()
    edge = max((max(abs(lo), abs(hi)) for lo, hi in pieces), default=0.0)
    edge_rate = np.abs(x) + 2.0 * np.abs(y) * edge * math.exp(edge * edge)
    starts = _run_starts(x, y)
    ranked = np.argsort(np.maximum.reduceat(edge_rate, starts), kind="stable")
    lengths = np.diff(np.append(starts, x.size))[ranked]
    # the frequencies run by run, each run in the caller's order
    run = np.repeat(np.arange(ranked.size), lengths)
    order = np.repeat(starts[ranked] - np.cumsum(lengths) + lengths, lengths)
    order += np.arange(x.size)
    for start in range(0, x.size, _GROUP):
        group = order[start : start + _GROUP]
        x_top, y_top = np.abs(x[group]).max(), np.abs(y[group]).max()

        def rate(m: float) -> float:
            return math.pi * (x_top + 2.0 * y_top * m * math.exp(m * m))

        chunks = _chunks(pieces, rate)
        values[group], errors[group] = _refined_sums(
            g.value_at, chunks, abs_tol, x[group], y[group], run[start : start + _GROUP]
        )
    return values.reshape(shape), errors.reshape(shape)


def exp_curve_ft(
    g: CurveDensity, x: float, y: float, *, abs_tol: float = TOL.quad_abs
) -> QuadResult:
    """Transform of a curve density at the one frequency ``(x, y)``, through
    :func:`exp_curve_ft_many`; refused under the same rules."""
    values, errors = exp_curve_ft_many(g, [x], [y], abs_tol=abs_tol)
    return QuadResult(complex(values[0]), float(errors[0]))


def _sign_cuts(g: CurveDensity, pieces, rate) -> list[tuple[float, float]]:
    """``pieces`` cut where a real ``g`` changes sign between two nodes of
    the first pass, so that no kink of ``|g|`` lies inside a panel."""

    def real(s: float) -> float:
        return complex(g.value_at(s)).real

    out = []
    for lo, hi in pieces:
        nodes = [_panel_nodes(*chunk)[0] for chunk in _chunks([(lo, hi)], rate)]
        t = np.sort(np.concatenate(nodes, axis=None))
        v = np.asarray(g.value_at(t))
        cuts = []
        if not np.any(v.imag):
            t, v = t[v.real != 0], v.real[v.real != 0]
            ftol = 1e-12 * float(np.max(np.abs(v), initial=0.0))
            for i in np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:])):
                chord = float((v[i + 1] - v[i]) / (t[i + 1] - t[i]))
                cuts.append(_bracketed_root(
                    real, lambda s, chord=chord: chord, float(t[i]), float(t[i + 1]), ftol
                ))
        out += _knot_pairs(lo, hi, cuts)
    return out


def absolute_mass(g: CurveDensity) -> QuadResult:
    """Integral of ``|g|`` over the support (non-oscillatory panels), each
    piece cut where a real ``g`` changes sign."""

    def rate(m: float) -> float:
        # a rate of 8*pi gives 16 panels per unit length to the smooth integrand
        return 8.0 * math.pi

    pieces = _sign_cuts(g, g.smooth_pieces(), rate)
    values, errors = _refined_sums(
        lambda t: np.abs(g.value_at(t)), _chunks(pieces, rate), TOL.quad_abs
    )
    return QuadResult(complex(values[0]), float(errors[0]))


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
        phase = LinePhase(c)

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
    phase = LinePhase(c)
    return odd_pair(triangle(center=phase.sqrt_min + 0.2 + 0.5, width=0.5))


def construct_single_line_witness(c: float, phi: Density) -> CurveDensity:
    """Curve density whose transform vanishes on the single line ``y = c*x``.

    ``phi`` must be odd, compactly supported, and clear the fold:
    ``|u| >= sqrt(h_min) + 1e-3`` on its support.  The witness is the
    pull-back of ``phi`` through the square-root substitution, so its
    profile *is* ``phi`` and the line-restricted transform is the integral
    of an odd function.
    """
    phase = LinePhase(c)
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
    return CurveDensity(phi, phase, radius)


def surface_ft(
    tau_density: CurveDensity,
    h_density: CurveDensity,
    x: Sequence,
    *,
    abs_tol: float = TOL.quad_abs,
) -> QuadResult:
    """Transform of the separable density ``tau(u1)*h(u2)`` on the surface
    ``x3 = exp(u1**2) + exp(u2**2)`` at the frequencies ``(x1, x2, x3)``,
    whose three components broadcast together.

    The kernel ``exp(-i*pi*(x1*u1 + x2*u2 + x3*(exp(u1^2) + exp(u2^2))))``
    factorises over the two coordinates, so the tensor-product panel rule
    collapses to the product of two curve transforms: tau's over the
    broadcast of ``(x1, x3)`` and h's over that of ``(x2, x3)``, one batch
    each.  The error bound combines both factors' estimates.  A scalar
    frequency gives Python scalars, and arrays give arrays of the broadcast
    shape.
    """
    if len(x) != 3:
        raise ValueError("need a frequency 3-vector (x1, x2, x3)")
    x1, x2, x3 = x
    first, first_err, second, second_err = map(_scalar_or_array, (
        *exp_curve_ft_many(tau_density, x1, x3, abs_tol=abs_tol),
        *exp_curve_ft_many(h_density, x2, x3, abs_tol=abs_tol),
    ))
    # a scalar factor stays a Python scalar, so its product rounds as Python's
    error = abs(first) * second_err + abs(second) * first_err + first_err * second_err
    return QuadResult(first * second, error)
