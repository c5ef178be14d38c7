"""Partition of a determining set into uniqueness classes, fiber by fiber.

A candidate set is a collection of points ``(xi, eta)``.  Because every
transform in this package is 2-periodic in ``eta`` when line heights are
integers, the set is first folded into ``eta in [0, 2)``.  Points sharing
(within tolerance) the same ``xi`` form a fiber, and each fiber is graded
by how much of the power system its phases can pin down:

* ``m`` distinct phases with ``m <= n``          -> class ``m``
* at least ``n + 1`` phases on which ``z^p`` agrees with a polynomial of
  degree at most ``n``                             -> class ``n + 1``
* otherwise                                        -> class ``n + 2``

A fiber with at least ``p + 1`` distinct phases is class ``n + 2`` outright:
each value of ``a^p`` is shared by at most ``p - n`` suitable nodes, so a
discriminating choice always exists.

The ``(n + 1)``-th divided difference of ``z^p`` over ``n + 2`` nodes ``S``
is ``h_{p-n-1}(S)``, so ``z^p`` is a polynomial of degree at most ``n`` on
the fiber exactly when that value vanishes for ``S = P + {x}``, with ``P``
the first ``n + 1`` sorted phases and ``x`` each remaining one in turn: one
h evaluation per remaining phase.  By the difference identity
``h_k(R, a) - h_k(R, b) = (a - b) * h_{k-1}(S)`` for ``S = R + {a, b}``,
that value weighed by the largest pairwise gap of ``S`` is the widest
h-difference over the ways of setting one pair of ``S`` apart (see
:func:`hup_lab.linsys.hup_discriminant`); it is this product that is
compared with the tolerance.  Near the tolerance the test is one-sided;
see :func:`classify_fiber`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .config import TOL
from .sympoly import UnimodularTuple, _power_contract, complete_homogeneous

__all__ = [
    "LambdaSet",
    "FiberPartition",
    "fold_periodic",
    "fiber",
    "classify_fiber",
    "partition",
]


@dataclass(frozen=True)
class LambdaSet:
    """A finite set of candidate points ``(xi, eta)``."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(e)) for x, e in self.points)
        if not all(math.isfinite(c) for pt in pts for c in pt):
            raise ValueError("points must have finite coordinates")
        object.__setattr__(self, "points", pts)


def _fold_eta(eta: float) -> float:
    out = math.fmod(eta, 2.0)
    if out < 0.0:
        out += 2.0
    if out >= 2.0:  # fmod can round back up to the period
        out -= 2.0
    return out


def _cluster_xis(xs: Sequence[float]) -> list[list[int]]:
    """Indices grouped by xi, breaking clusters at gaps larger than ``TOL.merge``."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    groups: list[list[int]] = []
    for i in order:
        if groups and xs[i] - xs[groups[-1][-1]] <= TOL.merge:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _merged(etas: Sequence[float]) -> list[float]:
    """Sorted folded ``etas`` less each one within ``TOL.merge`` of the last
    kept, the top of the period wrapping onto the bottom point."""
    dedup: list[float] = []
    for e in sorted(etas):
        if not dedup or e - dedup[-1] > TOL.merge:
            dedup.append(e)
    if len(dedup) > 1 and (dedup[0] + 2.0) - dedup[-1] <= TOL.merge:
        dedup.pop()
    return dedup


def fold_periodic(lam: LambdaSet) -> LambdaSet:
    """Reduce eta mod 2 into [0, 2) and merge coordinate-wise duplicates.

    Duplicates are points within ``TOL.merge`` in each coordinate after
    folding, including the wrap-around pair ``eta ~ 0`` vs ``eta ~ 2``.
    The first representative in sorted order is kept.
    """
    pts = [(x, _fold_eta(e)) for x, e in lam.points]
    kept: list[tuple[float, float]] = []
    xs = [p[0] for p in pts]
    for group in _cluster_xis(xs):
        rep_xi = pts[group[0]][0]
        kept.extend((rep_xi, e) for e in _merged([pts[i][1] for i in group]))
    kept.sort()
    return LambdaSet(tuple(kept))


def fiber(lam: LambdaSet, xi: float) -> tuple[float, ...]:
    """Sorted distinct eta values sitting over ``xi`` once the set is folded."""
    xi = float(xi)
    points = fold_periodic(lam).points
    return tuple(sorted(e for x, e in points if abs(x - xi) <= TOL.merge))


def classify_fiber(
    etas: Sequence[float],
    n: int,
    p: int,
    *,
    discriminant_tol: float = TOL.discriminant,
) -> int:
    """Class index in ``1..n+2`` of one fiber's phase set.

    ``etas`` must be finite and distinct mod 2 by more than ``TOL.merge``,
    as :func:`fold_periodic` leaves them; repeated phases are refused.
    With ``P`` the first ``n + 1`` sorted phases, the fiber is class
    ``n + 2`` as soon as some other phase ``x`` gives ``S = P + {x}`` with
    ``max |a - b| * |h_{p-n-1}(S)|`` above ``discriminant_tol``, and class
    ``n + 1`` otherwise.  Only these ``(n + 2)``-subsets are weighed, so
    near the tolerance a fiber that some other subset would push just over
    it can come out class ``n + 1``; a fiber every subset keeps under it is
    never class ``n + 2``.
    """
    _power_contract(n, p)
    etas = tuple(float(e) for e in etas)
    if not etas:
        raise ValueError("fiber is empty")
    if not all(math.isfinite(e) for e in etas):
        raise ValueError("fiber phases must be finite")
    m = len(etas)
    if len(_merged([_fold_eta(e) for e in etas])) < m:
        raise ValueError("fiber phases must be distinct mod 2")
    if m <= n:
        return m
    if m >= p + 1:
        return n + 2
    nodes = UnimodularTuple.from_phases(sorted(etas)).values
    base, degree = nodes[: n + 1], p - n - 1
    for x in nodes[n + 1 :]:
        subset = base + (x,)
        gap = max(abs(a - b) for a, b in combinations(subset, 2))
        if gap * abs(complete_homogeneous(degree, subset)) > discriminant_tol:
            return n + 2
    return n + 1


@dataclass(frozen=True)
class FiberPartition:
    """Folded fibers keyed by representative xi, with their class indices."""

    fibers: dict
    classes: dict

    def class_counts(self) -> dict:
        counts: dict[int, int] = {}
        for cls in self.classes.values():
            counts[cls] = counts.get(cls, 0) + 1
        return counts


def partition(
    lam: LambdaSet, n: int, p: int, *, discriminant_tol: float = TOL.discriminant
) -> FiberPartition:
    """Classify every fiber of the folded set; fibers partition its points."""
    points = fold_periodic(lam).points
    fibers: dict[float, tuple[float, ...]] = {}
    classes: dict[float, int] = {}
    for group in _cluster_xis([x for x, _ in points]):
        rep = points[group[0]][0]
        etas = tuple(sorted(points[i][1] for i in group))
        fibers[rep] = etas
        classes[rep] = classify_fiber(etas, n, p, discriminant_tol=discriminant_tol)
    return FiberPartition(fibers, classes)
