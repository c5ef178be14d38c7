"""Partition of a determining set into uniqueness classes, fiber by fiber.

A candidate set is a collection of points ``(xi, eta)``.  Because every
transform in this package is 2-periodic in ``eta`` when line heights are
integers, the set is first folded into ``eta in [0, 2)``.  Points sharing
(within tolerance) the same ``xi`` form a fiber, and each fiber is graded
by how much of the power system its phases can pin down:

* ``m`` distinct phases with ``m <= n``          -> class ``m``
* at least ``n + 1`` phases, but every way of choosing ``n + 2`` of them
  leaves the deciding h-difference at zero        -> class ``n + 1``
* some choice of ``n + 2`` phases has a nonzero
  h-difference (see :func:`hup_lab.linsys.hup_discriminant`) -> class ``n + 2``

A fiber with at least ``p + 1`` distinct phases is class ``n + 2`` outright:
each value of ``a^p`` is shared by at most ``p - n`` suitable nodes, so a
discriminating choice always exists.

For an ``(n + 2)``-subset ``S = P + {x, y}`` the difference identity
``h_k(P, x) - h_k(P, y) = (x - y) * h_{k-1}(S)`` shows that which pair is
set apart only scales the h-difference by ``|x - y|``.  The search
therefore costs one ``h_{p-n-1}(S)`` per subset, weighed by the subset's
largest pairwise gap.  It honours a cap on the number of subsets
evaluated and refuses loudly beyond it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .config import SUBSET_CAP, TOL
from .errors import SubsetCapError
from .sympoly import complete_homogeneous

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
    """A finite set of candidate points; ``folded`` marks normalised eta."""

    points: tuple[tuple[float, float], ...]
    folded: bool = False

    def __post_init__(self):
        pts = tuple((float(x), float(e)) for x, e in self.points)
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


def fold_periodic(lam: LambdaSet) -> LambdaSet:
    """Reduce eta mod 2 into [0, 2) and merge coordinate-wise duplicates.

    Duplicates are points within ``TOL.merge`` in each coordinate after
    folding, including the wrap-around pair ``eta ~ 0`` vs ``eta ~ 2``.
    The first representative in sorted order is kept.
    """
    pts = [(x, _fold_eta(e)) for x, e in lam.points]
    if not pts:
        return LambdaSet((), folded=True)
    kept: list[tuple[float, float]] = []
    xs = [p[0] for p in pts]
    for group in _cluster_xis(xs):
        rep_xi = pts[group[0]][0]
        etas = sorted(pts[i][1] for i in group)
        dedup: list[float] = []
        for e in etas:
            if not dedup or e - dedup[-1] > TOL.merge:
                dedup.append(e)
        if len(dedup) > 1 and (dedup[0] + 2.0) - dedup[-1] <= TOL.merge:
            dedup.pop()  # top of the period wraps onto the bottom point
        kept.extend((rep_xi, e) for e in dedup)
    kept.sort()
    return LambdaSet(tuple(kept), folded=True)


def fiber(lam: LambdaSet, xi: float) -> tuple[float, ...]:
    """Sorted distinct eta values sitting over ``xi`` in a folded set."""
    if not lam.folded:
        raise ValueError("fold the set before taking fibers")
    xi = float(xi)
    return tuple(sorted(e for x, e in lam.points if abs(x - xi) <= TOL.merge))


def classify_fiber(
    etas: Sequence[float],
    n: int,
    p: int,
    *,
    discriminant_tol: float = TOL.discriminant,
    cap: int = SUBSET_CAP,
) -> int:
    """Class index in ``1..n+2`` of one fiber's phase set.

    ``etas`` are assumed distinct (use :func:`fold_periodic` first).  The
    top class is decided existentially: any ``(n + 2)``-subset ``S`` with
    ``max |a - b| * |h_{p-n-1}(S)|`` above ``discriminant_tol`` settles
    it, that product being the largest h-difference over the ways of
    setting one pair of ``S`` apart.  Raises ``SubsetCapError`` if that
    search would evaluate more than ``cap`` subsets.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if p < n + 1:
        raise ValueError("the trailing power must satisfy p >= n + 1")
    etas = tuple(float(e) for e in etas)
    if not etas:
        raise ValueError("fiber is empty")
    m = len(etas)
    if m <= n:
        return m
    if m >= p + 1:
        return n + 2
    points = tuple(cmath.exp(1j * math.pi * e) for e in etas)
    degree = p - n - 1
    for evaluated, subset in enumerate(combinations(points, n + 2), start=1):
        if evaluated > cap:
            raise SubsetCapError(
                f"classification needs more than {cap} (n+2)-subset evaluations"
            )
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
    """Classify every fiber of a folded set; fibers partition the points."""
    if not lam.folded:
        raise ValueError("fold the set before partitioning")
    xs = [x for x, _ in lam.points]
    fibers: dict[float, tuple[float, ...]] = {}
    classes: dict[float, int] = {}
    for group in _cluster_xis(xs):
        rep = lam.points[group[0]][0]
        etas = tuple(sorted(lam.points[i][1] for i in group))
        fibers[rep] = etas
        classes[rep] = classify_fiber(etas, n, p, discriminant_tol=discriminant_tol)
    return FiberPartition(fibers, classes)
