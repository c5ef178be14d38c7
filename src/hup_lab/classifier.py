"""Partition of a determining set into uniqueness classes, fiber by fiber.

A candidate set is a collection of points ``(xi, eta)``.  Because every
transform in this package is 2-periodic in ``eta`` when line heights are
integers, the set is first folded into ``eta in [0, 2)``.  Points sharing
(within tolerance) the same ``xi`` form a fiber; one pass folds, groups
and merges them, and :func:`fold_periodic`, :func:`fiber` and
:func:`partition` all read it.  Each fiber is graded by how much of the
power system its phases can pin down:

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
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
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


def _fibers(lam: LambdaSet) -> list[tuple[float, tuple[float, ...]]]:
    """``(smallest xi, merged folded phases)`` per fiber, in ascending xi: a
    point within ``TOL.merge`` of the previous xi (ties in input order)
    joins its fiber, so a fiber can chain wider than ``TOL.merge``."""
    fibers: list[tuple[float, list[float]]] = []
    for x, e in sorted(lam.points, key=itemgetter(0)):
        if not fibers or x - last > TOL.merge:
            fibers.append((x, []))
        fibers[-1][1].append(_fold_eta(e))
        last = x
    return [(xi, tuple(_merged(etas))) for xi, etas in fibers]


def fold_periodic(lam: LambdaSet) -> LambdaSet:
    """Reduce eta mod 2 into [0, 2) and merge duplicates, fiber by fiber.

    Each point moves to its fiber's ``xi``; phases within ``TOL.merge`` of
    each other there merge, including the wrap-around pair ``eta ~ 0`` vs
    ``eta ~ 2``.  The first representative in sorted order is kept.
    """
    return LambdaSet(tuple((xi, e) for xi, etas in _fibers(lam) for e in etas))


def fiber(lam: LambdaSet, xi: float) -> tuple[float, ...]:
    """Sorted distinct phases of the fiber of the folded set keyed nearest
    ``xi``, within ``TOL.merge`` of it (on a tie, the smaller key); empty
    when no fiber is that near."""
    xi = float(xi)
    near = [(abs(x - xi), etas) for x, etas in _fibers(lam) if abs(x - xi) <= TOL.merge]
    return min(near, key=itemgetter(0))[1] if near else ()


def classify_fiber(etas: Sequence[float], n: int, p: int) -> int:
    """Class index in ``1..n+2`` of one fiber's phase set.

    ``etas`` must be finite and distinct mod 2 by more than ``TOL.merge``,
    as :func:`fold_periodic` leaves them; repeated phases are refused.
    With ``P`` the first ``n + 1`` sorted phases, the fiber is class
    ``n + 2`` as soon as some other phase ``x`` gives ``S = P + {x}`` with
    ``max |a - b| * |h_{p-n-1}(S)|`` above ``TOL.discriminant``, and class
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
        if gap * abs(complete_homogeneous(degree, subset)) > TOL.discriminant:
            return n + 2
    return n + 1


@dataclass(frozen=True)
class FiberPartition:
    """Folded fibers keyed by representative xi, with their class indices."""

    fibers: dict
    classes: dict

    def class_counts(self) -> dict:
        return Counter(self.classes.values())


def partition(lam: LambdaSet, n: int, p: int) -> FiberPartition:
    """Classify every fiber of the folded set; fibers partition its points."""
    _power_contract(n, p)
    fibers = dict(_fibers(lam))
    classes = {xi: classify_fiber(etas, n, p) for xi, etas in fibers.items()}
    return FiberPartition(fibers, classes)
