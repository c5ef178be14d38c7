"""Complete homogeneous and elementary symmetric polynomials.

Both families are evaluated through their one-variable-at-a-time
recursions, so a value of degree ``k`` in ``s`` variables costs O(k*s)
arithmetic operations.  No symbolic expansion is ever built.

Conventions (fixed so degenerate inputs never crash callers):

* ``h_0 = e_0 = 1`` for every argument tuple, including the empty one,
* ``h_k(()) = e_k(()) = 0`` for ``k > 0``,
* ``e_k(xs) = 0`` whenever ``k > len(xs)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

__all__ = [
    "UnimodularTuple",
    "complete_homogeneous",
    "elementary_symmetric",
    "h_difference",
    "h_difference_residual",
]


@dataclass(frozen=True)
class UnimodularTuple:
    """Ordered tuple of complex points meant to lie on the unit circle.

    Duplicates are permitted; distinctness is a query (`min_gap`), not an
    invariant, because downstream solvers decide their own gap policy.
    """

    values: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _coerce(self.values))

    @classmethod
    def from_phases(cls, etas: Iterable[float]) -> "UnimodularTuple":
        """Build ``a_j = exp(i*pi*eta_j)`` from real phase parameters.

        A non-finite phase is refused by name.  Every finite one lands
        within two ulps of the unit circle, or past about 5.7e307 makes
        ``cmath.exp`` raise ``ValueError``.
        """
        etas = tuple(float(e) for e in etas)
        for e in etas:
            if not math.isfinite(e):
                raise ValueError(f"phase {e!r} is not finite")
        return cls(tuple(cmath.exp(1j * math.pi * e) for e in etas))

    def min_gap(self) -> float:
        """Smallest pairwise distance; ``inf`` for fewer than two points."""
        return min(
            (abs(a - b) for a, b in combinations(self.values, 2)), default=math.inf
        )

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _coerce(xs) -> tuple[complex, ...]:
    if isinstance(xs, UnimodularTuple):
        return xs.values
    return tuple(complex(x) for x in xs)


def _power_contract(n: int, p: int, count: int | None = None, items: str = "nodes"):
    """Refuse ``n < 0``, ``p < n + 1`` and a given ``count`` other than ``n + 2``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if p < n + 1:
        raise ValueError("the trailing power must satisfy p >= n + 1")
    if count is not None and count != n + 2:
        raise ValueError(f"need exactly n + 2 {items}")


def complete_homogeneous(k: int, xs: Sequence[complex] | UnimodularTuple) -> complex:
    """Complete homogeneous symmetric polynomial ``h_k`` of ``xs``.

    Evaluated with the recursion ``h_k(x_1..x_s) = h_k(x_1..x_{s-1})
    + x_s * h_{k-1}(x_1..x_s)`` on a rolling degree table.
    """
    if k < 0:
        raise ValueError("degree k must be non-negative")
    table = [0j] * (k + 1)
    table[0] = 1 + 0j
    for x in _coerce(xs):
        for kk in range(1, k + 1):
            # table[kk-1] already holds h_{kk-1} including x, as required
            table[kk] += x * table[kk - 1]
    return table[k]


def elementary_symmetric(k: int, xs: Sequence[complex] | UnimodularTuple) -> complex:
    """Elementary symmetric polynomial ``e_k`` of ``xs``.

    Evaluated with ``e_k(x_1..x_s) = e_k(x_1..x_{s-1})
    + x_s * e_{k-1}(x_1..x_{s-1})``; the table is updated in decreasing
    degree so the previous variable count is read on the right-hand side.
    """
    if k < 0:
        raise ValueError("degree k must be non-negative")
    vals = _coerce(xs)
    if k > len(vals):
        return 0j
    table = [0j] * (k + 1)
    table[0] = 1 + 0j
    for j, x in enumerate(vals, start=1):
        for kk in range(min(j, k), 0, -1):
            table[kk] += x * table[kk - 1]
    return table[k]


def h_difference(
    k: int,
    xbar: Sequence[complex] | UnimodularTuple,
    x: complex,
    y: complex,
) -> complex:
    """The h-difference ``h_k(xbar, x) - h_k(xbar, y)`` of two phase tuples.

    Evaluated as two plain ``h_k`` calls rather than through the identity
    checked by `h_difference_residual`.  The last pivot of the reduction,
    the discriminant and that residual all go through this one kernel.
    """
    base = _coerce(xbar)
    return complete_homogeneous(k, base + (complex(x),)) - complete_homogeneous(
        k, base + (complex(y),)
    )


def h_difference_residual(
    k: int,
    xbar: Sequence[complex] | UnimodularTuple,
    x: complex,
    y: complex,
) -> complex:
    """Residual of ``h_k(xbar, x) - h_k(xbar, y) = (x - y) * h_{k-1}(xbar, x, y)``.

    Returns left side minus right side; the identity holds exactly, so the
    residual measures only floating-point noise.
    """
    if k < 1:
        raise ValueError("the difference identity needs k >= 1")
    base = _coerce(xbar)
    x = complex(x)
    y = complex(y)
    rhs = (x - y) * complete_homogeneous(k - 1, base + (x, y))
    return h_difference(k, base, x, y) - rhs
