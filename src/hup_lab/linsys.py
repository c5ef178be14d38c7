"""Power-node linear systems, triangular reduction, and the pair discriminant.

The central matrix here has rows indexed by nodes ``b_i`` and columns that
are plain powers: columns ``0..n`` hold ``b_i^j`` and a final column holds
``b_i^p`` for some ``p >= n + 1``.  Everything in this module works over
complex nodes; the uniqueness-pair applications feed in unimodular ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .config import TOL
from .errors import IllConditionedError
from .sympoly import UnimodularTuple, _coerce, _power_contract
from .sympoly import elementary_symmetric, h_difference

__all__ = [
    "PowerSystem",
    "PowerSolution",
    "Reduction",
    "vandermonde_det",
    "solve_power_system",
    "canonical_coefficients",
    "power_column_matrix",
    "triangularize_power_system",
    "final_pivot_formula",
    "hup_discriminant",
]


def _require_distinct(nodes) -> float:
    """The smallest pairwise node gap; refuses gaps below ``TOL.node_gap``."""
    gap = UnimodularTuple(nodes).min_gap()
    if gap < TOL.node_gap:
        raise IllConditionedError(
            f"nodes are not reliably distinct (min gap {gap:.3e} < {TOL.node_gap:.1e})",
            min_gap=gap,
        )
    return gap


def vandermonde_det(nodes) -> complex:
    """Determinant of the square Vandermonde matrix on ``nodes``.

    Computed as the closed-form product over index pairs
    ``prod_{i<j} (a_j - a_i)``; empty and single-node inputs give 1.
    """
    pairs = combinations(_coerce(nodes), 2)
    return math.prod((b - a for a, b in pairs), start=1 + 0j)


def _powers(nodes, powers) -> np.ndarray:
    """The matrix ``nodes[i] ** powers[j]``."""
    a = np.asarray(nodes, dtype=complex)
    return a[:, None] ** np.asarray(powers, dtype=int)[None, :]


@dataclass(frozen=True)
class PowerSystem:
    """Linear system whose matrix columns are node powers.

    Row ``i``, column ``j`` of the matrix is ``nodes[i] ** column_powers[j]``
    and the right-hand side is ``-(nodes[i] ** target_power)``.
    """

    nodes: tuple[complex, ...]
    column_powers: tuple[int, ...]
    target_power: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", _coerce(self.nodes))
        powers = tuple(int(p) for p in self.column_powers)
        object.__setattr__(self, "column_powers", powers)
        object.__setattr__(self, "target_power", int(self.target_power))
        if any(p < 0 for p in powers):
            raise ValueError("column powers must be non-negative")
        if any(a >= b for a, b in zip(powers, powers[1:])):
            raise ValueError("column powers must be strictly increasing")
        if self.target_power in powers:
            raise ValueError("target power must not be one of the column powers")

    @classmethod
    def canonical(cls, nodes) -> "PowerSystem":
        """Columns ``0..m-1`` with target ``m`` for ``m`` nodes."""
        vals = _coerce(nodes)
        m = len(vals)
        return cls(vals, tuple(range(m)), m)

    def matrix(self) -> np.ndarray:
        return _powers(self.nodes, self.column_powers)

    def rhs(self) -> np.ndarray:
        return -_powers(self.nodes, (self.target_power,))[:, 0]


@dataclass(frozen=True)
class PowerSolution:
    """Solution coefficients plus the maximum equation defect."""

    coefficients: tuple[complex, ...]
    residual: float


def solve_power_system(system: PowerSystem) -> PowerSolution:
    """Solve a square power system by dense LU with partial pivoting.

    Raises ``IllConditionedError`` (carrying the offending minimum gap)
    when two nodes are closer than ``TOL.node_gap``.
    """
    m = len(system.nodes)
    if len(system.column_powers) != m:
        raise ValueError("system must be square: one column power per node")
    if m == 0:
        raise ValueError("system must have at least one node")
    _require_distinct(system.nodes)
    a = system.matrix()
    b = system.rhs()
    x = np.linalg.solve(a, b)
    residual = float(np.max(np.abs(a @ x - b)))
    return PowerSolution(tuple(complex(v) for v in x), residual)


def canonical_coefficients(nodes) -> tuple[complex, ...]:
    """Closed-form solution of the canonical system on ``m`` distinct nodes.

    The canonical system states that the monic polynomial with the nodes
    as roots has the unknowns as lower coefficients, so coefficient ``k``
    equals ``(-1)**(m-k) * e_{m-k}(nodes)``.
    """
    vals = _coerce(nodes)
    m = len(vals)
    return tuple(
        ((-1) ** (m - k)) * elementary_symmetric(m - k, vals) for k in range(m)
    )


def power_column_matrix(betas, n: int, p: int) -> np.ndarray:
    """The ``(n+2) x (n+2)`` matrix with power columns ``0..n`` and ``p``."""
    vals = _coerce(betas)
    _power_contract(n, p, len(vals))
    return _powers(vals, (*range(n + 1), p))


@dataclass(frozen=True)
class Reduction:
    """Upper-triangular form of a power-column matrix with its pivots."""

    matrix: np.ndarray
    pivots: tuple[complex, ...]

    def pivot_product(self) -> complex:
        return math.prod(self.pivots, start=1 + 0j)


def triangularize_power_system(betas, n: int, p: int) -> Reduction:
    """Reduce the power-column matrix to upper-triangular form.

    The chain subtracts, at stage ``s``, the multiple ``M[i,s]/M[s,s]`` of
    row ``s`` from every row below it.  No row is ever swapped or scaled,
    so the product of the resulting pivots equals the determinant of the
    original matrix, and pivot ``i`` is the ratio of consecutive leading
    principal minors (a Vandermonde ratio for ``i <= n``).
    """
    vals = _coerce(betas)
    gap = _require_distinct(vals)
    u = power_column_matrix(vals, n, p).copy()
    m = n + 2
    for s in range(m - 1):
        piv = u[s, s]
        if piv == 0:
            # cannot happen for distinct nodes; the pivot is a product of gaps
            raise IllConditionedError("zero pivot during reduction", min_gap=gap)
        mult = u[s + 1 :, s] / piv
        u[s + 1 :, s:] -= np.outer(mult, u[s, s:])
        u[s + 1 :, s] = 0.0
    return Reduction(u, tuple(complex(v) for v in np.diag(u)))


def final_pivot_formula(betas, n: int, p: int) -> complex:
    """Closed form of the last pivot of ``triangularize_power_system``.

    Equals ``(h_{p-n}(b_0..b_{n-1}, b_{n+1}) - h_{p-n}(b_0..b_n))
    * prod_{j<n} (b_{n+1} - b_j)``.  The difference is oriented so the
    formula matches the reduced matrix entry produced by the subtraction
    chain above (equivalently, ``det / vandermonde_det(b_0..b_n)``);
    only the orientation, never the magnitude, is convention-dependent.
    """
    vals = _coerce(betas)
    _power_contract(n, p, len(vals))
    prod = math.prod((vals[n + 1] - b for b in vals[:n]), start=1 + 0j)
    return h_difference(p - n, vals[:n], vals[n + 1], vals[n]) * prod


def hup_discriminant(etas: Sequence[float], n: int, p: int) -> float:
    """Modulus of the h-difference deciding the top partition class.

    For phases ``etas`` of length ``n + 2`` and ``a_j = exp(i*pi*eta_j)``
    this is ``|h_{p-n}(a_0..a_n) - h_{p-n}(a_0..a_{n-1}, a_{n+1})|``.
    Symmetric in the first ``n`` phases and in swapping the last two.
    """
    etas = tuple(float(e) for e in etas)
    _power_contract(n, p, len(etas), "phases")
    a = UnimodularTuple.from_phases(etas).values
    return abs(h_difference(p - n, a[:n], a[n], a[n + 1]))
