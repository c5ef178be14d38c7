"""Shared oracles for derived-value tests.

Everything here is deliberately naive: monomial enumeration, plain
adaptive quadrature, uncapped subset search.  The point is independence
from the library's recursions and panel rules, so the two can disagree.
"""

import cmath
import math
from itertools import combinations, combinations_with_replacement

import numpy as np
from scipy.integrate import quad


def h_brute(k, xs):
    """Complete homogeneous polynomial as an explicit monomial sum."""
    xs = tuple(xs)
    if k == 0:
        return 1 + 0j
    total = 0j
    for combo in combinations_with_replacement(xs, k):
        term = 1 + 0j
        for v in combo:
            term *= v
        total += term
    return total


def e_brute(k, xs):
    """Elementary symmetric polynomial as an explicit product sum."""
    xs = tuple(xs)
    if k == 0:
        return 1 + 0j
    total = 0j
    for combo in combinations(xs, k):
        term = 1 + 0j
        for v in combo:
            term *= v
        total += term
    return total


def density_bounds(density, pad=8.0):
    """Window outside which every atom of the mixture is negligible."""
    lo = math.inf
    hi = -math.inf
    for atom in density.atoms:
        if atom.kind == "box":
            a, b = atom.center - atom.width / 2.0, atom.center + atom.width / 2.0
        elif atom.kind == "triangle":
            a, b = atom.center - atom.width, atom.center + atom.width
        else:  # gaussian decay: exp(-pi*pad^2) below any tolerance used here
            a, b = atom.center - pad * atom.width, atom.center + pad * atom.width
        lo = min(lo, a)
        hi = max(hi, b)
    return lo, hi


def ft_quad(f, xi, lo=-30.0, hi=30.0, breakpoints=()):
    """Adaptive-quadrature transform oracle, kernel exp(-i*pi*x*xi)."""

    def real_part(x):
        return (complex(f(x)) * cmath.exp(-1j * math.pi * x * xi)).real

    def imag_part(x):
        return (complex(f(x)) * cmath.exp(-1j * math.pi * x * xi)).imag

    pts = sorted(float(b) for b in breakpoints if lo < b < hi)
    kwargs = {"limit": 800, "epsabs": 1e-12, "epsrel": 1e-12}
    if pts:
        kwargs["points"] = pts
    re_val, _ = quad(real_part, lo, hi, **kwargs)
    im_val, _ = quad(imag_part, lo, hi, **kwargs)
    return complex(re_val, im_val)


def curve_ft_quad(f, x, y, lo, hi, breakpoints=()):
    """Adaptive-quadrature oracle for the curve transform of ``f`` on
    [lo, hi], kernel exp(-i*pi*(x*t + y*exp(t**2)))."""

    def integrand(t):
        return complex(f(t)) * cmath.exp(-1j * math.pi * (x * t + y * math.exp(t * t)))

    pts = sorted(float(b) for b in breakpoints if lo < b < hi)
    kwargs = {"limit": 800, "epsabs": 1e-12, "epsrel": 1e-12}
    if pts:
        kwargs["points"] = pts
    re_val, _ = quad(lambda t: integrand(t).real, lo, hi, **kwargs)
    im_val, _ = quad(lambda t: integrand(t).imag, lo, hi, **kwargs)
    return complex(re_val, im_val)


def reference_fold(points, tol=1e-9):
    """Fold eta mod 2 and drop pairwise duplicates, first occurrence wins."""
    folded = []
    for x, e in points:
        e2 = math.fmod(float(e), 2.0)
        if e2 < 0.0:
            e2 += 2.0
        if e2 >= 2.0:
            e2 -= 2.0
        folded.append((float(x), e2))
    kept = []
    for q in folded:
        duplicate = False
        for r in kept:
            if abs(q[0] - r[0]) <= tol:
                de = abs(q[1] - r[1])
                if de <= tol or abs(de - 2.0) <= tol:
                    duplicate = True
                    break
        if not duplicate:
            kept.append(q)
    return kept


def reference_classify(etas, n, p, tol=1e-9):
    """Uncapped subset search with brute-force h evaluation."""
    m = len(etas)
    if m == 0:
        raise ValueError("empty fiber")
    if m <= n:
        return m
    if m >= p + 1:
        return n + 2
    pts = [cmath.exp(1j * math.pi * float(e)) for e in etas]
    for subset in combinations(range(m), n + 2):
        for pair in combinations(subset, 2):
            prefix = [pts[i] for i in subset if i not in pair]
            lhs = h_brute(p - n, prefix + [pts[pair[0]]])
            rhs = h_brute(p - n, prefix + [pts[pair[1]]])
            if abs(lhs - rhs) > tol:
                return n + 2
    return n + 1


def reference_partition(points, n, p, tol=1e-9):
    """Map representative xi -> class index, coded without the library."""
    kept = sorted(reference_fold(points, tol))
    groups = []
    for q in kept:
        if groups and q[0] - groups[-1][-1][0] <= tol:
            groups[-1].append(q)
        else:
            groups.append([q])
    out = {}
    for group in groups:
        etas = sorted(e for _, e in group)
        out[group[0][0]] = reference_classify(etas, n, p, tol)
    return out


def random_unimodular_phases(rng, size, min_gap=0.05):
    """Phases in [0, 2) whose unit-circle images are well separated."""
    while True:
        phases = np.sort(rng.uniform(0.0, 2.0, size=size))
        pts = np.exp(1j * np.pi * phases)
        if size < 2:
            return phases
        gaps = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= min_gap:
            return phases
