"""Exact vectorized ``%.17g`` for float64 arrays.

``fields(values)`` returns one row of ``WIDTH`` ASCII bytes per value that,
with its NUL bytes dropped, is ``('%.17g' % v).encode()``.  A row may hold
NULs between its characters as well as after them.

The 17 digits are ``N = round(|v| * 10**(16 - X))``, where ``X`` is the
decimal exponent, ``10**X <= |v| < 10**(X + 1)``.  ``np.log10`` only
estimates ``X``, since its last bit may differ between SIMD paths; an exact
comparison with the least double at or above each ``10**k``, taken from a
double-double table of ``10**k`` built from Python ints, corrects it.  The
product is a Dekker two-product plus the table's low part, within 2**-46 of
one unit of ``N``.  Python's ``%`` formats every value whose scaled fraction
is within 2**-40 of one half, the only place where a tie, or a product too
close to a tie to round, can fall; every non-finite value; and every nonzero
value outside [1e-280, 1e280].
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["WIDTH", "fields"]

WIDTH = 24  # '-' + 'd.' + 16 digits + 'e-308'
_LO, _HI = 1e-280, 1e280  # beyond, a split may overflow or a low part be subnormal
_TIE_BAND = 2.0**-40
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_POW = 300  # the table holds 10**k for |k| <= _POW

# The source bytes of one value, from which a layout picks its field: NUL,
# the sign ('-' or NUL), '.', the 17 digits (the last 16 are uint32 words
# 1..4), the exponent's sign and three digits (word 5), 'e' and '0'.
_NUL, _SIGN, _DOT, _DIGIT0, _EXP_SIGN, _E, _ZERO, _SOURCE = 0, 1, 2, 3, 20, 24, 25, 32
_CONSTANTS = np.zeros(_SOURCE, dtype=np.uint8)
_CONSTANTS[[_DOT, _E, _ZERO]] = list(b".e0")


def _split(x):
    """Dekker's split of ``x`` into two halves of at most 26 bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _layouts() -> np.ndarray:
    """The source byte of each field byte, per layout class and digit count.

    Classes 0..20 are fixed notation with ``X = class - 4``; 21 and 22 are
    exponent notation with two and three exponent digits.  Each class lays
    out all 17 digits.  A digit of rank ``j``, and the point of rank ``j``,
    show only when ``j`` is below the count of digits kept: the ``k`` digits
    that are left without trailing zeros, but never fewer than the integer
    digits.  The rest of the field is the NUL source byte.
    """
    base = np.zeros((23, WIDTH), dtype=np.intp)
    rank = np.full((23, WIDTH), -1)
    digits = [(_DIGIT0 + j, j) for j in range(17)]
    for c in range(23):
        x = c - 4
        if c < 4:  # 0.000ddd
            slots = [(_ZERO, -1), (_DOT, -1)] + [(_ZERO, -1)] * (-x - 1) + digits
        elif c < 21:  # ddd.ddd, the point after the x + 1 integer digits
            slots = digits[:x + 1] + [(_DOT, x + 1)] + digits[x + 1:]
        else:  # d.ddde+XX
            slots = digits[:1] + [(_DOT, 1)] + digits[1:] + [(_E, -1), (_EXP_SIGN, -1)]
            slots += [(s, -1) for s in range(_EXP_SIGN + 1 + (c == 21), _EXP_SIGN + 4)]
        base[c, :len(slots) + 1], rank[c, :len(slots) + 1] = zip((_SIGN, -1), *slots)
    integer = np.clip(np.arange(23) - 3, 0, 17 * (np.arange(23) < 21))
    kept = np.maximum(np.arange(1, 18), integer[:, None])
    keep = rank[:, None, :] < kept[:, :, None]
    return np.where(keep, base[:, None, :], _NUL).reshape(23 * 17, WIDTH)


@functools.cache
def _tables() -> SimpleNamespace:
    """The read-only tables, built on first use in about a millisecond.

    ``ceil`` is the least double at or above ``10**k``, and ``scale`` holds
    the rows ``hi``, ``hi``'s two halves and ``lo`` of ``10**k`` as a
    double-double, both at ``k + _POW``; ``exponents`` is the sign and
    three digits of ``k`` as one uint32, and ``forms`` is 17 times the
    layout class of ``k``.  ``quads`` holds the four ASCII digits of
    0..9999 as one uint32, and ``trailing`` their trailing zeros.
    ``layouts`` maps each field byte to its source byte, at row
    ``17 * class + k - 1``.
    """
    powers = [1]  # 10**j for j = 0.._POW, as Python ints
    for _ in range(_POW):
        powers.append(10 * powers[-1])
    hi, lo = [], []
    for p in reversed(powers[1:]):  # 10**-j: 1 / p and its rest, each rounded once
        hi.append(1 / p)
        num, den = hi[-1].as_integer_ratio()
        lo.append((den - num * p) / (den * p))
    for p in powers:
        hi.append(float(p))
        lo.append(float(p - int(hi[-1])))
    hi, lo = np.array(hi), np.array(lo)
    ceil = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    scale = np.stack((hi, *_split(hi), lo), axis=1)

    # 0..9999 as four digits, one axis per digit
    ascii4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    trailing = np.zeros((10, 10, 10, 10), dtype=np.intp)
    for place in range(4):
        ascii4[..., place] = np.arange(48, 58).reshape((10,) + (1,) * (3 - place))
        trailing[(...,) + (0,) * (place + 1)] += 1  # the last place + 1 digits are 0
    quads = ascii4.reshape(10000, 4).view(np.uint32).ravel()
    trailing = trailing.ravel()

    k = np.arange(-_POW, _POW + 1)
    e = np.abs(k)
    chars = (np.where(k < 0, 45, 43), e // 100 + 48, e // 10 % 10 + 48, e % 10 + 48)
    exponents = np.stack(chars, axis=1).astype(np.uint8).view(np.uint32).ravel()
    fixed = (k >= -4) & (k < 17)
    forms = 17 * np.where(fixed, k + 4, 21 + (e >= 100))

    tables = SimpleNamespace(
        ceil=ceil, scale=scale, quads=quads, trailing=trailing,
        exponents=exponents, forms=forms, layouts=_layouts(),
    )
    for a in vars(tables).values():
        a.flags.writeable = False
    return tables


def _sources(t: SimpleNamespace, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per value its ``_SOURCE`` source bytes, its layout row, and whether
    Python's ``%`` must format it instead."""
    a = np.abs(v)
    exact = (a >= _LO) & (a <= _HI)  # False on 0, NaN and inf
    a = np.where(exact, a, 1.0)  # no log10 warning; zeros print 0, the rest fall back

    # x: the decimal exponent plus _POW, estimated, then exact
    x = np.floor(np.log10(a)).astype(np.intp) + _POW
    x -= a < t.ceil.take(x)
    x += a >= t.ceil.take(x + 1)

    hi, hh, hl, lo = t.scale.take(16 + 2 * _POW - x, axis=0).T  # 10**(16 - X)
    p = a * hi  # an integer, as p >= 2**53
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a * hi - p, exactly
    tail = err + a * lo  # a * 10**(16 - X) - p, within 2**-46
    fall = np.abs(tail - np.floor(tail) - 0.5) < _TIE_BAND
    fall |= ~exact & (v != 0)
    n = p.astype(np.int64) + np.floor(tail + 0.5).astype(np.int64)
    n *= exact  # zero prints "0"
    carry = n == 10**17
    n[carry] = 10**16
    x += carry

    src = np.empty((len(v), _SOURCE), dtype=np.uint8)
    src[:] = _CONSTANTS
    src[:, _SIGN] = np.signbit(v) * ord("-")
    high = n // 10**8
    low = n - high * 10**8
    top = high // 10**4
    d0 = top // 10**4
    g3 = low // 10**4
    src[:, _DIGIT0] = d0 + ord("0")
    words = src.view(np.uint32)  # the digits after the first are words 1..4
    zeros = np.zeros(len(v), dtype=np.intp)  # trailing, of all 17 digits
    groups = (top - d0 * 10**4, high - top * 10**4, g3, low - g3 * 10**4)
    for i, g in enumerate(groups, start=1):
        words[:, i] = t.quads.take(g)
        zeros = t.trailing.take(g) + (g == 0) * zeros
    words[:, _EXP_SIGN // 4] = t.exponents.take(x)
    return src, t.forms.take(x) + 16 - zeros, fall  # 17 * class + k - 1


def fields(values: np.ndarray) -> np.ndarray:
    """``(len(values), WIDTH)`` uint8: each row is ``'%.17g' % v`` in ASCII,
    padded with NULs that may also sit between its characters."""
    t = _tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    src, layout, fall = _sources(t, v)  # its temporaries are freed here
    index = t.layouts.take(layout, axis=0)
    index += np.arange(0, len(v) * _SOURCE, _SOURCE)[:, None]
    out = src.ravel().take(index, mode="clip")
    for i in np.flatnonzero(fall):
        text = b"%.17g" % v[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out
