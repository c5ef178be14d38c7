"""The vectorized ``%.17g`` of the grid CSV against Python's, value by value."""

import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hup_lab._decimal import WIDTH, fields


def formatted(values) -> list[bytes]:
    """Each field of ``fields`` with its NUL padding dropped."""
    out = fields(np.asarray(values, dtype=np.float64))
    assert out.shape == (len(values), WIDTH) and out.dtype == np.uint8
    return [row[row != 0].tobytes() for row in out]


def python_g(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


doubles = st.floats(allow_nan=True, allow_infinity=True) | st.integers(
    min_value=0, max_value=2**64 - 1
).map(bits_to_float)


@settings(max_examples=200, deadline=None)
@given(st.lists(doubles, min_size=1, max_size=40))
def test_fields_are_python_percent_17g(values):
    assert formatted(values) == python_g(values)


POWERS = np.array([10.0**k for k in range(-300, 301)])

PINNED = {
    "signed_zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, bits_to_float(0x000FFFFFFFFFFFFF)],
    "extremes": [1e308, -1e308, sys.float_info.max, sys.float_info.min],
    "non_finite": [np.inf, -np.inf, np.nan, -np.nan],
    "fixed_or_exponent": [1e-5, 1e-4, 1e16, 1e17, -1e-5, -1e-4, -1e16, -1e17],
    # 17 digits and a tie in the 18th, rounded half to even
    "ties": [1234567890123456.75, 1234567890123456.25, -1234567890123456.25],
    # where the estimated exponent, or a carry to 10**17, can be off by one
    "powers_of_ten": POWERS,
    "an_ulp_below": np.nextafter(POWERS, 0.0),
    "an_ulp_above": np.nextafter(POWERS, np.inf),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_values(name):
    assert formatted(PINNED[name]) == python_g(PINNED[name])


def test_no_floating_point_warning():
    # NaN, inf, zero and subnormals are masked before log10 and the product
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 2**64, size=4096, dtype=np.uint64).view(np.float64)
    values = np.concatenate([raw, *(np.asarray(v, dtype=float) for v in PINNED.values())])
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        assert formatted(values) == python_g(values)
