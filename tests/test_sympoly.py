import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hup_lab import (
    UnimodularTuple,
    complete_homogeneous,
    elementary_symmetric,
    h_difference,
    h_difference_residual,
)

from conftest import e_brute, h_brute

phases = st.floats(min_value=0.0, max_value=2.0, exclude_max=True)


def test_h_degree_zero_is_one():
    assert complete_homogeneous(0, ()) == 1
    assert complete_homogeneous(0, (2.0, 3.0)) == 1


def test_h_empty_tuple_positive_degree_is_zero():
    assert complete_homogeneous(3, ()) == 0


def test_h_small_examples():
    assert complete_homogeneous(2, (1.0, 1.0)) == pytest.approx(3.0)
    # monomials 4 + 6 + 9
    assert complete_homogeneous(2, (2.0, 3.0)) == pytest.approx(19.0)


def test_h_rejects_negative_degree():
    with pytest.raises(ValueError):
        complete_homogeneous(-1, (1.0,))


def test_e_small_examples():
    assert elementary_symmetric(0, ()) == 1
    assert elementary_symmetric(2, (1.0, 2.0, 3.0)) == pytest.approx(11.0)
    assert elementary_symmetric(4, (1.0, 2.0, 3.0)) == 0


def test_e_rejects_negative_degree():
    with pytest.raises(ValueError):
        elementary_symmetric(-2, ())


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_h_matches_monomial_enumeration(k, s):
    rng = np.random.default_rng(100 * k + s)
    xs = tuple(rng.normal(size=s) + 1j * rng.normal(size=s))
    got = complete_homogeneous(k, xs)
    want = h_brute(k, xs)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_e_matches_subset_enumeration(k, s):
    rng = np.random.default_rng(7000 + 100 * k + s)
    xs = tuple(rng.normal(size=s) + 1j * rng.normal(size=s))
    assert elementary_symmetric(k, xs) == pytest.approx(
        e_brute(k, xs), rel=1e-12, abs=1e-12
    )


def test_difference_identity_hand_example():
    # h_2(1,2) - h_2(1,3) = 7 - 13; (2-3) * h_1(1,2,3) = -6
    assert h_difference_residual(2, (1.0,), 2.0, 3.0) == pytest.approx(0.0, abs=1e-12)


def test_h_difference_hand_example_and_orientation():
    # h_2(1,2) - h_2(1,3) = 7 - 13, with the x argument first
    assert h_difference(2, (1.0,), 2.0, 3.0) == -6
    assert h_difference(2, (1.0,), 3.0, 2.0) == 6
    assert h_difference(3, (), 1j, 1j) == 0


@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("s", [0, 1, 3])
def test_h_difference_matches_monomial_enumeration(k, s):
    rng = np.random.default_rng(9000 + 10 * k + s)
    xbar = tuple(rng.normal(size=s) + 1j * rng.normal(size=s))
    x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
    want = h_brute(k, xbar + (x,)) - h_brute(k, xbar + (y,))
    assert h_difference(k, xbar, x, y) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_difference_identity_equal_points():
    assert h_difference_residual(4, (0.3 + 0.1j,), 1j, 1j) == 0


def test_difference_identity_degree_one_empty_prefix():
    assert h_difference_residual(1, (), 2.0, -1.0) == pytest.approx(0.0, abs=1e-15)


def test_difference_identity_requires_positive_degree():
    with pytest.raises(ValueError):
        h_difference_residual(0, (), 1.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(phases, min_size=0, max_size=6),
    phases,
    phases,
    st.integers(min_value=1, max_value=8),
)
def test_difference_identity_on_unimodular_inputs(bar_phases, px, py, k):
    xbar = UnimodularTuple.from_phases(bar_phases)
    x = cmath.exp(1j * cmath.pi * px)
    y = cmath.exp(1j * cmath.pi * py)
    assert abs(h_difference_residual(k, xbar, x, y)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(phases, min_size=1, max_size=6), st.integers(min_value=1, max_value=8))
def test_newton_duality(ph, k):
    xs = UnimodularTuple.from_phases(ph)
    acc = 0j
    for i in range(k + 1):
        acc += (-1) ** i * elementary_symmetric(i, xs) * complete_homogeneous(
            k - i, xs
        )
    assert abs(acc) <= 1e-11


def test_generating_function_truncation():
    rng = np.random.default_rng(42)
    t = 0.3
    for _ in range(50):
        s = int(rng.integers(1, 7))
        xs = 0.5 * (rng.uniform(-1, 1, size=s) + 1j * rng.uniform(-1, 1, size=s))
        xs /= np.maximum(1.0, np.abs(xs) / 0.5)  # clamp into |x| <= 0.5
        series = sum(
            complete_homogeneous(k, tuple(xs)) * t**k for k in range(41)
        )
        product = np.prod(1.0 / (1.0 - xs * t))
        assert abs(series - product) <= 1e-10


def test_unimodular_tuple_from_phases():
    u = UnimodularTuple.from_phases([0.0, 0.5, 1.0])
    assert u.values == (1 + 0j, pytest.approx(1j), pytest.approx(-1 + 0j))
    assert all(abs(abs(v) - 1.0) <= 1e-12 for v in u)


def test_unimodular_tuple_min_gap():
    assert UnimodularTuple.from_phases([0.3]).min_gap() == float("inf")
    assert UnimodularTuple.from_phases([0.3, 0.3]).min_gap() == pytest.approx(0.0)
    u = UnimodularTuple.from_phases([0.0, 1.0])
    assert u.min_gap() == pytest.approx(2.0)


def test_h_accepts_unimodular_tuple_directly():
    u = UnimodularTuple.from_phases([0.25, 0.75, 1.25])
    assert complete_homogeneous(3, u) == pytest.approx(h_brute(3, u.values))

