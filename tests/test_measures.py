import math

import numpy as np
import pytest

from hup_lab import (
    CrossMeasure,
    DegenerateWitnessError,
    Density,
    DensityAtom,
    LineMeasure,
    box,
    construct_consecutive_witness,
    construct_cross_diagonal_witness,
    cross_ft,
    gaussian,
    line_system_ft,
    odd_bump,
    odd_pair,
    translation_periodicity_residual,
    triangle,
    zero_density,
)
from hup_lab.measures import _ROWS, _ft_rows

from conftest import density_bounds, ft_quad

XI_PROBES = list(range(-5, 6))


def _mixture():
    return (
        gaussian(center=0.4, width=1.3, amplitude=0.8)
        + box(center=-1.0, width=2.0, amplitude=-0.5 + 0.25j)
        + triangle(center=2.0, width=1.5, amplitude=1.1)
        + odd_bump(center=-0.7, width=0.9, amplitude=0.6)
    )


@pytest.mark.parametrize(
    "density",
    [
        gaussian(),
        gaussian(center=1.5, width=0.7, amplitude=2.0 - 1.0j),
        box(),
        box(center=-0.8, width=1.7, amplitude=0.3j),
        triangle(),
        triangle(center=0.2, width=2.5, amplitude=-1.4),
        odd_bump(),
        odd_bump(center=1.1, width=0.6, amplitude=0.5 + 0.5j),
    ],
    ids=lambda d: d.atoms[0].kind + repr(d.atoms[0].center),
)
def test_closed_form_transform_matches_quadrature(density):
    lo, hi = density_bounds(density)
    for xi in XI_PROBES:
        want = ft_quad(
            density.value_at, xi, lo=lo, hi=hi, breakpoints=density.breakpoints()
        )
        assert complex(density.ft(xi)) == pytest.approx(want, abs=1e-9)


def test_mixture_transform_matches_quadrature():
    f = _mixture()
    lo, hi = density_bounds(f)
    for xi in (-3.5, 0.0, 2.25):
        want = ft_quad(f.value_at, xi, lo=lo, hi=hi, breakpoints=f.breakpoints())
        assert complex(f.ft(xi)) == pytest.approx(want, abs=1e-9)


def test_transform_at_zero_is_total_mass():
    assert complex(gaussian().ft(0.0)) == pytest.approx(1.0)
    assert complex(box(width=2.0, amplitude=1.5).ft(0.0)) == pytest.approx(3.0)
    assert complex(triangle(width=0.5).ft(0.0)) == pytest.approx(0.5)
    assert complex(odd_bump().ft(0.0)) == pytest.approx(0.0, abs=1e-15)


def test_odd_bump_transform_is_odd_and_imaginary():
    f = odd_bump()
    xs = np.linspace(-4.0, 4.0, 33)
    vals = f.ft(xs)
    assert np.max(np.abs(vals.real)) <= 1e-15
    assert np.max(np.abs(vals + f.ft(-xs))) <= 1e-15


def test_density_algebra():
    f = gaussian() - gaussian()
    xs = np.linspace(-2.0, 2.0, 11)
    assert np.max(np.abs(f.value_at(xs))) == 0.0
    g = odd_pair(triangle(center=1.0, width=0.5))
    assert np.max(np.abs(g.value_at(xs) + g.value_at(-xs))) <= 1e-15
    scaled = g.scaled(2.0 + 1.0j)
    assert complex(scaled.ft(1.2)) == pytest.approx((2.0 + 1.0j) * complex(g.ft(1.2)))
    assert zero_density().is_zero()
    assert not g.is_zero()


def test_support_intervals_and_breakpoints():
    f = box(center=0.0, width=2.0) + triangle(center=3.0, width=1.0)
    assert f.support_intervals() == ((-1.0, 1.0), (2.0, 4.0))
    merged = box(center=0.0, width=2.0) + box(center=1.0, width=2.0)
    assert merged.support_intervals() == ((-1.0, 2.0),)
    assert gaussian().support_intervals() is None
    assert 3.0 in triangle(center=3.0, width=1.0).breakpoints()
    # an atom's support runs from its first knot to its last
    for kind, knots, support in [
        ("gaussian", (), None),
        ("box", (0.5, 1.5), (0.5, 1.5)),
        ("triangle", (0.0, 1.0, 2.0), (0.0, 2.0)),
        ("odd_bump", (), None),
    ]:
        atom = DensityAtom(kind, 1.0, 1.0)
        assert (atom.breakpoints(), atom.support()) == (knots, support)


def test_line_measure_single_height_ignores_eta():
    m = LineMeasure((0.0,), (gaussian(),))
    v1 = line_system_ft(m, 1.3, 0.0)
    v2 = line_system_ft(m, 1.3, 1.77)
    assert complex(v1) == pytest.approx(complex(v2))


def test_line_measure_two_heights_cancel_at_odd_eta():
    g = gaussian()
    m = LineMeasure((0.0, 1.0), (g, g))
    xs = np.linspace(-6.0, 6.0, 41)
    assert np.max(np.abs(line_system_ft(m, xs, 1.0))) <= 1e-15


def test_line_measure_requires_increasing_heights():
    with pytest.raises(ValueError):
        LineMeasure((1.0, 0.0), (gaussian(), gaussian()))
    with pytest.raises(ValueError):
        LineMeasure((0.0, 1.0), (gaussian(),))


def test_three_height_witness_vanishes_at_first_two_integers():
    g = gaussian()
    m = LineMeasure((0.0, 1.0, 2.0), (-g, zero_density(), g))
    xs = np.linspace(-6.0, 6.0, 41)
    for eta in (0.0, 1.0):
        assert np.max(np.abs(line_system_ft(m, xs, eta))) <= 1e-15


def test_line_system_ft_two_periodic_for_integer_heights():
    m = LineMeasure((0.0, 2.0, 5.0), (gaussian(), triangle(), box()))
    rng = np.random.default_rng(1)
    for _ in range(20):
        xi = float(rng.uniform(-8, 8))
        eta = float(rng.uniform(-4, 4))
        a = complex(line_system_ft(m, xi, eta))
        b = complex(line_system_ft(m, xi, eta + 2.0))
        assert abs(a - b) <= 1e-12


def test_line_system_ft_is_linear_in_the_measure():
    h = (0.0, 1.0)
    m1 = LineMeasure(h, (gaussian(), triangle()))
    m2 = LineMeasure(h, (box(), odd_bump()))
    c = 0.7 - 0.2j
    summed = LineMeasure(
        h,
        tuple(a.scaled(c) + b for a, b in zip(m1.densities, m2.densities)),
    )
    rng = np.random.default_rng(2)
    for _ in range(10):
        xi = float(rng.uniform(-5, 5))
        eta = float(rng.uniform(0, 2))
        lhs = complex(line_system_ft(summed, xi, eta))
        rhs = c * complex(line_system_ft(m1, xi, eta)) + complex(
            line_system_ft(m2, xi, eta)
        )
        assert abs(lhs - rhs) <= 1e-12


def test_cross_ft_vanishes_on_diagonal_and_is_antisymmetric():
    m = CrossMeasure((gaussian(), triangle(center=0.5)))
    t = np.linspace(-7.0, 7.0, 101)
    assert np.max(np.abs(cross_ft(m, t, t))) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi = float(rng.uniform(-6, 6))
        eta = float(rng.uniform(-6, 6))
        assert complex(cross_ft(m, xi, eta)) == pytest.approx(
            -complex(cross_ft(m, eta, xi)), abs=1e-12
        )


def test_cross_ft_single_level_difference_form():
    m = CrossMeasure((gaussian(),))
    got = complex(cross_ft(m, 0.0, 2.0))
    want = complex(gaussian().ft(0.0)) - complex(gaussian().ft(2.0))
    assert got == pytest.approx(want)


def test_cross_ft_zero_densities_vanish_everywhere():
    m = CrossMeasure((zero_density(), zero_density()))
    t = np.linspace(-5.0, 5.0, 21)
    assert np.max(np.abs(cross_ft(m, t, t + 0.7))) == 0.0


def test_cross_witness_rejects_all_zero_densities():
    with pytest.raises(DegenerateWitnessError):
        construct_cross_diagonal_witness([zero_density(), zero_density()])


def test_cross_witness_off_diagonal_is_visible():
    m = construct_cross_diagonal_witness([gaussian()])
    t = np.linspace(-10.0, 10.0, 1001)
    assert np.max(np.abs(cross_ft(m, t, t + 1.0))) > 0.1


def test_cross_axis_witness_vanishes_on_xi_axis():
    f0 = odd_bump()
    m = construct_cross_diagonal_witness([f0, -f0])
    t = np.linspace(-10.0, 10.0, 1001)
    assert np.max(np.abs(cross_ft(m, t, 0.0))) <= 1e-12
    # still a visibly nonzero measure
    assert np.max(np.abs(cross_ft(m, t, 0.5))) > 1e-3


# Measures for the blocked grid rows: complex amplitudes, a zero middle
# density and non-integer line heights.
BLOCK_MEASURES = {
    "line": (
        line_system_ft,
        LineMeasure(
            (-0.7, 0.4, 1.9),
            (triangle(0.3, 0.8, 0.5 - 1.0j), zero_density(),
             box(-0.2, 1.1) + odd_bump(0.1, 0.6, -0.3j)),
        ),
    ),
    "cross": (
        cross_ft,
        construct_cross_diagonal_witness(
            [gaussian(0.5, 0.7, 0.3 - 1.2j), zero_density(), triangle(-0.4, 0.9, 1.0 + 0.25j)]
        ),
    ),
}


@pytest.mark.parametrize("eta_count", [1, 13])
@pytest.mark.parametrize("xi_count", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("name", sorted(BLOCK_MEASURES))
def test_grid_blocks_match_one_xi_calls_bitwise(name, xi_count, eta_count):
    transform, measure = BLOCK_MEASURES[name]
    xi = -3.05 + 0.1 * np.arange(xi_count)
    eta = -0.35 + 0.15 * np.arange(eta_count)
    blocks = list(_ft_rows(measure, xi, eta))
    sizes = [len(xs) for xs, _, _ in blocks]
    assert sizes[:-1] == [_ROWS] * (len(blocks) - 1) and 1 <= sizes[-1] <= _ROWS
    assert np.concatenate([xs for xs, _, _ in blocks]).tolist() == xi.tolist()
    values = np.concatenate([v for _, v, _ in blocks])
    mags = np.concatenate([m for _, _, m in blocks])
    assert values.shape == mags.shape == (xi_count, eta_count)
    want = np.array([transform(measure, float(x), eta) for x in xi], dtype=complex)
    assert (values.view(np.uint64) == want.view(np.uint64)).all()
    want_mags = np.array([[abs(v) for v in row] for row in want.tolist()])
    assert (mags.view(np.uint64) == want_mags.view(np.uint64)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_consecutive_witness_vanishes_on_its_grid(n):
    measure, lam = construct_consecutive_witness(n, gaussian())
    assert list(measure.heights) == list(range(n + 2))
    assert lam == tuple(2.0 * k / (n + 1) for k in range(n + 1))
    xs = np.linspace(-10.0, 10.0, 201)
    worst = max(float(np.max(np.abs(line_system_ft(measure, xs, h)))) for h in lam)
    assert worst <= 1e-12
    off = float(np.max(np.abs(line_system_ft(measure, xs, 1.0 / (n + 1)))))
    assert off >= 1e-3


def test_consecutive_witness_nonzero_at_midpoint_height():
    for n in (1, 2, 3):
        measure, _ = construct_consecutive_witness(n, gaussian())
        assert abs(complex(line_system_ft(measure, 0.0, 1.0 / (n + 1)))) > 1e-3


def test_consecutive_witness_input_validation():
    with pytest.raises(ValueError):
        construct_consecutive_witness(0, gaussian())
    with pytest.raises(DegenerateWitnessError):
        construct_consecutive_witness(2, zero_density())


def test_translation_residual_zero_density():
    assert translation_periodicity_residual(zero_density(), 1.0) == 0.0


def test_translation_residual_gaussian_lower_bound():
    res = translation_periodicity_residual(gaussian(), 1.0)
    # |ft(1) - ft(0)| = 1 - e^{-pi/4} is a lower bound for the max
    assert res >= abs(math.exp(-math.pi / 4.0) - 1.0) - 1e-12
    assert res > 0.5


def test_translation_residual_even_in_alpha_for_even_density():
    a = translation_periodicity_residual(gaussian(), 0.8)
    b = translation_periodicity_residual(gaussian(), -0.8)
    assert a == pytest.approx(b, abs=1e-12)


def test_translation_residual_validates_inputs():
    with pytest.raises(ValueError):
        translation_periodicity_residual(gaussian(), 0.0)


def test_atom_width_must_be_positive():
    with pytest.raises(ValueError):
        DensityAtom("gaussian", 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        DensityAtom("gaussian", 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        DensityAtom("spike", 0.0, 1.0, 1.0)


def test_reflection_flips_values():
    f = _mixture()
    xs = np.linspace(-4.0, 4.0, 17)
    r = f.reflected()
    assert np.max(np.abs(r.value_at(xs) - f.value_at(-xs))) <= 1e-15


def test_density_values_match_atom_formulas():
    a = DensityAtom("gaussian", 0.5, 2.0, 1.5)
    assert complex(a.value_at(0.5)) == pytest.approx(1.5)
    assert complex(a.value_at(2.5)) == pytest.approx(1.5 * math.exp(-math.pi))
    b = DensityAtom("box", 0.0, 2.0, 0.5)
    assert complex(b.value_at(0.99)) == pytest.approx(0.5)
    assert complex(b.value_at(1.01)) == 0.0
    tr = DensityAtom("triangle", 0.0, 1.0, 2.0)
    assert complex(tr.value_at(0.0)) == pytest.approx(2.0)
    assert complex(tr.value_at(0.5)) == pytest.approx(1.0)
    assert complex(tr.value_at(1.5)) == 0.0
    ob = DensityAtom("odd_bump", 0.0, 1.0, 1.0)
    assert complex(ob.value_at(0.3)) == pytest.approx(
        0.3 * math.exp(-math.pi * 0.09)
    )
    assert complex(ob.value_at(-0.3)) == pytest.approx(-complex(ob.value_at(0.3)))
