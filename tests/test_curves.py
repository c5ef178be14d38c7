import cmath
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from hup_lab import (
    BelowMinimumError,
    CrossMeasure,
    CurveDensity,
    DegenerateWitnessError,
    DensityAtom,
    LineMeasure,
    OscillationBudgetError,
    WitnessConstructionError,
    absolute_mass,
    box,
    construct_single_line_witness,
    cross_ft,
    exp_curve_ft,
    exp_curve_ft_many,
    gaussian,
    LinePhase,
    line_system_ft,
    odd_bump,
    odd_pair,
    odd_profile,
    standard_witness_profile,
    surface_ft,
    triangle,
    zero_density,
)
from hup_lab import curves
from conftest import curve_ft_quad

C_VALUES = (1.0, -0.5, 2.0)


def test_phase_value_at_zero():
    for c in C_VALUES:
        g = LinePhase(c)
        assert g.value(0.0) == pytest.approx(1.0 + 1.0 / (4.0 * c * c))


def test_phase_value_hand_case():
    g = LinePhase(1.0)
    assert g.value(1.0) == pytest.approx(math.e + 1.25)


def test_phase_completed_square_form_agrees():
    for c in C_VALUES:
        g = LinePhase(c)
        ts = np.linspace(-3.0, 3.0, 61)
        expanded = (ts + 1.0 / (2.0 * c)) ** 2 + np.exp(ts**2) - ts**2
        assert np.max(np.abs(g.value(ts) - expanded)) <= 1e-12 * np.max(expanded)


def test_phase_minimum_solves_stationarity():
    for c in C_VALUES:
        g = LinePhase(c)
        assert abs(2.0 * g.t_min * math.exp(g.t_min**2) + 1.0 / c) <= 1e-12
        assert g.h_min == pytest.approx(g.value(g.t_min))
        assert g.h_min > 0
        # derivative strictly increasing across a sample grid
        ts = np.linspace(-2.5, 2.5, 41)
        dv = g.derivative(ts)
        assert np.all(np.diff(dv) > 0)


def test_phase_minimum_side():
    assert LinePhase(1.0).t_min < 0
    assert LinePhase(-0.5).t_min > 0


def test_phase_rejects_zero_slope():
    with pytest.raises(ValueError):
        LinePhase(0.0)


def test_phase_refuses_a_minimiser_search_past_the_range_of_exp():
    # t_min lies near -16.5; the search's far end at -32 overflows exp(t**2)
    with pytest.raises(ValueError, match="outward root search"):
        LinePhase(1e-120)


def test_inverse_at_minimum_returns_argmin():
    g = LinePhase(1.0)
    assert g.inverse(g.h_min, "left") == pytest.approx(g.t_min)
    assert g.inverse(g.h_min, "right") == pytest.approx(g.t_min)


def test_inverse_round_trip():
    g = LinePhase(1.0)
    assert g.inverse(g.value(1.0), "right") == pytest.approx(1.0, abs=1e-10)
    assert g.inverse(math.e + 1.25, "right") == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("c", C_VALUES)
def test_inverse_round_trips_both_branches(c):
    g = LinePhase(c)
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = float(g.h_min + rng.uniform(1e-6, 50.0))
        for branch in ("left", "right"):
            t = g.inverse(v, branch)
            assert abs(g.value(t) - v) <= 1e-12 * max(1.0, v)
            if branch == "left":
                assert t <= g.t_min + 1e-12
            else:
                assert t >= g.t_min - 1e-12


def test_inverse_below_minimum_raises():
    g = LinePhase(2.0)
    with pytest.raises(BelowMinimumError):
        g.inverse(g.h_min - 1e-6, "right")
    with pytest.raises(ValueError):
        g.inverse(g.h_min + 1.0, "middle")


def test_substitution_change_of_variables():
    # integral of F(H(t)) H'(t) over a right-branch span equals the
    # integral of F over the image values
    g = LinePhase(1.0)
    t0, t1 = g.t_min + 0.3, g.t_min + 1.4
    v0, v1 = g.value(t0), g.value(t1)
    lhs, _ = quad(
        lambda t: math.exp(-g.value(t)) * g.derivative(t), t0, t1, epsabs=1e-12
    )
    rhs = math.exp(-v0) - math.exp(-v1)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_witness_profile_identity():
    for c in C_VALUES:
        phi = standard_witness_profile(c)
        wit = construct_single_line_witness(c, phi)
        g = LinePhase(c)
        us = np.linspace(g.sqrt_min + 0.05, g.sqrt_min + 1.4, 29)
        for u in us:
            got = odd_profile(wit, c, float(u))
            want = complex(phi.value_at(float(u)))
            assert got == pytest.approx(want, abs=1e-10)


def test_witness_profile_is_odd():
    c = 1.0
    wit = construct_single_line_witness(c, standard_witness_profile(c))
    g = LinePhase(c)
    us = np.linspace(0.0, g.sqrt_min + 1.6, 60)
    worst = max(
        abs(odd_profile(wit, c, float(u)) + odd_profile(wit, c, -float(u)))
        for u in us
    )
    assert worst <= 1e-10


def test_profile_vanishes_inside_the_gap():
    c = 2.0
    wit = construct_single_line_witness(c, standard_witness_profile(c))
    assert odd_profile(wit, c, 0.0) == 0
    assert odd_profile(wit, c, 0.5 * LinePhase(c).sqrt_min) == 0


def test_exp_curve_ft_odd_mixture_vanishes_at_zero_frequency():
    g = CurveDensity(odd_bump())
    for y in (0.0, 0.5, 2.0):
        res = exp_curve_ft(g, 0.0, y)
        assert abs(res.value) <= max(1e-12, res.error)


def test_exp_curve_ft_at_origin_is_total_mass():
    f = triangle(center=0.7, width=0.8, amplitude=1.3)
    g = CurveDensity(f)
    res = exp_curve_ft(g, 0.0, 0.0)
    assert res.value == pytest.approx(complex(f.ft(0.0)), abs=1e-9)


def test_exp_curve_ft_pure_x_frequency_matches_closed_form():
    f = gaussian()
    g = CurveDensity(f, support_radius=3.0)
    res = exp_curve_ft(g, 1.0, 0.0)
    assert res.value == pytest.approx(f.ft(1.0), abs=1e-9)
    assert res.error <= 1e-9


def test_exp_curve_ft_error_estimate_reported():
    g = CurveDensity(triangle())
    res = exp_curve_ft(g, 3.0, 2.0)
    assert res.error >= 0.0
    assert np.isfinite(res.error)


def test_exp_curve_ft_budget_refusal():
    g = CurveDensity(triangle())
    with pytest.raises(OscillationBudgetError):
        exp_curve_ft(g, 0.0, 1e5)
    wide = CurveDensity(gaussian(), support_radius=30.0)
    with pytest.raises(OscillationBudgetError):
        exp_curve_ft(wide, 1.0, 1.0)
    # the last refinement pass leaves about 1e-16: a sum short of its
    # tolerance is refused, not returned
    with pytest.raises(OscillationBudgetError, match="exceeds the tolerance 1e-18"):
        exp_curve_ft(g, 0.5, 0.5, abs_tol=1e-18)


def test_phase_factor_identity():
    # on the line y = c*x the transform is a unimodular factor times an
    # integral against exp(-i*pi*c*x*H(t))
    c, x = 1.0, 1.7
    wit = construct_single_line_witness(c, standard_witness_profile(c))
    g = LinePhase(c)

    def integrand(t):
        return complex(wit.value_at(t)) * cmath.exp(-1j * math.pi * c * x * g.value(t))

    pieces = wit.smooth_pieces()
    total = 0j
    for lo, hi in pieces:
        re, _ = quad(lambda t: integrand(t).real, lo, hi, epsabs=1e-12, limit=400)
        im, _ = quad(lambda t: integrand(t).imag, lo, hi, epsabs=1e-12, limit=400)
        total += complex(re, im)
    want = cmath.exp(1j * math.pi * x / (4.0 * c)) * total
    got = exp_curve_ft(wit, x, c * x)
    assert got.value == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("c", C_VALUES)
def test_single_line_witness_vanishes_on_its_line(c):
    wit = construct_single_line_witness(c, standard_witness_profile(c))
    xs = np.linspace(-5.0, 5.0, 51)
    worst = max(abs(exp_curve_ft(wit, float(x), c * float(x)).value) for x in xs)
    assert worst <= 1e-6


def test_single_line_witness_visible_off_the_line():
    c = 1.0
    wit = construct_single_line_witness(c, standard_witness_profile(c))
    xs = np.linspace(-5.0, 5.0, 51)
    off = max(abs(exp_curve_ft(wit, float(x), c * float(x) + 1.0).value) for x in xs)
    assert off > 1e-3


def test_witness_mass_matches_profile_mass():
    # change of variables sends |g| dt exactly onto |phi| du
    c = 2.0
    phi = standard_witness_profile(c)
    wit = construct_single_line_witness(c, phi)
    extent = max(abs(b) for iv in phi.support_intervals() for b in iv)
    phi_mass = absolute_mass(CurveDensity(phi, support_radius=extent))
    wit_mass = absolute_mass(wit)
    assert wit_mass.value.real == pytest.approx(phi_mass.value.real, abs=1e-8)
    assert wit_mass.value.real >= 0.1 * phi_mass.value.real


def test_witness_rejects_bad_profiles():
    c = 1.0
    g = LinePhase(c)
    with pytest.raises(DegenerateWitnessError):
        construct_single_line_witness(c, triangle().scaled(0.0))
    with pytest.raises(WitnessConstructionError):
        construct_single_line_witness(c, odd_pair(gaussian()))  # unbounded support
    low = odd_pair(triangle(center=g.sqrt_min, width=0.5))  # straddles the gap
    with pytest.raises(WitnessConstructionError):
        construct_single_line_witness(c, low)
    lopsided = triangle(center=g.sqrt_min + 1.0, width=0.5)  # not odd
    with pytest.raises(WitnessConstructionError):
        construct_single_line_witness(c, lopsided)


def test_curve_density_value_matches_displayed_formula():
    c = 1.0
    phi = standard_witness_profile(c)
    wit = construct_single_line_witness(c, phi)
    g = LinePhase(c)
    for t in (0.9, 1.2, -1.6):
        root = math.sqrt(g.value(t))
        want = complex(phi.value_at(root)) * g.derivative(t) / (2.0 * root)
        assert complex(wit.value_at(t)) == pytest.approx(want, abs=1e-12)


def test_surface_ft_separates_at_origin():
    tau = triangle(center=0.5, width=0.4)
    h = box(center=0.0, width=1.0)
    res = surface_ft(
        CurveDensity(tau), CurveDensity(h), (0.0, 0.0, 0.0)
    )
    want = complex(tau.ft(0.0)) * complex(h.ft(0.0))
    assert res.value == pytest.approx(want, abs=1e-9)


def test_surface_axis_witness_vanishes_on_coordinate_hyperplane():
    psi = odd_pair(triangle(center=1.0, width=0.8))
    h = triangle(center=0.0, width=1.0)
    first = CurveDensity(psi)
    second = CurveDensity(h)
    for x2 in (-2.0, 0.0, 1.5):
        for x3 in (-1.0, 0.5, 3.0):
            res = surface_ft(first, second, (0.0, x2, x3))
            assert abs(res.value) <= 1e-6


def test_surface_slant_witness_vanishes_on_slanted_hyperplane():
    c = 1.0
    tau = construct_single_line_witness(c, standard_witness_profile(c))
    second = CurveDensity(triangle(center=0.0, width=1.0))
    for x1 in (-2.0, 0.3, 1.8):
        for x2 in (-1.5, 0.0, 2.0):
            res = surface_ft(tau, second, (x1, x2, c * x1))
            assert abs(res.value) <= 1e-6


def test_surface_budget_refusal():
    first = CurveDensity(triangle())
    second = CurveDensity(triangle())
    with pytest.raises(OscillationBudgetError):
        surface_ft(first, second, (0.0, 0.0, 1e6))


def test_absolute_mass_box():
    g = CurveDensity(box(center=0.0, width=2.0, amplitude=-1.5))
    res = absolute_mass(g)
    assert res.value.real == pytest.approx(3.0, abs=1e-9)


def test_absolute_mass_far_from_the_origin():
    # the mass integrand does not oscillate, so its panels must not read
    # exp(t**2), which overflows past |t| ~ 26.6
    g = CurveDensity(triangle(center=30.0), support_radius=31.0)
    res = absolute_mass(g)
    assert res.value.real == pytest.approx(1.0, abs=1e-9)
    assert res.error <= 1e-9


WITNESS = construct_single_line_witness(1.0, standard_witness_profile(1.0))
LINES = LineMeasure((0.0, 1.0), (gaussian(), -triangle()))
CROSS = CrossMeasure((gaussian(), odd_bump()))


# every evaluator of measures and curves: a scalar gives a Python scalar of
# exactly this type back, an array an ndarray of its shape and dtype
@pytest.mark.parametrize(
    "evaluate, kind",
    [
        (DensityAtom("box", 0.0, 1.0).value_at, complex),
        (DensityAtom("triangle", 0.0, 1.0).ft, complex),
        ((gaussian() + odd_bump()).value_at, complex),
        ((gaussian() + odd_bump()).ft, complex),
        (lambda xi: line_system_ft(LINES, xi, 0.5), complex),
        (lambda eta: cross_ft(CROSS, 0.5, eta), complex),
        (LinePhase(1.0).value, float),
        (LinePhase(1.0).derivative, float),
        (CurveDensity(triangle()).value_at, complex),
        (WITNESS.value_at, complex),
        (lambda u: odd_profile(WITNESS, 1.0, u), complex),
    ],
    ids=["atom_value_at", "atom_ft", "density_value_at", "density_ft",
         "line_system_ft", "cross_ft", "phase_value", "phase_derivative",
         "mixture_value_at", "witness_value_at", "odd_profile"],
)
def test_a_scalar_gives_a_python_scalar_and_an_array_an_array(evaluate, kind):
    for scalar in (0.5, 3, np.float64(-2.5)):
        assert type(evaluate(scalar)) is kind
    for shape in ((2, 3), (0,)):
        out = evaluate(np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape))
        assert isinstance(out, np.ndarray)
        assert (out.shape, out.dtype) == (shape, np.dtype(kind))


@pytest.mark.parametrize(
    "transform, measure", [(line_system_ft, LINES), (cross_ft, CROSS)]
)
def test_two_variable_transforms_broadcast_their_arguments(transform, measure):
    out = transform(measure, np.zeros((2, 1)), np.ones(3))
    assert isinstance(out, np.ndarray)
    assert (out.shape, out.dtype) == ((2, 3), np.dtype(complex))


def test_zero_density_transforms_to_an_exact_zero():
    zero = CurveDensity(zero_density())
    for res in (
        exp_curve_ft(zero, 1.0, 0.5),
        absolute_mass(zero),
        surface_ft(zero, zero, (1.0, -1.0, 0.5)),
    ):
        assert (res.value, res.error) == (0j, 0.0)
        assert (type(res.value), type(res.error)) == (complex, float)
    # no support is no exemption: a tolerance no sum can meet is refused
    with pytest.raises(OscillationBudgetError, match="exceeds the tolerance"):
        exp_curve_ft(zero, 1.0, 0.5, abs_tol=-1.0)


def test_a_nan_tolerance_is_never_met():
    # one pass estimates 8.3e-3 here; no estimate compares above a NaN
    g = CurveDensity(gaussian(0.3, 0.004))
    with pytest.raises(OscillationBudgetError, match="exceeds the tolerance nan"):
        exp_curve_ft_many(g, [6.0], [0.0], abs_tol=float("nan"))


# ------------------------------------------------------ the batched engine


@pytest.mark.parametrize("c", (0.8, -3.2))
def test_batched_sweep_agrees_with_one_frequency_at_a_time(c):
    wit = construct_single_line_witness(c, standard_witness_profile(c))
    xs = np.tile(np.linspace(-5.0, 5.0, 41), 2)
    ys = c * xs + np.repeat([0.0, 1.0], 41)  # on the line, then off it
    values, errors = exp_curve_ft_many(wit, xs, ys)
    assert values.shape == errors.shape == xs.shape
    for x, y, value, error in zip(xs, ys, values, errors):
        single = exp_curve_ft(wit, float(x), float(y))
        assert abs(value - single.value) <= error + single.error


def test_batched_transform_matches_adaptive_quadrature():
    f = triangle(center=0.4, width=0.7) + box(center=-0.6, width=0.8, amplitude=-0.5)
    f = f + gaussian(center=-0.3, width=0.5, amplitude=2.0)
    g = CurveDensity(f)
    freqs = [(0.0, 0.0), (1.5, 0.3), (-2.0, 1.0), (3.0, -0.5), (0.7, 2.0)]
    xs, ys = zip(*freqs)
    values, errors = exp_curve_ft_many(g, xs, ys)
    radius = g.support_radius
    for x, y, value, error in zip(xs, ys, values, errors):
        want = curve_ft_quad(f.value_at, x, y, -radius, radius, f.breakpoints())
        assert abs(value - want) <= error + 1e-10


def test_batched_refusals():
    g = CurveDensity(triangle())
    # the budget is checked for every frequency before any sum is formed:
    # the last y is named, although no sum could meet this tolerance
    with pytest.raises(OscillationBudgetError, match=r"\|y\|\*exp\(T\^2\) = 1e\+05\*exp"):
        exp_curve_ft_many(g, [0.0, 1.0, 2.0], [0.5, -3.0, 1e5], abs_tol=1e-18)
    with pytest.raises(OscillationBudgetError, match="exceeds the tolerance 1e-18 after"):
        exp_curve_ft_many(g, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], abs_tol=1e-18)


def _count_columns(monkeypatch) -> list[int]:
    """Record how many frequencies each pass of the paired rule sums."""
    passes = []
    paired_sums = curves._paired_sums

    def spy(fun, chunks, kernel, columns):
        passes.append(columns)
        return paired_sums(fun, chunks, kernel, columns)

    monkeypatch.setattr(curves, "_paired_sums", spy)
    return passes


def test_only_the_frequencies_above_tolerance_are_summed_again(monkeypatch):
    # the first pass leaves about 2e-7 on this narrow gaussian, the second
    # 3e-11 and the third 2e-15, so 4 of the 7 frequencies take a fourth
    passes = _count_columns(monkeypatch)
    f = gaussian(center=0.1, width=0.05)
    xs = np.linspace(0.0, 6.0, 7)
    values, errors = exp_curve_ft_many(CurveDensity(f), xs, 0.0, abs_tol=1e-15)
    assert np.all(errors <= 1e-15)
    assert np.max(np.abs(values - f.ft(xs))) <= 1e-14
    assert passes[0] == 7
    assert any(0 < count < 7 for count in passes[1:])


def test_the_last_pass_is_fine_enough_for_a_very_narrow_gaussian():
    # every frequency takes the last pass and ends near 2e-10: a last pass
    # on coarser panels would refuse this gaussian
    f = gaussian(0.3, 0.004)
    xs = np.linspace(0.0, 6.0, 7)
    values, errors = exp_curve_ft_many(CurveDensity(f), xs, 0.0)
    assert np.all(errors <= 1e-9)
    assert np.max(np.abs(values - f.ft(xs))) <= 1e-14


@pytest.mark.parametrize(
    "x, y, shown",
    [
        (math.nan, 0.5, "(nan, 0.5)"),
        (math.inf, 0.5, "(inf, 0.5)"),
        (-math.inf, 0.5, "(-inf, 0.5)"),
        (1.5, math.nan, "(1.5, nan)"),
        (1.5, -math.inf, "(1.5, -inf)"),
    ],
)
def test_nonfinite_frequencies_are_refused_by_name(monkeypatch, x, y, shown):
    # refused before any sum is formed, also behind finite frequencies
    passes = _count_columns(monkeypatch)
    g = CurveDensity(triangle())
    with pytest.raises(ValueError, match=re.escape(f"frequency (x, y) = {shown} is not finite")):
        exp_curve_ft_many(g, [0.0, 1.0, x], [0.0, 1.0, y])
    assert passes == []


def test_kronrod_table_matches_independent_sources():
    nodes, (kronrod, gauss) = curves._paired_rule()
    assert nodes.shape == kronrod.shape == gauss.shape == (15,)
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(nodes[1::2] - gauss_nodes)) <= 1e-15
    assert np.max(np.abs(gauss[1::2] - gauss_weights)) <= 1e-15
    assert not gauss[0::2].any()
    assert kronrod.sum() == pytest.approx(2.0, abs=1e-15)
    assert gauss.sum() == pytest.approx(2.0, abs=1e-15)
    for k in range(23):
        moment = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert kronrod @ nodes**k == pytest.approx(moment, abs=1e-15)
        if k <= 13:
            assert gauss @ nodes**k == pytest.approx(moment, abs=1e-15)


def test_empty_batch_and_zero_density_give_zeros():
    g = CurveDensity(triangle())
    values, errors = exp_curve_ft_many(g, [], [])
    assert (values.shape, errors.shape) == ((0,), (0,))
    zero = CurveDensity(zero_density())
    values, errors = exp_curve_ft_many(zero, np.linspace(-3.0, 3.0, 40), 1.5)
    assert values.shape == errors.shape == (40,)
    assert not values.any() and not errors.any()


def test_an_empty_batch_on_a_wide_support_gives_empty_arrays():
    # a support this wide refuses every frequency, but an empty batch has none
    wide = CurveDensity(gaussian(), support_radius=30.0)
    values, errors = exp_curve_ft_many(wide, [], [])
    assert (values.shape, errors.shape) == ((0,), (0,))
    with pytest.raises(OscillationBudgetError):
        exp_curve_ft_many(wide, [0.0], [0.0])


@pytest.mark.parametrize("case", ("axis", "slant"))
def test_surface_outer_product_matches_surface_ft(case):
    grid = np.linspace(-3.0, 3.0, 7)
    second = CurveDensity(triangle(center=0.0, width=1.0))
    if case == "axis":
        first = CurveDensity(odd_pair(triangle(center=1.0, width=0.8)))
        x1, x3 = np.zeros(grid.size), grid
    else:
        first = construct_single_line_witness(1.0, standard_witness_profile(1.0))
        x1, x3 = grid, 1.0 * grid
    surface = surface_ft(first, second, (x1[:, None], grid[None, :], x3[:, None]))
    assert surface.value.shape == surface.error.shape == (7, 7)
    for i, j in np.ndindex(surface.value.shape):
        want = surface_ft(first, second, (x1[i], grid[j], x3[i]))
        assert abs(surface.value[i, j] - want.value) <= surface.error[i, j] + want.error


def test_absolute_mass_cuts_at_a_sign_change():
    # gaussian + odd_bump at (0.3, 0.9) is exp(-pi*u**2/0.81)*(1 + u) with
    # u = t - 0.3: it changes sign at t = -0.7, where |g| has a kink
    f = gaussian(0.3, 0.9) + odd_bump(0.3, 0.9)
    res = absolute_mass(CurveDensity(f))
    want, _ = quad(
        lambda t: abs(complex(f.value_at(t))), -2.5, 2.5,
        points=[-0.7], epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    assert res.error <= 1e-9
    assert res.value.real == pytest.approx(want, abs=1e-12)
