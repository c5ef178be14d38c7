"""Acceptance gate: one test per criterion, run tolerances as stated.

Each test prints a single summary line (visible with ``pytest -rA`` or on
failure) and asserts both the numeric bound and its runtime budget.
"""

import time

import numpy as np
import pytest

from hup_lab import (
    CurveDensity,
    Density,
    DensityAtom,
    LambdaSet,
    OscillationBudgetError,
    PowerSystem,
    UnimodularTuple,
    absolute_mass,
    box,
    canonical_coefficients,
    complete_homogeneous,
    construct_consecutive_witness,
    construct_cross_diagonal_witness,
    construct_single_line_witness,
    cross_ft,
    exp_curve_ft,
    final_pivot_formula,
    fold_periodic,
    gaussian,
    h_difference_residual,
    line_system_ft,
    odd_bump,
    odd_pair,
    partition,
    power_column_matrix,
    solve_power_system,
    standard_witness_profile,
    surface_ft,
    triangle,
    triangularize_power_system,
    vandermonde_det,
)
from hup_lab.cli import Scenario, emit_grid, load_scenario, run_scenario

from conftest import (
    density_bounds,
    ft_quad,
    random_unimodular_phases,
    reference_partition,
)


def report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({detail}; {elapsed:.1f}s / {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} runtime {elapsed:.1f}s over budget"


def test_criterion_01_symmetric_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_identity = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        arity = int(rng.integers(0, 7))  # xbar plus x and y stays within 8
        xbar = UnimodularTuple.from_phases(rng.uniform(0, 2, size=arity))
        x, y = np.exp(1j * np.pi * rng.uniform(0, 2, size=2))
        worst_identity = max(
            worst_identity, abs(h_difference_residual(k, xbar, x, y))
        )
    worst_series = 0.0
    t = 0.3
    for _ in range(200):
        s = int(rng.integers(1, 9))
        xs = 0.5 * rng.uniform(-1, 1, size=s) * np.exp(
            1j * np.pi * rng.uniform(0, 2, size=s)
        )
        series = sum(complete_homogeneous(k, tuple(xs)) * t**k for k in range(41))
        product = complex(np.prod(1.0 / (1.0 - xs * t)))
        worst_series = max(worst_series, abs(series - product))
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-12 and worst_series <= 1e-10
    report(
        1,
        ok,
        f"identity residual {worst_identity:.2e} <= 1e-12, "
        f"series defect {worst_series:.2e} <= 1e-10",
        elapsed,
        5.0,
    )


def test_criterion_02_vandermonde_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_det = 0.0
    worst_tau = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 9))
        nodes = UnimodularTuple.from_phases(random_unimodular_phases(rng, m))
        system = PowerSystem.canonical(nodes)
        dense = complex(np.linalg.det(system.matrix()))
        closed = vandermonde_det(nodes)
        worst_det = max(worst_det, abs(closed - dense) / max(1.0, abs(dense)))
        sol = solve_power_system(system)
        want = canonical_coefficients(nodes)
        worst_tau = max(
            worst_tau, max(abs(a - b) for a, b in zip(sol.coefficients, want))
        )
    elapsed = time.perf_counter() - start
    ok = worst_det <= 1e-10 and worst_tau <= 1e-10
    report(
        2,
        ok,
        f"det relative error {worst_det:.2e} <= 1e-10, "
        f"canonical solution error {worst_tau:.2e} <= 1e-10",
        elapsed,
        10.0,
    )


def test_criterion_03_reduction_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_prod = 0.0
    worst_pivot = 0.0
    for n in range(0, 6):
        for p in range(n + 1, 13):
            for _ in range(100):
                nodes = UnimodularTuple.from_phases(
                    random_unimodular_phases(rng, n + 2)
                )
                red = triangularize_power_system(nodes, n, p)
                det = complex(np.linalg.det(power_column_matrix(nodes, n, p)))
                worst_prod = max(
                    worst_prod,
                    abs(red.pivot_product() - det) / max(1.0, abs(det)),
                )
                formula = final_pivot_formula(nodes, n, p)
                worst_pivot = max(
                    worst_pivot,
                    abs(red.pivots[-1] - formula) / max(1.0, abs(formula)),
                )
    elapsed = time.perf_counter() - start
    ok = worst_prod <= 1e-9 and worst_pivot <= 1e-9
    report(
        3,
        ok,
        f"pivot-product vs det {worst_prod:.2e} <= 1e-9, "
        f"final-pivot closed form {worst_pivot:.2e} <= 1e-9",
        elapsed,
        60.0,
    )


def test_criterion_04_consecutive_lines_witness():
    start = time.perf_counter()
    xs = np.arange(-10.0, 10.0 + 1e-12, 0.02)
    worst_on = 0.0
    lowest_off = np.inf
    for n in (1, 2, 3, 4):
        measure, lam = construct_consecutive_witness(n, gaussian())
        for eta in lam:
            worst_on = max(
                worst_on, float(np.max(np.abs(line_system_ft(measure, xs, eta))))
            )
        off = float(np.max(np.abs(line_system_ft(measure, xs, 1.0 / (n + 1)))))
        lowest_off = min(lowest_off, off)
    elapsed = time.perf_counter() - start
    ok = worst_on <= 1e-12 and lowest_off >= 1e-3
    report(
        4,
        ok,
        f"on-grid max {worst_on:.2e} <= 1e-12, off-grid min {lowest_off:.2e} >= 1e-3",
        elapsed,
        10.0,
    )


def _random_mixture(rng):
    atoms = []
    for _ in range(int(rng.integers(1, 4))):
        kind = ("gaussian", "box", "triangle", "odd_bump")[int(rng.integers(0, 4))]
        atoms.append(
            DensityAtom(
                kind,
                float(rng.uniform(-2, 2)),
                float(rng.uniform(0.4, 1.6)),
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            )
        )
    return Density(tuple(atoms))


def test_criterion_05_cross_witnesses():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    t = np.linspace(-10.0, 10.0, 1001)
    worst_diag = 0.0
    for _ in range(10):
        n = int(rng.integers(0, 3))
        densities = [_random_mixture(rng) for _ in range(n + 1)]
        m = construct_cross_diagonal_witness(densities)
        worst_diag = max(worst_diag, float(np.max(np.abs(cross_ft(m, t, t)))))
    f0 = odd_bump()
    axis = construct_cross_diagonal_witness([f0, -f0])
    worst_axis = float(np.max(np.abs(cross_ft(axis, t, 0.0))))
    elapsed = time.perf_counter() - start
    ok = worst_diag <= 1e-12 and worst_axis <= 1e-12
    report(
        5,
        ok,
        f"diagonal max {worst_diag:.2e} <= 1e-12, axis max {worst_axis:.2e} <= 1e-12",
        elapsed,
        5.0,
    )


def test_criterion_06_exponential_curve_witness():
    start = time.perf_counter()
    xs = np.arange(-5.0, 5.0 + 1e-12, 0.02)
    worst_on = 0.0
    lowest_ratio = np.inf
    lowest_off = np.inf
    for c in (1.0, -0.5, 2.0):
        phi = standard_witness_profile(c)
        wit = construct_single_line_witness(c, phi)
        on = max(abs(exp_curve_ft(wit, float(x), c * float(x)).value) for x in xs)
        off = max(
            abs(exp_curve_ft(wit, float(x), c * float(x) + 1.0).value) for x in xs
        )
        extent = max(abs(b) for iv in phi.support_intervals() for b in iv)
        phi_mass = absolute_mass(
            CurveDensity(phi, support_radius=extent)
        ).value.real
        ratio = absolute_mass(wit).value.real / phi_mass
        worst_on = max(worst_on, on)
        lowest_ratio = min(lowest_ratio, ratio)
        lowest_off = min(lowest_off, off)
    elapsed = time.perf_counter() - start
    ok = worst_on <= 1e-6 and lowest_ratio >= 0.1 and lowest_off >= 1e-3
    report(
        6,
        ok,
        f"on-line max {worst_on:.2e} <= 1e-6, mass ratio {lowest_ratio:.2f} >= 0.1, "
        f"off-line min {lowest_off:.2e} >= 1e-3",
        elapsed,
        120.0,
    )


def test_criterion_07_surface_constructions():
    start = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 21)
    psi = CurveDensity(odd_pair(triangle(center=1.0, width=0.8)))
    h = CurveDensity(triangle(center=0.0, width=1.0))
    worst_axis = 0.0
    for x2 in grid:
        for x3 in grid:
            worst_axis = max(
                worst_axis, abs(surface_ft(psi, h, (0.0, x2, x3)).value)
            )
    c = 1.0
    tau = construct_single_line_witness(c, standard_witness_profile(c))
    worst_slant = 0.0
    for x1 in grid:
        for x2 in grid:
            worst_slant = max(
                worst_slant, abs(surface_ft(tau, h, (x1, x2, c * x1)).value)
            )
    elapsed = time.perf_counter() - start
    ok = worst_axis <= 1e-6 and worst_slant <= 1e-6
    report(
        7,
        ok,
        f"axis-case max {worst_axis:.2e} <= 1e-6, "
        f"slant-case max {worst_slant:.2e} <= 1e-6",
        elapsed,
        120.0,
    )


def test_criterion_08_classifier_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(0, 4))
        p = int(rng.integers(n + 1, 7))
        points = []
        for fiber_idx in range(int(rng.integers(1, 4))):
            xi = 2.0 * fiber_idx
            size = int(rng.integers(1, 9))
            for e in rng.integers(0, 2000, size=size):
                points.append((xi, float(e) / 1000.0))
        part = partition(fold_periodic(LambdaSet(tuple(points))), n, p)
        want = reference_partition(points, n, p)
        got = dict(part.classes)
        if len(got) != len(want) or any(
            got.get(min(got, key=lambda x: abs(x - xi))) != cls
            for xi, cls in want.items()
        ):
            mismatches += 1
    all_middle = True
    for n in (1, 2, 3):
        _, lam_heights = construct_consecutive_witness(n, gaussian())
        pts = tuple((x, h) for x in (0.0, 1.0, 2.5) for h in lam_heights)
        part = partition(fold_periodic(LambdaSet(pts)), n, n + 1)
        all_middle &= all(cls == n + 1 for cls in part.classes.values())
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and all_middle
    report(
        8,
        ok,
        f"{mismatches}/200 reference mismatches, "
        f"witness grid all class n+1: {all_middle}",
        elapsed,
        10.0,
    )


def test_criterion_09_quadrature_trust():
    start = time.perf_counter()
    densities = [
        gaussian(center=0.4, width=1.2, amplitude=1.0),
        box(center=-0.5, width=1.5, amplitude=0.8),
        triangle(center=0.7, width=1.1, amplitude=-1.2),
        odd_bump(center=0.0, width=0.9, amplitude=1.5),
    ]
    worst = 0.0
    for f in densities:
        lo, hi = density_bounds(f)
        for xi in range(-5, 6):
            want = ft_quad(f.value_at, xi, lo=lo, hi=hi, breakpoints=f.breakpoints())
            worst = max(worst, abs(complex(f.ft(xi)) - want))
    refused = False
    try:
        exp_curve_ft(CurveDensity(triangle()), 0.0, 1e6)
    except OscillationBudgetError:
        refused = True
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and refused
    report(
        9,
        ok,
        f"closed form vs quadrature {worst:.2e} <= 1e-9, budget refusal: {refused}",
        elapsed,
        10.0,
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    import glob

    start = time.perf_counter()
    identical = True
    for path in sorted(glob.glob("scenarios/*.scenario")):
        scenario = load_scenario(path)
        first = run_scenario(scenario).render()
        second = run_scenario(scenario).render()
        identical &= first == second
    grid_scenario = Scenario(
        "ft_grid",
        {"measure": "consecutive_witness", "n": 2, "xi_step": 0.5, "eta_step": 0.25},
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    emit_grid(grid_scenario, str(out1))
    emit_grid(grid_scenario, str(out2))
    identical &= out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - start
    report(
        10,
        identical,
        "reports and CSV byte-identical across reruns",
        elapsed,
        120.0,
    )
