import numpy as np
import pytest

from hup_lab import (
    IllConditionedError,
    PowerSystem,
    UnimodularTuple,
    canonical_coefficients,
    classify_fiber,
    final_pivot_formula,
    h_difference,
    hup_discriminant,
    power_column_matrix,
    solve_power_system,
    triangularize_power_system,
    vandermonde_det,
)

from conftest import h_brute, random_unimodular_phases


def test_vandermonde_trivial_cases():
    assert vandermonde_det(()) == 1
    assert vandermonde_det((5.0,)) == 1
    assert vandermonde_det((0.0, 1.0)) == 1
    assert vandermonde_det((1.0, 2.0, 3.0)) == pytest.approx(2.0)
    assert vandermonde_det((1.0, 1.0, 4.0)) == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_vandermonde_matches_dense_determinant(m):
    rng = np.random.default_rng(m)
    for _ in range(25):
        nodes = UnimodularTuple.from_phases(random_unimodular_phases(rng, m))
        system = PowerSystem.canonical(nodes)
        dense = complex(np.linalg.det(system.matrix()))
        closed = vandermonde_det(nodes)
        assert abs(closed - dense) <= 1e-10 * max(1.0, abs(dense))


def test_power_system_validates_columns():
    nodes = UnimodularTuple.from_phases([0.0, 0.5])
    with pytest.raises(ValueError):
        PowerSystem(nodes, (1, 0), 2)
    with pytest.raises(ValueError):
        PowerSystem(nodes, (0, 2), 2)  # target collides with a column
    with pytest.raises(ValueError):
        PowerSystem(nodes, (-1, 0), 2)


def test_solve_single_node():
    nodes = UnimodularTuple.from_phases([0.7])
    sol = solve_power_system(PowerSystem(nodes, (0,), 1))
    assert sol.coefficients[0] == pytest.approx(-nodes.values[0])


def test_solve_two_nodes_closed_form():
    nodes = UnimodularTuple.from_phases([0.2, 1.1])
    a0, a1 = nodes.values
    sol = solve_power_system(PowerSystem.canonical(nodes))
    assert sol.coefficients[0] == pytest.approx(a0 * a1, abs=1e-12)
    assert sol.coefficients[1] == pytest.approx(-(a0 + a1), abs=1e-12)
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_canonical_solution_matches_elementary_closed_form(m):
    rng = np.random.default_rng(50 + m)
    for _ in range(20):
        nodes = UnimodularTuple.from_phases(random_unimodular_phases(rng, m))
        sol = solve_power_system(PowerSystem.canonical(nodes))
        want = canonical_coefficients(nodes)
        err = max(abs(a - b) for a, b in zip(sol.coefficients, want))
        assert err <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_roots_of_unity_solution_is_minus_one_then_zeros(n):
    m = n + 1
    nodes = UnimodularTuple.from_phases([2.0 * k / m for k in range(m)])
    sol = solve_power_system(PowerSystem.canonical(nodes))
    coeffs = np.asarray(sol.coefficients)
    expected = np.zeros(m, dtype=complex)
    expected[0] = -1.0
    assert np.max(np.abs(coeffs - expected)) <= 1e-10
    # closed form agrees: the first coefficient is -1 at every m, not (-1)^m
    assert np.max(np.abs(np.asarray(canonical_coefficients(nodes)) - expected)) <= 1e-10


def test_solver_rejects_near_coincident_nodes():
    nodes = UnimodularTuple.from_phases([0.5, 0.5 + 1e-13, 1.5])
    with pytest.raises(IllConditionedError) as info:
        solve_power_system(PowerSystem.canonical(nodes))
    assert info.value.min_gap < 1e-9


def test_gap_refusals_report_the_unimodular_min_gap():
    # the close pair (b1, b3) is not adjacent, so an adjacent-only scan misses it
    nodes = UnimodularTuple.from_phases([0.0, 0.7, 1.3, 0.7 + 1e-12])
    want = nodes.min_gap()
    assert want < 1e-9
    with pytest.raises(IllConditionedError) as solved:
        solve_power_system(PowerSystem.canonical(nodes))
    with pytest.raises(IllConditionedError) as reduced:
        triangularize_power_system(nodes, 2, 5)
    assert solved.value.min_gap == want
    assert reduced.value.min_gap == want
    assert f"{want:.3e}" in str(solved.value) and f"{want:.3e}" in str(reduced.value)


def test_solver_rejects_non_square_systems():
    nodes = UnimodularTuple.from_phases([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        solve_power_system(PowerSystem(nodes, (0, 1), 3))


def test_min_gap_of_plain_nodes():
    assert UnimodularTuple((1.0,)).min_gap() == float("inf")
    assert UnimodularTuple((0.0, 3.0, 4.0)).min_gap() == pytest.approx(1.0)


def test_power_column_matrix_layout():
    nodes = UnimodularTuple.from_phases([0.0, 0.5, 1.0])
    m = power_column_matrix(nodes, 1, 3)
    a = np.asarray(nodes.values)
    assert np.allclose(m[:, 0], 1.0)
    assert np.allclose(m[:, 1], a)
    assert np.allclose(m[:, 2], a**3)
    with pytest.raises(ValueError):
        power_column_matrix(nodes, 2, 4)  # wrong node count for n=2
    with pytest.raises(ValueError):
        power_column_matrix(nodes, 1, 1)  # p below n+1


def test_reduction_is_upper_triangular_and_determinant_preserving():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for p in (n + 1, n + 3, 9):
            nodes = UnimodularTuple.from_phases(random_unimodular_phases(rng, n + 2))
            red = triangularize_power_system(nodes, n, p)
            assert np.allclose(np.tril(red.matrix, -1), 0.0)
            det = complex(np.linalg.det(power_column_matrix(nodes, n, p)))
            assert abs(red.pivot_product() - det) <= 1e-9 * max(1.0, abs(det))


def test_final_pivot_matches_reduced_entry():
    rng = np.random.default_rng(4)
    for n in (0, 1, 2, 3, 4):
        for p in (n + 1, n + 2, n + 5):
            nodes = UnimodularTuple.from_phases(random_unimodular_phases(rng, n + 2))
            red = triangularize_power_system(nodes, n, p)
            formula = final_pivot_formula(nodes, n, p)
            assert abs(red.pivots[-1] - formula) <= 1e-9 * max(1.0, abs(formula))


def test_final_pivot_three_by_three_hand_case():
    # n=1, p=2: eliminating rows of [[1, b, b^2]] leaves (b2-b0)(b2-b1)
    nodes = UnimodularTuple.from_phases([0.1, 0.7, 1.3])
    b0, b1, b2 = nodes.values
    red = triangularize_power_system(nodes, 1, 2)
    hand = (b2 - b0) * (b2 - b1)
    assert red.pivots[-1] == pytest.approx(hand, abs=1e-12)
    assert final_pivot_formula(nodes, 1, 2) == pytest.approx(hand, abs=1e-12)


def test_final_pivot_lowest_power_reduces_to_node_difference():
    # p = n+1 makes the h-difference h_1(prefix, b_{n+1}) - h_1(prefix, b_n)
    nodes = UnimodularTuple.from_phases([0.0, 0.4, 0.9, 1.6])
    n = 2
    b = nodes.values
    want = (b[3] - b[2]) * (b[3] - b[0]) * (b[3] - b[1])
    assert final_pivot_formula(nodes, n, n + 1) == pytest.approx(want, abs=1e-12)


def test_final_pivot_is_the_oriented_h_difference():
    # final pivot = (h_{p-n}(prefix, b_{n+1}) - h_{p-n}(prefix, b_n)) * prod
    rng = np.random.default_rng(12)
    for n in (0, 1, 2, 4):
        for p in (n + 1, n + 3, n + 6):
            b = UnimodularTuple.from_phases(random_unimodular_phases(rng, n + 2)).values
            prod = 1 + 0j
            for j in range(n):
                prod *= b[n + 1] - b[j]
            diff = h_difference(p - n, b[:n], b[n + 1], b[n])
            want = h_brute(p - n, b[:n] + (b[n + 1],)) - h_brute(p - n, b[:n + 1])
            assert abs(diff) > 1e-6
            assert diff == pytest.approx(want, rel=1e-12, abs=1e-12)
            formula = final_pivot_formula(b, n, p)
            assert formula / prod == pytest.approx(diff, rel=1e-12, abs=1e-12)


def test_discriminant_is_the_h_difference_of_the_last_two_phases():
    rng = np.random.default_rng(13)
    for n in (0, 1, 3):
        etas = random_unimodular_phases(rng, n + 2)
        a = UnimodularTuple.from_phases(etas).values
        p = n + 4
        diff = h_difference(p - n, a[:n], a[n], a[n + 1])
        assert hup_discriminant(etas, n, p) == abs(diff)
        want = h_brute(p - n, a[: n + 1]) - h_brute(p - n, a[:n] + (a[n + 1],))
        assert diff == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_reduce_rejects_coincident_betas():
    nodes = UnimodularTuple.from_phases([0.3, 0.3, 1.1])
    with pytest.raises(IllConditionedError):
        triangularize_power_system(nodes, 1, 4)


def test_discriminant_duplicate_tail_vanishes():
    assert hup_discriminant([0.2, 0.8, 0.8], 1, 2) == pytest.approx(0.0, abs=1e-15)


def test_discriminant_quarter_turn_example():
    # a = (1, i, -i): |h_2(1, i) - h_2(1, -i)| = |i - (-i)|
    assert hup_discriminant([0.0, 0.5, 1.5], 1, 3) == pytest.approx(2.0, abs=1e-12)


def test_discriminant_factored_cross_check():
    # the difference factors as (a1 - a2) * h_1(a0, a1, a2)
    etas = [0.3, 0.9, 1.7]
    a = UnimodularTuple.from_phases(etas).values
    factored = abs(a[1] - a[2]) * abs(a[0] + a[1] + a[2])
    assert hup_discriminant(etas, 1, 3) == pytest.approx(factored, abs=1e-12)


def test_discriminant_prefix_permutation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        etas = list(random_unimodular_phases(rng, 5))
        base = hup_discriminant(etas, 3, 7)
        shuffled = list(rng.permutation(etas[:3])) + etas[3:]
        assert abs(hup_discriminant(shuffled, 3, 7) - base) <= 1e-12


def test_discriminant_matches_brute_force_h():
    rng = np.random.default_rng(11)
    etas = list(random_unimodular_phases(rng, 4))
    a = UnimodularTuple.from_phases(etas).values
    n, p = 2, 5
    want = abs(h_brute(p - n, a[:3]) - h_brute(p - n, a[:2] + (a[3],)))
    assert hup_discriminant(etas, n, p) == pytest.approx(want, abs=1e-12)


def test_discriminant_validates_shapes():
    with pytest.raises(ValueError):
        hup_discriminant([0.0, 0.5], 1, 3)  # needs n+2 phases
    with pytest.raises(ValueError):
        hup_discriminant([0.0, 0.5, 1.0], 1, 1)  # p below n+1
    assert np.isfinite(hup_discriminant([0.0, 0.5, 1.0, 1.5, 1.9], 3, 12))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_phases_are_refused_by_name(bad):
    # exp(i*pi*eta) of such a phase is nan + nanj, so the phase itself is
    # checked before it becomes a node
    with pytest.raises(ValueError, match=f"phase {bad!r} is not finite"):
        UnimodularTuple.from_phases([0.0, bad])
    with pytest.raises(ValueError, match=f"phase {bad!r} is not finite"):
        hup_discriminant([0.0, 0.5, bad], 1, 3)


def _on_nodes(f):
    return lambda etas, n, p: f(UnimodularTuple.from_phases(etas), n, p)


# every entry point of the power-column system refuses the same (n, p, count)
# inputs; a fiber may hold any number of phases, so only none is too few
@pytest.mark.parametrize(
    "call",
    [
        _on_nodes(power_column_matrix),
        _on_nodes(final_pivot_formula),
        _on_nodes(triangularize_power_system),
        hup_discriminant,
        classify_fiber,
    ],
    ids=["power_column_matrix", "final_pivot_formula", "triangularize_power_system",
         "hup_discriminant", "classify_fiber"],
)
@pytest.mark.parametrize(
    "etas, n, p, cause",
    [
        ((0.3,), -1, 0, "n must be non-negative"),
        ((0.0, 0.5, 1.0), 1, 1, r"p >= n \+ 1"),
        ((), 1, 3, r"need exactly n \+ 2|fiber is empty"),
    ],
    ids=["negative_n", "p_equals_n", "wrong_count"],
)
def test_the_power_contract_is_enforced_everywhere(call, etas, n, p, cause):
    with pytest.raises(ValueError, match=cause):
        call(etas, n, p)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: cmath.exp rounds the points, and the degree-997 "
    "h-difference amplifies that error to 5.5e-8 (1.4e-15 from 60-digit points)",
)
def test_discriminant_of_close_roots_at_large_p_is_zero():
    # five consecutive rotated 1000th roots: at 40 digits the value on these
    # double inputs is 1.4e-15, while the double recursion gives 5.8e-8
    assert hup_discriminant([0.123, 0.125, 0.127, 0.129, 0.131], 3, 1000) <= 1e-9
