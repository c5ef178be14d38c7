from itertools import combinations

import numpy as np
import pytest

from hup_lab import (
    LambdaSet,
    classify_fiber,
    complete_homogeneous,
    construct_consecutive_witness,
    fiber,
    fold_periodic,
    gaussian,
    partition,
)

from conftest import (
    h_brute,
    random_unimodular_phases,
    reference_classify,
    reference_partition,
)


def roots_of_unity(p):
    """Phases of the p-th roots of unity: every (n+2)-subset has a zero
    h-difference, so the full set is a class-(n+1) fiber for p >= n + 2."""
    return tuple(2.0 * j / p for j in range(p))


# (n, p) pairs where the uncapped oracle stays well under a second per fiber
ORACLE_SIZES = ((0, 8), (1, 8), (2, 8), (3, 8), (1, 10), (2, 9), (2, 10), (3, 9), (4, 9))


def random_instance(rng):
    """Points on a 1e-3 lattice so merging never sits on the tolerance."""
    n = int(rng.integers(0, 4))
    p = int(rng.integers(n + 1, 7))
    points = []
    for fiber_idx in range(int(rng.integers(1, 4))):
        xi = fiber_idx * 2.0 + round(float(rng.uniform(0, 1)), 3)
        size = int(rng.integers(1, 9))
        etas = rng.integers(0, 2000, size=size) / 1000.0
        for e in etas:
            points.append((xi, float(e) + 2.0 * int(rng.integers(-2, 3))))
    return points, n, p


def test_fold_subtracts_whole_periods():
    lam = fold_periodic(LambdaSet(((0.0, 2.3),)))
    assert lam.points == ((0.0, pytest.approx(0.3)),)


def test_fold_merges_congruent_points():
    lam = fold_periodic(LambdaSet(((0.0, 0.3), (0.0, 2.3))))
    assert len(lam.points) == 1


def test_fold_wraps_negative_heights():
    lam = fold_periodic(LambdaSet(((1.0, -0.5),)))
    assert lam.points == ((1.0, pytest.approx(1.5)),)


def test_fold_merges_across_the_wrap():
    lam = fold_periodic(LambdaSet(((0.0, 0.0), (0.0, 2.0 - 1e-12))))
    assert len(lam.points) == 1


def test_fold_is_idempotent():
    raw = LambdaSet(((0.0, 5.3), (1.0, -0.1), (1.0, 3.9)))
    once = fold_periodic(raw)
    twice = fold_periodic(once)
    assert once.points == twice.points


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_lambda_set_refuses_nonfinite_coordinates(bad):
    # folding would sort the finite neighbour of a NaN point out of the set
    with pytest.raises(ValueError, match="finite"):
        LambdaSet(((0.0, bad), (0.0, 0.5), (bad, 1.0)))
    with pytest.raises(ValueError, match="finite"):
        LambdaSet(((bad, 0.5),))


def test_fiber_extraction():
    lam = fold_periodic(LambdaSet(((0.0, 0.0), (0.0, 4.0 / 3.0), (0.0, 2.0 / 3.0))))
    assert fiber(lam, 0.0) == (0.0, pytest.approx(2.0 / 3.0), pytest.approx(4.0 / 3.0))
    assert fiber(lam, 5.0) == ()
    # an unfolded set is folded first: 2.0 and 4.0 land on 0.0
    raw = LambdaSet(((0.0, 2.0), (0.0, 8.0 / 3.0), (1e-12, -2.0 / 3.0), (0.0, 4.0)))
    assert fiber(raw, 0.0) == pytest.approx(fiber(lam, 0.0))


def test_classify_small_counts():
    assert classify_fiber((0.5,), 2, 3) == 1
    assert classify_fiber((0.5, 1.0), 2, 3) == 2
    # m = n+1 leaves nothing to search; class n+1 by default
    assert classify_fiber((0.1, 0.5, 1.0), 2, 3) == 3


def test_classify_quarter_turn_fiber_is_top_class():
    assert classify_fiber((0.0, 0.5, 1.5), 1, 3) == 3


def test_classify_cardinality_shortcut():
    etas = (0.1, 0.4, 0.9, 1.7)  # 4 >= p+1 for p=3
    assert classify_fiber(etas, 1, 3) == 3


def test_classify_validates_inputs():
    with pytest.raises(ValueError):
        classify_fiber((), 1, 3)
    with pytest.raises(ValueError):
        classify_fiber((0.1,), 1, 1)
    with pytest.raises(ValueError):
        classify_fiber((0.1,), -1, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_classify_refuses_nonfinite_phases(bad):
    # checked before the cardinality shortcuts, which would class the fiber
    # from its size alone
    for etas, n, p in (((0.0, bad, 1.0), 1, 3), ((0.0, 0.5, bad), 1, 3), ((bad,), 2, 3)):
        with pytest.raises(ValueError, match="finite"):
            classify_fiber(etas, n, p)


@pytest.mark.parametrize(
    "etas", [(0.0, 0.0, 1.0), (0.0, 2.0, 1.0), (0.0, 2.0 - 1e-12, 1.0)]
)
def test_classify_refuses_repeated_phases(etas):
    # two distinct nodes, which (0.0, 1.0) classes as 2, not the n+2 = 3 that
    # three distinct ones give; checked before both cardinality shortcuts,
    # which count phases, not nodes
    for n, p in ((1, 3), (3, 5), (0, 1)):
        with pytest.raises(ValueError, match="distinct"):
            classify_fiber(etas, n, p)


def test_classify_large_full_roots_fibers():
    # C(20, 8) and C(30, 10) (n+2)-subsets, but one h per phase outside P
    # decides each fiber
    for n, p in ((6, 20), (8, 30)):
        roots = roots_of_unity(p)
        assert classify_fiber(roots, n, p) == n + 1
        moved = list(roots)
        moved[7] += 1e-4
        assert classify_fiber(tuple(moved), n, p) == n + 2


def test_classify_permutation_invariant():
    rng = np.random.default_rng(5)
    etas = [0.15, 0.6, 1.05, 1.5, 1.95]
    base = classify_fiber(tuple(etas), 2, 5)
    for _ in range(5):
        shuffled = tuple(rng.permutation(etas))
        assert classify_fiber(shuffled, 2, 5) == base


def test_partition_folds_its_input():
    raw = LambdaSet(((0.0, 4.5), (0.0, 0.5), (1e-12, -1.0), (2.0, 2.25)))
    folded = fold_periodic(raw)
    part = partition(raw, 1, 3)
    assert part == partition(folded, 1, 3)
    assert part.fibers == {0.0: (0.5, 1.0), 2.0: (0.25,)}


def test_partition_singleton_is_class_one():
    lam = fold_periodic(LambdaSet(((3.0, 0.7),)))
    part = partition(lam, 2, 4)
    assert part.classes == {3.0: 1}


def test_partition_covers_every_fiber_once():
    rng = np.random.default_rng(6)
    points, n, p = random_instance(rng)
    part = partition(fold_periodic(LambdaSet(tuple(points))), n, p)
    assert sum(part.class_counts().values()) == len(part.fibers)
    assert set(part.classes) == set(part.fibers)


def test_consecutive_witness_grid_classifies_as_middle_class():
    # the witness construction's height set, sampled at several xi
    for n in (1, 2, 3):
        _, lam_heights = construct_consecutive_witness(n, gaussian())
        points = [(x, h) for x in (0.0, 1.0, 2.5) for h in lam_heights]
        part = partition(fold_periodic(LambdaSet(tuple(points))), n, n + 1)
        assert all(cls == n + 1 for cls in part.classes.values())


def test_partition_agrees_with_reference_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        points, n, p = random_instance(rng)
        part = partition(fold_periodic(LambdaSet(tuple(points))), n, p)
        want = reference_partition(points, n, p)
        got = {xi: cls for xi, cls in part.classes.items()}
        assert len(got) == len(want)
        for xi, cls in want.items():
            match = min(got, key=lambda x: abs(x - xi))
            assert abs(match - xi) <= 1e-9
            assert got[match] == cls


def test_adding_a_point_never_lowers_the_class():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(0, 4))
        p = int(rng.integers(n + 1, 7))
        size = int(rng.integers(1, 7))
        etas = sorted(set(float(v) / 1000.0 for v in rng.integers(0, 2000, size)))
        extra = float(rng.integers(0, 2000)) / 1000.0 + 0.0005
        before = reference_classify(tuple(etas), n, p)
        assert classify_fiber(tuple(etas), n, p) == before
        grown = tuple(sorted(set(etas) | {extra}))
        if len(grown) == len(etas):
            continue
        assert classify_fiber(grown, n, p) >= before


def test_classify_matches_oracle_on_roots_of_unity_subsets():
    rng = np.random.default_rng(9)
    for n, p in ORACLE_SIZES:
        roots = roots_of_unity(p)
        for m in range(n + 1, p + 1):
            etas = tuple(sorted(rng.choice(roots, size=m, replace=False)))
            assert classify_fiber(etas, n, p) == reference_classify(etas, n, p) == n + 1


def test_classify_matches_oracle_with_one_root_perturbed():
    # only subsets holding the moved phase discriminate; moving the last
    # phase puts the first such subset as deep in the search as a single
    # moved phase can
    for n, p in ORACLE_SIZES:
        roots = roots_of_unity(p)
        for moved in (0, p // 2, p - 1):
            for shift in (1e-4, 0.05):
                etas = list(roots)
                etas[moved] += shift
                etas = tuple(etas)
                assert classify_fiber(etas, n, p) == reference_classify(etas, n, p) == n + 2


def test_classify_matches_oracle_on_random_phases():
    rng = np.random.default_rng(10)
    for n, p in ORACLE_SIZES:
        for m in (n + 2, p):
            etas = tuple(random_unimodular_phases(rng, m))
            assert classify_fiber(etas, n, p) == reference_classify(etas, n, p)


def test_classify_threshold_is_set_by_the_widest_arrangement():
    # one (n+2)-subset whose arrangements straddle the tolerance: the top
    # class needs only the largest h-difference to clear it, as in the oracle
    rng = np.random.default_rng(13)
    for n, p in ORACLE_SIZES:
        if n == 0:
            continue  # a lone pair has a single arrangement
        etas = tuple(random_unimodular_phases(rng, n + 2))
        pts = [complex(np.exp(1j * np.pi * e)) for e in etas]
        h = abs(complete_homogeneous(p - n - 1, pts))
        gaps = [abs(a - b) for a, b in combinations(pts, 2)]
        assert max(gaps) > 1.1 * min(gaps)
        straddle = h * (min(gaps) + max(gaps)) / 2.0
        for tol, want in ((straddle, n + 2), (max(gaps) * h * 1.01, n + 1)):
            got = classify_fiber(etas, n, p, discriminant_tol=tol)
            assert got == reference_classify(etas, n, p, tol=tol) == want


def test_classify_full_roots_fiber_at_largest_benchmark_size():
    assert classify_fiber(roots_of_unity(14), 5, 14) == 6


def test_max_gap_times_h_is_largest_arrangement_difference():
    # h_k(P, x) - h_k(P, y) = (x - y) h_{k-1}(S): the pair set apart in an
    # (n+2)-subset S only scales the h-difference by |x - y|
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(0, 5))
        k = int(rng.integers(1, 9))
        pts = [complex(np.exp(1j * np.pi * e)) for e in random_unimodular_phases(rng, n + 2)]
        gap = max(abs(a - b) for a, b in combinations(pts, 2))
        product = gap * abs(complete_homogeneous(k - 1, pts))
        widest = 0.0
        for i, j in combinations(range(n + 2), 2):
            rest = [pts[t] for t in range(n + 2) if t not in (i, j)]
            diff = abs(h_brute(k, rest + [pts[i]]) - h_brute(k, rest + [pts[j]]))
            widest = max(widest, diff)
        assert product == pytest.approx(widest, rel=1e-12, abs=0.0)
