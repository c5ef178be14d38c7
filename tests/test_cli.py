import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hup_lab
from hup_lab import cli, measures
from hup_lab.cli import (
    Scenario,
    ScenarioError,
    emit_grid,
    load_scenario,
    main,
    parse_scenario_text,
    run_scenario,
)
from hup_lab.measures import (
    LineMeasure,
    construct_consecutive_witness,
    construct_cross_diagonal_witness,
    cross_ft,
    line_system_ft,
)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


FAST_WITNESS = """
kind = consecutive_witness
n = 1
xi_step = 0.5
"""

FAST_GRID = """
kind = ft_grid
measure = consecutive_witness
n = 1
xi_min = -2.0
xi_max = 2.0
xi_step = 1.0
eta_step = 0.5
"""


def test_parser_skips_comments_and_blanks():
    s = parse_scenario_text("# a comment\n\nkind = discriminant\nn = 1\n")
    assert s.kind == "discriminant"
    assert s.params == {"n": 1}


def test_parser_reads_json_values_with_string_fallback():
    s = parse_scenario_text(
        'kind = classify\npoints = [[0.0, 1.0]]\nexpected_counts = {"1": 1}\n'
    )
    assert s.params["points"] == [[0.0, 1.0]]
    assert s.params["expected_counts"] == {"1": 1}
    s2 = parse_scenario_text("kind = cross_witness\nvariant = diagonal\n")
    assert s2.params["variant"] == "diagonal"


def test_parser_rejects_malformed_lines():
    with pytest.raises(ScenarioError):
        parse_scenario_text("kind = reduce\njust words\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text("kind = reduce\nn = 1\nn = 2\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text("n = 1\n")  # kind missing
    with pytest.raises(ScenarioError):
        parse_scenario_text("kind = reduce\n = 3\n")


def test_unknown_kind_and_keys_are_rejected():
    with pytest.raises(ScenarioError):
        run_scenario(Scenario("bogus", {}))
    with pytest.raises(ScenarioError):
        run_scenario(Scenario("discriminant", {"etas": [0, 0.5, 1.5], "n": 1}))
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario(
                "discriminant",
                {"etas": [0, 0.5, 1.5], "n": 1, "p": 3, "mystery": True},
            )
        )
    # the off-set floor is fixed, not a scenario key
    with pytest.raises(ScenarioError, match="off_min"):
        run_scenario(Scenario("consecutive_witness", {"n": 1, "off_min": 1e-3}))
    # only cross_witness draws random densities, so only it takes a seed
    with pytest.raises(ScenarioError, match="seed"):
        run_scenario(
            Scenario("reduce", {"etas": [0, 0.5, 1.5], "n": 1, "p": 3, "seed": 0})
        )


def test_run_scenario_report_contents():
    s = Scenario("discriminant", {"etas": [0.0, 0.5, 1.5], "n": 1, "p": 3,
                                  "expect": 2.0})
    report = run_scenario(s)
    assert report.overall
    names = [c.name for c in report.checks]
    assert "matches_expected" in names
    rendered = report.render()
    assert rendered.startswith("scenario discriminant\n")
    assert rendered.endswith("overall PASS\n")
    assert "param p = 3" in rendered


def test_reports_are_deterministic():
    s = Scenario("reduce", {"etas": [0.0, 0.4, 0.9, 1.3], "n": 2, "p": 7})
    a = run_scenario(s).render()
    b = run_scenario(s).render()
    assert a == b


def test_random_cross_scenario_is_seed_deterministic():
    base = {"n": 2, "seed": 11}
    a = run_scenario(Scenario("cross_witness", dict(base))).render()
    b = run_scenario(Scenario("cross_witness", dict(base))).render()
    c = run_scenario(Scenario("cross_witness", dict(base, seed=12))).render()
    assert a == b
    assert a != c


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_run_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.scenario", FAST_WITNESS)
    assert main(["run", good]) == 0
    out = capsys.readouterr().out
    assert "overall PASS" in out

    text = (
        "kind = classify\npoints = [[0, 0.0], [0, 0.5], [0, 1.5]]\nn = 1\np = 3\n"
        'expected_counts = {"2": 1}\n'
    )
    assert main(["run", write(tmp_path, "counts.scenario", text)]) == 1
    assert "overall FAIL" in capsys.readouterr().out

    # a zero measure vanishes on its lambda rows too; its off-set check fails it
    text = (
        "kind = ft_grid\nmeasure = line\nheights = [0, 1]\ndensities = [[], []]\n"
        "lambda_heights = [0.5]\n"
    )
    assert main(["run", write(tmp_path, "zero.scenario", text)]) == 1
    out = capsys.readouterr().out
    assert "check off_lambda_rows_max measured=0 threshold=0.001 op=ge result=FAIL" in out
    assert out.endswith("overall FAIL\n")

    bad = write(tmp_path, "bad.scenario", "kind = nope\n")
    assert main(["run", bad]) == 2

    assert main(["run", str(tmp_path / "absent.scenario")]) == 3


def test_grid_prints_its_row_count_and_path(tmp_path, capsys):
    grid = write(tmp_path, "grid.scenario", FAST_GRID)
    out = tmp_path / "g.csv"
    assert main(["grid", grid, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"grid rows 25 -> {out}\n"


# the benchmark's steepest curve sweeps, either sign
STEEP_SWEEPS = {
    f"steep_sweep_c{c}": f"kind = exp_curve_witness\nc = {c}\nd = 1\n"
    "x_min = -5\nx_max = 5\nx_step = 0.02\n"
    for c in ("3.2", "-3.2")
}


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in SCENARIOS.glob("*.scenario")) + sorted(STEEP_SWEEPS)
)
def test_shipped_scenario_passes_twice(tmp_path, capsys, name):
    # each shipped witness check exits 0 twice with one report, and every
    # curve estimate is within 1e-9
    if name in STEEP_SWEEPS:
        path = write(tmp_path, "s.scenario", STEEP_SWEEPS[name])
    else:
        path = str(SCENARIOS / f"{name}.scenario")
    outs = []
    for _ in range(2):
        assert main(["run", path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].endswith("overall PASS\n")
    errors = [float(ln.split()[2]) for ln in outs[0].splitlines()
              if ln.startswith("info quad_error_max ")]
    assert all(e <= 1e-9 for e in errors)
    assert errors or name not in STEEP_SWEEPS


def test_main_run_is_byte_deterministic(tmp_path, capsys):
    good = write(tmp_path, "good.scenario", FAST_WITNESS)
    main(["run", good])
    first = capsys.readouterr().out
    main(["run", good])
    second = capsys.readouterr().out
    assert first == second


def test_precondition_errors_exit_two(tmp_path):
    coincident = write(
        tmp_path,
        "coincident.scenario",
        "kind = reduce\netas = [0.3, 0.3, 1.1]\nn = 1\np = 3\n",
    )
    assert main(["run", coincident]) == 2
    zero_alpha = write(
        tmp_path, "zero_alpha.scenario", "kind = kronecker_check\nalpha = 0.0\n"
    )
    assert main(["run", zero_alpha]) == 2


@pytest.mark.parametrize(
    "text, cause",
    [
        ("kind = cross_witness\nvariant = vertical\n",
         "variant must be one of the cross_witness cases: diagonal, xi_axis"),
        ("kind = surface_witness\ncase = tilted\npoints = 2\n",
         "case must be one of the surface_witness cases: axis, slant"),
        ("kind = ft_grid\nmeasure = spiral\n",
         "measure must be one of the ft_grid cases: line, cross, consecutive_witness"),
        ("kind = ft_grid\nmeasure = line\ndensities = [[]]\n",
         "ft_grid measure = line requires the 'heights' key"),
        ("kind = ft_grid\nmeasure = cross\n",
         "ft_grid measure = cross requires the 'densities' key"),
        ("kind = ft_grid\nmeasure = consecutive_witness\n",
         "ft_grid measure = consecutive_witness requires the 'n' key"),
        ("kind = ft_grid\n", "ft_grid requires the 'measure' key"),
        ("kind = surface_witness\npoints = 1\n", "at least 2 points"),
        ("kind = consecutive_witness\nn = 1\nxi_step = 0\n", "xi grid needs step > 0"),
        ("kind = consecutive_witness\nn = 1\nxi_min = 1\nxi_max = -1\n",
         "max >= min"),
        ("n = 1\n", "missing the 'kind' key"),
        ("kind = ft_grid\nmeasure = cross\ndensities = []\n",
         "densities must hold at least one density"),
        ("kind = cross_witness\nn = -1\n", "n must be non-negative"),
        ("kind = reduce\netas = [0.3]\nn = -1\np = 0\n", "n must be non-negative"),
        # the (n, p) contract holds with no fiber to classify, as with one
        ("kind = classify\npoints = []\nn = -1\np = 0\n", "n must be non-negative"),
        ("kind = classify\npoints = [[0, 0.5]]\nn = -1\np = 0\n", "n must be non-negative"),
        # each phase root search would step past |t| = 26.6, where exp(t**2) overflows
        ("kind = exp_curve_witness\nc = 1e-120\n", "outward root search"),
        ("kind = surface_witness\ncase = slant\npoints = 2\nc = 1e-120\n",
         "outward root search"),
        # a factor that underflows on the curve's support has absolute mass 0
        pytest.param(
            'kind = surface_witness\ncase = axis\npsi_density = [{"kind":"gaussian","center":40}]\n',
            "surface factor psi_density has absolute mass 0",
            marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
        ),
        pytest.param(
            'kind = surface_witness\ncase = axis\nh_density = [{"kind":"gaussian","center":-30}]\n',
            "surface factor h_density has absolute mass 0",
            marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
        ),
        pytest.param(
            "kind = ft_grid\nmeasure = line\nheights = [0]\ndensities = [[]]\n"
            "lambda_heights = [0, 1]\nxi_step = 1\neta_max = 1\neta_step = 1\n",
            "every eta row is a lambda row",
            marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
        ),
        # refused before any quadrature, not after five refinement passes
        ("kind = exp_curve_witness\nc = 2.0\nquad_tol = -1\n", "quad_tol must be positive"),
        ("kind = exp_curve_witness\nc = 2.0\nquad_tol = 0\n", "quad_tol must be positive"),
        ("kind = surface_witness\ncase = slant\nquad_tol = -1\n", "quad_tol must be positive"),
        ("kind = surface_witness\nquad_tol = 0\n", "quad_tol must be positive"),
    ],
    ids=["unknown_variant", "unknown_case", "unknown_measure", "line_without_heights",
         "cross_without_densities", "consecutive_without_n", "grid_without_measure",
         "one_surface_point", "zero_step", "max_below_min", "no_kind",
         "empty_cross_densities", "diagonal_negative_n", "reduce_negative_n", "classify_empty_negative_n",
         "classify_one_point_negative_n", "curve_tiny_slope",
         "slant_tiny_slope", "axis_psi_underflows",
         "axis_h_underflows", "grid_all_lambda_rows", "curve_negative_quad_tol",
         "curve_zero_quad_tol", "slant_negative_quad_tol", "axis_zero_quad_tol"],
)
def test_refusals_name_their_cause(tmp_path, capsys, text, cause):
    assert main(["run", write(tmp_path, "r.scenario", text)]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert cause in captured.err


SMALL_GRID = "xi_min = 0.0\nxi_max = 1.0\nxi_step = 1.0\neta_step = 1.0\n"
LINE_GRID = (
    "kind = ft_grid\nmeasure = line\nheights = [0.0]\n"
    'densities = [[{"kind": "gaussian"}]]\n' + SMALL_GRID
)
CROSS_GRID = 'kind = ft_grid\nmeasure = cross\ndensities = [[{"kind": "gaussian"}]]\n'
CROSS_GRID += SMALL_GRID
CONSECUTIVE_GRID = "kind = ft_grid\nmeasure = consecutive_witness\nn = 1\n" + SMALL_GRID
AXIS = "kind = surface_witness\ncase = axis\npoints = 2\n"
SLANT = "kind = surface_witness\ncase = slant\npoints = 2\n"
XI_AXIS = "kind = cross_witness\nvariant = xi_axis\n"


@pytest.mark.parametrize(
    "text, case, key",
    [
        (AXIS + "c = 5.0\n", "surface_witness case = axis", "c"),
        (SLANT + "psi_density = []\n", "surface_witness case = slant", "psi_density"),
        (XI_AXIS + "n = 7\n", "cross_witness variant = xi_axis", "n"),
        (XI_AXIS + "seed = 3\n", "cross_witness variant = xi_axis", "seed"),
        (LINE_GRID + "n = 1\n", "ft_grid measure = line", "n"),
        (LINE_GRID + "seed_density = []\n", "ft_grid measure = line", "seed_density"),
        (CROSS_GRID + "heights = [0.0]\n", "ft_grid measure = cross", "heights"),
        (CONSECUTIVE_GRID + "heights = [0.0]\n", "ft_grid measure = consecutive_witness",
         "heights"),
        (CONSECUTIVE_GRID + "densities = [[]]\n",
         "ft_grid measure = consecutive_witness", "densities"),
    ],
    ids=["axis_c", "slant_psi_density", "xi_axis_n", "xi_axis_seed", "line_n",
         "line_seed_density", "cross_heights", "consecutive_heights",
         "consecutive_densities"],
)
def test_keys_of_another_case_are_refused(tmp_path, capsys, text, case, key):
    # each case has its own schema: a key only another case reads is unknown
    assert main(["run", write(tmp_path, "k.scenario", text)]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert f"unknown keys for {case}: {key}\n" in captured.err


@pytest.mark.parametrize(
    "text, label, key",
    [
        ("kind = consecutive_witness\nn = 1\ntolerance = 1e-12\n",
         "consecutive_witness", "tolerance"),
        ("kind = cross_witness\ntolerance = 1e-12\n",
         "cross_witness variant = diagonal", "tolerance"),
        ("kind = exp_curve_witness\nc = 2.0\ntolerance = 1e-6\n",
         "exp_curve_witness", "tolerance"),
        (AXIS + "tolerance = 1e-6\n", "surface_witness case = axis", "tolerance"),
        ("kind = classify\npoints = [[0, 0.5]]\nn = 1\np = 3\ntolerance = 1e-9\n",
         "classify", "tolerance"),
        ("kind = discriminant\netas = [0.0, 0.5, 1.5]\nn = 1\np = 3\ntolerance = 1e-9\n",
         "discriminant", "tolerance"),
        ("kind = reduce\netas = [0.0, 0.5, 1.5]\nn = 1\np = 3\ntolerance = 1e-9\n",
         "reduce", "tolerance"),
        (LINE_GRID + "tolerance = 1e-12\n", "ft_grid measure = line", "tolerance"),
        ("kind = kronecker_check\nalpha = 1.5\ntolerance = 1e-6\n",
         "kronecker_check", "tolerance"),
        ("kind = cross_witness\ngrid_points = 1001\n",
         "cross_witness variant = diagonal", "grid_points"),
        ('kind = cross_witness\ndensities = [[{"kind": "gaussian"}]]\n',
         "cross_witness variant = diagonal", "densities"),
        ('kind = cross_witness\nvariant = xi_axis\ndensity = [{"kind": "odd_bump"}]\n',
         "cross_witness variant = xi_axis", "density"),
        (SLANT + "profile = []\n", "surface_witness case = slant", "profile"),
        ("kind = kronecker_check\nalpha = 1.5\nsample_count = 401\n",
         "kronecker_check", "sample_count"),
    ],
    ids=["consecutive_tolerance", "cross_tolerance", "curve_tolerance",
         "surface_tolerance", "classify_tolerance", "discriminant_tolerance",
         "reduce_tolerance", "grid_tolerance", "kronecker_tolerance",
         "cross_grid_points", "diagonal_densities", "xi_axis_density",
         "slant_profile", "kronecker_sample_count"],
)
def test_fixed_thresholds_and_sizes_are_not_keys(tmp_path, capsys, text, label, key):
    # each is the one value every run uses, so setting it, even to that
    # value, is refused
    assert main(["run", write(tmp_path, "f.scenario", text)]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert f"unknown keys for {label}: {key}\n" in captured.err


def test_run_takes_no_tolerance_flag(tmp_path, capsys):
    good = write(tmp_path, "good.scenario", FAST_WITNESS)
    with pytest.raises(SystemExit) as exc:
        main(["run", good, "--tolerance", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "grid"])
def test_run_takes_no_quiet_flag(tmp_path, capsys, command):
    # neither command has a flag that drops its stdout
    out = ["--out", str(tmp_path / "g.csv")] if command == "grid" else []
    with pytest.raises(SystemExit) as exc:
        main([command, write(tmp_path, "g.scenario", FAST_GRID), *out, "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quiet" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, words",
    [
        ("kind = cross_witness\nvariant = [1]\n", "variant must be one of"),
        ("kind = surface_witness\ncase = 5\n", "case must be one of"),
        ("kind = ft_grid\nmeasure = null\n", "measure must be one of"),
    ],
    ids=["variant_list", "case_number", "measure_null"],
)
def test_mistyped_case_words_are_refused(tmp_path, capsys, text, words):
    assert main(["run", write(tmp_path, "w.scenario", text)]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert captured.err.startswith(f"error: {words}")


@pytest.mark.parametrize(
    "text",
    [
        "kind = classify\npoints = [[0, 0], [0, 0.5], [0, 1.5]]\nn = 1\n",
        "kind = discriminant\netas = [0.0, 0.5, 1.5]\nn = 1\n",
        "kind = reduce\netas = [0.0, 0.5, 1.5]\nn = 1\n",
    ],
    ids=["classify", "discriminant", "reduce"],
)
def test_huge_power_is_refused(tmp_path, capsys, text):
    # p sizes a table of p + 1 h values, so it is bounded like a grid
    path = write(tmp_path, "p.scenario", text + "p = 1000000000000000\n")
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert captured.err.startswith("error: p must be a whole number of at most")


def test_grid_without_lambda_heights_checks_its_size(tmp_path, capsys):
    text = (
        "kind = ft_grid\nmeasure = line\nheights = [0.0]\n"
        'densities = [[{"kind": "gaussian"}]]\n'
        "xi_min = 0.0\nxi_max = 2.0\nxi_step = 1.0\neta_step = 1.0\n"
    )
    assert main(["run", write(tmp_path, "g.scenario", text)]) == 0
    out = capsys.readouterr().out
    assert "check grid_evaluated measured=9 threshold=1 op=ge result=PASS" in out


NONFINITE_POINTS = """
kind = classify
points = [[0, NaN], [0, 0.5], [0, 1.0], [NaN, 0.2]]
n = 1
p = 3
"""


def test_nonfinite_classify_points_are_refused(tmp_path, capsys):
    path = write(tmp_path, "nan_points.scenario", NONFINITE_POINTS)
    with pytest.raises(ScenarioError, match="non-finite"):
        run_scenario(load_scenario(path))
    assert main(["run", path]) == 2
    assert "overall" not in capsys.readouterr().out


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "inf", "nan"])
def test_nonfinite_scalar_is_refused(tmp_path, value):
    path = write(tmp_path, "inf_c.scenario", f"kind = exp_curve_witness\nc = {value}\n")
    with pytest.raises(ScenarioError, match="non-finite"):
        run_scenario(load_scenario(path))
    assert main(["run", path]) == 2


@pytest.mark.parametrize(
    "text, key",
    [
        (FAST_GRID + "lambda_heights = 5\n", "lambda_heights"),
        ("kind = reduce\netas = [0.0, 0.5, 1.5]\nn = [1]\np = 3\n", "n"),
        ('kind = exp_curve_witness\nc = {"a": 1}\n', "c"),
        # null stands for the default only where the default is null
        ("kind = exp_curve_witness\nc = 2.0\nd = null\n", "d"),
        ("kind = classify\npoints = [[0, 0.5]]\nn = 1\np = 3\nexpected_counts = [1]\n",
         "expected_counts"),
        # elements are checked at any depth
        ("kind = discriminant\netas = [[0.0], 0.5, 1.5]\nn = 1\np = 3\n", "etas"),
        ('kind = kronecker_check\nalpha = 1.5\ndensity = [{"center": [1]}]\n',
         "density"),
        # whole-number keys refuse fractions and booleans rather than truncate
        ("kind = reduce\netas = [0.0, 0.5, 1.5]\nn = 1.9\np = 3.7\n", "n"),
        ("kind = surface_witness\npoints = 3.9\n", "points"),
        ("kind = reduce\netas = [0.0, 0.5, 1.5]\nn = true\np = 3\n", "n"),
        # "3" and "3.0" name one class
        ("kind = classify\npoints = [[0, 0], [0, 0.5], [0, 1.5]]\nn = 1\np = 3\n"
         'expected_counts = {"3": 1, "3.0": 5}\n', "expected_counts"),
        # grids beyond GRID_CAP points are refused before any allocation
        ("kind = consecutive_witness\nn = 1\nxi_step = 1e-300\n", "xi_step"),
        ("kind = consecutive_witness\nn = 1\nxi_min = -1e308\nxi_max = 1e308\n",
         "xi_step"),
        ("kind = surface_witness\npoints = 100000000000000000000\n", "points"),
        # so is n: n + 2 lines checked on n + 1 heights, and n + 1 random cross
        # levels on 1001 points, refused before any level is drawn
        ("kind = consecutive_witness\nn = 1000000000000000\n", "n"),
        ("kind = ft_grid\nmeasure = consecutive_witness\nn = 1000000000000000\n", "n"),
        ("kind = cross_witness\nn = 1000000000000000\n", "n"),
    ],
    ids=["number_for_list", "list_for_number", "object_for_number", "null_for_number",
         "list_for_object", "list_in_number_list", "list_in_atom", "fraction_for_whole",
         "fraction_for_points", "bool_for_whole", "class_written_twice", "tiny_step",
         "overflowing_span", "huge_surface", "huge_consecutive_n", "huge_grid_n",
         "huge_cross_n"],
)
def test_mistyped_values_are_refused(tmp_path, capsys, text, key):
    path = write(tmp_path, "t.scenario", text)
    with pytest.raises(ScenarioError, match=f"^{key} must be"):
        run_scenario(load_scenario(path))
    assert main(["run", path]) == 2
    assert "overall" not in capsys.readouterr().out


def test_grid_cap_counts_each_axis_and_their_product(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "GRID_CAP", 25)
    # FAST_GRID has 5 xi by 5 eta points: exactly at the cap
    assert main(["grid", write(tmp_path, "g.scenario", FAST_GRID),
                 "--out", str(tmp_path / "g.csv")]) == 0
    wider = FAST_GRID.replace("eta_step = 0.5", "eta_step = 0.4")  # 5 x 6 points
    with pytest.raises(ScenarioError, match="^xi_step and eta_step must be"):
        run_scenario(parse_scenario_text(wider))
    # each level's eta factors: 3 levels by 11 eta values on one xi
    one_xi = "xi_min = 0.0\nxi_max = 0.0\neta_step = 0.2\n"
    for levels, key in [
        ("measure = consecutive_witness\nn = 1\n", "n"),
        ("measure = line\nheights = [0, 1, 2]\ndensities = [[], [], []]\n", "heights"),
        ('measure = cross\ndensities = [[{"kind": "gaussian"}], [], []]\n', "densities"),
    ]:
        text = "kind = ft_grid\n" + levels + one_xi
        with pytest.raises(ScenarioError, match=f"^{key} and eta_step must be"):
            run_scenario(parse_scenario_text(text))
        fewer = text.replace("eta_step = 0.2", "eta_step = 0.3")  # 3 x 7 values
        assert emit_grid(parse_scenario_text(fewer), str(tmp_path / "f.csv")) == 7
    line = "kind = consecutive_witness\nn = 1\nxi_min = 0\nxi_step = 1\nxi_max = "
    assert run_scenario(parse_scenario_text(line + "24\n")).overall  # 25 points
    with pytest.raises(ScenarioError, match="^xi_step must be"):
        run_scenario(parse_scenario_text(line + "25\n"))


def test_quadrature_short_of_its_tolerance_is_refused(tmp_path, capsys):
    text = "kind = exp_curve_witness\nc = 1.0\nx_step = 0.5\nquad_tol = 1e-18\n"
    assert main(["run", write(tmp_path, "q.scenario", text)]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert "exceeds the tolerance 1e-18" in captured.err


def test_nonfinite_values_nested_in_objects_are_refused():
    density = [{"kind": "gaussian", "center": 0.0, "width": float("inf")}]
    with pytest.raises(ScenarioError, match="non-finite"):
        run_scenario(Scenario("kronecker_check", {"alpha": 0.5, "density": density}))
    amplitude = [
        {"kind": "box", "center": 0.0, "width": 1.0, "amplitude": [1.0, float("nan")]}
    ]
    with pytest.raises(ScenarioError, match="non-finite"):
        run_scenario(Scenario("kronecker_check", {"alpha": 0.5, "density": amplitude}))


def test_grid_writes_expected_csv(tmp_path):
    scenario = load_scenario(write(tmp_path, "grid.scenario", FAST_GRID))
    out = tmp_path / "grid.csv"
    rows = emit_grid(scenario, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,eta,re,im,abs"
    assert rows == len(lines) - 1 == 5 * 5
    # row-major: xi varies slowest
    first_direct = [float(v) for v in lines[1].split(",")]
    assert first_direct[0] == -2.0 and first_direct[1] == 0.0


def test_grid_rows_on_lambda_heights_vanish(tmp_path):
    scenario = load_scenario(write(tmp_path, "grid.scenario", FAST_GRID))
    out = tmp_path / "grid.csv"
    emit_grid(scenario, str(out))
    for line in out.read_text().splitlines()[1:]:
        xi, eta, re, im, mag = (float(v) for v in line.split(","))
        if eta in (0.0, 1.0):  # the n=1 witness heights
            assert mag <= 1e-12


def test_grid_zero_measure_is_all_zeros(tmp_path):
    text = (
        "kind = ft_grid\nmeasure = line\nheights = [0.0]\ndensities = [[]]\n"
        "xi_min = 0.0\nxi_max = 2.0\nxi_step = 1.0\n"
        "eta_min = 0.0\neta_max = 2.0\neta_step = 1.0\n"
    )
    scenario = load_scenario(write(tmp_path, "zero.scenario", text))
    out = tmp_path / "zero.csv"
    rows = emit_grid(scenario, str(out))
    assert rows == 9
    for line in out.read_text().splitlines()[1:]:
        assert line.endswith(",0,0,0")


def test_grid_abs_constant_along_eta_for_single_line(tmp_path):
    text = (
        "kind = ft_grid\nmeasure = line\nheights = [0.0]\n"
        'densities = [[{"kind": "gaussian"}]]\n'
        "xi_min = -1.0\nxi_max = 1.0\nxi_step = 1.0\n"
        "eta_min = 0.0\neta_max = 2.0\neta_step = 0.5\n"
    )
    scenario = load_scenario(write(tmp_path, "single.scenario", text))
    out = tmp_path / "single.csv"
    emit_grid(scenario, str(out))
    by_xi = {}
    for line in out.read_text().splitlines()[1:]:
        xi, eta, re, im, mag = (float(v) for v in line.split(","))
        by_xi.setdefault(xi, set()).add(round(mag, 14))
    assert all(len(mags) == 1 for mags in by_xi.values())


@pytest.mark.parametrize(
    "name", ["fast_grid"] + sorted(p.stem for p in SCENARIOS.glob("ft_grid*.scenario"))
)
def test_grid_is_byte_deterministic(tmp_path, name):
    if name == "fast_grid":
        path = write(tmp_path, "grid.scenario", FAST_GRID)
    else:
        path = str(SCENARIOS / f"{name}.scenario")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["grid", path, "--out", str(out1)]) == 0
    assert main(["grid", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _oracle_csv(transform, measure, xi, eta) -> bytes:
    """The grid CSV built field by field: one transform call per xi."""
    lines = ["xi,eta,re,im,abs\n"]
    for x in xi:
        values = transform(measure, float(x), eta)
        for e, v in zip(eta, values):
            v = complex(v)
            lines.append(
                f"{float(x):.17g},{float(e):.17g},"
                f"{v.real:.17g},{v.imag:.17g},{abs(v):.17g}\n"
            )
    return "".join(lines).encode("utf-8")


def _axis(lo, step, count):
    return lo + step * np.arange(count)


# Each grid: its scenario text, then (transform, measure, xi, eta) built
# from the library directly.  Steps of 0.1 and 0.05 give axis values such
# as 0.30000000000000004 that need all 17 digits.
ORACLE_GRIDS = {
    "line": (
        "kind = ft_grid\nmeasure = line\nheights = [0.0, 1.5]\n"
        'densities = [[{"kind": "triangle", "center": 0.3, "width": 0.8}], '
        '[{"kind": "box", "center": -0.2, "width": 1.1, "amplitude": [0.5, -1.0]}, '
        '{"kind": "triangle", "width": 0.7, "amplitude": -1.0}]]\n'
        "xi_min = -3.0\nxi_max = 3.0\nxi_step = 0.1\n"
        "eta_min = 0.0\neta_max = 2.0\neta_step = 0.1\n",
        lambda: (
            line_system_ft,
            LineMeasure(
                (0.0, 1.5),
                (
                    measures.triangle(0.3, 0.8),
                    measures.box(-0.2, 1.1, 0.5 - 1.0j)
                    + measures.triangle(0.0, 0.7, -1.0),
                ),
            ),
            _axis(-3.0, 0.1, 61),
            _axis(0.0, 0.1, 21),
        ),
    ),
    "cross": (
        "kind = ft_grid\nmeasure = cross\n"
        'densities = [[{"kind": "odd_bump"}], [{"kind": "gaussian", '
        '"center": 0.5, "width": 0.7, "amplitude": [0.3, -1.2]}]]\n'
        "xi_min = -2.0\nxi_max = 2.0\nxi_step = 0.1\n"
        "eta_min = -1.0\neta_max = 1.0\neta_step = 0.1\n",
        lambda: (
            cross_ft,
            construct_cross_diagonal_witness(
                [measures.odd_bump(), measures.gaussian(0.5, 0.7, 0.3 - 1.2j)]
            ),
            _axis(-2.0, 0.1, 41),
            _axis(-1.0, 0.1, 21),
        ),
    ),
    "consecutive_witness": (
        "kind = ft_grid\nmeasure = consecutive_witness\nn = 2\n"
        'seed_density = [{"kind": "gaussian", "center": 0.2, "width": 0.9}, '
        '{"kind": "triangle", "amplitude": [0.6, 0.8]}]\n'
        "xi_min = -2.0\nxi_max = 2.0\nxi_step = 0.05\n"
        "eta_min = 0.0\neta_max = 2.0\neta_step = 0.1\n",
        lambda: (
            line_system_ft,
            construct_consecutive_witness(
                2, measures.gaussian(0.2, 0.9) + measures.triangle(0.0, 1.0, 0.6 + 0.8j)
            )[0],
            _axis(-2.0, 0.05, 81),
            _axis(0.0, 0.1, 21),
        ),
    ),
    # the transform of a gaussian runs through exponent form, through
    # subnormals near |xi| = 30.5 and to exact zeros from |xi| = 31 on
    "gaussian_tails": (
        "kind = ft_grid\nmeasure = line\nheights = [0.0]\n"
        'densities = [[{"kind": "gaussian", "width": 1.0}]]\n'
        "xi_min = -32.0\nxi_max = 32.0\nxi_step = 0.25\n"
        "eta_min = 0.0\neta_max = 2.0\neta_step = 0.5\n",
        lambda: (
            line_system_ft,
            LineMeasure((0.0,), (measures.gaussian(0.0, 1.0),)),
            _axis(-32.0, 0.25, 257),
            _axis(0.0, 0.5, 5),
        ),
    ),
    # 8 xi rows of 201 eta values are more rows than one batch of the
    # writer holds, so a batch ends, and the next starts, inside an xi row
    "split_batches": (
        "kind = ft_grid\nmeasure = consecutive_witness\nn = 1\n"
        "xi_min = -1.0\nxi_max = 1.0\nxi_step = 0.25\n"
        "eta_min = 0.0\neta_max = 2.0\neta_step = 0.01\n",
        lambda: (
            line_system_ft,
            construct_consecutive_witness(1, measures.gaussian(0.0, 1.0))[0],
            _axis(-1.0, 0.25, 9),
            _axis(0.0, 0.01, 201),
        ),
    ),
    # 1001 x 101: 125 `_ft_rows` blocks of 8 xi rows, then a last block of one
    "wide": (
        "kind = ft_grid\nmeasure = consecutive_witness\nn = 1\n"
        'seed_density = [{"kind": "gaussian", "center": 0.3, "width": 0.9, '
        '"amplitude": [0.6, -0.8]}, {"kind": "triangle", "width": 0.7}]\n'
        "eta_step = 0.02\n",
        lambda: (
            line_system_ft,
            construct_consecutive_witness(
                1, measures.gaussian(0.3, 0.9, 0.6 - 0.8j) + measures.triangle(0.0, 0.7)
            )[0],
            _axis(-10.0, 0.02, 1001),
            _axis(0.0, 0.02, 101),
        ),
    ),
    # the same size on a cross: every level mirrored, complex amplitudes,
    # one empty level
    "wide_cross": (
        "kind = ft_grid\nmeasure = cross\n"
        'densities = [[{"kind": "gaussian", "center": 0.3, "width": 0.9, '
        '"amplitude": [0.6, -0.8]}], [], [{"kind": "triangle", "center": -0.5, '
        '"width": 0.7, "amplitude": [0.0, 1.5]}, {"kind": "box", "width": 1.2}]]\n'
        "eta_step = 0.02\n",
        lambda: (
            cross_ft,
            construct_cross_diagonal_witness(
                [
                    measures.gaussian(0.3, 0.9, 0.6 - 0.8j),
                    measures.zero_density(),
                    measures.triangle(-0.5, 0.7, 1.5j) + measures.box(0.0, 1.2),
                ]
            ),
            _axis(-10.0, 0.02, 1001),
            _axis(0.0, 0.02, 101),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_grid_csv_matches_field_by_field_oracle(tmp_path, name):
    text, build = ORACLE_GRIDS[name]
    transform, measure, xi, eta = build()
    out = tmp_path / "g.csv"
    rows = emit_grid(load_scenario(write(tmp_path, "g.scenario", text)), str(out))
    assert rows == len(xi) * len(eta)
    assert out.read_bytes() == _oracle_csv(transform, measure, xi, eta)


@pytest.mark.parametrize(
    "axes, xi",
    [
        ("xi_min = 0.5\nxi_max = 0.5\n", [0.5]),
        ("xi_min = -1.0\nxi_max = 1.0\nxi_step = 0.5\n", [-1.0, -0.5, 0.0, 0.5, 1.0]),
    ],
    ids=["one_point", "one_eta"],
)
def test_grid_edge_shapes_write_every_row(tmp_path, axes, xi):
    text = (
        "kind = ft_grid\nmeasure = consecutive_witness\nn = 1\n"
        + axes
        + "eta_min = 1.25\neta_max = 1.25\n"
    )
    out = tmp_path / "edge.csv"
    rows = emit_grid(load_scenario(write(tmp_path, "e.scenario", text)), str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,eta,re,im,abs"
    assert rows == len(lines) - 1 == len(xi)
    fields = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [f[:2] for f in fields] == [[x, 1.25] for x in xi]


def test_grid_command_validates_kind_and_path(tmp_path):
    not_grid = write(tmp_path, "w.scenario", FAST_WITNESS)
    assert main(["grid", not_grid, "--out", str(tmp_path / "x.csv")]) == 2
    grid = write(tmp_path, "g.scenario", FAST_GRID)
    missing_dir = str(tmp_path / "no" / "such" / "dir" / "out.csv")
    assert main(["grid", grid, "--out", missing_dir]) == 3
    assert main(["grid", grid, "--out", str(tmp_path / "ok.csv")]) == 0


def test_density_atoms_round_trip_through_scenarios():
    atoms = [
        {"kind": "box", "center": 1.0, "width": 2.0, "amplitude": [0.0, 1.0]},
        {"kind": "odd_bump", "width": 0.5},
    ]
    s = Scenario(
        "kronecker_check", {"alpha": 1.0, "density": atoms}
    )
    report = run_scenario(s)
    assert report.overall
    echoed = json.loads(
        [ln for ln in report.render().splitlines() if ln.startswith("param density")][
            0
        ].split(" = ", 1)[1]
    )
    assert echoed == atoms


def test_density_atom_validation():
    with pytest.raises(ScenarioError):
        run_scenario(Scenario("kronecker_check", {"alpha": 1.0, "density": "nope"}))
    bad_atom = [{"kind": "gaussian", "sigma": 1.0}]
    with pytest.raises(ScenarioError):
        run_scenario(Scenario("kronecker_check", {"alpha": 1.0, "density": bad_atom}))
    bad_width = [{"kind": "gaussian", "width": -1.0}]
    with pytest.raises(ScenarioError):
        run_scenario(
            Scenario("kronecker_check", {"alpha": 1.0, "density": bad_width})
        )


def test_classify_scenario_counts_mismatch_fails(tmp_path):
    text = (
        "kind = classify\n"
        "points = [[0.0, 0.0], [0.0, 0.5], [0.0, 1.5]]\n"
        "n = 1\np = 3\n"
        'expected_counts = {"2": 1}\n'
    )
    path = write(tmp_path, "c.scenario", text)
    assert main(["run", path]) == 1


def test_empty_density_is_the_zero_density(tmp_path, capsys):
    seed = write(
        tmp_path, "c.scenario", "kind = consecutive_witness\nn = 1\nseed_density = []\n"
    )
    assert main(["run", seed]) == 2
    assert "overall" not in capsys.readouterr().out
    grid = write(tmp_path, "g.scenario", FAST_GRID + "seed_density = []\n")
    assert main(["grid", grid, "--out", str(tmp_path / "g.csv")]) == 2
    text = "kind = kronecker_check\nalpha = 1.5\ndensity = []\n"
    kron = write(tmp_path, "k.scenario", text)
    assert main(["run", kron]) == 1
    assert "nonperiodicity_residual measured=0 " in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "kind = surface_witness\npoints = 3\npsi_density = []\n",
        "kind = surface_witness\npoints = 3\nh_density = []\n",
        "kind = surface_witness\ncase = slant\npoints = 3\nh_density = []\n",
        # a slant factor that underflows on the curve
        'kind = surface_witness\ncase = slant\npoints = 3\nh_density = [{"kind":"gaussian","center":-30}]\n',
        # supported in [9, 11], off the curve's [-2.5, 2.5]
        'kind = surface_witness\ncase = axis\npsi_density = [{"kind":"triangle","center":10}]\n',
        'kind = surface_witness\ncase = axis\nh_density = [{"kind":"triangle","center":10}]\n',
    ],
)
def test_zero_surface_factor_is_refused(tmp_path, capsys, text):
    # a zero factor makes the whole surface witness zero, which would pass
    assert main(["run", write(tmp_path, "s.scenario", text)]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert "absolute mass" in captured.err


def test_null_density_selects_the_default():
    base = {"n": 1, "xi_step": 0.5}
    given = Scenario("consecutive_witness", dict(base, seed_density=None))
    absent = Scenario("consecutive_witness", base)
    assert run_scenario(given).render() == run_scenario(absent).render()
    gauss = [{"kind": "gaussian"}]
    explicit = Scenario("kronecker_check", {"alpha": 1.5, "density": gauss})
    default = Scenario("kronecker_check", {"alpha": 1.5})
    assert run_scenario(explicit).checks == run_scenario(default).checks
    disc = Scenario("discriminant", {"etas": [0.0, 0.5, 1.5], "n": 1, "p": 3})
    null_expect = Scenario("discriminant", dict(disc.params, expect=None))
    assert run_scenario(null_expect).checks == run_scenario(disc).checks


AGREEMENT_GRIDS = {
    "consecutive": FAST_GRID.replace("eta_step = 0.5", "eta_step = 0.25"),
    "line": (
        "kind = ft_grid\nmeasure = line\nheights = [0.0, 1.0, 2.5]\n"
        'densities = [[{"kind": "gaussian"}], [], [{"kind": "box", "center": 0.5}]]\n'
        "lambda_heights = [0.5, 1.0]\nxi_step = 0.5\neta_step = 0.25\n"
    ),
    "cross": (
        "kind = ft_grid\nmeasure = cross\n"
        'densities = [[{"kind": "gaussian"}], [{"kind": "triangle", "center": 0.5}]]\n'
        "lambda_heights = [0.0, 1.5]\nxi_step = 0.5\neta_step = 0.25\n"
    ),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_GRIDS))
def test_ft_grid_report_agrees_with_its_csv(tmp_path, name):
    scenario = load_scenario(write(tmp_path, "g.scenario", AGREEMENT_GRIDS[name]))
    out = tmp_path / "g.csv"
    rows = emit_grid(scenario, str(out))
    table = [
        [float(v) for v in line.split(",")]
        for line in out.read_text().splitlines()[1:]
    ]
    report = run_scenario(scenario)
    infos = dict(info.split(" ", 1) for info in report.infos)
    assert int(infos["grid_rows"]) == rows == len(table)
    # the report and the CSV read the same magnitudes, so they agree exactly
    assert float(infos["max_abs"]) == max(r[4] for r in table)
    if name == "consecutive":
        heights = [0.0, 1.0]  # the n = 1 witness grid
    else:
        heights = scenario.params["lambda_heights"]
    on_lambda = [r[4] for r in table if any(abs(r[1] - h) <= 1e-9 for h in heights)]
    off_lambda = [r[4] for r in table if all(abs(r[1] - h) > 1e-9 for h in heights)]
    assert len(on_lambda) == len(heights) * len({r[0] for r in table})
    on, off = report.checks
    assert (on.name, off.name) == ("lambda_rows_max", "off_lambda_rows_max")
    assert on.measured == max(on_lambda)
    assert off.measured == max(off_lambda)


OFF_GRID_LINE = (
    "kind = ft_grid\nmeasure = line\nheights = [0, 1]\n"
    'densities = [[{"kind": "gaussian"}], [{"kind": "gaussian", "amplitude": -1.0}]]\n'
    "xi_step = 0.5\neta_step = 0.25\n"
)


@pytest.mark.parametrize(
    "text, height",
    [
        (OFF_GRID_LINE + "lambda_heights = [0.0, 0.3]\n", "0.3"),
        # the n = 2 witness grid is 0, 2/3 and 4/3; the eta grid steps by 0.5
        ("kind = ft_grid\nmeasure = consecutive_witness\nn = 2\n"
         "xi_step = 0.5\neta_step = 0.5\n", "0.6666666666666666"),
    ],
    ids=["given", "witness"],
)
def test_off_grid_lambda_height_is_refused(tmp_path, capsys, text, height):
    # a height with no eta row would leave lambda_rows_max nothing to check
    path = write(tmp_path, "g.scenario", text)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert f"lambda height {height} has no eta row" in captured.err
    # the CSV reads no lambda heights
    assert main(["grid", path, "--out", str(tmp_path / "g.csv")]) == 0


def test_nan_magnitude_reaches_the_report():
    # w * w overflows, so the transform at xi = 0 is inf * 0
    wide = [{"kind": "gaussian", "width": 1e200}]
    text = (
        "kind = ft_grid\nmeasure = line\nheights = [0.0]\n"
        f"densities = [{json.dumps(wide)}]\nlambda_heights = [0.0]\n"
        "xi_min = -1\nxi_max = 1\nxi_step = 1\neta_step = 1\n"
    )
    with np.errstate(all="ignore"):
        report = run_scenario(parse_scenario_text(text))
    assert "max_abs nan" in report.infos
    assert "lambda_rows_max measured=nan" in report.render()
    assert not report.overall


def test_cli_runs_without_scipy():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from hup_lab.cli import main\n"
        "raise SystemExit(main(['run', sys.argv[1]]))\n"
    )
    env = dict(os.environ)
    src = str(Path(hup_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(SCENARIOS / "discriminant.scenario")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("overall PASS\n")
