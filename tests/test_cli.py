import json

import pytest

from hup_lab.cli import (
    Scenario,
    ScenarioError,
    emit_grid,
    load_scenario,
    main,
    parse_scenario_text,
    run_scenario,
)


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
    base = {"n": 2, "grid_points": 101, "seed": 11}
    a = run_scenario(Scenario("cross_witness", dict(base))).render()
    b = run_scenario(Scenario("cross_witness", dict(base))).render()
    c = run_scenario(Scenario("cross_witness", dict(base, seed=12))).render()
    assert a == b
    assert a != c


def test_tolerance_override_can_fail_a_check():
    s = Scenario("consecutive_witness", {"n": 1, "xi_step": 0.5})
    assert run_scenario(s).overall
    forced = run_scenario(s, tolerance=1e-20)
    assert not forced.overall


def test_main_run_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.scenario", FAST_WITNESS)
    assert main(["run", good]) == 0
    out = capsys.readouterr().out
    assert "overall PASS" in out

    assert main(["run", good, "--tolerance", "1e-20"]) == 1
    assert "overall FAIL" in capsys.readouterr().out

    bad = write(tmp_path, "bad.scenario", "kind = nope\n")
    assert main(["run", bad]) == 2

    assert main(["run", str(tmp_path / "absent.scenario")]) == 3


def test_main_quiet_suppresses_stdout(tmp_path, capsys):
    good = write(tmp_path, "good.scenario", FAST_WITNESS)
    assert main(["run", good, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


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


def test_nonfinite_tolerance_override_is_refused(tmp_path):
    # a NaN tolerance would make every "> tolerance" test false and class
    # every searched fiber n+1 without a word
    path = write(
        tmp_path,
        "classify.scenario",
        "kind = classify\npoints = [[0, 0.0], [0, 0.5], [0, 1.5]]\nn = 1\np = 3\n",
    )
    with pytest.raises(ScenarioError, match="non-finite"):
        run_scenario(load_scenario(path), tolerance=float("nan"))
    assert main(["run", path, "--tolerance", "nan"]) == 2
    grid = write(tmp_path, "grid.scenario", FAST_GRID)
    assert main(["grid", grid, "--out", str(tmp_path / "g.csv"), "--tolerance", "inf"]) == 2
    assert main(["run", path, "--tolerance", "1e-9"]) == 0


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


def test_grid_is_byte_deterministic(tmp_path):
    scenario = load_scenario(write(tmp_path, "grid.scenario", FAST_GRID))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    emit_grid(scenario, str(out1))
    emit_grid(scenario, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


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
        "kronecker_check", {"alpha": 1.0, "density": atoms, "sample_count": 51}
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
    assert main(["run", path, "--quiet"]) == 1
