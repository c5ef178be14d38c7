"""Scenario-driven command line interface.

``hup-lab run <scenario-file>`` evaluates one scenario and prints a
deterministic report; ``hup-lab grid <scenario-file> --out <path>`` writes
a transform grid CSV for ``ft_grid`` scenarios.

Scenario files are flat text: one ``key = value`` per line, ``#`` comments
and blank lines ignored.  Values are parsed as JSON when possible and kept
as bare strings otherwise, so lists and nested density values stay
writable by hand::

    kind = discriminant
    n = 1
    p = 3
    etas = [0.0, 0.5, 1.5]

Reports and CSVs are byte-identical across reruns of the same file: all
randomness is seeded from the scenario, floats are printed with 17
significant digits, and timing goes to stderr only.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or precondition
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .classifier import LambdaSet, fold_periodic, partition
from .config import TOL
from .curves import (
    CurveDensity,
    absolute_mass,
    construct_single_line_witness,
    exp_curve_ft,
    standard_witness_profile,
    surface_ft,
)
from .errors import DegenerateWitnessError, HupLabError
from .linsys import (
    UnimodularTuple,
    final_pivot_formula,
    hup_discriminant,
    power_column_matrix,
    triangularize_power_system,
)
from .measures import (
    Density,
    DensityAtom,
    LineMeasure,
    construct_consecutive_witness,
    construct_cross_diagonal_witness,
    cross_ft,
    gaussian,
    line_system_ft,
    odd_bump,
    odd_pair,
    translation_periodicity_residual,
    triangle,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "Check",
    "Report",
    "parse_scenario_text",
    "load_scenario",
    "run_scenario",
    "emit_grid",
    "main",
]


class ScenarioError(ValueError):
    """Malformed scenario file or parameter set."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: dict


_REQUIRED = object()

_SCHEMAS: dict[str, dict] = {
    "consecutive_witness": {
        "n": _REQUIRED,
        "seed_density": None,
        "xi_min": -10.0,
        "xi_max": 10.0,
        "xi_step": 0.02,
        "off_min": 1e-3,
        "tolerance": TOL.grid_vanish,
    },
    "cross_witness": {
        "n": 0,
        "variant": "diagonal",
        "densities": None,
        "grid_points": 1001,
        "grid_min": -10.0,
        "grid_max": 10.0,
        "off_min": 1e-3,
        "tolerance": TOL.grid_vanish,
        "seed": 0,
    },
    "exp_curve_witness": {
        "c": _REQUIRED,
        "gap": 0.2,
        "lobe_width": 0.5,
        "profile": None,
        "d": 1.0,
        "x_min": -5.0,
        "x_max": 5.0,
        "x_step": 0.02,
        "quad_tol": TOL.quad_abs,
        "mass_ratio_min": 0.1,
        "off_min": 1e-3,
        "tolerance": TOL.curve_vanish,
    },
    "surface_witness": {
        "case": "axis",
        "c": 1.0,
        "extent": 3.0,
        "points": 21,
        "psi_density": None,
        "h_density": None,
        "profile": None,
        "quad_tol": TOL.quad_abs,
        "tolerance": TOL.curve_vanish,
    },
    "classify": {
        "points": _REQUIRED,
        "n": _REQUIRED,
        "p": _REQUIRED,
        "expected_counts": None,
        "tolerance": TOL.discriminant,
    },
    "discriminant": {
        "etas": _REQUIRED,
        "n": _REQUIRED,
        "p": _REQUIRED,
        "expect": None,
        "min_value": None,
        "tolerance": TOL.discriminant,
    },
    "reduce": {
        "etas": _REQUIRED,
        "n": _REQUIRED,
        "p": _REQUIRED,
        "tolerance": TOL.pivot_rel,
    },
    "ft_grid": {
        "measure": _REQUIRED,
        "heights": None,
        "densities": None,
        "n": None,
        "seed_density": None,
        "lambda_heights": None,
        "xi_min": -10.0,
        "xi_max": 10.0,
        "xi_step": 0.02,
        "eta_min": 0.0,
        "eta_max": 2.0,
        "eta_step": 0.5,
        "tolerance": TOL.grid_vanish,
    },
    "kronecker_check": {
        "density": None,
        "alpha": _REQUIRED,
        "sample_count": 401,
        "tolerance": 1e-6,
    },
}

# Keys that take a JSON list or object, by kind; null selects the default.
# Every other key takes a single value, and null only where its default is.
_STRUCTURED: dict[str, dict[str, type]] = {
    "consecutive_witness": {"seed_density": list},
    "cross_witness": {"densities": list},
    "exp_curve_witness": {"profile": list},
    "surface_witness": {"psi_density": list, "h_density": list, "profile": list},
    "classify": {"points": list, "expected_counts": dict},
    "discriminant": {"etas": list},
    "reduce": {"etas": list},
    "ft_grid": {
        "heights": list, "densities": list, "seed_density": list, "lambda_heights": list
    },
    "kronecker_check": {"density": list},
}
_JSON_TYPES = {list: "a JSON list", dict: "a JSON object", type(None): "null"}


def parse_scenario_text(text: str) -> Scenario:
    params: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"line {ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ScenarioError(f"line {ln}: empty key")
        if key in params:
            raise ScenarioError(f"line {ln}: duplicate key {key!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    kind = params.pop("kind", None)
    if kind is None:
        raise ScenarioError("scenario is missing the 'kind' key")
    return Scenario(str(kind), params)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def _is_nonfinite(value) -> bool:
    """True if ``value`` holds NaN or an infinity at any depth.

    Bare strings count when ``float`` would read them as non-finite
    (``nan``, ``inf``), since the runners convert them with ``float``.
    """
    if isinstance(value, dict):
        return any(_is_nonfinite(v) for v in value.values())
    if isinstance(value, list):
        return any(_is_nonfinite(v) for v in value)
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return False
    return isinstance(value, float) and not math.isfinite(value)


def _resolve(scenario: Scenario, tolerance: float | None = None) -> dict:
    """Scenario parameters over schema defaults, with the tolerance override."""
    schema = _SCHEMAS.get(scenario.kind)
    if schema is None:
        known = ", ".join(sorted(_SCHEMAS))
        raise ScenarioError(f"unknown kind {scenario.kind!r} (known: {known})")
    unknown = sorted(set(scenario.params) - set(schema))
    if unknown:
        raise ScenarioError(f"unknown keys for {scenario.kind}: {', '.join(unknown)}")
    given = dict(scenario.params)
    if tolerance is not None:
        given["tolerance"] = float(tolerance)
    structured = _STRUCTURED[scenario.kind]
    for key in sorted(given):
        value, want = given[key], structured.get(key)
        if want is not None:
            ok = value is None or isinstance(value, want)
        else:
            ok = not isinstance(value, (list, dict))
            ok = ok and (value is not None or schema[key] is None)
        if not ok:
            got = _JSON_TYPES.get(type(value), "a single value")
            expected = _JSON_TYPES[want] if want else "a single value"
            raise ScenarioError(f"{key} must be {expected}, not {got}")
    nonfinite = sorted(k for k, v in given.items() if _is_nonfinite(v))
    if nonfinite:
        raise ScenarioError(
            f"non-finite value (NaN or Infinity) in {', '.join(nonfinite)}"
        )
    resolved = {}
    for key, default in schema.items():
        if key in given:
            resolved[key] = given[key]
        elif default is _REQUIRED:
            raise ScenarioError(f"{scenario.kind} requires the {key!r} key")
        else:
            resolved[key] = default
    return resolved


def _amplitude(value) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ScenarioError("amplitude pairs must be [re, im]")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value))


def _density_from_json(value) -> Density:
    if not isinstance(value, list):
        raise ScenarioError("a density is a JSON list of atom objects")
    atoms = []
    for obj in value:
        if not isinstance(obj, dict):
            raise ScenarioError("each atom must be a JSON object")
        unknown = sorted(set(obj) - {"kind", "center", "width", "amplitude"})
        if unknown:
            raise ScenarioError(f"unknown atom keys: {', '.join(unknown)}")
        try:
            atoms.append(
                DensityAtom(
                    str(obj.get("kind", "gaussian")),
                    float(obj.get("center", 0.0)),
                    float(obj.get("width", 1.0)),
                    _amplitude(obj.get("amplitude", 1.0)),
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"bad atom: {exc}") from exc
    return Density(tuple(atoms))


def _density_or(p: dict, key: str, default) -> Density:
    """The density under ``key``, or ``default()`` when the key is null.

    Only null selects the default: an empty list is the zero density.
    """
    value = p[key]
    return default() if value is None else _density_from_json(value)


def _densities_from_json(value) -> list[Density]:
    if not isinstance(value, list):
        raise ScenarioError("densities must be a JSON list of density lists")
    return [_density_from_json(d) for d in value]


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    lo = float(lo)
    hi = float(hi)
    step = float(step)
    if step <= 0 or hi < lo:
        raise ScenarioError("grid needs step > 0 and max >= min")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    threshold: float
    op: str  # the printed word: le, ge or eq
    passed: bool


_OPS = {"<=": ("le", operator.le), ">=": ("ge", operator.ge), "==": ("eq", operator.eq)}


def _check(name: str, measured: float, op: str, threshold: float) -> Check:
    word, compare = _OPS[op]
    measured = float(measured)
    threshold = float(threshold)
    return Check(name, measured, threshold, word, compare(measured, threshold))


@dataclass
class Report:
    kind: str
    params: dict
    infos: list[str] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        # timing is deliberately absent: reports must be byte-stable
        lines = [f"scenario {self.kind}"]
        for key in sorted(self.params):
            value = json.dumps(self.params[key], sort_keys=True)
            lines.append(f"param {key} = {value}")
        lines.extend(f"info {text}" for text in self.infos)
        for c in self.checks:
            lines.append(
                f"check {c.name} measured={c.measured:.17g} "
                f"threshold={c.threshold:.17g} op={c.op} "
                f"result={'PASS' if c.passed else 'FAIL'}"
            )
        lines.append(f"overall {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _random_densities(n: int, rng: np.random.Generator) -> list[Density]:
    out = []
    for _ in range(n + 1):
        atoms = []
        for _ in range(int(rng.integers(1, 3))):
            kind = ("gaussian", "triangle")[int(rng.integers(0, 2))]
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            atoms.append(
                DensityAtom(
                    kind,
                    float(rng.uniform(-2.0, 2.0)),
                    float(rng.uniform(0.5, 1.5)),
                    sign * float(rng.uniform(0.5, 1.5)),
                )
            )
        out.append(Density(tuple(atoms)))
    return out


def _run_consecutive_witness(p: dict) -> tuple[list[str], list[Check]]:
    n = int(p["n"])
    measure, lam = construct_consecutive_witness(
        n, _density_or(p, "seed_density", gaussian)
    )
    xi = _grid(p["xi_min"], p["xi_max"], p["xi_step"])
    on_max = max(
        float(np.max(np.abs(line_system_ft(measure, xi, eta)))) for eta in lam
    )
    off_eta = 1.0 / (n + 1)  # midway between the first two grid heights
    off_max = float(np.max(np.abs(line_system_ft(measure, xi, off_eta))))
    infos = ["lambda_heights " + json.dumps(list(lam))]
    checks = [
        _check("on_lambda_max", on_max, "<=", p["tolerance"]),
        _check("off_lambda_max", off_max, ">=", p["off_min"]),
    ]
    return infos, checks


def _run_cross_witness(p: dict) -> tuple[list[str], list[Check]]:
    variant = str(p["variant"])
    t = np.linspace(float(p["grid_min"]), float(p["grid_max"]), int(p["grid_points"]))
    if variant == "diagonal":
        n = int(p["n"])
        if p["densities"] is not None:
            densities = _densities_from_json(p["densities"])
        else:
            densities = _random_densities(n, np.random.default_rng(int(p["seed"])))
        measure = construct_cross_diagonal_witness(n, densities)
        names, on_eta, off_eta = ("diagonal_max", "off_diagonal_max"), t, t + 1.0
    elif variant == "xi_axis":
        if p["densities"] is not None:
            f0 = _densities_from_json(p["densities"])[0]
        else:
            f0 = odd_bump()
        if abs(complex(f0.ft(0.0))) > TOL.grid_vanish:
            raise ScenarioError("xi_axis variant needs a zero-mean base density")
        measure = construct_cross_diagonal_witness(1, [f0, -f0])
        names, on_eta, off_eta = ("axis_max", "off_axis_max"), 0.0, 0.5
    else:
        raise ScenarioError(f"unknown cross_witness variant {variant!r}")
    vanish = float(np.max(np.abs(cross_ft(measure, t, on_eta))))
    off = float(np.max(np.abs(cross_ft(measure, t, off_eta))))
    checks = [
        _check(names[0], vanish, "<=", p["tolerance"]),
        _check(names[1], off, ">=", p["off_min"]),
    ]
    return [], checks


def _run_exp_curve_witness(p: dict) -> tuple[list[str], list[Check]]:
    c = float(p["c"])
    gap, width = float(p["gap"]), float(p["lobe_width"])
    profile = _density_or(
        p, "profile", lambda: standard_witness_profile(c, gap=gap, width=width)
    )
    witness = construct_single_line_witness(c, profile)
    quad_tol = float(p["quad_tol"])
    xs = _grid(p["x_min"], p["x_max"], p["x_step"])
    d = float(p["d"])
    on_max = 0.0
    off_max = 0.0
    est_max = 0.0
    for x in xs:
        res = exp_curve_ft(witness, x, c * x, abs_tol=quad_tol)
        on_max = max(on_max, abs(res.value))
        est_max = max(est_max, res.error)
        off = exp_curve_ft(witness, x, c * x + d, abs_tol=quad_tol)
        off_max = max(off_max, abs(off.value))
    g_mass = absolute_mass(witness).value.real
    extent = max(
        max(abs(lo), abs(hi)) for lo, hi in profile.support_intervals()
    )
    phi_mass = absolute_mass(
        CurveDensity.from_density(profile, support_radius=extent)
    ).value.real
    ratio = g_mass / phi_mass if phi_mass > 0 else math.inf
    infos = [f"quad_error_max {est_max:.17g}"]
    checks = [
        _check("on_line_max", on_max, "<=", p["tolerance"]),
        _check("mass_ratio", ratio, ">=", p["mass_ratio_min"]),
        _check("off_line_max", off_max, ">=", p["off_min"]),
    ]
    return infos, checks


def _run_surface_witness(p: dict) -> tuple[list[str], list[Check]]:
    case = str(p["case"])
    quad_tol = float(p["quad_tol"])
    extent = float(p["extent"])
    points = int(p["points"])
    if points < 2:
        raise ScenarioError("surface grid needs at least 2 points per side")
    h_density = _density_or(p, "h_density", triangle)
    if h_density.is_zero():
        raise DegenerateWitnessError("surface factor h_density is zero")
    second = CurveDensity.from_density(h_density)
    axis_vals = np.linspace(-extent, extent, points)
    if case == "axis":
        psi = _density_or(
            p, "psi_density", lambda: odd_pair(triangle(center=1.0, width=0.8))
        )
        if psi.is_zero():
            raise DegenerateWitnessError("surface factor psi_density is zero")
        first = CurveDensity.from_density(psi)
        freqs = [(0.0, u, v) for u in axis_vals for v in axis_vals]
    elif case == "slant":
        c = float(p["c"])
        profile = _density_or(p, "profile", lambda: standard_witness_profile(c))
        first = construct_single_line_witness(c, profile)
        freqs = [(u, v, c * u) for u in axis_vals for v in axis_vals]
    else:
        raise ScenarioError(f"unknown surface case {case!r}")
    worst = 0.0
    for freq in freqs:
        worst = max(worst, abs(surface_ft(first, second, freq, abs_tol=quad_tol).value))
    checks = [_check("hyperplane_max", worst, "<=", p["tolerance"])]
    return [], checks


def _run_classify(p: dict) -> tuple[list[str], list[Check]]:
    pts = p["points"]
    if not isinstance(pts, list) or not all(
        isinstance(q, list) and len(q) == 2 for q in pts
    ):
        raise ScenarioError("points must be a JSON list of [xi, eta] pairs")
    n = int(p["n"])
    pp = int(p["p"])
    lam = fold_periodic(LambdaSet(tuple((float(a), float(b)) for a, b in pts)))
    part = partition(lam, n, pp, discriminant_tol=float(p["tolerance"]))
    infos = []
    for xi in sorted(part.fibers):
        infos.append(
            f"fiber xi={xi:.17g} size={len(part.fibers[xi])} "
            f"class={part.classes[xi]}"
        )
    counts = part.class_counts()
    infos.append(
        "class_counts " + json.dumps({str(k): v for k, v in sorted(counts.items())})
    )
    checks = [_check("fibers_classified", len(part.fibers), ">=", 1.0)]
    if p["expected_counts"] is not None:
        expected = p["expected_counts"]
        for key in sorted(expected):
            cls = int(key)
            checks.append(
                _check(
                    f"count_class_{cls}",
                    float(counts.get(cls, 0)),
                    "==",
                    float(expected[key]),
                )
            )
    return infos, checks


def _etas(p: dict) -> list[float]:
    etas = p["etas"]
    if not isinstance(etas, list):
        raise ScenarioError("etas must be a JSON list")
    return [float(e) for e in etas]


def _run_discriminant(p: dict) -> tuple[list[str], list[Check]]:
    value = hup_discriminant(_etas(p), int(p["n"]), int(p["p"]))
    checks = [_check("discriminant", value, ">=", 0.0)]
    if p["min_value"] is not None:
        checks.append(_check("discriminant_min", value, ">=", float(p["min_value"])))
    if p["expect"] is not None:
        checks.append(
            _check(
                "matches_expected",
                abs(value - float(p["expect"])),
                "<=",
                float(p["tolerance"]),
            )
        )
    return [], checks


def _run_reduce(p: dict) -> tuple[list[str], list[Check]]:
    n = int(p["n"])
    pp = int(p["p"])
    betas = UnimodularTuple.from_phases(_etas(p))
    reduction = triangularize_power_system(betas, n, pp)
    det = complex(np.linalg.det(power_column_matrix(betas, n, pp)))
    pivot_product = reduction.pivot_product()
    rel_det = abs(pivot_product - det) / max(1.0, abs(det))
    formula = final_pivot_formula(betas, n, pp)
    rel_pivot = abs(reduction.pivots[-1] - formula) / max(1.0, abs(formula))
    infos = [f"pivot_product_abs {abs(pivot_product):.17g}"]
    checks = [
        _check("pivot_product_vs_det", rel_det, "<=", p["tolerance"]),
        _check("final_pivot_vs_formula", rel_pivot, "<=", p["tolerance"]),
    ]
    return infos, checks


def _grid_rows(p: dict):
    """Axes, lambda heights and transform rows of an ft_grid scenario.

    Returns ``(xi, eta, lambda_heights, rows)``; ``rows`` yields the
    complex transform over ``eta`` at each ``xi`` in turn, with its
    magnitudes.  The lambda heights are the scenario's, or the witness grid
    for consecutive witnesses, and may be None.
    """
    measure_kind = str(p["measure"])
    heights = p["lambda_heights"]
    if measure_kind == "line":
        if p["heights"] is None or p["densities"] is None:
            raise ScenarioError("line grids need 'heights' and 'densities'")
        measure = LineMeasure(
            tuple(float(h) for h in p["heights"]),
            tuple(_densities_from_json(p["densities"])),
        )
        transform = line_system_ft
    elif measure_kind == "cross":
        if p["densities"] is None:
            raise ScenarioError("cross grids need 'densities'")
        densities = _densities_from_json(p["densities"])
        measure = construct_cross_diagonal_witness(len(densities) - 1, densities)
        transform = cross_ft
    elif measure_kind == "consecutive_witness":
        if p["n"] is None:
            raise ScenarioError("consecutive_witness grids need 'n'")
        measure, lam = construct_consecutive_witness(
            int(p["n"]), _density_or(p, "seed_density", gaussian)
        )
        if heights is None:
            heights = list(lam)
        transform = line_system_ft
    else:
        raise ScenarioError(f"unknown grid measure {measure_kind!r}")
    xi = _grid(p["xi_min"], p["xi_max"], p["xi_step"])
    eta = _grid(p["eta_min"], p["eta_max"], p["eta_step"])
    # one call per xi: a single 2-D call rounds some values differently
    return xi, eta, heights, (_row(transform(measure, float(x), eta)) for x in xi)


def _row(values) -> tuple[list[complex], list[float]]:
    """One grid row and its magnitudes, which the report and the CSV share.

    ``np.hypot`` of the parts rounds as Python's ``abs`` of a complex does;
    ``np.abs`` of a complex array may differ from both in the last bit.
    """
    values = np.asarray(values, dtype=complex)
    return values.tolist(), np.hypot(values.real, values.imag).tolist()


def _run_ft_grid(p: dict) -> tuple[list[str], list[Check]]:
    xi, eta, lambda_heights, rows = _grid_rows(p)
    heights = [float(h) for h in lambda_heights] if lambda_heights else []
    on_lambda = [
        j for j, e in enumerate(eta) if any(abs(e - h) <= TOL.merge for h in heights)
    ]
    total_max = 0.0
    lambda_max = 0.0
    for _, mags in rows:
        total_max = max(total_max, *mags)
        lambda_max = max([lambda_max, *(mags[j] for j in on_lambda)])
    infos = [f"grid_rows {len(xi) * len(eta)}", f"max_abs {total_max:.17g}"]
    checks = []
    if heights:
        checks.append(_check("lambda_rows_max", lambda_max, "<=", p["tolerance"]))
    else:
        checks.append(_check("grid_evaluated", float(len(xi) * len(eta)), ">=", 1.0))
    return infos, checks


def _run_kronecker_check(p: dict) -> tuple[list[str], list[Check]]:
    residual = translation_periodicity_residual(
        _density_or(p, "density", gaussian), float(p["alpha"]), int(p["sample_count"])
    )
    checks = [_check("nonperiodicity_residual", residual, ">=", p["tolerance"])]
    return [], checks


_RUNNERS = {
    "consecutive_witness": _run_consecutive_witness,
    "cross_witness": _run_cross_witness,
    "exp_curve_witness": _run_exp_curve_witness,
    "surface_witness": _run_surface_witness,
    "classify": _run_classify,
    "discriminant": _run_discriminant,
    "reduce": _run_reduce,
    "ft_grid": _run_ft_grid,
    "kronecker_check": _run_kronecker_check,
}


def run_scenario(scenario: Scenario, *, tolerance: float | None = None) -> Report:
    """Evaluate a scenario and return its report (no printing)."""
    params = _resolve(scenario, tolerance)
    infos, checks = _RUNNERS[scenario.kind](params)
    return Report(scenario.kind, params, infos, checks)


def emit_grid(scenario: Scenario, out_path: str) -> int:
    """Write the CSV grid of an ``ft_grid`` scenario; returns the row count.

    Columns are ``xi,eta,re,im,abs`` with 17 significant digits, rows in
    row-major order (xi outer, eta inner).
    """
    if scenario.kind != "ft_grid":
        raise ScenarioError("the grid command needs an ft_grid scenario")
    xi, eta, _, rows = _grid_rows(_resolve(scenario))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("xi,eta,re,im,abs\n")
        for x, (vals, mags) in zip(xi.tolist(), rows):
            for e, v, m in zip(eta.tolist(), vals, mags):
                fh.write(f"{x:.17g},{e:.17g},{v.real:.17g},{v.imag:.17g},{m:.17g}\n")
    return len(xi) * len(eta)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hup-lab",
        description="Verification runs for uniqueness-pair constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="evaluate a scenario and print a report")
    run_parser.add_argument("scenario", help="path to a scenario file")
    run_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the scenario's primary tolerance",
    )
    grid_parser = sub.add_parser("grid", help="write a transform grid CSV")
    grid_parser.add_argument("scenario", help="path to an ft_grid scenario file")
    grid_parser.add_argument("--out", required=True, help="CSV output path")
    for sp in (run_parser, grid_parser):
        sp.add_argument("--quiet", action="store_true", help="suppress stdout output")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 3
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        start = time.perf_counter()
        if args.command == "run":
            report = run_scenario(scenario, tolerance=args.tolerance)
            text, code = report.render(), (0 if report.overall else 1)
        else:
            rows = emit_grid(scenario, args.out)
            text, code = f"grid rows {rows} -> {args.out}\n", 0
        elapsed = time.perf_counter() - start
        if not args.quiet:
            sys.stdout.write(text)
        print(f"# elapsed_s {elapsed:.3f}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ScenarioError, HupLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
