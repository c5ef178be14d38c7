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
from .config import GRID_CAP, TOL
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


# Converters: each takes a key and its JSON value and returns the value the
# runners read, or raises a ScenarioError that starts "<key> must be" and
# names the expected shape, or names the key as non-finite.
def _real(key: str, value, shape: str = "a number") -> float:
    """A finite float from a JSON number or a bare numeric string (``.5``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ScenarioError(f"{key} must be {shape}")
    try:
        x = float(value)
    except ValueError:
        raise ScenarioError(f"{key} must be {shape}") from None
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"non-finite value (NaN or Infinity) in {key}")
    return x


def _whole(key: str, value, shape: str = "a whole number") -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    x = _real(key, value, shape)
    if not x.is_integer():
        raise ScenarioError(f"{key} must be {shape}")
    return int(x)


def _word(key: str, value, shape: str = "a word") -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{key} must be {shape}")
    return value


def _list(key: str, value, shape: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{key} must be {shape}")
    return value


def _reals(key: str, value, shape: str = "a JSON list of numbers") -> list[float]:
    return [_real(key, v, shape) for v in _list(key, value, shape)]


def _pair(key: str, value, shape: str) -> list[float]:
    pair = _reals(key, value, shape)
    if len(pair) != 2:
        raise ScenarioError(f"{key} must be {shape}")
    return pair


def _pairs(key: str, value) -> list[list[float]]:
    shape = "a JSON list of [xi, eta] pairs"
    return [_pair(key, q, shape) for q in _list(key, value, shape)]


_ATOMS = (
    'a JSON list of atoms {"kind": word, "center": number, "width": number,'
    ' "amplitude": number or [re, im]}'
)


def _density(key: str, value) -> Density:
    if not all(isinstance(a, dict) for a in _list(key, value, _ATOMS)):
        raise ScenarioError(f"{key} must be {_ATOMS}")
    atoms = []
    for obj in value:
        unknown = sorted(set(obj) - {"kind", "center", "width", "amplitude"})
        if unknown:
            raise ScenarioError(f"unknown atom keys in {key}: {', '.join(unknown)}")
        amp = obj.get("amplitude", 1.0)
        fields = (
            _word(key, obj.get("kind", "gaussian"), _ATOMS),
            _real(key, obj.get("center", 0.0), _ATOMS),
            _real(key, obj.get("width", 1.0), _ATOMS),
            complex(*_pair(key, amp, _ATOMS))
            if isinstance(amp, list)
            else complex(_real(key, amp, _ATOMS)),
        )
        try:
            atoms.append(DensityAtom(*fields))
        except ValueError as exc:
            raise ScenarioError(f"bad atom in {key}: {exc}") from exc
    return Density(tuple(atoms))


def _densities(key: str, value) -> list[Density]:
    return [_density(key, d) for d in _list(key, value, "a JSON list of density lists")]


def _counts(key: str, value) -> dict[int, int]:
    """Class -> expected fiber count, in the sorted order of the class strings."""
    shape = "a JSON object of whole-number counts by class"
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be {shape}")
    return {_whole(key, k, shape): _whole(key, value[k], shape) for k in sorted(value)}


# Per kind, each key's converter and default; null selects the default only
# where the default is null.
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "consecutive_witness": {
        "n": (_whole, _REQUIRED),
        "seed_density": (_density, None),
        "xi_min": (_real, -10.0),
        "xi_max": (_real, 10.0),
        "xi_step": (_real, 0.02),
        "off_min": (_real, 1e-3),
        "tolerance": (_real, TOL.grid_vanish),
    },
    "cross_witness": {
        "n": (_whole, 0),
        "variant": (_word, "diagonal"),
        "densities": (_densities, None),
        "grid_points": (_whole, 1001),
        "grid_min": (_real, -10.0),
        "grid_max": (_real, 10.0),
        "off_min": (_real, 1e-3),
        "tolerance": (_real, TOL.grid_vanish),
        "seed": (_whole, 0),
    },
    "exp_curve_witness": {
        "c": (_real, _REQUIRED),
        "gap": (_real, 0.2),
        "lobe_width": (_real, 0.5),
        "profile": (_density, None),
        "d": (_real, 1.0),
        "x_min": (_real, -5.0),
        "x_max": (_real, 5.0),
        "x_step": (_real, 0.02),
        "quad_tol": (_real, TOL.quad_abs),
        "mass_ratio_min": (_real, 0.1),
        "off_min": (_real, 1e-3),
        "tolerance": (_real, TOL.curve_vanish),
    },
    "surface_witness": {
        "case": (_word, "axis"),
        "c": (_real, 1.0),
        "extent": (_real, 3.0),
        "points": (_whole, 21),
        "psi_density": (_density, None),
        "h_density": (_density, None),
        "profile": (_density, None),
        "quad_tol": (_real, TOL.quad_abs),
        "tolerance": (_real, TOL.curve_vanish),
    },
    "classify": {
        "points": (_pairs, _REQUIRED),
        "n": (_whole, _REQUIRED),
        "p": (_whole, _REQUIRED),
        "expected_counts": (_counts, None),
        "tolerance": (_real, TOL.discriminant),
    },
    "discriminant": {
        "etas": (_reals, _REQUIRED),
        "n": (_whole, _REQUIRED),
        "p": (_whole, _REQUIRED),
        "expect": (_real, None),
        "min_value": (_real, None),
        "tolerance": (_real, TOL.discriminant),
    },
    "reduce": {
        "etas": (_reals, _REQUIRED),
        "n": (_whole, _REQUIRED),
        "p": (_whole, _REQUIRED),
        "tolerance": (_real, TOL.pivot_rel),
    },
    "ft_grid": {
        "measure": (_word, _REQUIRED),
        "heights": (_reals, None),
        "densities": (_densities, None),
        "n": (_whole, None),
        "seed_density": (_density, None),
        "lambda_heights": (_reals, None),
        "xi_min": (_real, -10.0),
        "xi_max": (_real, 10.0),
        "xi_step": (_real, 0.02),
        "eta_min": (_real, 0.0),
        "eta_max": (_real, 2.0),
        "eta_step": (_real, 0.5),
        "tolerance": (_real, TOL.grid_vanish),
    },
    "kronecker_check": {
        "density": (_density, None),
        "alpha": (_real, _REQUIRED),
        "sample_count": (_whole, 401),
        "tolerance": (_real, 1e-6),
    },
}


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


def _resolve(scenario: Scenario, tolerance: float | None = None) -> tuple[dict, dict]:
    """Scenario values over schema defaults and the tolerance override, as
    given (the report echoes these) and converted (the runners read these)."""
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
    values = {}
    for key, (convert, default) in schema.items():
        if key not in given:
            if default is _REQUIRED:
                raise ScenarioError(f"{scenario.kind} requires the {key!r} key")
            given[key] = default
        value = given[key]
        values[key] = None if value is None and default is None else convert(key, value)
    return given, values


def _or(value, default):
    """``value``, or ``default()`` when it is None; ``[]`` is the zero density."""
    return default() if value is None else value


def _capped(count: int, keys: str) -> int:
    if count > GRID_CAP:
        raise ScenarioError(f"{keys} must be set for at most {GRID_CAP} grid points")
    return count


def _grids(p: dict, *axes: str) -> list[np.ndarray]:
    """The ``<axis>_min .. <axis>_max`` grid by ``<axis>_step``, per axis.

    Refused before anything is allocated when one axis, or their product,
    exceeds GRID_CAP points.
    """
    counts = []
    for axis in axes:
        lo, hi, step = p[f"{axis}_min"], p[f"{axis}_max"], p[f"{axis}_step"]
        if step <= 0 or hi < lo:
            raise ScenarioError(f"the {axis} grid needs step > 0 and max >= min")
        span = (hi - lo) / step + 1e-9  # inf when the span overflows
        counts.append(_capped(int(min(span, GRID_CAP)) + 1, f"{axis}_step"))
    _capped(math.prod(counts), " and ".join(f"{a}_step" for a in axes))
    return [p[f"{a}_min"] + p[f"{a}_step"] * np.arange(k) for a, k in zip(axes, counts)]


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
    n = p["n"]
    measure, lam = construct_consecutive_witness(n, _or(p["seed_density"], gaussian))
    (xi,) = _grids(p, "xi")
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
    variant, densities = p["variant"], p["densities"]
    t = np.linspace(
        p["grid_min"], p["grid_max"], _capped(p["grid_points"], "grid_points")
    )
    if variant == "diagonal":
        if densities is None:
            densities = _random_densities(p["n"], np.random.default_rng(p["seed"]))
        measure = construct_cross_diagonal_witness(p["n"], densities)
        names, on_eta, off_eta = ("diagonal_max", "off_diagonal_max"), t, t + 1.0
    elif variant == "xi_axis":
        if densities == []:
            raise ScenarioError("densities must be null or start with the base density")
        f0 = odd_bump() if densities is None else densities[0]
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
    c, quad_tol = p["c"], p["quad_tol"]
    profile = _or(
        p["profile"],
        lambda: standard_witness_profile(c, gap=p["gap"], width=p["lobe_width"]),
    )
    witness = construct_single_line_witness(c, profile)
    (xs,) = _grids(p, "x")
    on_max = 0.0
    off_max = 0.0
    est_max = 0.0
    for x in xs:
        res = exp_curve_ft(witness, x, c * x, abs_tol=quad_tol)
        on_max = max(on_max, abs(res.value))
        est_max = max(est_max, res.error)
        off = exp_curve_ft(witness, x, c * x + p["d"], abs_tol=quad_tol)
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
    case, points = p["case"], p["points"]
    if points < 2:
        raise ScenarioError("surface grid needs at least 2 points per side")
    _capped(points * points, "points")
    h_density = _or(p["h_density"], triangle)
    if h_density.is_zero():
        raise DegenerateWitnessError("surface factor h_density is zero")
    second = CurveDensity.from_density(h_density)
    axis_vals = np.linspace(-p["extent"], p["extent"], points)
    if case == "axis":
        psi = _or(p["psi_density"], lambda: odd_pair(triangle(center=1.0, width=0.8)))
        if psi.is_zero():
            raise DegenerateWitnessError("surface factor psi_density is zero")
        first = CurveDensity.from_density(psi)
        freqs = [(0.0, u, v) for u in axis_vals for v in axis_vals]
    elif case == "slant":
        c = p["c"]
        profile = _or(p["profile"], lambda: standard_witness_profile(c))
        first = construct_single_line_witness(c, profile)
        freqs = [(u, v, c * u) for u in axis_vals for v in axis_vals]
    else:
        raise ScenarioError(f"unknown surface case {case!r}")
    worst = 0.0
    for freq in freqs:
        ft = surface_ft(first, second, freq, abs_tol=p["quad_tol"])
        worst = max(worst, abs(ft.value))
    checks = [_check("hyperplane_max", worst, "<=", p["tolerance"])]
    return [], checks


def _run_classify(p: dict) -> tuple[list[str], list[Check]]:
    lam = fold_periodic(LambdaSet(tuple(p["points"])))
    part = partition(lam, p["n"], p["p"], discriminant_tol=p["tolerance"])
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
    for cls, count in _or(p["expected_counts"], dict).items():
        checks.append(_check(f"count_class_{cls}", counts.get(cls, 0), "==", count))
    return infos, checks


def _run_discriminant(p: dict) -> tuple[list[str], list[Check]]:
    value = hup_discriminant(p["etas"], p["n"], p["p"])
    checks = [_check("discriminant", value, ">=", 0.0)]
    if p["min_value"] is not None:
        checks.append(_check("discriminant_min", value, ">=", p["min_value"]))
    if p["expect"] is not None:
        checks.append(
            _check("matches_expected", abs(value - p["expect"]), "<=", p["tolerance"])
        )
    return [], checks


def _run_reduce(p: dict) -> tuple[list[str], list[Check]]:
    n, pp = p["n"], p["p"]
    betas = UnimodularTuple.from_phases(p["etas"])
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
    measure_kind, densities = p["measure"], p["densities"]
    heights = p["lambda_heights"]
    if measure_kind == "line":
        if p["heights"] is None or densities is None:
            raise ScenarioError("line grids need 'heights' and 'densities'")
        measure = LineMeasure(tuple(p["heights"]), tuple(densities))
        transform = line_system_ft
    elif measure_kind == "cross":
        if densities is None:
            raise ScenarioError("cross grids need 'densities'")
        measure = construct_cross_diagonal_witness(len(densities) - 1, densities)
        transform = cross_ft
    elif measure_kind == "consecutive_witness":
        if p["n"] is None:
            raise ScenarioError("consecutive_witness grids need 'n'")
        measure, lam = construct_consecutive_witness(
            p["n"], _or(p["seed_density"], gaussian)
        )
        if heights is None:
            heights = list(lam)
        transform = line_system_ft
    else:
        raise ScenarioError(f"unknown grid measure {measure_kind!r}")
    xi, eta = _grids(p, "xi", "eta")
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
    heights = lambda_heights or []
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
    samples = _capped(p["sample_count"], "sample_count")
    residual = translation_periodicity_residual(
        _or(p["density"], gaussian), p["alpha"], samples
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
    given, values = _resolve(scenario, tolerance)
    return Report(scenario.kind, given, *_RUNNERS[scenario.kind](values))


def emit_grid(scenario: Scenario, out_path: str) -> int:
    """Write the CSV grid of an ``ft_grid`` scenario; returns the row count.

    Columns are ``xi,eta,re,im,abs`` with 17 significant digits, rows in
    row-major order (xi outer, eta inner).
    """
    if scenario.kind != "ft_grid":
        raise ScenarioError("the grid command needs an ft_grid scenario")
    xi, eta, _, rows = _grid_rows(_resolve(scenario)[1])
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
