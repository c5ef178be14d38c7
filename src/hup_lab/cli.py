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

from .classifier import LambdaSet, partition
from .config import GRID_CAP, TOL
from .curves import (
    CurveDensity,
    absolute_mass,
    construct_single_line_witness,
    exp_curve_ft_many,
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
    _ft_rows,
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


def _word(key: str, value, shape: str = "a word", words=None) -> str:
    """A string, and one of ``words`` when they are given."""
    if not isinstance(value, str) or (words is not None and value not in words):
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
    shape = "a JSON object of one whole-number count per class"
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be {shape}")
    counts = {_whole(key, k, shape): _whole(key, value[k], shape) for k in sorted(value)}
    if len(counts) < len(value):  # "3" and "3.0" name one class
        raise ScenarioError(f"{key} must be {shape}")
    return counts


def _power(key: str, value) -> int:
    """A whole-number power, at most GRID_CAP: it sizes a table of ``h`` values."""
    power = _whole(key, value)
    if power > GRID_CAP:
        raise ScenarioError(f"{key} must be a whole number of at most {GRID_CAP}")
    return power


def _axis(name: str, lo: float, hi: float, step: float) -> dict[str, tuple]:
    """The schema of a stepped axis: ``<name>_min``, ``_max`` and ``_step``."""
    keys = (f"{name}_min", f"{name}_max", f"{name}_step")
    return {key: (_real, default) for key, default in zip(keys, (lo, hi, step))}


# Per kind, each key's converter and default; null selects the default only
# where the default is null.  A kind listed in _CASES holds here only the
# keys that all of its cases share.
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "consecutive_witness": {
        "n": (_whole, _REQUIRED),
        "seed_density": (_density, None),
        **_axis("xi", -10.0, 10.0, 0.02),
        "tolerance": (_real, TOL.grid_vanish),
    },
    "cross_witness": {
        "grid_points": (_whole, 1001),
        "tolerance": (_real, TOL.grid_vanish),
    },
    "exp_curve_witness": {
        "c": (_real, _REQUIRED),
        "d": (_real, 1.0),
        **_axis("x", -5.0, 5.0, 0.02),
        "quad_tol": (_real, TOL.quad_abs),
        "tolerance": (_real, TOL.curve_vanish),
    },
    "surface_witness": {
        "points": (_whole, 21),
        "h_density": (_density, None),
        "quad_tol": (_real, TOL.quad_abs),
        "tolerance": (_real, TOL.curve_vanish),
    },
    "classify": {
        "points": (_pairs, _REQUIRED),
        "n": (_whole, _REQUIRED),
        "p": (_power, _REQUIRED),
        "expected_counts": (_counts, None),
        "tolerance": (_real, TOL.discriminant),
    },
    "discriminant": {
        "etas": (_reals, _REQUIRED),
        "n": (_whole, _REQUIRED),
        "p": (_power, _REQUIRED),
        "expect": (_real, None),
        "tolerance": (_real, TOL.discriminant),
    },
    "reduce": {
        "etas": (_reals, _REQUIRED),
        "n": (_whole, _REQUIRED),
        "p": (_power, _REQUIRED),
        "tolerance": (_real, TOL.pivot_rel),
    },
    "ft_grid": {
        "lambda_heights": (_reals, None),
        **_axis("xi", -10.0, 10.0, 0.02),
        **_axis("eta", 0.0, 2.0, 0.5),
        "tolerance": (_real, TOL.grid_vanish),
    },
    "kronecker_check": {
        "density": (_density, None),
        "alpha": (_real, _REQUIRED),
        "sample_count": (_whole, 401),
        "tolerance": (_real, 1e-6),
    },
}

# Kinds that run one of several constructions: the key that picks the case,
# its default, and per case the keys it reads besides the shared ones.
_CASES: dict[str, tuple[str, object, dict[str, dict[str, tuple]]]] = {
    "cross_witness": ("variant", "diagonal", {
        "diagonal": {
            "n": (_whole, 0),
            "densities": (_densities, None),
            "seed": (_whole, 0),
        },
        "xi_axis": {"density": (_density, None)},  # the base density
    }),
    "surface_witness": ("case", "axis", {
        "axis": {"psi_density": (_density, None)},
        "slant": {"c": (_real, 1.0), "profile": (_density, None)},
    }),
    "ft_grid": ("measure", _REQUIRED, {
        "line": {"heights": (_reals, _REQUIRED), "densities": (_densities, _REQUIRED)},
        "cross": {"densities": (_densities, _REQUIRED)},
        "consecutive_witness": {"n": (_whole, _REQUIRED), "seed_density": (_density, None)},
    }),
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


def _value(label: str, given: dict, key: str, convert, default):
    """``given[key]``, or its default filled in, converted; a required key
    that is absent is refused."""
    if key not in given:
        if default is _REQUIRED:
            raise ScenarioError(f"{label} requires the {key!r} key")
        given[key] = default
    value = given[key]
    return None if value is None and default is None else convert(key, value)


def _resolve(scenario: Scenario, tolerance: float | None = None) -> tuple[dict, dict]:
    """Scenario values over schema defaults and the tolerance override, as
    given (the report echoes these) and converted (the runners read these).

    A kind with cases takes its case word first; the word picks the schema.
    """
    kind, given = scenario.kind, dict(scenario.params)
    schema = _SCHEMAS.get(kind)
    if schema is None:
        known = ", ".join(sorted(_SCHEMAS))
        raise ScenarioError(f"unknown kind {kind!r} (known: {known})")
    if tolerance is not None:
        given["tolerance"] = float(tolerance)
    label = kind
    if kind in _CASES:
        key, default, cases = _CASES[kind]
        shape = f"one of the {kind} cases: {', '.join(cases)}"
        word = _value(kind, given, key, lambda k, v: _word(k, v, shape, cases), default)
        schema = {key: (_word, default), **schema, **cases[word]}
        label = f"{kind} {key} = {word}"
    unknown = sorted(set(scenario.params) - set(schema))
    if unknown:
        raise ScenarioError(f"unknown keys for {label}: {', '.join(unknown)}")
    values = {key: _value(label, given, key, *spec) for key, spec in schema.items()}
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


# Floors a witness must clear off its set and, on the curve, in absolute mass
# against its profile, so that a zero or vanishing witness fails.
_OFF_SET_FLOOR = 1e-3
_MASS_RATIO_FLOOR = 0.1


def _set_checks(names: tuple[str, str], on_max, off_max, tolerance) -> list[Check]:
    """At most ``tolerance`` on the witness's set, at least ``_OFF_SET_FLOOR`` off it."""
    on, off = names
    return [_check(on, on_max, "<=", tolerance), _check(off, off_max, ">=", _OFF_SET_FLOOR)]


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


def _consecutive_witness(p: dict) -> tuple[LineMeasure, tuple[float, ...]]:
    """The witness's n + 2 lines checked on n + 1 heights, at most GRID_CAP pairs."""
    _capped((p["n"] + 1) * (p["n"] + 2), "n")
    return construct_consecutive_witness(p["n"], _or(p["seed_density"], gaussian))


def _run_consecutive_witness(p: dict) -> tuple[list[str], list[Check]]:
    n = p["n"]
    measure, lam = _consecutive_witness(p)
    (xi,) = _grids(p, "xi")
    on_max = max(
        float(np.max(np.abs(line_system_ft(measure, xi, eta)))) for eta in lam
    )
    off_eta = 1.0 / (n + 1)  # midway between the first two grid heights
    off_max = float(np.max(np.abs(line_system_ft(measure, xi, off_eta))))
    infos = ["lambda_heights " + json.dumps(list(lam))]
    names = ("on_lambda_max", "off_lambda_max")
    return infos, _set_checks(names, on_max, off_max, p["tolerance"])


def _run_cross_witness(p: dict) -> tuple[list[str], list[Check]]:
    if p["grid_points"] < 2:
        raise ScenarioError("grid_points must be at least 2")
    t = np.linspace(-10.0, 10.0, _capped(p["grid_points"], "grid_points"))
    if p["variant"] == "diagonal":
        n = p["n"]
        if n < 0:
            raise ScenarioError("n must be non-negative")
        # n + 1 levels on grid_points points, refused before any level is drawn
        _capped((n + 1) * p["grid_points"], "n and grid_points")
        densities = p["densities"]
        if densities is None:
            densities = _random_densities(n, np.random.default_rng(p["seed"]))
        elif len(densities) != n + 1:
            raise ScenarioError(
                f"densities must hold n + 1 = {n + 1} densities, not {len(densities)}"
            )
        measure = construct_cross_diagonal_witness(densities)
        names, on_eta, off_eta = ("diagonal_max", "off_diagonal_max"), t, t + 1.0
    elif p["variant"] == "xi_axis":
        f0 = _or(p["density"], odd_bump)
        if abs(complex(f0.ft(0.0))) > TOL.grid_vanish:
            raise ScenarioError("xi_axis variant needs a zero-mean base density")
        measure = construct_cross_diagonal_witness([f0, -f0])
        names, on_eta, off_eta = ("axis_max", "off_axis_max"), 0.0, 0.5
    vanish = float(np.max(np.abs(cross_ft(measure, t, on_eta))))
    off = float(np.max(np.abs(cross_ft(measure, t, off_eta))))
    return [], _set_checks(names, vanish, off, p["tolerance"])


def _run_exp_curve_witness(p: dict) -> tuple[list[str], list[Check]]:
    c, quad_tol = p["c"], p["quad_tol"]
    profile = standard_witness_profile(c)
    witness = construct_single_line_witness(c, profile)
    (xs,) = _grids(p, "x")
    on, errors = exp_curve_ft_many(witness, xs, c * xs, abs_tol=quad_tol)
    off, _ = exp_curve_ft_many(witness, xs, c * xs + p["d"], abs_tol=quad_tol)
    on_max, off_max = float(np.max(np.abs(on))), float(np.max(np.abs(off)))
    est_max = float(np.max(errors))
    g_mass = absolute_mass(witness).value.real
    extent = max(max(abs(lo), abs(hi)) for lo, hi in profile.support_intervals())
    phi_mass = absolute_mass(CurveDensity(profile, support_radius=extent)).value.real
    ratio = g_mass / phi_mass if phi_mass > 0 else math.inf
    infos = [f"quad_error_max {est_max:.17g}"]
    on, off = _set_checks(("on_line_max", "off_line_max"), on_max, off_max, p["tolerance"])
    return infos, [on, _check("mass_ratio", ratio, ">=", _MASS_RATIO_FLOOR), off]


def _surface_factor(key: str, density: Density) -> CurveDensity:
    """The density on the curve, refused when its absolute mass there is below
    ``_OFF_SET_FLOOR``: a vanishing factor would let a vanishing witness pass."""
    factor = CurveDensity(density)
    mass = absolute_mass(factor).value.real
    if not mass >= _OFF_SET_FLOOR:
        raise DegenerateWitnessError(
            f"surface factor {key} has absolute mass {mass:.6g} on the curve's "
            f"support, below {_OFF_SET_FLOOR:g}"
        )
    return factor


def _run_surface_witness(p: dict) -> tuple[list[str], list[Check]]:
    points = p["points"]
    if points < 2:
        raise ScenarioError("surface grid needs at least 2 points per side")
    _capped(points * points, "points")
    second = _surface_factor("h_density", _or(p["h_density"], triangle))
    axis_vals = np.linspace(-3.0, 3.0, points)
    if p["case"] == "axis":
        psi = _or(p["psi_density"], lambda: odd_pair(triangle(center=1.0, width=0.8)))
        first = _surface_factor("psi_density", psi)
        x1, x3 = np.zeros(points), axis_vals  # the hyperplane x1 = 0
    elif p["case"] == "slant":
        c = p["c"]
        profile = _or(p["profile"], lambda: standard_witness_profile(c))
        first = construct_single_line_witness(c, profile)
        x1, x3 = axis_vals, c * axis_vals  # the hyperplane x3 = c*x1
    grid = (x1[:, None], axis_vals[None, :], x3[:, None])
    surface = surface_ft(first, second, grid, abs_tol=p["quad_tol"])
    worst = float(np.max(np.abs(surface.value)))
    checks = [_check("hyperplane_max", worst, "<=", p["tolerance"])]
    return [], checks


def _run_classify(p: dict) -> tuple[list[str], list[Check]]:
    lam = LambdaSet(tuple(p["points"]))
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
    """``(xi, eta, lambda_heights, measures._ft_rows blocks)`` of an ft_grid
    scenario; the heights are the scenario's, or the witness grid, or None."""
    heights = p["lambda_heights"]
    if p["measure"] == "line":
        measure = LineMeasure(tuple(p["heights"]), tuple(p["densities"]))
    elif p["measure"] == "cross":
        densities = p["densities"]
        if not densities:
            raise ScenarioError("densities must hold at least one density")
        measure = construct_cross_diagonal_witness(densities)
    elif p["measure"] == "consecutive_witness":
        measure, lam = _consecutive_witness(p)
        if heights is None:
            heights = list(lam)
    xi, eta = _grids(p, "xi", "eta")
    # each level keeps its eta factors for the whole grid, refused before
    # they are formed when that is more than GRID_CAP values
    count = {"line": "heights", "cross": "densities", "consecutive_witness": "n"}
    _capped(len(measure.densities) * len(eta), f"{count[p['measure']]} and eta_step")
    return xi, eta, heights, _ft_rows(measure, xi, eta)


def _run_ft_grid(p: dict) -> tuple[list[str], list[Check]]:
    xi, eta, lambda_heights, blocks = _grid_rows(p)
    heights = lambda_heights or []
    on_lambda = np.zeros(len(eta), dtype=bool)
    for h in heights:
        near = np.abs(eta - h) <= TOL.merge
        if not near.any():
            raise ScenarioError(
                f"lambda height {h} has no eta row within {TOL.merge:g} of it"
            )
        on_lambda |= near
    if on_lambda.all():
        raise ScenarioError("every eta row is a lambda row: none is left to be nonzero")
    # the largest magnitude per eta row; np.maximum, unlike max(), carries a
    # NaN magnitude into the report
    row_max = np.zeros(len(eta))
    for _, _, mags in blocks:
        row_max = np.maximum(row_max, mags.max(axis=0))
    infos = [f"grid_rows {len(xi) * len(eta)}", f"max_abs {row_max.max():.17g}"]
    if heights:
        names = ("lambda_rows_max", "off_lambda_rows_max")
        on, off = row_max[on_lambda].max(), row_max[~on_lambda].max()
        return infos, _set_checks(names, on, off, p["tolerance"])
    return infos, [_check("grid_evaluated", float(len(xi) * len(eta)), ">=", 1.0)]


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
    row-major order (xi outer, eta inner).  One template per grid holds
    every eta's line with its eta formatted once; each xi row fills in its
    xi and its values and goes out in one write.
    """
    if scenario.kind != "ft_grid":
        raise ScenarioError("the grid command needs an ft_grid scenario")
    xi, eta, _, blocks = _grid_rows(_resolve(scenario)[1])
    template = "".join(f"\0,{e:.17g},%.17g,%.17g,%.17g\n" for e in eta.tolist())
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("xi,eta,re,im,abs\n")
        for xs, values, mags in blocks:
            table = np.stack((values.real, values.imag, mags), axis=-1)
            # one row's floats at a time: a whole block's list is a transient
            # the size of the block
            for x, row in zip(xs.tolist(), table.reshape(len(xs), -1)):
                fh.write(template.replace("\0", f"{x:.17g}") % tuple(row.tolist()))
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
    except ValueError as exc:
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
    except (HupLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
