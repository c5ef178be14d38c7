"""Seeded scenario generators, one per benchmark workload.

Each workload is a seeded stream of *rounds*.  A round is a fixed, stratified
mix of scenario kinds and sizes whose free parameters (signs, phases,
densities, subset choices) are drawn from the seed, shuffled into a seeded
order.  The benchmark runs whole rounds, so every run sees the same mix of
sizes and a different draw of values; that keeps the median and tail of one
run comparable with any other seed's.

The program only ever sees the scenario files written here.  Each ``Op``
carries the expectations the benchmark checks its output against; they are
built from the construction, never from running the program.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

QUAD_TOL = 1e-9
GRID_VANISH = 1e-12

# Sizes come from the shipped scenarios/*.scenario files and the schema
# defaults of hup_lab.cli, except where a comment says otherwise.

# classify: n -> p.  p = 2n + 4 runs through the sizes (3, 10), (4, 12) and
# (5, 14) whose exhaustive-search times the roadmap work was measured on;
# the roots-of-unity fiber holds all p roots, as in those measurements.
# Every search stays below SUBSET_CAP.
CLASSIFY_P = {n: 2 * n + 4 for n in range(1, 6)}

# ft_grid: 1001 xi values (the schema default) x 101 eta values (step 0.02,
# not the shipped 0.25: the 10 MB CSV write is the load the grid round is for).
GRID_XI = (-10.0, 10.0, 0.02)
GRID_ETA = (0.0, 2.0, 0.02)


@dataclass(frozen=True)
class Op:
    """One ``hup-lab`` invocation: ``command`` is ``run`` or ``grid``."""

    command: str
    name: str
    kind: str
    expect: dict = field(default_factory=dict)


def grid_count(lo: float, hi: float, step: float) -> int:
    """Number of points of an evenly stepped closed range whose step divides it."""
    return round((hi - lo) / step) + 1


def _write(directory: Path, name: str, params: dict) -> None:
    lines = [f"{key} = {json.dumps(value)}" for key, value in params.items()]
    (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _atom(kind: str, center: float, width: float, amplitude: float = 1.0) -> dict:
    return {"kind": kind, "center": center, "width": width, "amplitude": amplitude}


def _amplitude(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


def _density(rng: random.Random, kinds=("gaussian", "triangle")) -> list[dict]:
    """One atom per kind, at a random place, width and amplitude."""
    return [
        _atom(kind, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5), _amplitude(rng))
        for kind in kinds
    ]


# ---------------------------------------------------------------- curve_sweep
# A round runs each shipped curve scenario once: a line sweep, a slant and
# an axis surface.  Slopes, signs, offsets and amplitudes are drawn.  At
# these sizes the three kinds cost about 1.2 s, 0.3 s and 0.6 s on a 2-vCPU
# Xeon VM, so the median falls among the axis surfaces and the tail among
# the line sweeps.  A line sweep's cost grows with |c| (about 1.0 s at 0.8,
# 1.45 s at 3.2), so |c| is drawn within one of SLOPE_STRATA equal parts of
# the range, the part cycling with the round: every run sweeps the range
# evenly, and the tail percentile does not move with the seed's draws.

SLOPE_RANGE = (0.8, 3.2)  # |c| of line sweeps and slant surfaces, either sign
SLOPE_STRATA = 4
EXP_X = (-5.0, 5.0, 0.02)  # 501 x, each checked on and off the line
SURFACE_POINTS = 15


def _slope(rng: random.Random, stratum: int) -> float:
    lo, hi = SLOPE_RANGE
    part = (hi - lo) / SLOPE_STRATA
    start = lo + (stratum % SLOPE_STRATA) * part
    return rng.choice((-1.0, 1.0)) * rng.uniform(start, start + part)


def _exp_curve(rng: random.Random, stratum: int) -> dict:
    return {
        "kind": "exp_curve_witness",
        "c": _slope(rng, stratum),
        "d": rng.uniform(0.75, 1.25),
        "x_min": EXP_X[0],
        "x_max": EXP_X[1],
        "x_step": EXP_X[2],
        "quad_tol": QUAD_TOL,
    }


def _surface(rng: random.Random, case: str, stratum: int = 0) -> dict:
    params = {
        "kind": "surface_witness",
        "case": case,
        "points": SURFACE_POINTS,
        "h_density": [_atom("triangle", 0.0, 1.0, _amplitude(rng))],
    }
    if case == "axis":
        amplitude = _amplitude(rng)
        params["psi_density"] = [
            _atom("triangle", 1.0, 0.8, amplitude),
            _atom("triangle", -1.0, 0.8, -amplitude),
        ]
    else:
        params["c"] = _slope(rng, stratum)
    params["quad_tol"] = QUAD_TOL
    return params


def _curve_round(rng: random.Random, r: int) -> list[tuple[str, dict, dict]]:
    return [
        ("run", _exp_curve(rng, r), {"quad_tol": QUAD_TOL}),
        # offset, so a round's two slopes are not from the same part
        ("run", _surface(rng, "slant", r + SLOPE_STRATA // 2), {}),
        ("run", _surface(rng, "axis"), {}),
    ]


def _curve_warmup() -> tuple[str, dict, dict]:
    params = {"kind": "exp_curve_witness", "c": 1.0, "x_step": 0.5, "quad_tol": QUAD_TOL}
    return "run", params, {"quad_tol": QUAD_TOL}


# ------------------------------------------------------- fiber_grid: classify
# A classify round runs each shipped kind five times: classify for n = 1..5,
# and discriminant and reduce for n up to 19.  Fiber sizes, n and p are
# fixed per round position, so every seed does the same amount of search;
# the phases, subsets and period shifts are drawn.

DISCRIMINANT_NS = (3, 7, 11, 15, 19)
REDUCE_NS = (2, 6, 10, 14, 18)


def _distinct_phases(rng: random.Random, m: int) -> list[float]:
    """``m`` phases in [0, 2), one per equal slot, so no two are close."""
    slot = 2.0 / m
    return [(j + rng.uniform(0.1, 0.9)) * slot for j in range(m)]


def _classify(rng: random.Random, n: int, r: int) -> tuple[dict, dict]:
    p = CLASSIFY_P[n]
    small = 1 + r % n
    fibers = [
        # the p-th roots of unity: every arrangement has a zero
        # h-difference, so the search runs to the end -> class n+1
        ([2.0 * j / p for j in range(p)], n + 1),
        # generic phases: the first arrangements separate -> class n+2
        (_distinct_phases(rng, n + 2 + r % (p - n - 1)), n + 2),
        # at most n phases -> their count is the class
        (_distinct_phases(rng, small), small),
        # more than p phases -> class n+2 without a search
        (_distinct_phases(rng, p + 1 + r % 3), n + 2),
    ]
    rng.shuffle(fibers)
    xis = sorted(rng.sample(range(-40, 41), len(fibers)))
    points, classes, counts = [], {}, {}
    for xi_int, (etas, cls) in zip(xis, fibers):
        xi = xi_int * 0.25
        classes[xi] = cls
        counts[str(cls)] = counts.get(str(cls), 0) + 1
        for eta in etas:
            # shift some points by whole periods so folding has work to do
            points.append([xi, eta + 2.0 * rng.choice((-1, 0, 0, 1))])
    rng.shuffle(points)
    params = {
        "kind": "classify",
        "points": points,
        "n": n,
        "p": p,
        "expected_counts": dict(sorted(counts.items())),
    }
    return params, {"classes": classes}


def _discriminant(rng: random.Random, n: int, p: int, roots: bool) -> tuple[dict, dict]:
    if roots:
        etas = [2.0 * j / p for j in rng.sample(range(p), n + 2)]
    else:
        etas = _distinct_phases(rng, n + 2)
        rng.shuffle(etas)
    return {"kind": "discriminant", "etas": etas, "n": n, "p": p}, {
        "discriminant": [etas, n, p]
    }


def _reduce(rng: random.Random, n: int, p: int) -> dict:
    etas = _distinct_phases(rng, n + 2)
    rng.shuffle(etas)
    return {"kind": "reduce", "etas": etas, "n": n, "p": p}


def _classify_round(rng: random.Random, r: int) -> list[tuple[str, dict, dict]]:
    items = [("run", *_classify(rng, n, r)) for n in CLASSIFY_P]
    for b, n in enumerate(DISCRIMINANT_NS):
        # n+2 distinct p-th roots of unity need p >= n+2
        p = n + 2 + (r + b) % 5
        items.append(("run", *_discriminant(rng, n, p, roots=b % 2 == 1)))
    for b, n in enumerate(REDUCE_NS):
        items.append(("run", _reduce(rng, n, n + 1 + (r + b) % 5), {}))
    return items


def _classify_warmup() -> tuple[str, dict, dict]:
    rng = random.Random("classify-warmup")
    return ("run", *_classify(rng, 2, 0))


# ----------------------------------------------------------------- fiber_grid
# A round is a classify round and a grid round, shuffled together: every
# closed-form scenario kind at its shipped size, so classifier, sympoly,
# linsys, measures and the CSV writer share one workload.  The grid round
# runs the shipped ft_grid scenario once through ``hup-lab grid`` and once
# through ``hup-lab run``, and each other shipped closed-form kind once
# (cross_witness with its default variant, diagonal).  Line counts and
# levels are those of the shipped files; places, widths, amplitudes, seeds
# and translation steps are drawn.  On a 2-vCPU Xeon VM the n = 5
# exhaustive classify (about 1.9 s) sets the tail, then the grid write
# (0.7 s), the n = 4 classify (0.3 s) and the grid run (0.2 s); the median
# falls among the reduce and kronecker scenarios of about 1 ms.

GRID_N = 1  # two lines, lambda heights 0, 1, 2
CONSECUTIVE_N = 2
CROSS_N = 2


def _grid_expect(lambda_heights: list[float]) -> dict:
    rows = grid_count(*GRID_XI) * grid_count(*GRID_ETA)
    return {"rows": rows, "lambda_heights": lambda_heights, "tolerance": GRID_VANISH}


def _consecutive_grid(rng: random.Random, n: int) -> tuple[dict, dict]:
    params = {
        "kind": "ft_grid",
        "measure": "consecutive_witness",
        "n": n,
        "seed_density": _density(rng),
        "xi_min": GRID_XI[0],
        "xi_max": GRID_XI[1],
        "xi_step": GRID_XI[2],
        "eta_min": GRID_ETA[0],
        "eta_max": GRID_ETA[1],
        "eta_step": GRID_ETA[2],
    }
    # the witness kills the heights 2k/(n+1); the eta grid runs to 2.0
    heights = [2.0 * k / (n + 1) for k in range(n + 2)]
    return params, _grid_expect(heights)


# square roots of non-squares are irrational translation steps
_IRRATIONAL_ROOTS = [k for k in range(2, 50) if math.isqrt(k) ** 2 != k]


def _grid_round(rng: random.Random, r: int) -> list[tuple[str, dict, dict]]:
    return [
        ("grid", *_consecutive_grid(rng, GRID_N)),
        ("run", *_consecutive_grid(rng, GRID_N)),
        (
            "run",
            {"kind": "consecutive_witness", "n": CONSECUTIVE_N, "seed_density": _density(rng)},
            {},
        ),
        (
            "run",
            {"kind": "cross_witness", "n": CROSS_N, "seed": rng.randrange(2**31)},
            {},
        ),
        (
            "run",
            {
                "kind": "kronecker_check",
                "alpha": math.sqrt(rng.choice(_IRRATIONAL_ROOTS)),
                "density": _density(rng, ("gaussian",)),
            },
            {},
        ),
    ]


def _grid_warmup() -> tuple[str, dict, dict]:
    rng = random.Random("grid-warmup")
    params, expect = _consecutive_grid(rng, 1)
    params["xi_step"] = 0.5
    expect["rows"] = grid_count(GRID_XI[0], GRID_XI[1], 0.5) * grid_count(*GRID_ETA)
    return "grid", params, expect


def _fiber_grid_round(rng: random.Random, r: int) -> list[tuple[str, dict, dict]]:
    return _classify_round(rng, r) + _grid_round(rng, r)


WORKLOADS = {
    "curve_sweep": (_curve_round, (_curve_warmup,)),
    "fiber_grid": (_fiber_grid_round, (_classify_warmup, _grid_warmup)),
}


def warmup(workload: str, directory: Path) -> list[Op]:
    """Write the workload's fixed warm-up scenarios into ``directory``."""
    out = []
    for i, make in enumerate(WORKLOADS[workload][1]):
        command, params, expect = make()
        name = f"warmup-{i}.scenario"
        _write(directory, name, params)
        out.append(Op(command, name, params["kind"], expect))
    return out


def rounds(workload: str, seed: int, directory: Path) -> Iterator[list[Op]]:
    """Endless stream of rounds, each written into ``directory`` when drawn.

    The same ``(workload, seed)`` writes byte-identical files, round by
    round; a round's ops are in execution order.
    """
    make_round = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}:{seed}")
    for r in itertools.count():
        items = make_round(rng, r)
        rng.shuffle(items)
        ops = []
        for i, (command, params, expect) in enumerate(items):
            name = f"r{r:04d}-{i:02d}-{params['kind']}.scenario"
            _write(directory, name, params)
            ops.append(Op(command, name, params["kind"], expect))
        yield ops
