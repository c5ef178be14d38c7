"""Run one scenario through ``hup_lab.cli.main`` and check what it produced.

An operation fails when ``main`` raises or exits non-zero, when the report
does not end ``overall PASS``, when the program refuses the input, or when
a benchmark-side check disagrees with the output.  Checks read only the
captured stdout and the written CSV, plus the expectations the generator
recorded; they run outside the timed window.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import time
from dataclasses import dataclass
from pathlib import Path

from hup_lab import cli

from workloads import Op

# Refusals print "error: <message>" and exit 2; the message names the cause.
_REFUSALS = (
    ("oscillation budget", "OscillationBudgetError"),
    ("arrangement evaluations", "SubsetCapError"),
    ("not reliably distinct", "IllConditionedError"),
    ("zero pivot", "IllConditionedError"),
)

_FIBER = re.compile(r"^info fiber xi=(\S+) size=\d+ class=(\d+)$", re.M)
_CHECK = re.compile(r"^check (\S+) measured=(\S+) .* result=(PASS|FAIL)$", re.M)

# Rows on a lambda height are those within the program's merge tolerance.
_HEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    seconds: float
    cause: str | None  # None when the operation passed
    csv_bytes: int = 0


def invoke(op: Op, workdir: Path) -> tuple[float, int | None, str, str, str | None]:
    """Time one ``main`` call; returns (seconds, exit code, stdout, stderr, error)."""
    argv = [op.command, str(workdir / op.name)]
    if op.command == "grid":
        argv += ["--out", str(workdir / (op.name + ".csv"))]
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an operation that raises has failed
        error = type(exc).__name__
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), error


def _refusal(stderr: str) -> str:
    for needle, cause in _REFUSALS:
        if needle in stderr:
            return cause
    return "exit 2"


def _check_report(op: Op, report: str) -> str | None:
    if not report.endswith("overall PASS\n"):
        return "overall FAIL"
    expect = op.expect
    if op.kind == "classify":
        found = {float(xi): int(cls) for xi, cls in _FIBER.findall(report)}
        if found != expect["classes"]:
            return "check:fiber_classes"
    elif op.kind == "exp_curve_witness":
        match = re.search(r"^info quad_error_max (\S+)$", report, re.M)
        if match is None or not float(match.group(1)) <= expect["quad_tol"]:
            return "check:quad_error_max"
    elif op.kind == "discriminant":
        measured = {name: float(v) for name, v, _ in _CHECK.findall(report)}
        want = exact_discriminant(*expect["discriminant"])
        if not abs(measured.get("discriminant", -1.0) - want) <= 1e-9 * max(1.0, want):
            return "check:discriminant_value"
    elif op.kind == "ft_grid" and op.command == "run":
        if f"info grid_rows {expect['rows']}\n" not in report:
            return "check:grid_rows"
    return None


def _check_csv(op: Op, path: Path) -> str | None:
    expect = op.expect
    heights = expect["lambda_heights"] or []
    rows = 0
    on_height: dict[str, bool] = {}  # per distinct eta field
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["xi", "eta", "re", "im", "abs"]:
            return "check:csv_header"
        for _, eta, _, _, mag in reader:
            rows += 1
            hit = on_height.get(eta)
            if hit is None:
                e = float(eta)
                hit = on_height[eta] = any(abs(e - h) <= _HEIGHT_TOL for h in heights)
            if hit and not float(mag) <= expect["tolerance"]:
                return "check:csv_lambda_rows"
    if rows != expect["rows"]:
        return "check:csv_rows"
    return None


def _digest(path: Path) -> str:
    # streamed, so checking a 10 MB CSV does not raise the peak RSS measured
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def execute(op: Op, workdir: Path, *, recheck: bool = False) -> Outcome:
    """Run ``op`` timed, then check its output untimed.

    With ``recheck`` a grid op is run a second time, untimed: the rerun must
    exit cleanly and write a CSV byte-identical to the first, which is moved
    aside so a rerun that writes nothing cannot pass.
    """
    seconds, code, stdout, stderr, error = invoke(op, workdir)
    if error is not None:
        return Outcome(seconds, f"raised {error}")
    if code == 2:
        return Outcome(seconds, _refusal(stderr))
    if code != 0 and not (code == 1 and op.command == "run"):
        return Outcome(seconds, f"exit {code}")
    if op.command == "run":
        return Outcome(seconds, _check_report(op, stdout))
    out = workdir / (op.name + ".csv")
    size = out.stat().st_size
    cause = _check_csv(op, out)
    if cause is None and recheck:
        first = out.with_name(out.name + ".first")
        out.replace(first)
        _, code, _, _, error = invoke(op, workdir)
        if error is not None or code != 0 or not out.is_file():
            cause = "check:csv_rerun_failed"
        elif _digest(out) != _digest(first):
            cause = "check:csv_not_deterministic"
        first.unlink()
    out.unlink(missing_ok=True)
    return Outcome(seconds, cause, size)


def exact_discriminant(etas: list[float], n: int, p: int) -> float:
    """``|h_{p-n}(a_0..a_n) - h_{p-n}(a_0..a_{n-1}, a_{n+1})|`` at 40 digits."""
    import mpmath  # only the discriminant check needs it

    with mpmath.workdps(40):
        a = [mpmath.expjpi(mpmath.mpf(e)) for e in etas]
        k = p - n

        def h(xs):
            table = [mpmath.mpc(1)] + [mpmath.mpc(0)] * k
            for x in xs:
                for j in range(1, k + 1):
                    table[j] += x * table[j - 1]
            return table[k]

        return float(abs(h(a[: n + 1]) - h(a[:n] + [a[n + 1]])))
