"""Benchmark runner: set-up probes, the closed-loop timed run, the traced run.

One process runs a single closed-loop client: the next scenario starts when
the previous one returns.  Whole rounds of the seeded stream are run until
the timed operations add up to ``--seconds``; each round's scenario files
are written just before it starts, outside the timed operations.

``--trace 0`` reports the end-to-end metrics, with every time rescaled to a
fixed machine speed read from a reference loop timed next to it.
``--trace 1`` runs every round twice, untraced and traced, taking turns at
going first, and reports the per-layer metrics of the traced pass plus the
tracing overhead between the two passes.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path
from typing import Iterator

import numpy as np

import ops
import tracing
import workloads

# Highest percentile with at least ten operations beyond it at the operation
# count a 45 s run reaches on a 2-vCPU Xeon VM (curve_sweep 51-81 from 17-27
# rounds of 3, fiber_grid 260-340 from 13-17 rounds of 20), kept inside one
# cost stratum so the rounds' fixed mix, not the run length, decides which
# scenario it lands on: the line sweeps (a third of the operations) and the
# n = 5 exhaustive classify (one in twenty).
TAIL_PERCENTILE = {"curve_sweep": 80, "fiber_grid": 96}
# Every this many rounds, the first grid op is re-run to check its CSV is
# byte-identical; more often would spend much of the run on checking.
RECHECK_EVERY = 8
SETUP_PROBES = 9
# A fixed reference loop, a pure-Python integer loop and then small numpy
# calls, is timed before every operation, after the last, and around every
# set-up probe; it runs none of the program's code.  On the shared 2-vCPU
# Xeon VM the bounds were set on, the speed of one and the same operation
# drifts by up to 40 % within a minute (no steal time: CPU time tracks wall
# time), and 45 s runs spread by about 20 % between seeds.  The loop follows
# that drift: over 12-operation windows of repeated line sweeps, axis
# surfaces, n = 5 classifies and grid writes, scaling each operation by the
# loop times taken around it cut the spread of the window medians from
# 0.08-0.11 of their mean to 0.02-0.03.  Either half alone did about as
# well there, but over whole runs the integer half alone left curve_sweep
# spreading by 0.12-0.14 between seeds and the numpy half alone overcorrected
# one fiber_grid run by about 10 %, so both are timed.
REF_INT_LOOP = 30_000
REF_NUMPY_CALLS = 400
REF_X = np.linspace(0.0, 1.0, 64)
# The loop's median time between operations on that VM (slower than when
# run back to back): reported times are at this speed.
REF_NOMINAL_S = 0.0056
# An operation is scaled by the median of the loop times taken this many
# operations before and after it (the one just before and just after it
# included), so one preempted loop does not skew it.
REF_NEIGHBOURS = 2
# No round starts later than this after start-up, so a slow program still
# ends in time.
DEADLINE_S = 140.0


class Terminated(BaseException):
    """SIGTERM arrived; unwinds past the per-operation error handling so
    the run stops and still removes its scenario files."""


def _terminate(signum, frame):
    raise Terminated()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="do the set-up, print 'ready' and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path) -> Iterator[list[workloads.Op]]:
    """Write the first round, run the warm-up scenarios; returns the rounds."""
    stream = workloads.rounds(workload, seed, workdir)
    first = next(stream)
    for op in workloads.warmup(workload, workdir):
        outcome = ops.execute(op, workdir)
        if outcome.cause is not None:
            raise RuntimeError(f"warm-up scenario failed: {outcome.cause}")
    return itertools.chain([first], stream)


def reference_s() -> float:
    """Wall time of the fixed reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_INT_LOOP):
        total += i * i
    for i in range(REF_NUMPY_CALLS):
        total += float(np.abs(np.exp(1j * i * REF_X)).sum())
    return time.perf_counter() - start


def at_reference_speed(seconds: list[float], refs: list[float]) -> list[float]:
    """Rescale operation times to the speed at which the loop takes
    ``REF_NOMINAL_S``.  ``refs[i]`` was timed just before operation ``i``,
    ``refs[-1]`` just after the last one."""
    if len(refs) != len(seconds) + 1:
        raise ValueError("need one reference time before each operation and one after")
    k = REF_NEIGHBOURS
    return [
        t * REF_NOMINAL_S / statistics.median(refs[max(0, i - k) : i + k + 2])
        for i, t in enumerate(seconds)
    ]


def _time_setup(root: Path, workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until its set-up is done,
    as measured and at reference speed (loop timed twice before, twice after)."""
    refs = [reference_s(), reference_s()]
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    refs += [reference_s(), reference_s()]
    return elapsed, elapsed * REF_NOMINAL_S / statistics.median(refs)


def _run_round(ops_in_round, workdir, results, *, recheck=False, tracer=None, refs=None) -> None:
    """Run one round's ops in order, appending ``(op, outcome)`` to ``results``.

    With ``recheck`` the round's first grid op is run a second time to check
    its CSV is byte-identical.  With ``refs`` the reference loop is timed
    before each op and appended to it.
    """
    for op in ops_in_round:
        if refs is not None:
            refs.append(reference_s())
        if tracer is not None:
            tracer.op_id = len(results)
        outcome = ops.execute(op, workdir, recheck=recheck and op.command == "grid")
        recheck = recheck and op.command != "grid"
        results.append((op, outcome))


def _timed_s(results) -> float:
    return sum(o.seconds for _, o in results)


def _run_rounds(rounds, workdir, deadline, seconds, before_round, refs):
    """Run whole rounds until the timed operations add up to ``seconds`` or
    the ``time.monotonic`` deadline passes; returns the (op, outcome) pairs
    and the number of rounds run.  ``before_round(timed_s)`` is called,
    untimed, before each round; the reference loop times go to ``refs``,
    one before each op and one after the last."""
    results = []
    for r, ops_in_round in enumerate(rounds, start=1):
        before_round(_timed_s(results))
        _run_round(ops_in_round, workdir, results, recheck=r % RECHECK_EVERY == 1, refs=refs)
        if _timed_s(results) >= seconds or time.monotonic() > deadline:
            break
    refs.append(reference_s())
    return results, r


def _environment(args, threads: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _end_to_end(workload, results, refs, setups) -> dict:
    """Metrics from times at reference speed; the measured ones are printed."""
    measured = [o.seconds for _, o in results]
    durations = at_reference_speed(measured, refs)
    passed = sum(1 for _, o in results if o.cause is None)
    q = TAIL_PERCENTILE[workload]
    tail = statistics.quantiles(durations, n=100, method="inclusive")[q - 1]
    beyond = sum(1 for d in durations if d > tail)
    print(f"tail p{q} of {len(durations)} operations, {beyond} beyond it")
    print(
        f"reference loop median {statistics.median(refs):.6f} s (nominal {REF_NOMINAL_S}); "
        f"as measured: setup_s {statistics.median(t for t, _ in setups):.6g}, "
        f"scenario_p50_s {statistics.median(measured):.6g}, "
        f"scenario_tail_s {statistics.quantiles(measured, n=100, method='inclusive')[q - 1]:.6g}, "
        f"scenarios_per_s {passed / sum(measured):.6g}"
    )
    return {
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "scenario_p50_s": (statistics.median(durations), "s"),
        "scenario_tail_s": (tail, "s"),
        "scenarios_per_s": (passed / sum(durations), "1/s"),
        "pass_ratio": (passed / len(durations), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(root, args, rounds, workdir, deadline):
    """Run each round untraced and traced, in turn first, so both passes
    cover the same operations with the same warm start."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    for r, ops_in_round in enumerate(rounds):
        for with_trace in (r % 2 == 1, r % 2 == 0):
            if not with_trace:
                _run_round(ops_in_round, workdir, plain)
                continue
            tracer.install()
            try:
                _run_round(ops_in_round, workdir, traced, tracer=tracer)
            finally:
                tracer.uninstall()
        if _timed_s(plain) + _timed_s(traced) >= args.seconds or time.monotonic() > deadline:
            break
    plain_s = _timed_s(plain)
    traced_s = _timed_s(traced)
    csv_bytes = sum(o.csv_bytes for _, o in traced)
    metrics = tracing.layer_metrics(tracer, len(traced), csv_bytes)
    shares = {
        layer: round(metrics[f"{layer}.self_s"][0] * len(traced) / traced_s, 4)
        for layer in tracing.LAYERS
    }
    print("self-time share of traced operations " + json.dumps(shares))
    passed = sum(1 for _, o in traced if o.cause is None)
    metrics["trace.untraced_scenarios_per_s"] = (
        sum(1 for _, o in plain if o.cause is None) / plain_s, "1/s"
    )
    metrics["trace.traced_scenarios_per_s"] = (passed / traced_s, "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["trace.spans"] = (len(tracer.start) / len(traced), "count/op")
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    print(f"spans written to {spans_path.relative_to(root)}")
    return plain + traced, metrics


def _print_result(results, metrics) -> None:
    failures = Counter(o.cause for _, o in results if o.cause is not None)
    if failures:
        print("failures " + json.dumps(dict(sorted(failures.items()))))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def _run_all(root: Path, args) -> int:
    """Run every workload in its own interpreter and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged), flush=True)
    return 0


def main(argv: list[str], root: Path, threads: dict) -> int:
    deadline = time.monotonic() + DEADLINE_S
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return _run_all(root, args)
    work_parent = root / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        rounds = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        print("env " + json.dumps(_environment(args, threads)), flush=True)
        if args.trace:
            results, metrics = _traced(root, args, rounds, workdir, deadline)
        else:
            setups, refs = [], []

            def probe(timed_s):
                # spread over the run, so the probes see the machine the
                # timed operations saw
                while len(setups) < SETUP_PROBES and (
                    timed_s >= len(setups) * args.seconds / SETUP_PROBES
                ):
                    setups.append(_time_setup(root, args.workload, args.seed))

            gc.collect()
            results, done = _run_rounds(rounds, workdir, deadline, args.seconds, probe, refs)
            probe(math.inf)
            print("setup probes (measured, at reference speed) "
                  + json.dumps([[round(t, 4) for t in pair] for pair in setups]))
            print(f"rounds {done}, operations {len(results)}")
            metrics = _end_to_end(args.workload, results, refs, setups)
        _print_result(results, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass  # another run still uses it
