"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hup_lab
import ops
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        stream = workloads.rounds(workload, seed, d)
        for _ in range(3):
            next(stream)
        workloads.warmup(workload, d)
    a, b, c = (_files(d) for d in dirs)
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_generated_scenario_passes(tmp_path, workload):
    for seed in (0, 1):
        d = tmp_path / str(seed)
        d.mkdir()
        first = next(workloads.rounds(workload, seed, d))
        for op in [*workloads.warmup(workload, d), *first]:
            outcome = ops.execute(op, d, recheck=op.command == "grid")
            assert outcome.cause is None, (seed, op.name, outcome.cause)


def _snapshot() -> dict:
    state = {}
    for name, module in sys.modules.items():
        if name == "hup_lab" or name.startswith("hup_lab."):
            state[name] = dict(vars(module))
    for cls in (hup_lab.cli.Report, hup_lab.curves.CurveDensity):
        state[cls.__qualname__] = dict(vars(cls))
    return state


def test_tracer_leaves_hup_lab_unpatched_and_accounts_for_time(tmp_path):
    first = next(workloads.rounds("fiber_grid", 3, tmp_path))
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hup_lab.classifier.complete_homogeneous is not before[
            "hup_lab.classifier"
        ]["complete_homogeneous"]
        outcomes = []
        for i, op in enumerate(first):
            tracer.op_id = i
            outcomes.append(ops.execute(op, tmp_path))
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert all(o.cause is None for o in outcomes)

    calls = tracer.calls()
    # calls made through names other modules imported are seen
    assert calls["sympoly.complete_homogeneous"] > 0
    assert calls["cli.main"] == len(first)
    # self times add up to the root spans, which sit inside the timed ops
    total_self = sum(tracer.self_times().values())
    roots = [i for i, parent in enumerate(tracer.parent) if parent < 0]
    root_total = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert total_self == pytest.approx(root_total, rel=1e-9)
    assert root_total <= sum(o.seconds for o in outcomes)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fiber_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recheck_fails_when_the_rerun_writes_nothing(tmp_path, monkeypatch):
    op = next(op for op in next(workloads.rounds("fiber_grid", 2, tmp_path)) if op.command == "grid")
    real = ops.invoke
    calls = []

    def rerun_refused(op, workdir):
        calls.append(op.name)
        if len(calls) == 1:
            return real(op, workdir)
        return 0.0, 2, "", "error: refused\n", None

    monkeypatch.setattr(ops, "invoke", rerun_refused)
    assert ops.execute(op, tmp_path, recheck=True).cause == "check:csv_rerun_failed"
    assert not any(tmp_path.glob("*.csv*"))


def test_times_are_rescaled_by_the_reference_loop_around_them():
    import bench

    nominal = bench.REF_NOMINAL_S
    seconds = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert bench.at_reference_speed(seconds, [nominal] * 9) == pytest.approx(seconds)
    # the machine ran at half speed for the last four operations
    refs = [nominal] * 4 + [2 * nominal] * 5
    scaled = bench.at_reference_speed(seconds, refs)
    assert scaled[:2] == pytest.approx(seconds[:2])
    assert scaled[-3:] == pytest.approx([t / 2 for t in seconds[-3:]])
    # one preempted loop among its neighbours changes nothing
    refs = [nominal] * 9
    refs[4] = 10 * nominal
    assert bench.at_reference_speed(seconds, refs) == pytest.approx(seconds)
    with pytest.raises(ValueError):
        bench.at_reference_speed(seconds, refs[:-1])
