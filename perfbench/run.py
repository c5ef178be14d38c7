"""Seeded scenario benchmark for hup-lab.

Run from the repository root:

    python3 perfbench/run.py --workload curve_sweep --seed 1 --seconds 45 --trace 0

``--workload`` is ``curve_sweep``, ``fiber_grid`` or ``all``.  The program
is imported from ``src/`` of the same checkout; the benchmark refuses to run
without it.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    # BLAS reads its thread count when numpy loads, so pin it first.  One
    # thread: the benchmark is a single closed-loop client, and on a small
    # shared machine a threaded BLAS call made the first large quadrature
    # of a run up to three times slower than the same call single-threaded.
    threads = "1"
    pinned = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = pinned[var] = threads
    if not (SRC / "hup_lab" / "__init__.py").is_file():
        print(f"error: no hup_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hup_lab

    if not Path(hup_lab.__file__).resolve().is_relative_to(SRC):
        print(f"error: hup_lab was imported from {hup_lab.__file__}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:], ROOT, pinned)


if __name__ == "__main__":
    sys.exit(main())
