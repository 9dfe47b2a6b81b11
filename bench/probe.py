"""Set-up of a workload process, and a probe that times it from process start.

``setup`` is everything a workload process does before its first timed run:
pin BLAS/OpenMP to one thread before numpy loads, import numpy, scipy and
every cohspace module from this checkout's ``src``, and build the configs.
Run as a script, this file is a set-up probe: a fresh interpreter that does
the set-up, reads the clock, times the reference loop right after and prints
both as one JSON line.  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux,
shared by all processes, so the parent subtracts its own spawn time.

    python3 bench/probe.py <workload> <seed>
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    pass


def pin_threads():
    """One BLAS/OpenMP thread, as the CLI defaults to; takes effect only before
    numpy loads, which the Threads count in /proc/self/status shows."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def setup(workload, seed):
    """(cohspace modules by name, jobs) for one workload run."""
    pin_threads()
    sys.path.insert(0, str(SRC))
    try:
        import cohspace
    except ImportError as exc:
        raise SetupError(f"cannot import cohspace from {SRC}: {exc}") from exc
    if not Path(cohspace.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"cohspace was imported from {cohspace.__file__}, not from {SRC}")
    import spans
    import workloads

    return spans.cohspace_modules(), workloads.build(workload, seed)


if __name__ == "__main__":
    try:
        setup(sys.argv[1], int(sys.argv[2]))
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        sys.exit(2)
    ready = time.perf_counter()
    import reference

    print(json.dumps({"ready": ready, "ref": reference.sample(8)}))
