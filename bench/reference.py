"""Reference-second scaling: a fixed loop timed next to the measured work.

The host's effective CPU speed drifts by tens of percent, within seconds and
across minutes, and CPU time drifts with it.  Every time the benchmark
reports is therefore in reference seconds:

    reference seconds = raw seconds * NOMINAL_REF_S / (reference-loop time
                        measured next to that work)

The loop has three parts of about 1 ms each, so that it slows down with the
host the way cohspace's mixed work does: interpreter arithmetic with small
numpy calls (per-call code), float-to-text formatting (payload writing) and
a pass over a 4 MB array (Gram-sized memory traffic).  It uses no cohspace
code, no BLAS call and no state that a cohspace change could alter.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference-loop time on the host the baseline was recorded on
# (2-core x86-64 container, Python 3.11.7, numpy 2.4.6).  Reference seconds
# equal raw seconds when the loop runs at this speed.
NOMINAL_REF_S = 0.00300

_FLOATS = [i * 0.1234567 for i in range(1500)]
_BIG = np.linspace(0.0, 1.0, 1 << 19)
_OUT = np.empty_like(_BIG)


def reference_loop() -> float:
    acc = 0.0
    table = {}
    for i in range(1800):
        acc += (i * 0.5 + acc * 1e-9) ** 0.5
        table[i & 127] = acc
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(90):
        a = np.sqrt(a * a + 1.0) - 0.5
    text = ",".join(map(repr, _FLOATS))
    np.multiply(_BIG, 1.0001, out=_OUT)
    acc += float(_OUT.sum())
    return acc + float(a.sum()) + len(table) + len(text)


def sample(count: int) -> list[float]:
    """Raw durations of `count` back-to-back reference loops."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - start)
    return out


def factor(samples) -> float:
    """Raw-to-reference scale for work measured among these samples."""
    return NOMINAL_REF_S / statistics.median(samples)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)
