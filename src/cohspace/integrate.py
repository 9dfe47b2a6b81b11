"""Embedded Dormand-Prince RK5(4) with PI step control.

Hand-rolled rather than delegated so that the exposed statistics (accepted
steps, rejected steps, final error estimate) are well-defined, runs are
bit-reproducible for identical inputs, and callers can hook every accepted
step (chart switching, drift monitors).  Works directly on complex state
vectors; output times are hit exactly by clipping the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, IntegratorFailure, NumericalError, StiffnessError

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


@dataclass
class IntegratorStats:
    steps: int
    rejected: int
    final_error_estimate: float


@dataclass
class RKSolution:
    times: np.ndarray        # requested sample times actually reached
    states: np.ndarray       # len(times) x dim, complex
    t_end: float
    y_end: np.ndarray
    stats: IntegratorStats
    halted: bool             # True when step_hook requested an early stop


def _err_norm(e: np.ndarray, y0: np.ndarray, y1: np.ndarray, rtol: float, atol: float) -> float:
    sc = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    with np.errstate(invalid="ignore"):  # non-finite stages: NaN here, reported by solve_rk45
        return float(np.sqrt(np.mean(np.abs(e / sc) ** 2)))


def _initial_step(f, t0, y0, f0, rtol, atol, span):
    sc = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean(np.abs(y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(f0 / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = float(np.sqrt(np.mean(np.abs((f1 - f0) / sc) ** 2))) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, span)


def solve_rk45(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    y0: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    t_eval: Optional[Sequence[float]] = None,
    step_hook: Optional[Callable[[float, np.ndarray], bool]] = None,
    max_steps: int = 10_000_000,
) -> RKSolution:
    """Integrate y' = f(t, y) from t0 to t1 (forward only).

    `t_eval` times are hit exactly (steps are clipped); `step_hook`, called
    after every accepted step, returns True to halt integration early.
    """
    if not t1 > t0:
        raise ConfigError("integration needs t1 > t0")
    y = np.asarray(y0, dtype=complex).copy()
    t = float(t0)
    span = t1 - t0
    eval_times = None if t_eval is None else [float(x) for x in t_eval]
    if eval_times is not None:
        if any(b <= a for a, b in zip(eval_times, eval_times[1:])):
            raise ConfigError("t_eval must be strictly increasing")
        if eval_times and (eval_times[0] < t0 - 1e-12 or eval_times[-1] > t1 + 1e-12):
            raise ConfigError("t_eval must lie within [t0, t1]")
    out_t: list[float] = []
    out_y: list[np.ndarray] = []
    ei = 0
    if eval_times is not None:
        while ei < len(eval_times) and eval_times[ei] <= t + 1e-15 * span:
            out_t.append(eval_times[ei])
            out_y.append(y.copy())
            ei += 1

    k = [np.zeros_like(y) for _ in range(7)]
    k[0] = np.asarray(f(t, y), dtype=complex)
    h = _initial_step(f, t, y, k[0], rtol, atol, span)
    accepted = rejected = 0
    err_prev = 1.0
    err = 0.0
    halted = False
    min_h = 1e-14 * span

    while t < t1 - 1e-15 * span:
        if accepted + rejected > max_steps:
            raise IntegratorFailure(f"exceeded {max_steps} steps at t = {t:.6g}")
        h = min(h, t1 - t)
        if eval_times is not None and ei < len(eval_times):
            h = min(h, eval_times[ei] - t)
        if h < min_h:
            raise StiffnessError(
                f"step size underflow at t = {t:.6g} (h = {h:.3e}); problem appears stiff"
            )
        for i in range(1, 6):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]))
            k[i] = np.asarray(f(t + _C[i] * h, yi), dtype=complex)
        y5 = y + h * sum(b * k[j] for j, b in enumerate(_B5[:6]) if b != 0.0)
        k[6] = np.asarray(f(t + h, y5), dtype=complex)
        e = h * sum(c * k[j] for j, c in enumerate(_ERR) if c != 0.0)
        err = _err_norm(e, y, y5, rtol, atol)
        if err <= 1.0:
            t_new = t + h
            y, k[0] = y5, k[6]  # FSAL
            t = t_new
            accepted += 1
            if eval_times is not None:
                while ei < len(eval_times) and eval_times[ei] <= t + 1e-15 * span:
                    out_t.append(eval_times[ei])
                    out_y.append(y.copy())
                    ei += 1
            if step_hook is not None and step_hook(t, y):
                halted = True
                break
            # PI controller (Gustafsson)
            fac = 0.9 * (err + 1e-16) ** -0.14 * (err_prev + 1e-16) ** 0.08
            err_prev = max(err, 1e-16)
            h *= min(5.0, max(0.2, fac))
        elif not math.isfinite(err):
            bad = next((f"stage k{j + 1}" for j in range(7) if not np.isfinite(k[j]).all()),
                       "no stage (the error estimate overflowed)")
            raise NumericalError(
                f"non-finite error estimate at t = {t:.6g} (h = {h:.3e}); first non-finite: {bad}"
            )
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)

    return RKSolution(
        times=np.array(out_t),
        states=np.array(out_y) if out_y else np.zeros((0, y.size), dtype=complex),
        t_end=t,
        y_end=y,
        stats=IntegratorStats(steps=accepted, rejected=rejected, final_error_estimate=err),
        halted=halted,
    )
