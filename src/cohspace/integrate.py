"""Embedded Dormand-Prince RK5(4) with PI step control and dense output.

Hand-rolled rather than delegated so that the exposed statistics (accepted
steps, rejected steps, final error estimate) are well-defined, runs are
bit-reproducible for identical inputs, and callers can hook every accepted
step (chart switching, drift monitors).  Works directly on complex state
vectors.  Output times are reported exactly, but they never shorten a step:
the state at each one is interpolated with the Dormand-Prince continuous
extension of the step that covers it (Hairer, Norsett & Wanner, Solving ODEs
I, II.6; Shampine, Math. Comp. 46 (1986) 135), so the step sequence, the end
state and the statistics are the same with or without output times.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import IntegratorFailure, NumericalError, StiffnessError, check_sample_times

# Dormand-Prince 5(4) tableau.  Row i of _A combines the stages of a step into
# the argument of stage i; the last row is the 5th-order solution, whose stage
# is the next step's first (FSAL).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B5 = _A[6]
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_ERR = _B5 - _B4
# continuous extension: y(t + theta h) = y + h (K^T _P) [theta, theta^2, theta^3, theta^4]
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_POWERS = np.arange(1, 5)

# y' = y^2 from y0 = 1 reaches max|y| ~ 1e12 before its steps underflow
BLOW_UP_GROWTH = 1e6


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


def _err_norm(e: np.ndarray, abs0: np.ndarray, abs1: np.ndarray, rtol, atol) -> float:
    sc = atol + rtol * np.maximum(abs0, abs1)  # abs0, abs1: |y| before and after the step
    with np.errstate(invalid="ignore"):  # non-finite stages: NaN here, reported by solve_rk45
        # the RMS: sum() / size is np.mean's arithmetic without its call overhead
        return math.sqrt(float((np.abs(e / sc) ** 2).sum()) / e.size)


def _dense(y: np.ndarray, h: float, kr: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """States at t + theta h (0 < theta < 1) of the step from (t, y) of size
    h whose stages are `kr` (real view), one row per theta."""
    return y + h * (theta[:, None] ** _POWERS @ (_P.T @ kr)).view(complex)


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

    The states at the `t_eval` times are interpolated within the steps that
    cover them (a time on a step end takes that step's state); only the last
    step is clipped, to end on t1.  `step_hook`, called after every accepted
    step, returns True to halt integration early.  A step below 1e-14
    (t1 - t0) raises StiffnessError, or NumericalError (a blow-up) once
    max|y| exceeds BLOW_UP_GROWTH * max(1, max|y0|).
    """
    eval_times = check_sample_times(t0, t1, t_eval) or []
    y = np.asarray(y0, dtype=complex).copy()
    y_abs = np.abs(y)  # |y| of the current state, reused by the next step's error norm
    y0_max = float(y_abs.max(initial=0.0))
    t = float(t0)
    span = t1 - t0
    slack = 1e-15 * span
    states = np.empty((len(eval_times), y.size), dtype=complex)
    ei = bisect_right(eval_times, t + slack)
    states[:ei] = y

    k = np.zeros((7, y.size), dtype=complex)  # the stages of one step
    kr = k.view(float)  # real view: real tableau weights act on it by one `dot`
    k[0] = f(t, y)
    h = _initial_step(f, t, y, k[0], rtol, atol, span)
    accepted = rejected = 0
    err_prev = 1.0
    err = 0.0
    halted = False
    min_h = 1e-14 * span

    while t < t1 - slack:
        if accepted + rejected > max_steps:
            raise IntegratorFailure(f"exceeded {max_steps} steps at t = {t:.6g}")
        h = min(h, t1 - t)
        if h < min_h:
            y_max = float(y_abs.max(initial=0.0))
            if y_max > BLOW_UP_GROWTH * max(1.0, y0_max):
                raise NumericalError(
                    f"finite-time blow-up at t = {t:.6g} (h = {h:.3e}): max|y| = {y_max:.3e} "
                    f"grew from {y0_max:.3e}"
                )
            raise StiffnessError(
                f"step size underflow at t = {t:.6g} (h = {h:.3e}); problem appears stiff"
            )
        # rows of _A vanish from column i on, so stages not yet computed in
        # this step (finite leftovers) add exact zeros
        for i in range(1, 7):
            yi = y + h * _A[i].dot(kr).view(complex)
            k[i] = f(t + _C[i] * h, yi)
        y5 = yi
        e = h * _ERR.dot(kr).view(complex)
        y5_abs = np.abs(y5)
        err = _err_norm(e, y_abs, y5_abs, rtol, atol)
        if err <= 1.0:
            t_old, t = t, t + h
            j = bisect_right(eval_times, t + slack, ei)
            if j > ei:
                mid = bisect_left(eval_times, t, ei, j)
                if mid > ei:
                    states[ei:mid] = _dense(y, h, kr, (np.array(eval_times[ei:mid]) - t_old) / h)
                states[mid:j] = y5
                ei = j
            y, y_abs = y5, y5_abs
            k[0] = k[6]  # FSAL
            accepted += 1
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
        times=np.array(eval_times[:ei]),
        states=states[:ei],
        t_end=t,
        y_end=y,
        stats=IntegratorStats(steps=accepted, rejected=rejected, final_error_estimate=err),
        halted=halted,
    )
