"""Embedded Dormand-Prince 8(5,3) pair (DOP853) with PI step control and
dense output.

An explicit 8th-order Runge-Kutta step of 12 stages, whose last evaluation
(f at the new state) is the next step's first (FSAL), with an error estimate
that blends the embedded 5th- and 3rd-order estimators (Hairer, Norsett &
Wanner, Solving ODEs I, II.10).  At the tolerances the variational flows run
at (1e-9 to 1e-10) it takes about a fifth of the steps and half the RHS
evaluations of the 5(4) pair.  The solver keeps the name ``solve_rk45``
because callers and tools bind that name.

Hand-rolled rather than delegated so that the exposed statistics (accepted
and rejected steps, RHS evaluations, final error estimate) are well-defined,
runs are bit-reproducible for identical inputs, and callers can hook every
accepted step (chart switching, drift monitors).  Works directly on complex
state vectors.  Output times are reported exactly, but they never shorten a
step: the state at each one is interpolated with the 7th-order continuous
extension of the step that covers it, whose 3 extra stages run only on steps
that cover an interior sample time, so the step sequence, the end state and
the step statistics are the same with or without output times.

A solve that continues an earlier one can pass that solve's `h_next`, the
controller's proposal for the step after its end, as `first_step`: the new
solve skips the initial-step probe and starts from a step the controller has
already grown, instead of a small probed one it has to grow back.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigError, IntegratorFailure, NumericalError, StiffnessError,
                     check_sample_times)

# DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.10; the
# coefficients of Hairer's Fortran code).  Stage i (1-11) evaluates f at
# (t + _C[i] h, y + h _A[i] . K[:i]); the 8th-order solution is
# y + h _B . K[:12], and f there is stage 12, the next step's first (FSAL).
# Stages 13-15 feed only the dense output.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
      0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778)
_A = tuple(np.array(row) for row in (  # row i: the weights of stages 0 ... i-1
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
))
_B = _A[12]
# error estimators over stages 0-11: the 5th-order one, and the 8th-order
# weights minus the 3rd-order ones
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_E3 = _B - np.array([0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.7338466882816118, 0.0, 0.0, 0.022058823529411766])
_ERR = np.stack([_E5, _E3])
# 7th-order continuous extension, y(t + x h) = y + h sum_j x^(j//2+1) (1-x)^((j+1)//2) F_j . K
# with F_0 = b, F_1 = e_0 - b, F_2 = 2 b - e_0 - e_12 (b the 8th-order weights)
# and F_3..F_6 the rows of _D
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
_b = np.append(_B, np.zeros(4))
_e0, _e12 = np.eye(16)[[0, 12]]
_F = np.vstack([_b, _e0 - _b, 2 * _b - _e0 - _e12, _D])
_X_POW = np.arange(7) // 2 + 1
_Y_POW = np.arange(1, 8) // 2

# y' = y^2 from y0 = 1 reaches max|y| ~ 1e12 before its steps underflow
BLOW_UP_GROWTH = 1e6
MAX_STEPS = 10_000_000  # accepted plus rejected steps of one solve


@dataclass
class IntegratorStats:
    steps: int
    rejected: int
    rhs_evals: int  # calls of f, the initial-step probe and dense-output stages included
    h_min: float  # the smallest and largest accepted step
    h_max: float


def total_stats(parts: Sequence[IntegratorStats]) -> IntegratorStats:
    """The stats of consecutive solves as one: counts summed, the range of
    accepted steps combined."""
    return IntegratorStats(
        steps=sum(p.steps for p in parts),
        rejected=sum(p.rejected for p in parts),
        rhs_evals=sum(p.rhs_evals for p in parts),
        h_min=min(p.h_min for p in parts),
        h_max=max(p.h_max for p in parts),
    )


@dataclass
class RKSolution:
    times: np.ndarray        # requested sample times actually reached
    states: np.ndarray       # len(times) x dim, complex
    t_end: float
    y_end: np.ndarray
    stats: IntegratorStats
    halted: bool             # True when step_hook requested an early stop
    h_next: float            # the controller's proposal for the step after t_end


def _err_norm(e: np.ndarray, abs0: np.ndarray, abs1: np.ndarray, rtol, atol, h) -> float:
    """The DOP853 error norm of the (5th-order, 3rd-order) estimates `e`, rows
    of h-free weighted stage sums, on the scale of |y| before and after."""
    sc = atol + rtol * np.maximum(abs0, abs1)
    with np.errstate(invalid="ignore"):  # non-finite stages: NaN here, reported by solve_rk45
        e5, e3 = (np.abs(e / sc) ** 2).sum(axis=1).tolist()
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * e.shape[1])


def _dense(y: np.ndarray, h: float, kr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """States at t + x h (0 < x < 1) of the step from (t, y) of size h whose
    16 stages are `kr` (real view), one row per x."""
    x = x[:, None]
    return y + h * ((x ** _X_POW * (1.0 - x) ** _Y_POW) @ (_F @ kr)).view(complex)


def _initial_step(f, t0, y0, f0, rtol, atol, span):
    if not np.isfinite(f0).all():  # the probe would carry it to t = nan
        raise NumericalError(f"non-finite right-hand side at t0 = {t0:.6g}; "
                             "first non-finite: stage k1")
    sc = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean(np.abs(y0 / sc) ** 2)))
    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        d1 = float(np.sqrt(np.mean(np.abs(f0 / sc) ** 2)))
    if d1 == math.inf:  # the probe step 0.01 d0 / d1 would be 0
        raise NumericalError(
            f"right-hand side overflowed at t0 = {t0:.6g}: its scaled norm |f / (atol + rtol |y|)| "
            f"is inf (max|f| = {float(np.abs(f0).max()):.3e})"
        )
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = float(np.sqrt(np.mean(np.abs((f1 - f0) / sc) ** 2))) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** (1 / 8) if dm > 1e-15 else max(1e-6, h0 * 1e-3)
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
    first_step: Optional[float] = None,
) -> RKSolution:
    """Integrate y' = f(t, y) from t0 to t1 (forward only) with DOP853.

    The states at the `t_eval` times are interpolated within the steps that
    cover them (a time on a step end takes that step's state); only the last
    step is clipped, to end on t1.  `step_hook`, called after every accepted
    step, returns True to halt integration early.  A step below 1e-14
    (t1 - t0) raises StiffnessError, or NumericalError (a blow-up) once
    max|y| exceeds BLOW_UP_GROWTH * max(1, max|y0|), or IntegratorFailure if
    it is the first step yet at least 1e-14 max(1, |t0|) (the span is too
    long), as do more than MAX_STEPS steps.  rtol must be positive and atol not
    negative (ConfigError).

    `first_step`, when given (finite and positive, else ConfigError), is the
    first step tried (clipped to end on t1, as every step is) in place of the
    initial-step probe, which is then not evaluated.  `h_next` is the controller's proposal for
    the step after t_end: after a last step clipped to end on t1, the proposal
    made before the clip; after a halt, the size of the step just accepted.
    Passing it as the next solve's `first_step` continues the step sequence.
    """
    if not rtol > 0.0 or not atol >= 0.0:
        raise ConfigError(f"need rtol > 0 and atol >= 0, got rtol = {rtol!r}, atol = {atol!r}")
    if first_step is not None and not 0.0 < first_step < math.inf:
        raise ConfigError(f"need a finite first_step > 0, got {first_step!r}")
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

    k = np.zeros((16, y.size), dtype=complex)  # the stages of one step
    kr = k.view(float)  # real view: real tableau weights act on it by one `dot`
    k[0] = f(t, y)
    if first_step is None:
        h, evals = _initial_step(f, t, y, k[0], rtol, atol, span), 2
    else:
        h, evals = first_step, 1
    accepted = rejected = 0
    err_prev = 1.0
    grow = True  # False right after a rejected step: the next step may not grow
    halted = False
    min_h = 1e-14 * span
    h_min, h_max = math.inf, 0.0

    while t < t1 - slack:
        if accepted + rejected > MAX_STEPS:
            raise IntegratorFailure(f"exceeded {MAX_STEPS} steps at t = {t:.6g}")
        h_want, h = h, min(h, t1 - t)
        if h < min_h:
            y_max = float(y_abs.max(initial=0.0))
            if y_max > BLOW_UP_GROWTH * max(1.0, y0_max):
                raise NumericalError(
                    f"finite-time blow-up at t = {t:.6g} (h = {h:.3e}): max|y| = {y_max:.3e} "
                    f"grew from {y0_max:.3e}"
                )
            if not accepted + rejected and h >= 1e-14 * max(1.0, abs(t)):
                raise IntegratorFailure(
                    f"a span of {span:.6g} is too long for the float resolution of t: the first "
                    f"step h = {h:.3e} is below the step floor 1e-14 * span = {min_h:.3e}"
                )
            raise StiffnessError(
                f"step size underflow at t = {t:.6g} (h = {h:.3e}); problem appears stiff"
            )
        for i in range(1, 12):
            k[i] = f(t + _C[i] * h, y + h * _A[i].dot(kr[:i]).view(complex))
        evals += 11
        y8 = y + h * _B.dot(kr[:12]).view(complex)
        y8_abs = np.abs(y8)
        err = _err_norm(_ERR.dot(kr[:12]).view(complex), y_abs, y8_abs, rtol, atol, h)
        if err <= 1.0:
            t_old, t = t, t + h
            k[12] = f(t, y8)  # FSAL: the next step's first stage
            evals += 1
            j = bisect_right(eval_times, t + slack, ei)
            if j > ei:
                mid = bisect_left(eval_times, t, ei, j)
                if mid > ei:
                    for s in range(13, 16):
                        k[s] = f(t_old + _C[s] * h, y + h * _A[s].dot(kr[:s]).view(complex))
                    evals += 3
                    states[ei:mid] = _dense(y, h, kr, (np.array(eval_times[ei:mid]) - t_old) / h)
                states[mid:j] = y8
                ei = j
            y, y_abs = y8, y8_abs
            k[0] = k[12]
            accepted += 1
            h_min, h_max = min(h_min, h), max(h_max, h)
            if step_hook is not None and step_hook(t, y):
                halted = True
                break
            # PI controller (Gustafsson) with the exponents of an order-8 pair
            fac = 0.9 * (err + 1e-16) ** (-0.7 / 8) * (err_prev + 1e-16) ** (0.4 / 8)
            err_prev = max(err, 1e-16)
            if h < h_want:  # clipped to end on t1: the unclipped proposal is the next step
                h = h_want
            else:
                h *= min(10.0 if grow else 1.0, max(0.2, fac))
            grow = True
        elif not math.isfinite(err):
            bad = next((f"stage k{j + 1}" for j in range(12) if not np.isfinite(k[j]).all()),
                       "no stage (the error estimate overflowed)")
            raise NumericalError(
                f"non-finite error estimate at t = {t:.6g} (h = {h:.3e}); first non-finite: {bad}"
            )
        else:
            rejected += 1
            grow = False
            h *= max(0.2, 0.9 * err ** (-1 / 8))

    return RKSolution(
        times=np.array(eval_times[:ei]),
        states=states[:ei],
        t_end=t,
        y_end=y,
        stats=IntegratorStats(steps=accepted, rejected=rejected, rhs_evals=evals, h_min=h_min,
                              h_max=h_max),
        halted=halted,
        h_next=h,
    )
