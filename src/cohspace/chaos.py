"""Kicked-top dynamics and largest Lyapunov exponents of variational flows.

The kicked top alternates a linear precession (the variational flow of
p J_y over unit time, which rotates the Bloch vector by angle p about y) with
an instantaneous torsion kick generated by (k/(n-1)) * J_z^2.  Both close in
elementary form on the stereographic charts.  SU(2) acts on coherent states
by Moebius maps, so with c, s = cos(p/2), sin(p/2) the precession is

    north:  w -> (s + c w) / (c - s w),     south:  w -> (c w - s) / (s w + c),

with tangent map dw -> dw / (denominator)^2 in both charts; an image beyond
the switch radius is written in the flipped chart as w -> den/num,
dw -> -dw/num^2, which never divides by a vanishing denominator.  The kick is

    w  ->  exp(i alpha) w,     alpha = k (1 - |w|^2) / (1 + |w|^2),

with the same expression in both charts, and its Jacobian is analytic.  The
largest Lyapunov exponent comes from Benettin renormalization of a variational
tangent vector dw; for continuous flows it is evolved with the linearized flow

    d(dw)/dt = A dw + B conj(dw),
    A = dF/dw,  B = dF/dwbar,  F = grad_wbar h / (i hbar g),

which `tdvp.chart_rhs` builds from the second Wirtinger derivatives of the
energy bound to each chart (`energy.on(chart)`), and a chart switch carries
the tangent through the chart's `transition`.  Both drivers share one
renormalization loop; tangent length is measured with the chart metric,
which makes it continuous across chart switches.

The continuous driver carries the integrator's step across renormalizations:
each segment's first solve starts from the last solve's `h_next` instead of a
probed initial step.  A renormalization rescales only the tangent, so the flow
and its state are unchanged and the last step suits the next.  A chart switch
changes the coordinates the step is controlled in, so each solve after one
probes its own first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegratorFailure, InvalidPointError, NumericalError
from .integrate import MAX_STEPS, IntegratorStats, total_stats
from .kernels import KernelSpace, spin_space
from .tdvp import CHART_SWITCH_RADIUS, MatrixExpectation, chart_for, charted_solve


def spinor_from_bloch(s) -> tuple:
    """The one-row stack of the unit spinor along the Bloch vector (X, Y, Z);
    raises InvalidPointError for a vector without one (zero or non-finite)."""
    s = np.asarray(s, dtype=float)
    r = np.linalg.norm(s)
    if not (0.0 < r < math.inf):
        raise InvalidPointError(f"Bloch vector {s.tolist()} has no direction: "
                                "it needs a nonzero finite length")
    x, y, z = s / r
    if z >= 0.0:
        w = (x + 1j * y) / (1.0 + z)
        v = np.array([1.0, w]) / math.sqrt(1.0 + abs(w) ** 2)
    else:
        wt = (x - 1j * y) / (1.0 - z)
        v = np.array([wt, 1.0]) / math.sqrt(1.0 + abs(wt) ** 2)
    return v[None], None


# ------------------------------------------------------------- kicked top


def apply_kick(w: complex, delta: complex, kick: float) -> tuple[complex, complex]:
    """Torsion kick and its exact tangent map (chart-form identical north/south)."""
    rho = abs(w) ** 2
    alpha = kick * (1.0 - rho) / (1.0 + rho)
    aprime = -2.0 * kick / (1.0 + rho) ** 2      # d alpha / d rho
    phase = np.exp(1j * alpha)
    w_new = phase * w
    d_new = phase * (1.0 + 1j * rho * aprime) * delta + 1j * phase * w * w * aprime * np.conj(delta)
    return w_new, d_new


@dataclass
class KickedTop:
    """Spin coherent kicked top: precession angle `precession` about y per
    period followed by a torsion kick of strength `kick` about z."""

    n: int
    kick: float
    precession: float

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("kicked top needs n >= 1 monomials")
        for key, angle in (("kick", self.kick), ("precession", self.precession)):
            if abs(angle) >= 2.0**52:  # where a phase's float spacing reaches 1 rad
                raise NumericalError(f"kicked top: {key} = {angle:.6g} reaches 2^52 rad; its float "
                                     f"spacing there is 1 rad, so the phase has no correct digit")
        self.space: KernelSpace = spin_space(self.n)
        self._cs = math.cos(self.precession / 2), math.sin(self.precession / 2)

    def period(self, chart, w, delta):
        """One period: the exact precession map of the chart, then the kick."""
        c, s = self._cs
        num, den = (c * w - s, s * w + c) if chart.south else (s + c * w, c - s * w)
        if abs(num) > CHART_SWITCH_RADIUS * abs(den):
            chart, w, delta, switches = chart.flipped(), den / num, -delta / (num * num), 1
        else:
            w, delta, switches = num / den, delta / (den * den), 0
        w, delta = apply_kick(w, delta, self.kick)
        return chart, w, delta, switches


# ---------------------------------------------------------------- Lyapunov


@dataclass
class LyapunovResult:
    exponent: float
    times: np.ndarray          # segment end times
    running: np.ndarray        # cumulative estimate after each segment
    tail_gap: float            # |last-quarter mean - full mean|
    chart_switches: int
    stats: IntegratorStats | None = None  # every solve's, summed; None for the kicked top

    @property
    def segments(self) -> int:
        return len(self.times)


def _metric_len(chart, w: complex, delta: complex) -> float:
    return math.sqrt(chart.scalar_metric(w)) * abs(delta)


def _benettin(chart, w: complex, advance, n_seg: int, duration: float,
              rng: np.random.Generator) -> LyapunovResult:
    """Benettin renormalization shared by every driver.

    Seeds a random tangent of unit metric length at w, then for each of n_seg
    segments of length `duration` runs advance(chart, w, delta) -> (chart, w,
    delta, switches), logs the tangent's metric length and renormalizes it.
    """
    d = rng.standard_normal() + 1j * rng.standard_normal()
    delta = d / _metric_len(chart, w, d)
    logs = np.empty(n_seg)
    switches = 0
    for i in range(n_seg):
        chart, w, delta, s = advance(chart, w, delta)
        switches += s
        ell = _metric_len(chart, w, delta)
        logs[i] = math.log(ell)
        delta /= ell
    durations = np.full(n_seg, float(duration))
    times = np.cumsum(durations)
    running = np.cumsum(logs) / times
    exponent = float(running[-1])
    q = max(1, (3 * n_seg) // 4)
    tail = float(np.sum(logs[q:]) / np.sum(durations[q:])) if q < n_seg else exponent
    return LyapunovResult(
        exponent=exponent,
        times=times,
        running=running,
        tail_gap=abs(tail - exponent),
        chart_switches=switches,
    )


def lyapunov_kicked(top: KickedTop, z0: tuple, n_periods: int = 2000,
                    seed: int = 7) -> LyapunovResult:
    """Benettin estimate of the top's largest Lyapunov exponent (per period)."""
    if n_periods < 4:
        raise ConfigError("need at least 4 periods for a tail estimate")
    if n_periods > MAX_STEPS:
        raise ConfigError(f"'periods' ({n_periods}) is more than the {MAX_STEPS} segments a run "
                          "may take")
    chart, u = chart_for(top.space, z0)
    return _benettin(chart, complex(u[0]), top.period, n_periods, 1.0,
                     np.random.default_rng(seed))


def lyapunov_continuous(space: KernelSpace, energy: MatrixExpectation, z0: tuple,
                        t_total: float = 200.0, resample: float = 1.0,
                        rtol: float = 1e-10, atol: float = 1e-12, hbar: float = 1.0,
                        seed: int = 7) -> LyapunovResult:
    """Benettin estimate for an autonomous variational flow (per unit time)."""
    ratio = t_total / resample if resample > 0 else 0.0
    if not math.isfinite(ratio):
        raise ConfigError(f"'t_total' ({t_total}) over 'resample' ({resample}) is not a finite "
                          "number of segments")
    n_seg = round(ratio)
    if abs(ratio - n_seg) > 1e-9 * abs(ratio):
        raise ConfigError(f"'t_total' ({t_total}) must be a whole multiple of 'resample' ({resample})")
    if n_seg < 4:
        raise ConfigError("need at least 4 renormalization segments")
    if n_seg > MAX_STEPS:
        raise ConfigError(f"'t_total' ({t_total}) over 'resample' ({resample}) is {ratio:.6g} "
                          f"segments, more than the {MAX_STEPS} a run may take")
    chart, u = chart_for(space, z0)

    solves, first, spent, done = [], 0, 0, 0  # steps of the first segment and of all so far

    def advance(chart, w, delta):  # (w, dw) over one segment, switching charts as needed
        nonlocal first, spent, done
        segments, chart, (w, delta) = charted_solve(
            chart, energy, np.array([w, delta]), (0.0, resample), rtol, atol, hbar, tangent=True,
            first_step=solves[-1].h_next if solves else None)
        solves.extend(sol for _, sol in segments)
        spent += sum(sol.stats.steps + sol.stats.rejected for _, sol in segments)
        first, done = first or spent, done + 1
        if first * n_seg > MAX_STEPS or spent > MAX_STEPS:
            raise IntegratorFailure(
                f"a continuous Lyapunov run of {n_seg} segments took {first} steps in its first, "
                f"{first * n_seg} projected, and {spent} by segment {done}: more than the budget "
                f"of MAX_STEPS = {MAX_STEPS} steps a run may take")
        return chart, w, delta, sum(sol.halted for _, sol in segments)

    res = _benettin(chart, complex(u[0]), advance, n_seg, resample,
                    np.random.default_rng(seed))
    res.stats = total_stats([sol.stats for sol in solves])
    return res
