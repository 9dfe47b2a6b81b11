"""Variational (Dirac-Frenkel) flows in holomorphic charts.

The variational projection of  i hbar d/dt |psi> = H |psi>  onto a coherent
family |z(u)>, u a holomorphic chart, is

    i hbar g(u) du/dt = grad_ubar h(u),      g = d_ubar d_u log K|diagonal,
    h(u) = <z(u)| H |z(u)> / K(z(u), z(u)),

integrated here with the embedded Dormand-Prince 8(5,3) pair.  Every chart
has one complex coordinate w:

- single-mode Klauder labels (z0, zeta): w = zeta, with z0 (metric-null)
  carried as a constant spectator; the metric is 1.
- Spin (n = 2j): stereographic charts w = z2/z1 (north) and 1/w (south),
  metric n/(1+|w|^2)^2; the flow switches chart when |w| > 2, and
  `transition` carries tangents along with the state (dw -> -dw/w^2).

A chart's embedding is described once, by its power matrices S (3, d, d):
the jet rows v, v', v'' (the embedding vector and its first two
w-derivatives) are S_0 p, S_1 p and S_2 p of the power vector p = (1, w,
..., w^(d-1)).  Each sphere side builds its S once, for all its charts.

`energy.on(chart)` checks a Hermitian matrix H in the chart's embedding
representation (MatrixExpectation) against the chart once and returns
`derivs(u, order)`, h and its Wirtinger derivatives up to second order, from
which `chart_rhs` builds the velocity and the linearized tangent flow.  Every
moment <v_a|X|v_b> (X = H or 1) is the quadratic form
conj(p) . S_a^dagger X S_b . p.  The matrices of the forms one derivative
order needs are stacked once per energy and chart side; an evaluation is one
mat-vec with that stack and one dot with conj(p).  The metric is a scalar:
the velocity is a division.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, IntegratorFailure, InvalidPointError, NumericalError
from .integrate import solve_rk45, total_stats
from .kernels import KernelSpace, kernel_diagonal, monomial_weights
from .dynamics import Trajectory

CHART_SWITCH_RADIUS = 2.0
ENERGY_DRIFT_LIMIT = 1e-6
FLAT_CHART_CUTOFF = 64    # Fock levels of the Klauder chart embedding


# ----------------------------------------------------------------- charts


def _power_matrices(coef, power) -> np.ndarray:
    """S (3, d, d) with the jet rows v_m = S_m p (m = 0-2) of the components
    coef_k w^power_k: row k of S_m holds coef_k power_k (power_k - 1) ...
    (power_k - m + 1), multiplied left to right as the derivative is written,
    in the column of power_k - m, and is zero when power_k < m."""
    d = len(power)
    s = np.zeros((3, d, d), dtype=complex)
    for m in range(3):
        live = power >= m
        s[m, live.nonzero()[0], power[live] - m] = np.broadcast_to(coef, power.shape)[live]
        coef = coef * (power - m)
    return s


@functools.cache
def _sphere_matrices(n: int, south: bool) -> np.ndarray:
    """S of the degree-n monomials sqrt(C(n, k)) w^k (north) or w^(n-k)
    (south), shared read-only by every chart of that side."""
    k = np.arange(n + 1)
    s = _power_matrices(monomial_weights(n), (n - k) if south else k)
    s.flags.writeable = False
    return s


def _jet_row(s: np.ndarray, u: np.ndarray, order: int) -> np.ndarray:
    """The jet row v_order = S_order p at the chart coordinate u = (w,)."""
    return s[order] @ u[0] ** np.arange(s.shape[-1])


class _Chart:
    """One complex coordinate w, embedded by the power matrices `_s` (see
    _power_matrices); `labels` maps coordinates (S, 1) to label rows, `coords` back."""

    south = False

    def power_matrices(self) -> np.ndarray:
        return self._s


class SphereChart(_Chart):
    """Stereographic chart for unit spinors; monomial embedding of degree n."""

    def __init__(self, n: int, south: bool = False):
        self.n = int(n)
        self.south = bool(south)
        self.key = ("sphere", self.n, self.south)  # charts with one key embed alike

    @functools.cached_property
    def _s(self) -> np.ndarray:
        """Built on first use: the kicked top reads only the metric and the flip."""
        return _sphere_matrices(self.n, self.south)

    def coords(self, zs: np.ndarray) -> np.ndarray:
        z1, z2 = zs[:, :1], zs[:, 1:]
        return z1 / z2 if self.south else z2 / z1

    def labels(self, us: np.ndarray) -> np.ndarray:
        """Unit spinors (S, 2) of the chart coordinates us (S, 1)."""
        w = us[:, 0]
        s = 1.0 / np.sqrt(1.0 + np.abs(w) ** 2)
        return np.stack((w * s, s) if self.south else (s, w * s), axis=1)

    def flipped(self) -> "SphereChart":
        return SphereChart(self.n, south=not self.south)

    @staticmethod
    def transition(y: np.ndarray) -> np.ndarray:
        """The state y = (w, *tangents) in the flipped chart: w -> 1/w, each
        tangent pushed forward as dw -> -dw / w^2."""
        w = y[0]
        return np.concatenate(([1.0 / w], -y[1:] / (w * w)))

    def embedding(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        return _jet_row(self._s, u, order)

    def scalar_metric(self, w: complex) -> float:
        return self.n / (1.0 + abs(w) ** 2) ** 2

    def metric_dw(self, w: complex) -> complex:
        """d g / d w (holomorphic Wirtinger derivative of the scalar metric)."""
        return -2.0 * self.n * w.conjugate() / (1.0 + abs(w) ** 2) ** 3


class FlatChart(_Chart):
    """Klauder zeta-chart of one mode: metric 1; z0 is a spectator.  Embeds
    into the first FLAT_CHART_CUTOFF Fock levels, e^z0 w^k / sqrt(k!)."""

    def __init__(self, z0: complex = 0.0):
        self.z0 = complex(z0)
        k = np.arange(FLAT_CHART_CUTOFF)
        fact = np.cumprod(np.sqrt(np.maximum(k, 1)))  # sqrt(k!)
        self._s = _power_matrices(np.exp(self.z0), k) / fact[:, None]
        self.key = ("flat", self.z0)

    def coords(self, zs: np.ndarray) -> np.ndarray:
        return zs[:, 1:].copy()

    def labels(self, us: np.ndarray) -> np.ndarray:
        """Klauder labels (S, 2): z0 beside each row of us (S, 1)."""
        return np.concatenate([np.full((len(us), 1), self.z0), us], axis=1)

    def embedding(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        return _jet_row(self._s, u, order)

    def scalar_metric(self, w: complex) -> float:
        return 1.0

    def metric_dw(self, w: complex) -> complex:
        return 0.0j


def _spin_chart(space: KernelSpace, z0: np.ndarray) -> SphereChart:
    n = space.descriptor["exponent"]
    if abs(n - round(n)) > 1e-12 or n < 1:
        raise ConfigError("variational flow needs an integer spin exponent >= 1")
    return SphereChart(int(round(n)), south=abs(z0[1]) > abs(z0[0]))


def _klauder_chart(space: KernelSpace, z0: np.ndarray) -> FlatChart:
    if space.label_dim != 2:
        raise ConfigError("variational flows support a single Klauder mode")
    return FlatChart(z0[0])


_CHARTS = {"klauder": _klauder_chart, "spin": _spin_chart}


def chart_for(space: KernelSpace, z0: tuple):
    """(chart, coordinate (1,)) of the start label z0, a one-row stack of any
    nonzero multiple of a unit label; InvalidPointError if it has none finite."""
    make = _CHARTS.get(space.kind)
    if make is None:
        raise ConfigError(f"no variational chart for kernel kind '{space.kind}'")
    chart = make(space, z0[0][0])
    with np.errstate(divide="ignore", invalid="ignore"):
        u = chart.coords(z0[0])[0]
    if not np.isfinite(u).all():
        raise InvalidPointError(f"{space.kind}: start label {z0[0][0].tolist()} has no finite "
                                "chart coordinate")
    return chart, u


# ------------------------------------------------------------ energy surfaces


# The jet-row pairs (a, b) of the moments <v_a|X|v_b>, X = H then 1, that
# each derivative order needs.  <v_0|X|v_1> is the conjugate of <v_1|X|v_0>
# (H is Hermitian), so order 2 takes it from the stack instead.
_MOMENT_PAIRS = {0: ((0, 0),), 1: ((0, 0), (1, 0)), 2: ((0, 0), (1, 0), (1, 1), (2, 0))}


def _form_stack(h: np.ndarray, s: np.ndarray, order: int) -> np.ndarray:
    """(F d, d): for each pair (a, b) of _MOMENT_PAIRS[order], the matrices
    M = S_a^dagger H S_b and S_a^dagger S_b of the jet matrices S (see
    _power_matrices) one below the other, so that <v_a|X|v_b> =
    conj(p) . M . p.  2-d, so that the product with p is one BLAS mat-vec."""
    if order not in _MOMENT_PAIRS:
        raise ConfigError("embedding derivatives available up to order 2")
    return np.concatenate([m for a, b in _MOMENT_PAIRS[order]
                           for m in (s[a].conj().T @ h @ s[b], s[a].conj().T @ s[b])])


class MatrixExpectation:
    """Normalized energy surface h(u) = <z(u)|H|z(u)> / K(z(u), z(u)) of a
    Hermitian operator matrix H in the chart's embedding representation;
    raises ConfigError for a non-Hermitian matrix and NumericalError for one
    with an inf or NaN entry."""

    def __init__(self, matrix: np.ndarray):
        self.h = np.asarray(matrix, dtype=complex)
        if self.h.ndim != 2 or self.h.shape[0] != self.h.shape[1] or not self.h.size:
            raise ConfigError(f"operator must be a square matrix, got shape {self.h.shape}")
        bad = np.argwhere(~np.isfinite(self.h))
        if len(bad):  # the Hermitian test below is False for NaN deviations
            i, j = bad[0]
            raise NumericalError(f"the energy operator overflowed: entry ({i}, {j}) is "
                                 f"{complex(self.h[i, j])}, not finite")
        dev = np.abs(self.h - self.h.conj().T)
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[i, j] > 1e-12 * max(1.0, np.abs(self.h).max()):
            raise ConfigError(f"energy matrix is not Hermitian: |H - H^dagger| is {dev[i, j]:.3e} "
                              f"between entries ({i}, {j}) and ({j}, {i})")
        self._stacks = {}  # chart key -> {derivative order: form stack}

    def on(self, chart):
        """The energy bound to `chart`, checked against it once: derivs(u,
        order) gives (h,) at order 0, (h, d h / d ubar) at order 1 and (h,
        dh/dwbar, d2h/(dw dwbar), d2h/dwbar2) at order 2.  The quadratic forms
        an order needs are stacked on its first use on a chart side (see
        _form_stack)."""
        s = chart.power_matrices()
        d = s.shape[-1]
        if self.h.shape != (d, d):
            raise ConfigError(f"operator is {self.h.shape} but the chart embeds into dimension {d}")
        stacks, exponents = self._stacks.setdefault(chart.key, {}), np.arange(d)

        def derivs(u, order):
            stack = stacks.get(order)
            if stack is None:  # built on the order's first use on this chart side
                stack = stacks[order] = _form_stack(self.h, s, order)
            powers = u[0] ** exponents
            moments = stack.dot(powers).reshape(-1, d).dot(powers.conj()).tolist()
            if order == 0:
                num, den = moments
                return (num.real / den.real,)
            if order == 1:
                num, den, dnum, dden = moments  # d/d wbar: <v_1| rows
                den = den.real
                return num.real / den, np.array([(dnum * den - num * dden) / den ** 2])
            # d/d wbar on the bra (v_1, v_2), d/d w on the ket (conjugates)
            num, den, dn, dd, dndn_h, dddd_h, dn2, dd2 = moments
            dn_h, dd_h = dn.conjugate(), dd.conjugate()
            p = dn * den - num * dd                   # numerator of dh/dwbar
            dp_h = dndn_h * den + dn * dd_h - dn_h * dd - num * dddd_h
            dp_b = dn2 * den - num * dd2              # d2 num and den wrt wbar2
            return ((num / den).real, p / den ** 2, (dp_h * den - 2.0 * p * dd_h) / den ** 3,
                    (dp_b * den - 2.0 * p * dd) / den ** 3)

        return derivs

    def chart_values(self, chart, us):
        """h at each row of `us` (samples x 1)."""
        s = chart.power_matrices()
        v = (us[:, :1] ** np.arange(s.shape[-1])) @ s[0].T   # samples x d
        num = np.einsum("sd,sd->s", v.conj(), v @ self.h.T)
        return num.real / np.einsum("sd,sd->s", v.conj(), v).real


# ------------------------------------------------------------ variational flow


def chart_rhs(chart, derivs, hbar: float, tangent: bool = False):
    """f(t, y) of the variational flow on `chart`, `derivs` the energy bound
    to it: F = grad_ubar h / g / (i hbar) of y = u, or with `tangent`,
    y = (w, dw) and dw' = A dw + B conj(dw), A = dF/dw, B = dF/dwbar.
    """
    def velocity(t, u):
        return derivs(u, 1)[1] * (1.0 / (1j * hbar * chart.scalar_metric(u.item(0))))

    def with_tangent(t, y):
        w, dw = y.tolist()
        g, g_w = chart.scalar_metric(w), chart.metric_dw(w)
        _, grad, mixed, grad2 = derivs(y[:1], 2)
        scale = 1.0 / (1j * hbar * g * g)
        a = (mixed * g - grad * g_w) * scale
        b = (grad2 * g - grad * g_w.conjugate()) * scale
        return np.array([grad / (1j * hbar * g), a * dw + b * dw.conjugate()])

    return with_tangent if tangent else velocity


def charted_solve(chart, energy: MatrixExpectation, y, t_span, rtol, atol, hbar=1.0,
                  tangent=False, t_eval=None, monitor=None, first_step=None):
    """Integrate `chart_rhs` across chart switches from t_span[0] to t_span[1],
    binding the energy to each chart once.

    On a sphere chart the solve halts once |y[0]| > CHART_SWITCH_RADIUS, maps
    the state (w, *tangents) into the flipped chart with `chart.transition`
    and continues there.  `t_eval` samples are recorded by the segment that
    reaches them; `monitor(derivs, t, y)`, derivs the current binding, runs
    after every accepted step and may raise.  `first_step` goes to the first
    solve only: each solve after a chart switch probes its own initial step.
    Returns the (chart, RKSolution) segments, and the chart and state at t1
    (flipped when the last step itself crossed the radius).
    """
    t_cur, t1 = float(t_span[0]), float(t_span[1])
    remaining = None if t_eval is None else [float(t) for t in t_eval]
    segments = []
    can_switch = isinstance(chart, SphereChart)

    def hook(t, yy):  # reads the current binding: it changes only between solves
        if monitor is not None:
            monitor(derivs, t, yy)
        return can_switch and abs(yy[0]) > CHART_SWITCH_RADIUS

    while True:
        derivs = energy.on(chart)
        sol = solve_rk45(chart_rhs(chart, derivs, hbar, tangent), t_cur, t1, y, rtol=rtol,
                         atol=atol, t_eval=remaining, step_hook=hook, first_step=first_step)
        first_step = None
        segments.append((chart, sol))
        t_cur, y = sol.t_end, sol.y_end
        if remaining is not None:
            remaining = remaining[len(sol.times):]
        if not sol.halted:
            return segments, chart, y
        chart, y = chart.flipped(), chart.transition(y)
        if t_cur >= t1 - 1e-15 * max(1.0, abs(t1)):
            return segments, chart, y


def dirac_frenkel_flow(
    space: KernelSpace,
    energy: MatrixExpectation,
    z0: tuple,
    t_span: tuple[float, float],
    t_eval: Optional[Sequence[float]] = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    hbar: float = 1.0,
) -> Trajectory:
    """Variational flow in the space's chart; chart switches are automatic.

    Energy is monitored at every accepted step; relative drift beyond
    ENERGY_DRIFT_LIMIT raises IntegratorFailure with the observed drift, and the
    largest relative drift is returned as `Trajectory.energy_drift`.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 101)
    chart, u = chart_for(space, z0)
    h0 = energy.on(chart)(u, 0)[0]
    h_scale = max(abs(h0), 1e-12)
    worst = 0.0

    def monitor(derivs, t, uu):
        nonlocal worst
        dev = abs(derivs(uu, 0)[0] - h0)
        if dev > ENERGY_DRIFT_LIMIT * h_scale:
            raise IntegratorFailure(
                f"energy drift {dev:.3e} exceeds {ENERGY_DRIFT_LIMIT:.1e} x |h| "
                f"at t = {t:.6g}; tighten rtol"
            )
        worst = max(worst, dev)

    segments, _, _ = charted_solve(chart, energy, u, (t0, t1), rtol, atol, hbar=hbar,
                                   t_eval=t_eval, monitor=monitor)
    coords = np.concatenate([ch.labels(sol.states) for ch, sol in segments])
    return Trajectory(
        times=np.concatenate([sol.times for _, sol in segments]),
        coords=coords,
        stats=total_stats([sol.stats for _, sol in segments]),
        energies=np.concatenate([energy.chart_values(ch, sol.states) for ch, sol in segments]),
        norms=kernel_diagonal(space, coords).real,
        chart_flags=np.concatenate([np.full(len(sol.times), int(ch.south))
                                    for ch, sol in segments]),
        chart_switches=len(segments) - 1,
        energy_drift=worst / h_scale,
    )

