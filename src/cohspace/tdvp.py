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

A chart's embedding is described by the powers p of its d components and
their jet coefficients c (3, d): the jet rows v, v', v'' (the embedding
vector and its first two w-derivatives) are v_m = c_m w^(p - m).

`energy.on(chart)` checks a Hermitian matrix H in the chart's embedding
representation (MatrixExpectation) against the chart once and returns
`derivs(u, order)`, h and its Wirtinger derivatives up to second order, from
which `chart_rhs` builds the velocity and the linearized tangent flow.  Every
moment <v_a|X|v_b> (X = H or 1) is the quadratic form conj(q) . M . q of the
power vector q = (1, w, ..., w^(d-1)), written directly from the
coefficients: M[p_k - a, p_l - b] = conj(c_a[k]) X[k, l] c_b[l].  The forms
are stacked once per energy and chart side; an evaluation of order 0, 1 or 2
is one mat-vec with the stack's first 2, 4 or 8 blocks of d rows and one dot
with conj(q).  The metric is a scalar: the velocity is a division.

A flow ends in NumericalError when its forms or moments overflow float64,
and on a Klauder chart when the state leaves the chart's Fock levels
(FOCK_TAIL_LIMIT).
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, IntegratorFailure, InvalidPointError, NumericalError
from .integrate import solve_rk45, total_stats
from .kernels import KernelSpace, kernel_diagonal, monomial_weights
from .dynamics import Trajectory

CHART_SWITCH_RADIUS = 2.0
ENERGY_DRIFT_LIMIT = 1e-6
DRIFT_SCALE_FLOOR = 1e-3  # of the spectral radius of H: the drift scale where |h0| is smaller
FLAT_CHART_CUTOFF = 64    # Fock levels of the Klauder chart embedding
FOCK_TAIL_LIMIT = 1e-10   # largest Poisson weight a Klauder flow may carry beyond them


# ----------------------------------------------------------------- charts


def _jet(coef, power) -> np.ndarray:
    """Jet coefficients c (3, d) of the components coef_k w^power_k: the jet
    row v_m (m = 0-2) is c[m] w^(power - m), c[m, k] being coef_k power_k
    (power_k - 1) ... (power_k - m + 1), multiplied left to right as the
    derivative is written; the falling factorial is zero where power_k < m."""
    c = np.empty((3, len(power)), dtype=complex)
    for m in range(3):
        c[m] = coef
        coef = coef * (power - m)
    return c


class SphereChart:
    """Stereographic chart for unit spinors, embedded by sqrt(C(n, k)) w^k
    (north) or w^(n-k) (south); `labels` maps coordinates to labels, `coords` back."""

    def __init__(self, n: int, south: bool = False):
        self.n = int(n)
        self.south = bool(south)
        self.key = ("sphere", self.n, self.south)  # charts with one key embed alike

    def __str__(self) -> str:
        return f"the degree-{self.n} spin chart"

    @functools.cached_property
    def power(self) -> np.ndarray:
        """Built on first use, as `jet` is: the kicked top never reads them."""
        k = np.arange(self.n + 1)
        return self.n - k if self.south else k

    @functools.cached_property
    def jet(self) -> np.ndarray:
        return _jet(monomial_weights(self.n), self.power)

    def embedding(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        """The jet row v_order at the chart coordinate u = (w,)."""
        return self.jet[order] * u[0] ** np.maximum(self.power - order, 0)

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

    def scalar_metric(self, w: complex) -> float:
        return self.n / (1.0 + abs(w) ** 2) ** 2

    def metric_dw(self, w: complex) -> complex:
        """d g / d w (holomorphic Wirtinger derivative of the scalar metric)."""
        return -2.0 * self.n * w.conjugate() / (1.0 + abs(w) ** 2) ** 3


class FlatChart:
    """Klauder zeta-chart of one mode: metric 1; z0 is a spectator.  Embeds
    into the first FLAT_CHART_CUTOFF Fock levels, e^z0 w^k / sqrt(k!)."""

    south = False

    def __init__(self, z0: complex = 0.0):
        self.z0 = complex(z0)
        self.power = np.arange(FLAT_CHART_CUTOFF)
        fact = np.cumprod(np.sqrt(np.maximum(self.power, 1)))  # sqrt(k!)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf e^z0: see MatrixExpectation.on
            self.jet = _jet(np.exp(self.z0), self.power) / fact
        self.key = ("flat", self.z0)

    def __str__(self) -> str:
        return f"the Klauder chart at z0 = {self.z0:.6g}"

    def embedding(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        return self.jet[order] * u[0] ** np.maximum(self.power - order, 0)

    def coords(self, zs: np.ndarray) -> np.ndarray:
        return zs[:, 1:].copy()

    def labels(self, us: np.ndarray) -> np.ndarray:
        """Klauder labels (S, 2): z0 beside each row of us (S, 1)."""
        return np.concatenate([np.full((len(us), 1), self.z0), us], axis=1)

    def scalar_metric(self, w: complex) -> float:
        return 1.0

    def metric_dw(self, w: complex) -> complex:
        return 0.0j


def _check_fock_reach(t: float, zeta: complex) -> None:
    """NumericalError unless the Klauder state at zeta puts at most
    FOCK_TAIL_LIMIT of Poisson weight beyond the FLAT_CHART_CUTOFF Fock levels
    of its chart: 1 - sum_{k < cutoff} e^-x x^k / k!, x = |zeta|^2, is the
    squared distance of the normalized state from its truncation."""
    x = min(abs(zeta), 1e3) ** 2   # e^-x is 0 from there on; an inf x would make 0 * inf
    term = head = math.exp(-x)
    for k in range(1, FLAT_CHART_CUTOFF):
        term *= x / k
        head += term
    if 1.0 - head > FOCK_TAIL_LIMIT:
        raise NumericalError(
            f"the Klauder state at zeta = {zeta:.6g} (t = {t:.6g}) puts a Poisson weight of "
            f"{1.0 - head:.3e} beyond the {FLAT_CHART_CUTOFF} Fock levels of its chart; the "
            f"variational flow allows at most {FOCK_TAIL_LIMIT:.0e}")


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


# The jet-row pairs (a, b) of the moments <v_a|X|v_b>, X = H then 1: derivative
# order 0 needs the first, order 1 two, order 2 all four.  <v_0|X|v_1> is the
# conjugate of <v_1|X|v_0> (H is Hermitian), so order 2 takes it from the stack.
_MOMENT_PAIRS = ((0, 0), (1, 0), (1, 1), (2, 0))


def _form_stack(h: np.ndarray, power: np.ndarray, jet: np.ndarray) -> np.ndarray:
    """(8 d, d): for each pair (a, b) of _MOMENT_PAIRS, the matrices M of
    <v_a|X|v_b> = conj(q) . M . q for X = H and X = 1, one below the other.
    M[power_k - a, power_l - b] = conj(c_a[k]) X[k, l] c_b[l] (see _jet) and
    is zero elsewhere.  2-d, so that the product with q is one BLAS mat-vec."""
    d = len(power)
    order = np.argsort(power)  # power is a permutation of 0..d-1
    c, xs = jet[:, order], (h[np.ix_(order, order)], np.eye(d))
    stack = np.zeros((len(_MOMENT_PAIRS), len(xs), d, d), dtype=complex)
    for (a, b), forms in zip(_MOMENT_PAIRS, stack):
        for x, m in zip(xs, forms):
            block = m[:d - a, :d - b]
            np.multiply(c[a, a:].conj()[:, None], x[a:, b:], out=block)
            block *= c[b, b:]
    return stack.reshape(-1, d)


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
        self._stacks = {}  # chart key -> form stack

    def spectral_radius(self) -> float:
        """The largest |eigenvalue| of H: it bounds |h| on every chart."""
        return float(np.abs(np.linalg.eigvalsh(self.h)).max())

    def on(self, chart):
        """The energy bound to `chart`, checked against it once: derivs(u,
        order) gives (h,) at order 0, (h, d h / d ubar) at order 1 and (h,
        dh/dwbar, d2h/(dw dwbar), d2h/dwbar2) at order 2, and raises
        NumericalError where the moments overflow float64.  The form stack
        (see _form_stack) is built and checked on a chart side's first
        binding: NumericalError naming the chart where its entries overflow."""
        d = len(chart.power)
        if self.h.shape != (d, d):
            raise ConfigError(f"operator is {self.h.shape} but the chart embeds into dimension {d}")
        stack = self._stacks.get(chart.key)
        if stack is None:  # a chart of a side already bound never builds its jet
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                stack = _form_stack(self.h, chart.power, chart.jet)
            if not np.isfinite(stack).all():
                raise NumericalError(f"the energy forms of {chart} overflow float64 (largest "
                                     f"embedding coefficient {np.abs(chart.jet[0]).max():.3e})")
            self._stacks[chart.key] = stack
        prefixes, exponents = [stack[:blocks * d] for blocks in (2, 4, 8)], np.arange(d)

        def derivs(u, order):
            powers = u[0] ** exponents
            moments = prefixes[order].dot(powers).reshape(-1, d).dot(powers.conj()).tolist()
            try:  # ** raises OverflowError; products overflow to inf or nan, checked below
                if order == 0:
                    num, den = moments
                    out = (num.real / den.real,)
                elif order == 1:
                    num, den, dnum, dden = moments  # d/d wbar: <v_1| rows
                    den = den.real
                    out = num.real / den, (dnum * den - num * dden) / den ** 2
                else:  # d/d wbar on the bra (v_1, v_2), d/d w on the ket (conjugates)
                    num, den, dn, dd, dndn_h, dddd_h, dn2, dd2 = moments
                    dn_h, dd_h = dn.conjugate(), dd.conjugate()
                    p = dn * den - num * dd                   # numerator of dh/dwbar
                    dp_h = dndn_h * den + dn * dd_h - dn_h * dd - num * dddd_h
                    dp_b = dn2 * den - num * dd2              # d2 num and den wrt wbar2
                    out = ((num / den).real, p / den ** 2, (dp_h * den - 2.0 * p * dd_h) / den ** 3,
                           (dp_b * den - 2.0 * p * dd) / den ** 3)
                if all(map(cmath.isfinite, out)):
                    return (out[0], np.array(out[1:])) if order == 1 else out
            except OverflowError:
                pass
            raise NumericalError(f"the energy moments of {chart} overflow float64 at "
                                 f"|w| = {abs(u[0]):.6g}")

        return derivs

    def chart_values(self, chart, us):
        """h at each row of `us` (samples x 1)."""
        v = chart.jet[0] * us[:, :1] ** chart.power   # samples x d
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
    and continues there; on a Klauder chart it checks the state's Fock
    reach (_check_fock_reach) at the start and after every accepted step.
    `t_eval` samples are recorded by the segment that reaches them;
    `monitor(derivs, t, y)`, derivs the current binding, runs after every
    accepted step and may raise.  `first_step` goes to the first solve only:
    each solve after a chart switch probes its own initial step.  Returns the
    (chart, RKSolution) segments, and the chart and state at t1 (flipped when
    the last step itself crossed the radius).
    """
    t_cur, t1 = float(t_span[0]), float(t_span[1])
    remaining = None if t_eval is None else [float(t) for t in t_eval]
    segments = []
    can_switch = isinstance(chart, SphereChart)

    def hook(t, yy):  # reads the current binding: it changes only between solves
        if not can_switch:
            _check_fock_reach(t, yy[0])
        if monitor is not None:
            monitor(derivs, t, yy)
        return can_switch and abs(yy[0]) > CHART_SWITCH_RADIUS

    if not can_switch:
        _check_fock_reach(t_cur, y[0])
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

    Energy is monitored at every accepted step against |h0|, floored at
    DRIFT_SCALE_FLOOR times the spectral radius of H (which bounds |h| on
    every chart) so that an energy starting at zero is not held to rounding:
    a drift beyond ENERGY_DRIFT_LIMIT times that scale raises
    IntegratorFailure with the observed drift, and the largest drift in its
    units is returned as `Trajectory.energy_drift`.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 101)
    chart, u = chart_for(space, z0)
    h0 = energy.on(chart)(u, 0)[0]
    h_scale = max(abs(h0), DRIFT_SCALE_FLOOR * energy.spectral_radius(), np.finfo(float).tiny)
    worst = 0.0

    def monitor(derivs, t, uu):
        nonlocal worst
        dev = abs(derivs(uu, 0)[0] - h0)
        if dev > ENERGY_DRIFT_LIMIT * h_scale:
            raise IntegratorFailure(
                f"energy drift {dev:.3e} exceeds {ENERGY_DRIFT_LIMIT:.1e} x {h_scale:.3e}, the "
                f"larger of |h0| and {DRIFT_SCALE_FLOOR:.0e} x the spectral radius of H, "
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

