"""Kaehler metric and variational (Dirac-Frenkel) flows in holomorphic charts.

The variational projection of  i hbar d/dt |psi> = H |psi>  onto a coherent
family |z(u)>, u a holomorphic chart, is

    i hbar g(u) du/dt = grad_ubar h(u),      g = d_ubar d_u log K|diagonal,
    h(u) = <z(u)| H |z(u)> / K(z(u), z(u)),

integrated here with the embedded RK5(4).  Charts:

- Klauder labels: the zeta block (the z0 direction is metric-null, carried as
  a constant spectator); the metric is exactly the identity.
- Spin (n = 2j): stereographic charts w = z2/z1 (north) and 1/w (south),
  metric n/(1+|w|^2)^2; the flow switches chart when |w| > 2, and
  `transition` carries tangents along with the state (dw -> -dw/w^2).

`energy.on(chart)` checks an energy against a chart once and returns
`derivs(u, order)`, h and its Wirtinger derivatives up to second order, from
which `chart_rhs` builds the velocity and the linearized tangent flow.  For a
Hermitian matrix in the chart's embedding representation they are analytic
(MatrixExpectation): one embedding jet [v, v', v''] per evaluation, every
moment <v_a|H|v_b>, <v_a|v_b> from one H-product.  Energy callables take them
from one central-difference Wirtinger stencil (CallableExpectation).  Each
chart's metric is a scalar times the identity: the velocity is a division.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateMetricError, IntegratorFailure
from .integrate import IntegratorStats, solve_rk45
from .kernels import KernelSpace, Point, eval_kernel, kernel_diagonal
from .dynamics import Trajectory

CHART_SWITCH_RADIUS = 2.0
ENERGY_DRIFT_LIMIT = 1e-6
ENERGY_FD_STEP = 1e-6     # central-difference step of CallableExpectation
FLAT_CHART_CUTOFF = 64    # Fock levels of the Klauder chart embedding
METRIC_FD_STEP = 1e-3     # finite-difference step of the generic Kaehler metric


# ----------------------------------------------------------------- charts


def _derivative_table(coef, power) -> tuple:
    """(coefficients, powers), rows for orders 0-2, of the components
    coef_k w^power_k and their w-derivatives, plus the exponents 0 ... d-1.

    The order-m row holds coef_k power_k (power_k - 1) ... and power_k - m,
    multiplied left to right as the derivative is written; components whose
    power is below m vanish (coefficient 0, power 0).  Coefficients are
    stored complex, the type numpy would cast them to for each product with a
    complex power row, so the products are unchanged.
    """
    coefs, powers = [], []
    for order in range(3):
        live = power >= order
        coefs.append(np.where(live, coef, 0))
        powers.append(np.where(live, power - order, 0))
        coef = coef * (power - order)
    return np.array(coefs, dtype=complex), np.array(powers), np.arange(len(powers[0]))


def _jet(table: tuple, w, order: int) -> np.ndarray:
    """Rows [v, v', v''] up to `order` of the components coef_k w^power_k.

    The rows index the one power vector w^0 ... w^(d-1) with their table
    powers, so row m equals coef_m * w ** power_m elementwise.  A scalar `w`
    gives shape (order + 1, d), a column (S, 1) of S points (S, order + 1, d).
    """
    if order not in (0, 1, 2):
        raise ConfigError("embedding derivatives available up to order 2")
    coef, power, exponents = table
    return coef[:order + 1] * (w ** exponents).take(power[:order + 1], -1)


@functools.cache
def _sphere_table(n: int, south: bool) -> tuple:
    """The derivative table of the degree-n monomials on one side, shared by
    every chart of that side."""
    weights = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    k = np.arange(n + 1)
    return _derivative_table(weights, (n - k) if south else k)


class SphereChart:
    """Stereographic chart for unit spinors; monomial embedding of degree n."""

    def __init__(self, n: int, south: bool = False):
        self.n = int(n)
        self.south = bool(south)
        self._table = _sphere_table(self.n, self.south)

    @property
    def dim(self) -> int:
        return 1

    def coords(self, z: Point) -> np.ndarray:
        z1, z2 = z.coords
        return np.array([z1 / z2 if self.south else z2 / z1])

    def labels(self, us: np.ndarray) -> np.ndarray:
        """Unit spinors (S, 2) of the chart coordinates us (S, 1)."""
        w = us[:, 0]
        s = 1.0 / np.sqrt(1.0 + np.abs(w) ** 2)
        return np.stack((w * s, s) if self.south else (s, w * s), axis=1)

    def point(self, u: np.ndarray) -> Point:
        return Point(self.labels(u[None])[0])

    def flipped(self) -> "SphereChart":
        return SphereChart(self.n, south=not self.south)

    @staticmethod
    def transition(y: np.ndarray) -> np.ndarray:
        """The state y = (w, *tangents) in the flipped chart: w -> 1/w, each
        tangent pushed forward as dw -> -dw / w^2."""
        w = y[0]
        return np.concatenate(([1.0 / w], -y[1:] / (w * w)))

    def jet(self, w, order: int = 0) -> np.ndarray:
        """Monomial embedding v(w) and its w-derivatives up to `order` (see _jet)."""
        return _jet(self._table, w, order)

    def embedding(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        return self.jet(u[0], order)[order]

    def scalar_metric(self, w: complex) -> float:
        return self.n / (1.0 + abs(w) ** 2) ** 2

    def metric_dw(self, w: complex) -> complex:
        """d g / d w (holomorphic Wirtinger derivative of the scalar metric)."""
        return -2.0 * self.n * np.conj(w) / (1.0 + abs(w) ** 2) ** 3


class FlatChart:
    """Klauder zeta-chart: metric identically the identity; z0 is a spectator."""

    def __init__(self, modes: int, z0: complex = 0.0):
        self.modes = int(modes)
        self.z0 = complex(z0)
        n = np.arange(FLAT_CHART_CUTOFF)
        self._fact = np.cumprod(np.concatenate([[1.0], np.sqrt(np.maximum(n[1:], 1))]))
        self._table = _derivative_table(np.exp(self.z0), n)

    @property
    def dim(self) -> int:
        return self.modes

    def coords(self, z: Point) -> np.ndarray:
        return z.coords[1:].copy()

    def labels(self, us: np.ndarray) -> np.ndarray:
        """Klauder labels (S, 1 + modes): z0 beside each row of us (S, modes)."""
        return np.concatenate([np.full((len(us), 1), self.z0), us], axis=1)

    def point(self, u: np.ndarray) -> Point:
        return Point(self.labels(u[None])[0])

    def jet(self, w, order: int = 0) -> np.ndarray:
        """Fock-basis embedding of the single mode and its derivatives (see _jet)."""
        if self.modes != 1:
            raise ConfigError("matrix energies support a single Klauder mode")
        return _jet(self._table, w, order) / self._fact

    def embedding(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        return self.jet(u[0], order)[order]

    def scalar_metric(self, w: complex) -> float:
        """The metric is 1 times the identity, for every number of modes."""
        return 1.0

    def metric_dw(self, w: complex) -> complex:
        return 0.0j


def _spin_chart(space: KernelSpace, z0: Point) -> SphereChart:
    n = space.descriptor["exponent"]
    if abs(n - round(n)) > 1e-12 or n < 1:
        raise ConfigError("variational flow needs an integer spin exponent >= 1")
    return SphereChart(int(round(n)), south=abs(z0.coords[1]) > abs(z0.coords[0]))


_CHARTS = {
    "klauder": lambda space, z0: FlatChart(space.label_dim - 1, z0=z0.coords[0]),
    "spin": _spin_chart,
}


def chart_for(space: KernelSpace, z0: Point):
    make = _CHARTS.get(space.kind)
    if make is None:
        raise ConfigError(f"no variational chart for kernel kind '{space.kind}'")
    return make(space, z0)


# ------------------------------------------------------------ energy surfaces


class ExpectationFunction:
    """Normalized energy surface h(u) = <z(u)|H|z(u)> / K(z(u), z(u))."""

    def on(self, chart) -> Callable[[np.ndarray, int], tuple]:
        """The energy bound to `chart`, checked against it once: derivs(u,
        order) gives (h,) at order 0, (h, d h / d ubar) at order 1 and, on a
        1-d chart, (h, dh/dwbar, d2h/(dw dwbar), d2h/dwbar2) at order 2."""
        raise NotImplementedError

    def chart_values(self, chart, us: np.ndarray) -> np.ndarray:
        """h at each row of `us` (samples x chart dim), on a chart `on` accepted."""
        derivs = self.on(chart)
        return np.array([derivs(u, 0)[0] for u in us], dtype=float)


def _wirtinger(f: Callable[[np.ndarray], complex], u: np.ndarray) -> tuple:
    """(mean, d f/d u row, d f/d ubar row) over the chart coordinates j, from
    the central differences fx, fy of f along Re u_j and Im u_j
    (ENERGY_FD_STEP): d/du = (fx - i fy) / 2 and d/dubar = (fx + i fy) / 2.
    The mean of the 4 dim stencil values is f(u) to O(ENERGY_FD_STEP^2)."""
    h = ENERGY_FD_STEP
    out = np.zeros((2, len(u)), dtype=complex)
    total = 0.0
    for j in range(len(u)):
        e = np.zeros(len(u), dtype=complex)
        e[j] = h
        xp, xm, yp, ym = f(u + e), f(u - e), f(u + 1j * e), f(u - 1j * e)
        fx, fy = (xp - xm) / (2 * h), (yp - ym) / (2 * h)
        out[:, j] = (fx - 1j * fy) / 2, (fx + 1j * fy) / 2
        total += xp + xm + yp + ym
    return total / (4 * len(u)), out[0], out[1]


class CallableExpectation(ExpectationFunction):
    """Energy given as a function on label points; derivatives by central FD.
    At order 1 the stencil's mean stands in for h, so the velocity costs only
    the stencil's calls; order 2 differentiates the stencil gradient."""

    def __init__(self, fn: Callable[[Point], float]):
        self.fn = fn

    def on(self, chart):
        def h(u):
            return float(self.fn(chart.point(u)))

        def derivs(u, order):
            if order == 0:
                return (h(u),)
            mean, _, grad = _wirtinger(h, u)
            if order == 1:
                return mean, grad
            _, (mixed,), (grad2,) = _wirtinger(lambda v: _wirtinger(h, v)[2][0], u)
            return h(u), grad[0], mixed, grad2

        return derivs


class MatrixExpectation(ExpectationFunction):
    """Energy from a Hermitian operator matrix in the chart's embedding
    representation; raises ConfigError for a non-Hermitian matrix."""

    def __init__(self, matrix: np.ndarray):
        self.h = np.asarray(matrix, dtype=complex)
        if self.h.ndim != 2 or self.h.shape[0] != self.h.shape[1] or not self.h.size:
            raise ConfigError(f"operator must be a square matrix, got shape {self.h.shape}")
        dev = np.abs(self.h - self.h.conj().T)
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[i, j] > 1e-12 * max(1.0, np.abs(self.h).max()):
            raise ConfigError(f"energy matrix is not Hermitian: |H - H^dagger| is {dev[i, j]:.3e} "
                              f"between entries ({i}, {j}) and ({j}, {i})")
        # [H^T | 1]: a row v times it is the row [H v | v]
        self._ket_map = np.concatenate((self.h.T, np.eye(len(self.h))), axis=1)

    def on(self, chart):
        """Row a (a <= order) of the Python complex moments of the jet rows
        v_a is [<v_a|H|v_0>, <v_a|v_0>], followed by [<v_a|H|v_1>, <v_a|v_1>]
        at order 2, all from one product with H and one small matmul."""
        jet, ket_map = chart.jet, self._ket_map
        d = jet(0.0).shape[-1]
        if self.h.shape != (d, d):
            raise ConfigError(f"operator is {self.h.shape} but the chart embeds into dimension {d}")

        def derivs(u, order):
            v = jet(u[0], order)
            kets = np.dot(v[0] if order < 2 else v[:2], ket_map)  # [H v_b | v_b]
            moments = np.dot(v.conj(), kets.reshape(-1, d).T).tolist()
            if order == 0:
                ((num, den),) = moments
                return (num.real / den.real,)
            if order == 1:
                (num, den), (dnum, dden) = moments  # d/d wbar: row 1
                den = den.real
                return num.real / den, np.array([(dnum * den - num * dden) / den ** 2])
            # d/d wbar in row 1, d/d w in columns 2-3, d2/d wbar2 in row 2
            (num, den, dn_h, dd_h), (dn, dd, dndn_h, dddd_h), (dn2, dd2, _, _) = moments
            p = dn * den - num * dd                   # numerator of dh/dwbar
            dp_h = dndn_h * den + dn * dd_h - dn_h * dd - num * dddd_h
            dp_b = dn2 * den - num * dd2              # d2 num and den wrt wbar2
            return ((num / den).real, p / den ** 2, (dp_h * den - 2.0 * p * dd_h) / den ** 3,
                    (dp_b * den - 2.0 * p * dd) / den ** 3)

        return derivs

    def chart_values(self, chart, us):
        v = chart.jet(us, 0)[:, 0]       # samples x d
        num = np.einsum("sd,sd->s", v.conj(), v @ self.h.T)
        return num.real / np.einsum("sd,sd->s", v.conj(), v).real


# ------------------------------------------------------------- Kaehler metric


def kahler_metric(space: KernelSpace, z: Point) -> np.ndarray:
    """Metric g = d_ubar d_u log K at the diagonal.

    Analytic for klauder (identity on the zeta block) and spin (stereographic
    chart); finite differences over the label coordinates otherwise.  Raises
    DegenerateMetricError (listing null directions) when the smallest
    eigenvalue is indistinguishable from zero — below max(1e-12 * trace,
    FD roundoff floor ~ eps/METRIC_FD_STEP^2) — as for projectively degenerate
    kernels, where the label ray itself is a null direction.
    """
    if space.kind in _CHARTS:
        chart = chart_for(space, z)
        return chart.scalar_metric(chart.coords(z)[0]) * np.eye(chart.dim)
    if space.base is not None:  # power space: n times the base metric
        return space.descriptor["n"] * kahler_metric(space.base, z)

    dim = space.label_dim
    h = METRIC_FD_STEP

    def logk(a, b):
        return np.log(eval_kernel(space, Point(a), Point(b)))

    g = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(dim):
            ej, ek = np.eye(dim)[j], np.eye(dim)[k]

            def mixed(step):
                zp = z.coords
                return (
                    logk(zp + step * ej, zp + step * ek)
                    - logk(zp + step * ej, zp - step * ek)
                    - logk(zp - step * ej, zp + step * ek)
                    + logk(zp - step * ej, zp - step * ek)
                ) / (4.0 * step * step)

            m1, m2 = mixed(h), mixed(h / 2.0)
            g[j, k] = (4.0 * m2 - m1) / 3.0
    g = 0.5 * (g + g.conj().T)
    if not np.isfinite(g).all():
        raise DegenerateMetricError(
            f"{space.kind}: log-kernel not smooth at the diagonal; no Kaehler metric",
            null_directions=[],
        )
    eigs, vecs = np.linalg.eigh(g)
    tr = float(np.trace(g).real)
    log_scale = max(1.0, abs(logk(z.coords, z.coords)))
    floor = max(1e-12 * max(tr, 1e-300), 32.0 * np.finfo(float).eps * log_scale / h ** 2)
    if eigs[0] < floor:
        null = [vecs[:, i] for i in range(dim) if eigs[i] < floor]
        raise DegenerateMetricError(
            f"{space.kind}: Kaehler metric degenerate (min eig {eigs[0]:.3e}, trace {tr:.3e}); "
            f"{len(null)} null direction(s)",
            null_directions=null,
        )
    return g


# ------------------------------------------------------------ variational flow


def chart_rhs(chart, derivs, hbar: float, tangent: bool = False):
    """f(t, y) of the variational flow on `chart`, `derivs` the energy bound
    to it: F = grad_ubar h / g / (i hbar) of y = u, or with `tangent`, on a
    1-d chart, y = (w, dw) and dw' = A dw + B conj(dw), A = dF/dw, B = dF/dwbar.
    """
    def velocity(t, u):
        return derivs(u, 1)[1] / chart.scalar_metric(u[0]) / (1j * hbar)

    def with_tangent(t, y):
        w = y[0]
        g, g_w = chart.scalar_metric(w), chart.metric_dw(w)
        _, grad, mixed, grad2 = derivs(y[:1], 2)
        scale = 1.0 / (1j * hbar * g * g)
        a = (mixed * g - grad * g_w) * scale
        b = (grad2 * g - grad * np.conj(g_w)) * scale
        return np.array([grad / (1j * hbar * g), a * y[1] + b * np.conj(y[1])])

    return with_tangent if tangent else velocity


def charted_solve(chart, energy: ExpectationFunction, y, t_span, rtol, atol, hbar=1.0,
                  tangent=False, t_eval=None, monitor=None):
    """Integrate `chart_rhs` across chart switches from t_span[0] to t_span[1],
    binding the energy to each chart once.

    On a sphere chart the solve halts once |y[0]| > CHART_SWITCH_RADIUS, maps
    the state (w, *tangents) into the flipped chart with `chart.transition`
    and continues there.  `t_eval` samples are recorded by the segment that
    reaches them; `monitor(derivs, t, y)`, derivs the current binding, runs
    after every accepted step and may raise.  Returns the (chart, RKSolution)
    segments, and the chart and state at t1 (flipped when the last step
    itself crossed the radius).
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
                         atol=atol, t_eval=remaining, step_hook=hook)
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
    energy: ExpectationFunction,
    z0: Point,
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
    chart = chart_for(space, z0)
    u = chart.coords(z0)
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
        space=space,
        times=np.concatenate([sol.times for _, sol in segments]),
        coords=coords,
        stats=IntegratorStats(
            steps=sum(sol.stats.steps for _, sol in segments),
            rejected=sum(sol.stats.rejected for _, sol in segments),
            final_error_estimate=segments[-1][1].stats.final_error_estimate,
        ),
        energies=np.concatenate([energy.chart_values(ch, sol.states) for ch, sol in segments]),
        norms=kernel_diagonal(space, coords).real,
        chart_flags=np.concatenate([np.full(len(sol.times), int(getattr(ch, "south", False)))
                                    for ch, sol in segments]),
        chart_switches=len(segments) - 1,
        energy_drift=worst / h_scale,
    )


def bloch_vector(z: Point) -> np.ndarray:
    """Chart-free (X, Y, Z) of a unit spinor: <sigma> in the defining rep."""
    z1, z2 = z.coords
    x = 2.0 * (np.conj(z1) * z2).real
    y = 2.0 * (np.conj(z1) * z2).imag
    zc = abs(z1) ** 2 - abs(z2) ** 2
    return np.array([x, y, zc])
