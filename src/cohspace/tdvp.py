"""Kaehler metric and variational (Dirac-Frenkel) flows in holomorphic charts.

The variational projection of  i hbar d/dt |psi> = H |psi>  onto a coherent
family |z(u)>, u a holomorphic chart, is

    i hbar g(u) du/dt = grad_ubar h(u),      g = d_ubar d_u log K|diagonal,
    h(u) = <z(u)| H |z(u)> / K(z(u), z(u)),

integrated here with the embedded RK5(4).  Charts:

- Klauder labels: the zeta block (the z0 direction is metric-null, carried as
  a constant spectator); the metric is exactly the identity.
- Spin (n = 2j): stereographic charts w = z2/z1 (north) and 1/w (south),
  metric n/(1+|w|^2)^2; the flow switches chart when |w| > 2.

For the spin chart with an operator given as a matrix in the monomial
representation, energies and their Wirtinger derivatives are analytic
(MatrixExpectation); arbitrary energy callables fall back to central
differences (CallableExpectation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateMetricError, IntegratorFailure
from .integrate import IntegratorStats, solve_rk45
from .kernels import KernelSpace, Point, eval_kernel
from .dynamics import Trajectory

CHART_SWITCH_RADIUS = 2.0
ENERGY_DRIFT_LIMIT = 1e-6


# ----------------------------------------------------------------- charts


class SphereChart:
    """Stereographic chart for unit spinors; monomial embedding of degree n."""

    def __init__(self, n: int, south: bool = False):
        self.n = int(n)
        self.south = bool(south)
        self._w = np.array([math.sqrt(math.comb(self.n, k)) for k in range(self.n + 1)])

    @property
    def dim(self) -> int:
        return 1

    def coords(self, z: Point) -> np.ndarray:
        z1, z2 = z.coords
        return np.array([z1 / z2 if self.south else z2 / z1])

    def point(self, u: np.ndarray) -> Point:
        w = u[0]
        s = 1.0 / math.sqrt(1.0 + abs(w) ** 2)
        if self.south:
            return Point(np.array([w * s, s]))
        return Point(np.array([s, w * s]))

    def flipped(self) -> "SphereChart":
        return SphereChart(self.n, south=not self.south)

    @staticmethod
    def transition(u: np.ndarray) -> np.ndarray:
        return np.array([1.0 / u[0]])

    # unnormalized holomorphic embedding v(w), plus derivatives in w
    def embedding(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        w = u[0]
        n = self.n
        k = np.arange(n + 1)
        p = (n - k) if self.south else k          # monomial power per component
        v = np.zeros(n + 1, dtype=complex)
        if order == 0:
            v = self._w * w ** p
        elif order == 1:
            nz = p >= 1
            v[nz] = self._w[nz] * p[nz] * w ** (p[nz] - 1)
        elif order == 2:
            nz = p >= 2
            v[nz] = self._w[nz] * p[nz] * (p[nz] - 1) * w ** (p[nz] - 2)
        else:
            raise ConfigError("embedding derivatives available up to order 2")
        return v

    def metric(self, u: np.ndarray) -> np.ndarray:
        rho = abs(u[0]) ** 2
        return np.array([[self.n / (1.0 + rho) ** 2]])

    def metric_dw(self, u: np.ndarray) -> complex:
        """d g / d w (holomorphic Wirtinger derivative of the scalar metric)."""
        w = u[0]
        return -2.0 * self.n * np.conj(w) / (1.0 + abs(w) ** 2) ** 3


class FlatChart:
    """Klauder zeta-chart: metric identically the identity; z0 is a spectator."""

    def __init__(self, modes: int, z0: complex = 0.0, cutoff: int = 64):
        self.modes = int(modes)
        self.z0 = complex(z0)
        self.cutoff = int(cutoff)

    @property
    def dim(self) -> int:
        return self.modes

    def coords(self, z: Point) -> np.ndarray:
        return z.coords[1:].copy()

    def point(self, u: np.ndarray) -> Point:
        return Point(np.concatenate([[self.z0], u]))

    def embedding(self, u: np.ndarray, order: int = 0) -> np.ndarray:
        if self.modes != 1:
            raise ConfigError("matrix energies support a single Klauder mode")
        zeta = u[0]
        n = np.arange(self.cutoff)
        fact = np.cumprod(np.concatenate([[1.0], np.sqrt(np.maximum(n[1:], 1))]))
        v = np.zeros(self.cutoff, dtype=complex)
        if order == 0:
            v = np.exp(self.z0) * zeta ** n / fact
        elif order == 1:
            v[1:] = np.exp(self.z0) * n[1:] * zeta ** (n[1:] - 1) / fact[1:]
        elif order == 2:
            v[2:] = np.exp(self.z0) * n[2:] * (n[2:] - 1) * zeta ** (n[2:] - 2) / fact[2:]
        else:
            raise ConfigError("embedding derivatives available up to order 2")
        return v

    def metric(self, u: np.ndarray) -> np.ndarray:
        return np.eye(self.modes)

    def metric_dw(self, u: np.ndarray) -> complex:
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

    def chart_value(self, chart, u: np.ndarray) -> float:
        raise NotImplementedError

    def chart_grad(self, chart, u: np.ndarray) -> np.ndarray:
        """Conjugate Wirtinger gradient d h / d ubar (h real)."""
        raise NotImplementedError


class CallableExpectation(ExpectationFunction):
    """Energy given as a function on label points; gradients by central FD."""

    def __init__(self, fn: Callable[[Point], float], step: float = 1e-6):
        self.fn = fn
        self.step = step

    def chart_value(self, chart, u):
        return float(self.fn(chart.point(u)))

    def chart_grad(self, chart, u):
        h = self.step
        g = np.zeros(len(u), dtype=complex)
        for j in range(len(u)):
            e = np.zeros(len(u), dtype=complex)
            e[j] = 1.0
            dre = (self.chart_value(chart, u + h * e) - self.chart_value(chart, u - h * e)) / (2 * h)
            dim_ = (self.chart_value(chart, u + 1j * h * e) - self.chart_value(chart, u - 1j * h * e)) / (2 * h)
            g[j] = 0.5 * (dre + 1j * dim_)  # d/d ubar for real h
        return g


class MatrixExpectation(ExpectationFunction):
    """Energy from an operator matrix in the chart's embedding representation."""

    def __init__(self, matrix: np.ndarray):
        self.h = np.asarray(matrix, dtype=complex)

    def _nd(self, chart, u):
        v = chart.embedding(u, 0)
        if self.h.shape != (len(v), len(v)):
            raise ConfigError(
                f"operator is {self.h.shape} but the chart embeds into dimension {len(v)}"
            )
        hv = self.h @ v
        num = complex(np.vdot(v, hv))
        den = float(np.vdot(v, v).real)
        return v, hv, num, den

    def chart_value(self, chart, u):
        _, _, num, den = self._nd(chart, u)
        return num.real / den

    def chart_grad(self, chart, u):
        if chart.dim != 1:
            raise ConfigError("matrix energies implemented for 1-d charts")
        v, hv, num, den = self._nd(chart, u)
        v1 = chart.embedding(u, 1)
        dnum = complex(np.vdot(v1, hv))          # d/d wbar of v* H v
        dden = complex(np.vdot(v1, v))
        return np.array([(dnum * den - num * dden) / den ** 2])

    def chart_second(self, chart, u):
        """(h, dh/dwbar, d2h/(dw dwbar), d2h/dwbar2) for tangent linearization."""
        v = chart.embedding(u, 0)
        if self.h.shape != (len(v), len(v)):
            raise ConfigError(
                f"operator is {self.h.shape} but the chart embeds into dimension {len(v)}"
            )
        v1 = chart.embedding(u, 1)
        v2 = chart.embedding(u, 2)
        hv, hv1 = self.h @ v, self.h @ v1
        num = complex(np.vdot(v, hv))
        den = complex(np.vdot(v, v))
        dn, dd = complex(np.vdot(v1, hv)), complex(np.vdot(v1, v))       # d/d wbar
        dn_h, dd_h = complex(np.vdot(v, hv1)), complex(np.vdot(v, v1))   # d/d w
        dndn_h, dddd_h = complex(np.vdot(v1, hv1)), complex(np.vdot(v1, v1))  # mixed
        dn2, dd2 = complex(np.vdot(v2, hv)), complex(np.vdot(v2, v))     # d2/d wbar2
        h_val = (num / den).real
        p = dn * den - num * dd                   # numerator of dh/dwbar
        grad = p / den ** 2
        dp_h = dndn_h * den + dn * dd_h - dn_h * dd - num * dddd_h
        dp_b = dn2 * den - num * dd2              # d2 num and den wrt wbar2
        mixed = (dp_h * den - 2.0 * p * dd_h) / den ** 3
        grad2 = (dp_b * den - 2.0 * p * dd) / den ** 3
        return h_val, grad, mixed, grad2


# ------------------------------------------------------------- Kaehler metric


def kahler_metric(space: KernelSpace, z: Point, fd_step: float = 1e-3) -> np.ndarray:
    """Metric g = d_ubar d_u log K at the diagonal.

    Analytic for klauder (identity on the zeta block) and spin (stereographic
    chart); finite differences over the label coordinates otherwise.  Raises
    DegenerateMetricError (listing null directions) when the smallest
    eigenvalue is indistinguishable from zero — below max(1e-12 * trace,
    FD roundoff floor ~ eps/fd_step^2) — as for projectively degenerate
    kernels, where the label ray itself is a null direction.
    """
    if space.kind in _CHARTS:
        chart = chart_for(space, z)
        return chart.metric(chart.coords(z))
    if space.base is not None:  # power space: n times the base metric
        return space.descriptor["n"] * kahler_metric(space.base, z, fd_step)

    dim = space.label_dim
    h = fd_step

    def logk(a, b):
        return np.log(eval_kernel(space, Point(a), Point(b)))

    g = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(dim):
            ej = np.zeros(dim)
            ek = np.zeros(dim)
            ej[j] = 1.0
            ek[k] = 1.0

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
    floor = max(1e-12 * max(tr, 1e-300), 32.0 * np.finfo(float).eps * log_scale / fd_step ** 2)
    if eigs[0] < floor:
        null = [vecs[:, i] for i in range(dim) if eigs[i] < floor]
        raise DegenerateMetricError(
            f"{space.kind}: Kaehler metric degenerate (min eig {eigs[0]:.3e}, trace {tr:.3e}); "
            f"{len(null)} null direction(s)",
            null_directions=null,
        )
    return g


# ------------------------------------------------------------ variational flow


def tdvp_rhs(chart, energy: ExpectationFunction, hbar: float):
    def rhs(t, u):
        g = chart.metric(u)
        grad = energy.chart_grad(chart, u)
        if g.shape == (1, 1):
            x = grad / g[0, 0]
        else:
            x = np.linalg.solve(g, grad)
        return x / (1j * hbar)

    return rhs


def dirac_frenkel_flow(
    space: KernelSpace,
    energy: ExpectationFunction,
    z0: Point,
    t_span: tuple[float, float],
    t_eval: Optional[Sequence[float]] = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    hbar: float = 1.0,
    drift_limit: float = ENERGY_DRIFT_LIMIT,
) -> Trajectory:
    """Variational flow in the space's chart; chart switches are automatic.

    Energy is monitored at every accepted step; relative drift beyond
    `drift_limit` raises IntegratorFailure with the observed drift.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 101)
    t_eval = [float(t) for t in t_eval]
    chart = chart_for(space, z0)
    u = chart.coords(z0)
    h0 = energy.chart_value(chart, u)
    h_scale = max(abs(h0), 1e-12)

    times_out: list[float] = []
    pts_out: list[Point] = []
    en_out: list[float] = []
    flags_out: list[int] = []
    steps = rejected = 0
    err_est = 0.0

    def record(t, uu):
        times_out.append(t)
        p = chart.point(uu)
        pts_out.append(p)
        en_out.append(energy.chart_value(chart, uu))
        flags_out.append(1 if getattr(chart, "south", False) else 0)

    remaining = [t for t in t_eval]
    t_cur = t0
    while remaining and remaining[0] <= t_cur + 1e-15 * max(1.0, abs(t_cur)):
        record(remaining.pop(0), u)
    is_sphere = isinstance(chart, SphereChart)

    while remaining:
        def hook(t, uu):
            hv = energy.chart_value(chart, uu)
            if abs(hv - h0) > drift_limit * h_scale:
                raise IntegratorFailure(
                    f"energy drift {abs(hv - h0):.3e} exceeds {drift_limit:.1e} x |h| "
                    f"at t = {t:.6g}; tighten rtol"
                )
            return is_sphere and abs(uu[0]) > CHART_SWITCH_RADIUS

        sol = solve_rk45(tdvp_rhs(chart, energy, hbar), t_cur, t1, u,
                         rtol=rtol, atol=atol, t_eval=remaining, step_hook=hook)
        for t, uu in zip(sol.times, sol.states):
            record(t, uu)
            remaining.remove(float(t))
        steps += sol.stats.steps
        rejected += sol.stats.rejected
        err_est = sol.stats.final_error_estimate
        t_cur, u = sol.t_end, sol.y_end
        if sol.halted:
            u = chart.transition(u)
            chart = chart.flipped()
        elif not remaining or t_cur >= t1 - 1e-15 * max(1.0, abs(t1)):
            break

    norms = np.array([eval_kernel(space, p, p).real for p in pts_out])
    return Trajectory(
        space=space,
        times=np.array(times_out),
        points=pts_out,
        stats=IntegratorStats(steps=steps, rejected=rejected, final_error_estimate=err_est),
        energies=np.array(en_out),
        norms=norms,
        chart_flags=np.array(flags_out),
    )


def bloch_vector(z: Point) -> np.ndarray:
    """Chart-free (X, Y, Z) of a unit spinor: <sigma> in the defining rep."""
    z1, z2 = z.coords
    x = 2.0 * (np.conj(z1) * z2).real
    y = 2.0 * (np.conj(z1) * z2).imag
    zc = abs(z1) ** 2 - abs(z2) ** 2
    return np.array([x, y, zc])
