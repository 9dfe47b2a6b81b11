"""Spectra of implicit eigenvalue problems I(E) psi = 0.

A model supplies m(E), k(E) and a spectral family: either a discrete
branch xi_n(E) (one root function lambda_n(E) = m(E) xi_n(E) - k(E) per
index), or a continuous range [xi_min(E), xi_max(E)] whose solutions form
intervals.

Array contract: every model function takes an ndarray of E (xi takes the
index first) and returns values that broadcast to that shape, so a constant
such as `lambda e: 1.0` is a valid m.  The scan evaluates m and k once on
the whole grid and each branch once, and reads sign changes off the value
arrays; the bracket polish and the band-edge refinement call the same
functions with a single float E.  Roots are bracketed on a uniform scan grid
and polished by a guarded bisection/secant iteration down to |lambda| <= tol;
a polish that has not got there after 200 steps raises NumericalError.

assemble_from_algebra is the independent matrix route: it builds
I(E) = sum_a c_a(E) rep(X_a) explicitly, as one contraction, and locates the
E where the smallest singular value of I(E) dips to zero, polishing by
golden-section search.
The two routes are cross-checked against each other in the test suite.

Catalog: harmonic oscillator (xi_n = hbar w (n + 1/2)), an attractive
Coulomb problem through its su(1,1) ladder (xi_n = n, m(E) =
sqrt(-2 mass E)/hbar, k = mass alpha / hbar^2, so E_n = -mass alpha^2 /
(2 hbar^2 n^2)), and the free relativistic dispersion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ModelDegeneracyError, NumericalError

DEFAULT_GRID = 10_000
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

EFunction = Callable[[np.ndarray], np.ndarray]  # E array -> values broadcasting to its shape


@dataclass
class ImplicitSpectralModel:
    m: EFunction
    k: EFunction
    xi: Optional[Callable[[int, np.ndarray], np.ndarray]] = None  # discrete family
    indices: Optional[Sequence[int]] = None
    xi_min: Optional[EFunction] = None  # continuous family
    xi_max: Optional[EFunction] = None

    def __post_init__(self):
        discrete = self.xi is not None
        continuous = self.xi_min is not None or self.xi_max is not None
        if discrete == continuous:
            raise ConfigError("model needs either a discrete xi family or a continuous range")
        if discrete and self.indices is None:
            raise ConfigError("discrete model needs the index list to scan")
        if continuous and (self.xi_min is None or self.xi_max is None):
            raise ConfigError("continuous model needs both range endpoints")


@dataclass
class SpectrumResult:
    discrete: list          # (n, E_n, residual), sorted by (E, n)
    continuous: list        # (E_lo, E_hi) intervals
    search_interval: tuple
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------- catalog


def _branches(first: int, n_max: int) -> range:
    """Branches first..n_max; a ConfigError when that leaves none to scan."""
    if n_max < first:
        raise ConfigError(f"n_max is {n_max}, which leaves no branch to scan; "
                          f"the least n_max is {first}")
    return range(first, n_max + 1)


def oscillator_model(omega: float = 1.0, hbar: float = 1.0, n_max: int = 32) -> ImplicitSpectralModel:
    return ImplicitSpectralModel(
        m=lambda e: 1.0,
        k=lambda e: e,
        xi=lambda n, e: hbar * omega * (n + 0.5),
        indices=_branches(0, n_max),
    )


def coulomb_model(mass: float = 1.0, alpha: float = 1.0, hbar: float = 1.0,
                  n_max: int = 8) -> ImplicitSpectralModel:
    """Bound spectrum of -hbar^2/(2 mass) Lap - alpha/r from the su(1,1) ladder.

    The tilted compact generator has the integer spectrum xi_n = n (n >= 1),
    weighted by m(E) = sqrt(-2 mass E)/hbar against k = mass alpha/hbar^2,
    which closes to E_n = -mass alpha^2 / (2 hbar^2 n^2).  Raises
    NumericalError when hbar^2 underflows to 0 or overflows.
    """
    try:
        k = mass * alpha / hbar ** 2
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(f"coulomb: hbar = {hbar:.6g} has no nonzero finite square in "
                             "float64, so k = mass alpha / hbar^2 is not defined") from None

    def m(e):
        return np.sqrt(np.maximum(0.0, -2.0 * mass * e)) / hbar

    return ImplicitSpectralModel(
        m=m,
        k=lambda e: k,
        xi=lambda n, e: float(n),
        indices=_branches(1, n_max),
    )


def free_particle_model(mass: float = 1.0, c: float = 1.0, p_max: float = 10.0) -> ImplicitSpectralModel:
    """Continuous branch xi = p^2 in [0, p_max^2]; solutions fill [mc^2, E(p_max)]."""
    return ImplicitSpectralModel(
        m=lambda e: 1.0,
        k=lambda e: (e / c) ** 2 - (mass * c) ** 2,
        xi_min=lambda e: 0.0,
        xi_max=lambda e: p_max ** 2,
    )


# ------------------------------------------------------------- root finding


def _polish_bracket(f: Callable[[float], float], a: float, b: float, fa: float,
                    fb: float, tol: float, n: int) -> tuple[float, float]:
    """Bisection with secant acceleration inside a sign-change bracket of
    branch n; NumericalError when 200 steps leave |lambda| above tol."""
    x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    for _ in range(200):
        if abs(fx) <= tol:
            return x, fx
        # secant candidate from the bracket endpoints, else bisect
        if fb != fa:
            s = b - fb * (b - a) / (fb - fa)
            if not math.isfinite(s):  # fb * (b - a) overflowed: the same step from x
                s = x - fx * ((b - a) / (fb - fa))
        else:
            s = 0.5 * (a + b)
        if not (min(a, b) < s < max(a, b)):
            s = 0.5 * (a + b)
        fs = f(s)
        if fs == 0.0:
            return s, 0.0
        if (fa < 0) != (fs < 0):
            b, fb = s, fs
        else:
            a, fa = s, fs
        x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        if abs(b - a) <= 1e-15 * max(1.0, abs(a), abs(b)):
            return x, fx
    if abs(fx) <= tol:
        return x, fx
    raise NumericalError(f"branch n={n}: 200 polish steps left |lambda| = {abs(fx):.3e} above "
                         f"tol = {tol:.3g} in the bracket [{min(a, b):.6g}, {max(a, b):.6g}]")


def _dedupe(roots: list[tuple[int, float, float]]) -> list[tuple[int, float, float]]:
    """(n, E, residual) rows sorted by (E, n), dropping each E within 1e-10
    relative of the last row kept."""
    kept: list[tuple[int, float, float]] = []
    for r in sorted(roots, key=lambda r: (r[1], r[0])):
        if not (kept and abs(r[1] - kept[-1][1]) <= 1e-10 * max(1.0, abs(r[1]))):
            kept.append(r)
    return kept


def _scan_grid(interval: tuple[float, float], grid: int) -> tuple[tuple[float, float], np.ndarray]:
    """The search interval as floats and its uniform scan grid."""
    e_lo, e_hi = float(interval[0]), float(interval[1])
    if not e_hi > e_lo:
        raise ConfigError("search interval must have positive length")
    if grid < 2:
        raise ConfigError(f"grid must be at least 2 points to bracket a root, got {grid}")
    return (e_lo, e_hi), np.linspace(e_lo, e_hi, grid)


def _inside(model: ImplicitSpectralModel, e, m, k):
    """Whether 0 lies between the branch extremes m xi_min(E) - k and
    m xi_max(E) - k, given m = m(E) and k = k(E); elementwise for an array."""
    lo = m * model.xi_min(e) - k
    hi = m * model.xi_max(e) - k
    return (np.minimum(lo, hi) <= 0.0) & (np.maximum(lo, hi) >= 0.0)


def solve_implicit_spectrum(model: ImplicitSpectralModel, interval: tuple[float, float],
                            tol: float = 1e-10, grid: int = DEFAULT_GRID) -> SpectrumResult:
    """Roots of lambda_n(E) (discrete) or solution intervals (continuous).

    Scans a uniform grid for sign changes, polishes each bracket to
    |lambda| <= tol, collapses duplicates within 1e-10 relative, and flags
    possible tangencies (near-zero grid minima without a sign change) as
    multiplicity-uncertain warnings.  A root on the last branch of the
    model's indices warns that the branches above it were not scanned.
    """
    (e_lo, e_hi), es = _scan_grid(interval, grid)
    m_vals = np.broadcast_to(model.m(es), es.shape)
    k_vals = np.broadcast_to(model.k(es), es.shape)
    both_zero = (m_vals == 0.0) & (k_vals == 0.0)
    if both_zero.any():
        e_bad = es[int(np.argmax(both_zero))]
        raise ModelDegeneracyError(
            f"m and k both vanish at E = {e_bad:.6g}; the scalar pair must not "
            "vanish simultaneously"
        )

    warnings: list[str] = []
    roots: list[tuple[int, float, float]] = []

    if model.xi is not None:
        for n in model.indices:
            def lam(e: float, n=n) -> float:
                return float(model.m(e) * model.xi(n, e) - model.k(e))

            vals = m_vals * model.xi(n, es) - k_vals
            scale = max(1.0, float(np.max(np.abs(vals))))
            signs = np.sign(vals)
            for i in np.flatnonzero(signs == 0.0):
                roots.append((n, float(es[i]), abs(vals[i])))
            for i in np.flatnonzero(signs[:-1] * signs[1:] < 0):
                root, fr = _polish_bracket(lam, float(es[i]), float(es[i + 1]),
                                           float(vals[i]), float(vals[i + 1]), tol, n)
                roots.append((n, root, abs(fr)))
            # tangency sweep: small interior minima with no sign change
            interior = np.abs(vals[1:-1])
            dips = (interior < 1e-6 * scale) & (interior < np.abs(vals[:-2])) & (interior < np.abs(vals[2:]))
            for i in np.flatnonzero(dips):
                j = i + 1
                if signs[j - 1] * signs[j] > 0 and signs[j] * signs[j + 1] > 0:
                    warnings.append(
                        f"branch n={n}: |lambda| dips to {interior[i]:.3e} near "
                        f"E = {es[j]:.6g} without a sign change; possible tangency "
                        f"(multiplicity uncertain) — refine the grid beyond {grid} points"
                    )
        # a root on the last branch scanned: the unscanned branches may have some too
        if any(r[0] == model.indices[-1] for r in roots):
            warnings.append(f"branches above n_max={model.indices[-1]} may have roots in "
                            f"[{e_lo:g}, {e_hi:g}]; raise n_max")
        return SpectrumResult(_dedupe(roots), [], (e_lo, e_hi), warnings)

    # continuous family: each run of grid points inside the solution set is
    # one interval, its edges refined between the last node out and the first in
    inside = _inside(model, es, m_vals, k_vals)
    runs = np.flatnonzero(np.diff(np.concatenate(([False], inside, [False])))).reshape(-1, 2)
    intervals: list[tuple[float, float]] = []
    for i, stop in runs:
        j = stop - 1
        a = _refine_edge(model, es[i - 1], es[i]) if i > 0 else es[0]
        b = _refine_edge(model, es[j + 1], es[j]) if j < grid - 1 else es[-1]
        intervals.append((float(a), float(b)))
    return SpectrumResult([], intervals, (e_lo, e_hi), warnings)


def _refine_edge(model: ImplicitSpectralModel, e_out: float, e_in: float) -> float:
    """Bisect the boundary of the continuous-solution set between grid nodes."""
    a, b = e_out, e_in     # a outside, b inside (order along E axis varies)
    for _ in range(80):
        mid = 0.5 * (a + b)
        if _inside(model, mid, model.m(mid), model.k(mid)):
            b = mid
        else:
            a = mid
    return b


# ------------------------------------------------------- matrix (SVD) route


def assemble_from_algebra(rep: Sequence[np.ndarray],
                          i_coeffs: Callable[[float], Sequence[complex]],
                          interval: tuple[float, float], tol: float = 1e-8,
                          grid: int = 4001) -> SpectrumResult:
    """Spectrum as dips of the smallest singular value of I(E) = sum c_a(E) rep(X_a).

    Local minima of sigma_min along a uniform scan are polished by
    golden-section search; E is accepted when sigma_min <= tol * ||I(E)||_2.
    This is the direct-matrix fallback route for solve_implicit_spectrum.
    """
    mats = np.asarray(rep, dtype=complex)

    def sigma(e: float) -> tuple[float, float]:
        c = np.asarray(i_coeffs(e), dtype=complex)
        if c.shape != mats.shape[:1]:
            raise ConfigError("coefficient vector length must match the representation")
        s = np.linalg.svd(np.tensordot(c, mats, 1), compute_uv=False)
        return float(s[-1]), float(s[0])

    (e_lo, e_hi), es = _scan_grid(interval, grid)
    smin, smax = np.array([sigma(e) for e in es]).reshape(-1, 2).T
    mid = smin[1:-1]
    minima = (mid <= smin[:-2]) & (mid <= smin[2:]) & (mid < 0.5 * smax[1:-1])

    found: list[tuple[int, float, float]] = []
    for i in np.flatnonzero(minima) + 1:
        a, b = float(es[i - 1]), float(es[i + 1])
        x1 = b - GOLDEN * (b - a)
        x2 = a + GOLDEN * (b - a)
        f1, f2 = sigma(x1)[0], sigma(x2)[0]
        while b - a > 1e-14 * max(1.0, abs(a), abs(b)):
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - GOLDEN * (b - a)
                f1 = sigma(x1)[0]
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + GOLDEN * (b - a)
                f2 = sigma(x2)[0]
        e_best = 0.5 * (a + b)
        s_best, s_top = sigma(e_best)
        if s_best <= tol * s_top:
            found.append((len(found), e_best, s_best / s_top))
    deduped = [(i, e, res) for i, (_, e, res) in enumerate(_dedupe(found))]
    return SpectrumResult(deduped, [], (e_lo, e_hi))
