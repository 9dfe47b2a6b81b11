"""Spectra of implicit eigenvalue problems I(E) psi = 0.

A model supplies scalars m(E), k(E) and a spectral family: either a discrete
branch xi_n(E) (one root function lambda_n(E) = m(E) xi_n(E) - k(E) per
index), or a continuous range [xi_min(E), xi_max(E)] whose solutions form
intervals.  Roots are bracketed on a uniform scan grid and polished by a
guarded bisection/secant iteration down to |lambda| <= tol.

assemble_from_algebra is the independent matrix route: it builds
I(E) = sum_a c_a(E) rep(X_a) explicitly and locates the E where the smallest
singular value of I(E) dips to zero, polishing by golden-section search.
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

from .errors import ConfigError, ModelDegeneracyError, TruncationError

DEFAULT_GRID = 10_000
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class ImplicitSpectralModel:
    m: Callable[[float], float]
    k: Callable[[float], float]
    xi: Optional[Callable[[int, float], float]] = None      # discrete family
    indices: Optional[Sequence[int]] = None
    xi_min: Optional[Callable[[float], float]] = None       # continuous family
    xi_max: Optional[Callable[[float], float]] = None
    name: str = "custom"

    def __post_init__(self):
        discrete = self.xi is not None
        continuous = self.xi_min is not None or self.xi_max is not None
        if discrete == continuous:
            raise ConfigError("model needs either a discrete xi family or a continuous range")
        if discrete and self.indices is None:
            raise ConfigError("discrete model needs the index list to scan")
        if continuous and (self.xi_min is None or self.xi_max is None):
            raise ConfigError("continuous model needs both range endpoints")

    def branch(self, n: int) -> Callable[[float], float]:
        def lam(e: float) -> float:
            return self.m(e) * self.xi(n, e) - self.k(e)
        return lam


@dataclass
class SpectrumResult:
    discrete: list          # (n, E_n, residual), sorted by (E, n)
    continuous: list        # (E_lo, E_hi) intervals
    search_interval: tuple
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------- catalog


def oscillator_model(omega: float = 1.0, hbar: float = 1.0, n_max: int = 32) -> ImplicitSpectralModel:
    return ImplicitSpectralModel(
        m=lambda e: 1.0,
        k=lambda e: e,
        xi=lambda n, e: hbar * omega * (n + 0.5),
        indices=range(n_max + 1),
        name="oscillator",
    )


def coulomb_model(mass: float = 1.0, alpha: float = 1.0, hbar: float = 1.0,
                  n_max: int = 8) -> ImplicitSpectralModel:
    """Bound spectrum of -hbar^2/(2 mass) Lap - alpha/r from the su(1,1) ladder.

    The tilted compact generator has the integer spectrum xi_n = n (n >= 1),
    weighted by m(E) = sqrt(-2 mass E)/hbar against k = mass alpha/hbar^2,
    which closes to E_n = -mass alpha^2 / (2 hbar^2 n^2).
    """
    def m(e: float) -> float:
        return math.sqrt(max(0.0, -2.0 * mass * e)) / hbar

    return ImplicitSpectralModel(
        m=m,
        k=lambda e: mass * alpha / hbar ** 2,
        xi=lambda n, e: float(n),
        indices=range(1, n_max + 1),
        name="coulomb",
    )


def free_particle_model(mass: float = 1.0, c: float = 1.0, p_max: float = 10.0) -> ImplicitSpectralModel:
    """Continuous branch xi = p^2 in [0, p_max^2]; solutions fill [mc^2, E(p_max)]."""
    return ImplicitSpectralModel(
        m=lambda e: 1.0,
        k=lambda e: (e / c) ** 2 - (mass * c) ** 2,
        xi_min=lambda e: 0.0,
        xi_max=lambda e: p_max ** 2,
        name="free",
    )


def free_dispersion(p_magnitude: float, mass: float, c: float) -> float:
    """Positive root E = c sqrt(p^2 + (mc)^2) of the free dispersion relation."""
    if p_magnitude < 0 or mass < 0 or c <= 0:
        raise ConfigError("free dispersion needs p, mass >= 0 and c > 0")
    return c * math.sqrt(p_magnitude ** 2 + (mass * c) ** 2)


# ------------------------------------------------------------- root finding


def _polish_bracket(f: Callable[[float], float], a: float, b: float, fa: float,
                    fb: float, tol: float) -> tuple[float, float]:
    """Bisection with secant acceleration inside a sign-change bracket."""
    x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    for _ in range(200):
        if abs(fx) <= tol:
            return x, fx
        # secant candidate from the bracket endpoints, else bisect
        if fb != fa:
            s = b - fb * (b - a) / (fb - fa)
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
    return x, fx


def _dedupe(roots: list[tuple[int, float, float]]) -> list[tuple[int, float, float]]:
    """(n, E, residual) rows sorted by (E, n), dropping each E within 1e-10
    relative of the last row kept."""
    kept: list[tuple[int, float, float]] = []
    for r in sorted(roots, key=lambda r: (r[1], r[0])):
        if not (kept and abs(r[1] - kept[-1][1]) <= 1e-10 * max(1.0, abs(r[1]))):
            kept.append(r)
    return kept


def solve_implicit_spectrum(model: ImplicitSpectralModel, interval: tuple[float, float],
                            tol: float = 1e-10, grid: int = DEFAULT_GRID) -> SpectrumResult:
    """Roots of lambda_n(E) (discrete) or solution intervals (continuous).

    Scans a uniform grid for sign changes, polishes each bracket to
    |lambda| <= tol, collapses duplicates within 1e-10 relative, and flags
    possible tangencies (near-zero grid minima without a sign change) as
    multiplicity-uncertain warnings.
    """
    e_lo, e_hi = float(interval[0]), float(interval[1])
    if not e_hi > e_lo:
        raise ConfigError("search interval must have positive length")
    es = np.linspace(e_lo, e_hi, grid)
    m_vals = np.array([model.m(e) for e in es])
    k_vals = np.array([model.k(e) for e in es])
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
            lam = model.branch(n)
            vals = m_vals * np.array([model.xi(n, e) for e in es]) - k_vals
            scale = max(1.0, float(np.max(np.abs(vals))))
            signs = np.sign(vals)
            for i in range(len(es) - 1):
                if signs[i] == 0.0:
                    roots.append((n, float(es[i]), abs(vals[i])))
                elif signs[i] * signs[i + 1] < 0:
                    root, fr = _polish_bracket(lam, float(es[i]), float(es[i + 1]),
                                               float(vals[i]), float(vals[i + 1]), tol)
                    roots.append((n, root, abs(fr)))
            if signs[-1] == 0.0:
                roots.append((n, float(es[-1]), abs(vals[-1])))
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
        return SpectrumResult(_dedupe(roots), [], (e_lo, e_hi), warnings)

    # continuous family: E is in the spectrum iff 0 lies between the branch
    # extremes m xi_min - k and m xi_max - k
    lo_vals = m_vals * np.array([model.xi_min(e) for e in es]) - k_vals
    hi_vals = m_vals * np.array([model.xi_max(e) for e in es]) - k_vals
    inside = (np.minimum(lo_vals, hi_vals) <= 0.0) & (np.maximum(lo_vals, hi_vals) >= 0.0)
    intervals: list[tuple[float, float]] = []
    i = 0
    while i < grid:
        if inside[i]:
            j = i
            while j + 1 < grid and inside[j + 1]:
                j += 1
            a = _refine_edge(model, es[i - 1], es[i]) if i > 0 else es[0]
            b = _refine_edge(model, es[j + 1], es[j]) if j < grid - 1 else es[-1]
            intervals.append((float(a), float(b)))
            i = j + 1
        else:
            i += 1
    return SpectrumResult([], intervals, (e_lo, e_hi), warnings)


def _refine_edge(model: ImplicitSpectralModel, e_out: float, e_in: float) -> float:
    """Bisect the boundary of the continuous-solution set between grid nodes."""
    def inside(e: float) -> bool:
        lo = model.m(e) * model.xi_min(e) - model.k(e)
        hi = model.m(e) * model.xi_max(e) - model.k(e)
        return min(lo, hi) <= 0.0 <= max(lo, hi)

    a, b = e_out, e_in     # a outside, b inside (order along E axis varies)
    for _ in range(80):
        mid = 0.5 * (a + b)
        if inside(mid):
            b = mid
        else:
            a = mid
    return b


# ------------------------------------------------------- matrix (SVD) route


def assemble_from_algebra(algebra, rep: Sequence[np.ndarray],
                          i_coeffs: Callable[[float], Sequence[complex]],
                          interval: tuple[float, float], tol: float = 1e-8,
                          grid: int = 4001, tail_bound: Optional[float] = None) -> SpectrumResult:
    """Spectrum as dips of the smallest singular value of I(E) = sum c_a(E) rep(X_a).

    Local minima of sigma_min along a uniform scan are polished by
    golden-section search; E is accepted when sigma_min <= tol * ||I(E)||_2.
    This is the direct-matrix fallback route for solve_implicit_spectrum.
    """
    mats = [np.asarray(r, dtype=complex) for r in rep]
    if algebra is not None and len(mats) != algebra.dim:
        raise ConfigError("need one representation matrix per algebra basis element")

    def build(e: float) -> np.ndarray:
        c = np.asarray(i_coeffs(e), dtype=complex)
        if len(c) != len(mats):
            raise ConfigError("coefficient vector length must match the representation")
        out = np.zeros_like(mats[0])
        for ci, mi in zip(c, mats):
            out = out + ci * mi
        return out

    def sigma(e: float) -> tuple[float, float]:
        s = np.linalg.svd(build(e), compute_uv=False)
        return float(s[-1]), float(s[0])

    e_lo, e_hi = float(interval[0]), float(interval[1])
    if not e_hi > e_lo:
        raise ConfigError("search interval must have positive length")
    es = np.linspace(e_lo, e_hi, grid)
    smin = np.empty(grid)
    smax = np.empty(grid)
    for i, e in enumerate(es):
        smin[i], smax[i] = sigma(e)

    found: list[tuple[int, float, float]] = []
    warnings: list[str] = []
    order = 0
    for i in range(1, grid - 1):
        if smin[i] <= smin[i - 1] and smin[i] <= smin[i + 1] and smin[i] < 0.5 * smax[i]:
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
                if tail_bound is not None and tail_bound > tol * s_top:
                    raise TruncationError(
                        f"declared truncation tail bound {tail_bound:.3e} exceeds the "
                        f"acceptance threshold {tol * s_top:.3e} at E = {e_best:.6g}"
                    )
                found.append((order, e_best, s_best / s_top))
                order += 1
    deduped = [(i, e, res) for i, (_, e, res) in enumerate(_dedupe(found))]
    return SpectrumResult(deduped, [], (e_lo, e_hi), warnings)
