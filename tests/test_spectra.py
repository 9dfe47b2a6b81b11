"""Implicit-spectrum solver against dense-diagonalization and FD oracles.

Two independent routes must agree: lambda-root bracketing on the scalar
family, and singular-value dips of the assembled matrix I(E).  The Coulomb
catalog entry is certified against a finite-difference radial problem, the
oscillator against the truncated Fock Hamiltonian built from p and q.  The
array scan is held to the per-point scalar scan it replaced, kept here as
the oracle.
"""

import math
import re

import numpy as np
import pytest

from oracles import fock_ops, hydrogen_fd_levels, operator_sum

from cohspace import spectra
from cohspace.errors import ConfigError, ModelDegeneracyError, NumericalError
from cohspace.spectra import (
    DEFAULT_GRID,
    ImplicitSpectralModel,
    _dedupe,
    _polish_bracket,
    assemble_from_algebra,
    coulomb_model,
    free_particle_model,
    oscillator_model,
    solve_implicit_spectrum,
)


def truncated_oscillator(cutoff: int, omega: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    a, ad, _ = fock_ops(cutoff)
    q = np.sqrt(hbar / (2 * omega)) * (a + ad)
    p = 1j * np.sqrt(hbar * omega / 2) * (ad - a)
    return (p @ p + omega**2 * (q @ q)) / 2


def test_integer_branch_roots():
    model = ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: e,
                                  xi=lambda n, e: float(n), indices=range(11))
    res = solve_implicit_spectrum(model, (-0.5, 10.5), tol=1e-12)
    assert [r[0] for r in res.discrete] == list(range(11))
    np.testing.assert_allclose([r[1] for r in res.discrete], np.arange(11.0), atol=1e-12)
    assert all(r[2] <= 1e-12 for r in res.discrete)
    assert res.search_interval == (-0.5, 10.5)


def test_oscillator_matches_dense_diagonalization():
    omega, hbar = 1.0, 1.0
    res = solve_implicit_spectrum(oscillator_model(omega, hbar, n_max=32), (0.0, 32.0), tol=1e-12)
    roots = np.array([r[1] for r in res.discrete])
    # oracle: eigenvalues of the cutoff-128 Fock Hamiltonian built from p, q;
    # the lower half is truncation-clean
    eigs = np.sort(np.linalg.eigvalsh(truncated_oscillator(128, omega, hbar)))
    np.testing.assert_allclose(roots, eigs[: len(roots)], atol=1e-10)
    np.testing.assert_allclose(roots, hbar * omega * (np.arange(32) + 0.5), atol=1e-12)


def test_coulomb_levels_match_fd_oracle():
    res = solve_implicit_spectrum(coulomb_model(1.0, 1.0, 1.0, 5), (-0.6, -0.015), tol=1e-12)
    roots = np.array([r[1] for r in res.discrete])
    assert len(roots) == 5
    np.testing.assert_allclose(roots, [-0.5 / n**2 for n in range(1, 6)], atol=1e-12)
    fd = hydrogen_fd_levels(1.0, 1.0, 1.0, 5)
    assert np.max(np.abs((roots - fd) / fd)) <= 1e-3
    # 1/n^2 scaling law
    ns = np.array([r[0] for r in res.discrete], dtype=float)
    np.testing.assert_allclose(roots * ns**2, roots[0], rtol=1e-10)


def test_continuous_free_particle_interval():
    res = solve_implicit_spectrum(free_particle_model(4.0, 1.0, 3.0), (0.0, 10.0), tol=1e-10)
    assert res.discrete == []
    assert len(res.continuous) == 1
    lo, hi = res.continuous[0]
    mass, c = 4.0, 1.0  # band edges E = c sqrt(p^2 + (mc)^2) at p = 0 and p = p_max
    assert lo == pytest.approx(c * math.sqrt(0.0 ** 2 + (mass * c) ** 2), abs=1e-9)
    assert hi == pytest.approx(c * math.sqrt(3.0 ** 2 + (mass * c) ** 2), abs=1e-9)


def test_model_degeneracy_detected():
    model = ImplicitSpectralModel(m=lambda e: e, k=lambda e: e,
                                  xi=lambda n, e: 1.0, indices=[0])
    with pytest.raises(ModelDegeneracyError):
        solve_implicit_spectrum(model, (-1.0, 1.0), tol=1e-10, grid=10_001)


def test_tangency_warning():
    model = ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: -((e - 3.0) ** 2),
                                  xi=lambda n, e: 0.0, indices=[0])
    res = solve_implicit_spectrum(model, (0.0, 6.0), tol=1e-10)
    assert res.discrete == []
    assert len(res.warnings) == 1
    assert "tangency" in res.warnings[0]
    assert "refine" in res.warnings[0]


def test_duplicate_roots_collapsed():
    model = ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: 0.0,
                                  xi=lambda n, e: (n + 1.0) * (1.0 - e), indices=[0, 1])
    res = solve_implicit_spectrum(model, (0.0, 2.0), tol=1e-12)
    assert len(res.discrete) == 1
    assert res.discrete[0][1] == pytest.approx(1.0, abs=1e-12)


def test_a_polish_that_cannot_close_its_bracket_names_it():
    """A sign change with no root (a step) in a bracket 1e300 wide: each
    secant step is a bisection, 200 of them leave it 6e239 wide, and its end
    E = 0 (residual 0.5) is not written as a root."""
    with pytest.raises(NumericalError, match=re.escape(
            "branch n=3: 200 polish steps left |lambda| = 5.000e-01 above tol = 1e-10 in the "
            "bracket [0, 6.22302e+239]")):
        _polish_bracket(lambda e: -0.5 if e < 1.0 else 0.5, 0.0, 1e300, -0.5, 0.5, 1e-10, 3)


def test_root_count_stable_under_grid_doubling():
    osc = oscillator_model(1.0, 1.0, n_max=16)
    a = solve_implicit_spectrum(osc, (0.0, 10.0), tol=1e-10)
    b = solve_implicit_spectrum(osc, (0.0, 10.0), tol=1e-10, grid=20_000)
    assert len(a.discrete) == len(b.discrete) == 10
    cou = coulomb_model(1.0, 1.0, 1.0, 5)
    a = solve_implicit_spectrum(cou, (-0.6, -0.015), tol=1e-10)
    b = solve_implicit_spectrum(cou, (-0.6, -0.015), tol=1e-10, grid=20_000)
    assert len(a.discrete) == len(b.discrete) == 5


def test_assemble_identity_pencil():
    res = assemble_from_algebra([np.eye(3), np.diag([1.0, 2.0, 3.0])],
                                lambda e: [e, -1.0], (0.0, 4.0), tol=1e-8)
    np.testing.assert_allclose([r[1] for r in res.discrete], [1.0, 2.0, 3.0], atol=1e-10)
    assert all(r[2] <= 1e-8 for r in res.discrete)


def test_assemble_linear_pencil():
    m = np.diag([1.0, 2.0])
    n = np.diag([2.0, 2.0])
    res = assemble_from_algebra([m, n], lambda e: [e, -1.0], (0.0, 3.0), tol=1e-8)
    np.testing.assert_allclose([r[1] for r in res.discrete], [1.0, 2.0], atol=1e-10)


def test_assemble_oscillator_lower_half_and_route_agreement():
    h = truncated_oscillator(64)
    sv = assemble_from_algebra([np.eye(64), h], lambda e: [-e, 1.0],
                               (0.0, 32.0), tol=1e-8)
    roots_sv = np.array([r[1] for r in sv.discrete])
    assert len(roots_sv) == 32
    lam = solve_implicit_spectrum(oscillator_model(1.0, 1.0, n_max=32), (0.0, 32.0), tol=1e-12)
    roots_lam = np.array([r[1] for r in lam.discrete])
    # the two routes agree on the truncation-clean lower half
    assert np.max(np.abs(roots_sv - roots_lam) / np.abs(roots_lam)) <= 1e-8


def test_assembled_pencil_finds_the_roots_of_a_loop_built_one(monkeypatch):
    """I(E) as one contraction against I(E) summed matrix by matrix (the
    oracle loop, swapped in for the contraction) on criterion 7's 64-level
    oscillator."""
    args = ([np.eye(64), truncated_oscillator(64)], lambda e: [-e, 1.0], (0.0, 32.0))
    contracted = [r[1] for r in assemble_from_algebra(*args, tol=1e-8).discrete]
    calls = []

    def loop_sum(c, mats, axes):
        calls.append(axes)
        return operator_sum(c, mats)

    monkeypatch.setattr(spectra.np, "tensordot", loop_sum)
    looped = [r[1] for r in assemble_from_algebra(*args, tol=1e-8).discrete]
    monkeypatch.undo()
    assert calls and set(calls) == {1}
    assert len(contracted) == len(looped) == 32
    np.testing.assert_allclose(contracted, looped, rtol=1e-12, atol=0)


def test_bad_model_configs():
    with pytest.raises(ConfigError):
        ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: e)
    with pytest.raises(ConfigError):
        ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: e,
                              xi=lambda n, e: 1.0, indices=[0],
                              xi_min=lambda e: 0.0, xi_max=lambda e: 1.0)
    with pytest.raises(ConfigError):
        solve_implicit_spectrum(oscillator_model(), (1.0, 1.0))
    with pytest.raises(ConfigError):
        assemble_from_algebra([np.eye(2)], lambda e: [1.0, 2.0], (0.0, 1.0))


# ------------------------------------------------------ array scan vs oracle


def pointwise_scan(model, interval, tol=1e-10, grid=DEFAULT_GRID):
    """The scalar scan: m, k and xi called once per grid point, sign changes
    and solution runs found by walking the grid.  The bracket polish and the
    duplicate collapse are the solver's own, so this checks the scan alone."""
    e_lo, e_hi = float(interval[0]), float(interval[1])
    es = np.linspace(e_lo, e_hi, grid)
    m_vals = np.array([model.m(e) for e in es])
    k_vals = np.array([model.k(e) for e in es])
    warnings, roots = [], []
    if model.xi is not None:
        for n in model.indices:
            def lam(e, n=n):
                return model.m(e) * model.xi(n, e) - model.k(e)
            vals = m_vals * np.array([model.xi(n, e) for e in es]) - k_vals
            scale = max(1.0, float(np.max(np.abs(vals))))
            signs = np.sign(vals)
            for i in range(len(es) - 1):
                if signs[i] == 0.0:
                    roots.append((n, float(es[i]), abs(vals[i])))
                elif signs[i] * signs[i + 1] < 0:
                    root, fr = _polish_bracket(lam, float(es[i]), float(es[i + 1]),
                                               float(vals[i]), float(vals[i + 1]), tol, n)
                    roots.append((n, root, abs(fr)))
            if signs[-1] == 0.0:
                roots.append((n, float(es[-1]), abs(vals[-1])))
            for j in range(1, len(es) - 1):
                v = abs(vals[j])
                if (v < 1e-6 * scale and v < abs(vals[j - 1]) and v < abs(vals[j + 1])
                        and signs[j - 1] * signs[j] > 0 and signs[j] * signs[j + 1] > 0):
                    warnings.append(
                        f"branch n={n}: |lambda| dips to {v:.3e} near "
                        f"E = {es[j]:.6g} without a sign change; possible tangency "
                        f"(multiplicity uncertain) — refine the grid beyond {grid} points"
                    )
        last = list(model.indices)[-1]
        if [r for r in roots if r[0] == last]:
            warnings.append(f"branches above n_max={last} may have roots in "
                            f"[{e_lo:g}, {e_hi:g}]; raise n_max")
        return _dedupe(roots), [], warnings

    def inside(e):
        lo = model.m(e) * model.xi_min(e) - model.k(e)
        hi = model.m(e) * model.xi_max(e) - model.k(e)
        return min(lo, hi) <= 0.0 <= max(lo, hi)

    def edge(a, b):  # a outside, b inside
        for _ in range(80):
            mid = 0.5 * (a + b)
            if inside(mid):
                b = mid
            else:
                a = mid
        return b

    flags = [inside(e) for e in es]
    intervals = []
    i = 0
    while i < grid:
        if flags[i]:
            j = i
            while j + 1 < grid and flags[j + 1]:
                j += 1
            a = edge(es[i - 1], es[i]) if i > 0 else es[0]
            b = edge(es[j + 1], es[j]) if j < grid - 1 else es[-1]
            intervals.append((float(a), float(b)))
            i = j + 1
        else:
            i += 1
    return [], intervals, warnings


def two_band_model():
    # 1 <= (E - 2)^2 <= 4: bands [0, 1] and [3, 4]
    return ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: (e - 2.0) ** 2,
                                 xi_min=lambda e: 1.0, xi_max=lambda e: 4.0)


ORACLE_CASES = {
    "readme oscillator": (oscillator_model(), (0.0, 10.0), {}),
    "oscillator n32": (oscillator_model(1.0, 1.0, n_max=32), (0.0, 32.0), {"tol": 1e-12}),
    "oscillator n10": (oscillator_model(1.0, 1.0, n_max=10), (0.0, 10.0), {"tol": 1e-12}),
    "oscillator n16 fine": (oscillator_model(1.0, 1.0, n_max=16), (0.0, 10.0), {"grid": 20_000}),
    "coulomb default": (coulomb_model(), (-0.6, -0.015), {}),
    "coulomb n5": (coulomb_model(1.0, 1.0, 1.0, 5), (-0.6, -0.015), {"tol": 1e-12}),
    "coulomb n6": (coulomb_model(n_max=6), (-0.6, -0.015), {"tol": 1e-12}),
    "coulomb n5 fine": (coulomb_model(1.0, 1.0, 1.0, 5), (-0.6, -0.015), {"grid": 20_000}),
    "free particle": (free_particle_model(4.0, 1.0, 3.0), (0.0, 10.0), {}),
    "integer branch": (ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: e,
                                             xi=lambda n, e: float(n), indices=range(11)),
                       (-0.5, 10.5), {"tol": 1e-12}),
    "tangency": (ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: -((e - 3.0) ** 2),
                                       xi=lambda n, e: 0.0, indices=[0]), (0.0, 6.0), {}),
    "duplicates": (ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: 0.0,
                                         xi=lambda n, e: (n + 1.0) * (1.0 - e), indices=[0, 1]),
                   (0.0, 2.0), {"tol": 1e-12}),
    # every root on a grid node, the first and last nodes included
    "roots on grid nodes": (ImplicitSpectralModel(m=lambda e: 1.0, k=lambda e: e,
                                                  xi=lambda n, e: float(n), indices=range(11)),
                            (0.0, 10.0), {"grid": 11}),
    "two bands at the ends": (two_band_model(), (0.5, 3.5), {}),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_array_scan_matches_pointwise_oracle(name):
    model, interval, kwargs = ORACLE_CASES[name]
    res = solve_implicit_spectrum(model, interval, **kwargs)
    discrete, continuous, warnings = pointwise_scan(model, interval, **kwargs)
    assert res.discrete == discrete
    assert res.continuous == continuous
    assert res.warnings == warnings
    assert res.discrete or res.continuous or res.warnings


def test_grid_node_roots_and_two_bands():
    res = solve_implicit_spectrum(ORACLE_CASES["roots on grid nodes"][0], (0.0, 10.0), grid=11)
    assert res.discrete == [(n, float(n), 0.0) for n in range(11)]
    res = solve_implicit_spectrum(two_band_model(), (0.5, 3.5))
    assert len(res.continuous) == 2
    (a0, b0), (a1, b1) = res.continuous
    assert (a0, b1) == (0.5, 3.5)
    assert b0 == pytest.approx(1.0, abs=1e-12) and a1 == pytest.approx(3.0, abs=1e-12)


def counted(model, calls):
    """The model with each function wrapped to log (name, E is an array)."""
    def wrap(name, f):
        def g(*args):
            calls.append((name, np.ndim(args[-1]) > 0))
            return f(*args)
        return g
    fields = ("m", "k", "xi", "xi_min", "xi_max")
    return ImplicitSpectralModel(
        indices=model.indices,
        **{f: wrap(f, getattr(model, f)) for f in fields if getattr(model, f) is not None})


@pytest.mark.parametrize("model, interval, branches", [
    (oscillator_model(), (0.0, 10.0), 33),
    (coulomb_model(), (-0.6, -0.015), 8),
    (free_particle_model(4.0, 1.0, 3.0), (0.0, 10.0), 2),
])
def test_scan_calls_model_once_per_branch_not_per_grid_point(model, interval, branches):
    calls = []
    solve_implicit_spectrum(counted(model, calls), interval, grid=DEFAULT_GRID)
    on_grid = [name for name, is_array in calls if is_array]
    # m and k once on the whole grid, then each branch (or range end) once
    assert len(on_grid) == 2 + branches
    assert on_grid[:2] == ["m", "k"]
    # the rest are root polish and band-edge bisection at single E values,
    # a number set by the roots found, not by the grid
    assert len(calls) < DEFAULT_GRID // 4
