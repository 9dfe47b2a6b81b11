"""Variational-flow checks: charts, Kaehler metric, Dirac-Frenkel dynamics.

Exactness oracles: group-orbit Hamiltonians keep coherent families coherent,
so the variational flow must reproduce the exact coherent flow to integrator
accuracy (spin precession w(t) = exp(i w t) w0, oscillator zeta(t) =
exp(-i w t) zeta0, driven oscillator closed form).  Metric values are checked
against finite differences of the log-kernel written out independently here.
"""

import math

import numpy as np
import pytest

from cohspace.dynamics import LinearHamiltonianFlow, coherent_flow
from cohspace.errors import DegenerateMetricError, IntegratorFailure
from cohspace.kernels import (
    Point,
    eval_kernel,
    klauder_space,
    power_space,
    sample_points,
    spin_space,
    trivial_space,
)
from cohspace.reps import FockRep, SpinRep
from cohspace.tdvp import (
    CallableExpectation,
    FlatChart,
    MatrixExpectation,
    SphereChart,
    bloch_vector,
    chart_for,
    chart_rhs,
    dirac_frenkel_flow,
    kahler_metric,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]]) / 2
SZ = np.diag([0.5, -0.5]).astype(complex)


def unit_spinor(a, b):
    v = np.array([a, b], dtype=complex)
    return Point(v / np.linalg.norm(v))


# ------------------------------------------------------------------- charts


def test_sphere_chart_roundtrip_and_embedding():
    for south in (False, True):
        chart = SphereChart(5, south=south)
        u = np.array([0.6 - 1.1j])
        p = chart.point(u)
        assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(chart.coords(p), u, atol=1e-14)
        # embedding is the unnormalized monomial lift: proportional to the
        # representation embedding of the chart point, scale s^n
        v = chart.embedding(u)
        s = 1.0 / np.sqrt(1.0 + abs(u[0]) ** 2)
        np.testing.assert_allclose(SpinRep(5).embed(p), v * s**5, atol=1e-14)


def test_flat_chart_embedding_matches_fock():
    chart = FlatChart(1, z0=0.15 + 0.1j)
    u = np.array([0.7 - 0.35j])
    np.testing.assert_allclose(
        chart.embedding(u), FockRep(64).embed(chart.point(u)), atol=1e-14
    )
    # inner products of embeddings reproduce the kernel
    sp = klauder_space(1)
    b = np.array([-0.2 + 0.55j])
    lhs = np.vdot(chart.embedding(u), chart.embedding(b))
    rhs = eval_kernel(sp, chart.point(u), chart.point(b))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# ------------------------------------------------------------------- metric


def test_spin_metric_matches_fd_of_log_kernel():
    n = 4
    sp = spin_space(n)
    chart = SphereChart(n)
    u = np.array([0.7 - 0.3j])

    def logk(a, b):
        return np.log(eval_kernel(sp, chart.point(np.array([a])), chart.point(np.array([b]))))

    h = 1e-4
    fd = (
        logk(u[0] + h, u[0] + h)
        - logk(u[0] + h, u[0] - h)
        - logk(u[0] - h, u[0] + h)
        + logk(u[0] - h, u[0] - h)
    ) / (4 * h * h)
    g = chart.scalar_metric(u[0])
    assert g == pytest.approx(n / (1 + abs(u[0]) ** 2) ** 2)
    assert fd.real == pytest.approx(g, rel=1e-6)


def test_metric_dispatch_values():
    np.testing.assert_array_equal(kahler_metric(klauder_space(2), Point([0.1, 0.2j, 0.3])), np.eye(2))
    pole = kahler_metric(spin_space(5), unit_spinor(1.0, 0.0))
    np.testing.assert_allclose(pole, [[5.0]], atol=1e-14)
    z = unit_spinor(1.0, 0.45 - 0.2j)
    doubled = kahler_metric(power_space(spin_space(3), 2), z)
    direct = kahler_metric(spin_space(6), z)
    np.testing.assert_allclose(doubled, direct, atol=1e-13)


def test_trivial_metric_degenerate():
    z = Point([0.5 + 0.2j, -0.3j, 1.1])
    with pytest.raises(DegenerateMetricError) as exc:
        kahler_metric(trivial_space(3), z)
    nulls = exc.value.null_directions
    assert len(nulls) == 1
    overlap = abs(np.vdot(nulls[0], z.coords)) / np.linalg.norm(z.coords)
    assert overlap > 0.999


def test_metric_positive_at_samples():
    rng = np.random.default_rng(11)
    pts = sample_points(klauder_space(2), rng, 50) + sample_points(spin_space(4), rng, 50)
    for sp, p in zip([klauder_space(2)] * 50 + [spin_space(4)] * 50, pts):
        g = kahler_metric(sp, p)
        assert np.linalg.eigvalsh(g)[0] > 0.0


# --------------------------------------------------------- energy surfaces


def wirtinger_conj_fd(f, u, h=1e-6):
    e = np.array([1.0])
    dre = (f(u + h * e) - f(u - h * e)) / (2 * h)
    dim_ = (f(u + 1j * h * e) - f(u - 1j * h * e)) / (2 * h)
    return 0.5 * (dre + 1j * dim_)


def test_matrix_expectation_grad_matches_fd():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    ham = a + a.conj().T
    derivs = MatrixExpectation(ham).on(SphereChart(4))
    u = np.array([0.4 + 0.9j])
    fd = wirtinger_conj_fd(lambda x: derivs(x, 0)[0], u)
    got = derivs(u, 1)[1][0]
    assert abs(got - fd) <= 1e-6 * (1 + abs(got))

    derivs2 = MatrixExpectation(np.diag(np.arange(64, dtype=float))).on(FlatChart(1))
    u2 = np.array([0.8 - 0.3j])
    fd2 = wirtinger_conj_fd(lambda x: derivs2(x, 0)[0], u2)
    got2 = derivs2(u2, 1)[1][0]
    assert abs(got2 - fd2) <= 1e-6 * (1 + abs(got2))
    # for the number operator h = |zeta|^2, so the conj-gradient is zeta
    assert got2 == pytest.approx(u2[0], abs=1e-12)


def test_matrix_expectation_second_derivatives():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    ham = a + a.conj().T
    derivs = MatrixExpectation(ham).on(SphereChart(5))
    u = np.array([0.3 - 0.65j])
    h_val, grad, mixed, grad2 = derivs(u, 2)
    assert h_val == pytest.approx(derivs(u, 0)[0], abs=1e-13)
    assert grad == pytest.approx(derivs(u, 1)[1][0], abs=1e-13)

    h = 1e-5
    gp = derivs(u + np.array([h]), 1)[1][0]
    gm = derivs(u - np.array([h]), 1)[1][0]
    gip = derivs(u + np.array([1j * h]), 1)[1][0]
    gim = derivs(u - np.array([1j * h]), 1)[1][0]
    dx = (gp - gm) / (2 * h)
    dy = (gip - gim) / (2 * h)
    assert mixed == pytest.approx((dx - 1j * dy) / 2, rel=1e-5, abs=1e-8)
    assert grad2 == pytest.approx((dx + 1j * dy) / 2, rel=1e-5, abs=1e-8)


# One jet per evaluation against the per-order route it replaced: one
# embedding call per derivative order (coef_m * w ** power_m from the chart's
# derivative table), one mat-vec per ket and one vdot per moment.


def _per_order_embedding(chart, u, order):
    coef, power, _ = chart._table
    v = coef[order] * u[0] ** power[order]
    return v / chart._fact if isinstance(chart, FlatChart) else v


def _per_order_route(ham, chart, u):
    """(h, dh/dwbar, d2h/(dw dwbar), d2h/dwbar2) by the per-order route."""
    v, v1, v2 = (_per_order_embedding(chart, u, m) for m in range(3))
    hv, hv1 = ham @ v, ham @ v1
    num, den = complex(np.vdot(v, hv)), complex(np.vdot(v, v))
    dn, dd = complex(np.vdot(v1, hv)), complex(np.vdot(v1, v))
    dn_h, dd_h = complex(np.vdot(v, hv1)), complex(np.vdot(v, v1))
    dndn_h, dddd_h = complex(np.vdot(v1, hv1)), complex(np.vdot(v1, v1))
    dn2, dd2 = complex(np.vdot(v2, hv)), complex(np.vdot(v2, v))
    p = dn * den - num * dd
    dp_h = dndn_h * den + dn * dd_h - dn_h * dd - num * dddd_h
    dp_b = dn2 * den - num * dd2
    return ((num / den).real, p / den ** 2, (dp_h * den - 2.0 * p * dd_h) / den ** 3,
            (dp_b * den - 2.0 * p * dd) / den ** 3)


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


_ONE_JET_CHARTS = [(SphereChart(n, south=south), f"sphere{n}-{'south' if south else 'north'}")
                   for n in (1, 4, 10, 40) for south in (False, True)]
_ONE_JET_CHARTS.append((FlatChart(1, z0=0.2 - 0.1j), "flat"))
_ONE_JET_POINTS = (0.0j, 0.3 - 0.2j, -1.1 + 0.7j, 1.6 + 1.2j)   # up to the switch radius 2


@pytest.mark.parametrize("chart", [c for c, _ in _ONE_JET_CHARTS],
                         ids=[name for _, name in _ONE_JET_CHARTS])
def test_one_jet_agrees_with_the_per_order_route(chart):
    d = len(_per_order_embedding(chart, np.array([0.5j]), 0))
    ham = _random_hermitian(np.random.default_rng(d), d)
    derivs = MatrixExpectation(ham).on(chart)
    for w in _ONE_JET_POINTS:
        u = np.array([w])
        jet = chart.jet(u[0], 2)
        for m in range(3):  # same arithmetic per component: bit-equal rows
            assert jet[m].tobytes() == _per_order_embedding(chart, u, m).tobytes()
            assert chart.embedding(u, m).tobytes() == jet[m].tobytes()
        want = _per_order_route(ham, chart, u)
        (h0,), (h1, (grad,)) = derivs(u, 0), derivs(u, 1)
        got = (h0, h1, grad) + derivs(u, 2)
        for value, ref in zip(got, (want[0], want[0], want[1]) + want):
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (w, got, want)


@pytest.mark.parametrize("chart", [SphereChart(40), SphereChart(7, south=True),
                                   FlatChart(1, z0=0.1j)], ids=["n40", "n7-south", "flat"])
def test_batched_sample_energies_match_chart_value(chart):
    rng = np.random.default_rng(3)
    d = len(chart.embedding(np.array([0.0j])))
    en = MatrixExpectation(_random_hermitian(rng, d))
    us = (rng.uniform(-1.4, 1.4, size=(25, 1)) + 1j * rng.uniform(-1.4, 1.4, size=(25, 1)))
    got = en.chart_values(chart, us)
    derivs = en.on(chart)
    want = np.array([derivs(u, 0)[0] for u in us])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))
    assert en.chart_values(chart, us[:0]).shape == (0,)


# The bound evaluator against the per-call composition it replaced, written
# out here: moments from one jet per call, the state velocity grad / g /
# (i hbar), and the tangent field F, A, B of the second-derivative formulas.


def _old_moments(ham, chart, w, order):
    jet = chart.jet(w, order)
    d = jet.shape[-1]
    kets = np.dot(jet[0] if order < 2 else jet[:2], np.concatenate((ham.T, np.eye(d)), axis=1))
    return np.dot(jet.conj(), kets.reshape(-1, d).T).tolist()


def _old_state_rhs(ham, chart, u, hbar):
    (num, den), (dnum, dden) = _old_moments(ham, chart, u[0], 1)
    den = den.real
    grad = np.array([(dnum * den - num * dden) / den ** 2])
    return grad / chart.scalar_metric(u[0]) / (1j * hbar)


def _old_tangent_rhs(ham, chart, y, hbar):
    w = y[0]
    g, g_w = chart.scalar_metric(w), chart.metric_dw(w)
    (num, den, dn_h, dd_h), (dn, dd, dndn_h, dddd_h), (dn2, dd2, _, _) = \
        _old_moments(ham, chart, np.array([w])[0], 2)
    p = dn * den - num * dd
    grad = p / den ** 2
    dp_h = dndn_h * den + dn * dd_h - dn_h * dd - num * dddd_h
    dp_b = dn2 * den - num * dd2
    mixed = (dp_h * den - 2.0 * p * dd_h) / den ** 3
    grad2 = (dp_b * den - 2.0 * p * dd) / den ** 3
    scale = 1.0 / (1j * hbar * g * g)
    f = grad / (1j * hbar * g)
    a = (mixed * g - grad * g_w) * scale
    b = (grad2 * g - grad * np.conj(g_w)) * scale
    return np.array([f, a * y[1] + b * np.conj(y[1])])


@pytest.mark.parametrize("n", [1, 4, 40])
def test_chart_rhs_is_the_old_composition_bit_for_bit(n):
    rng = np.random.default_rng(n)
    en = MatrixExpectation(_random_hermitian(rng, n + 1))
    for south in (False, True):
        chart = SphereChart(n, south=south)
        derivs = en.on(chart)
        state = chart_rhs(chart, derivs, 0.7)
        tangent = chart_rhs(chart, derivs, 0.7, tangent=True)
        points = rng.uniform(-1.5, 1.5, (200, 2)) + 1j * rng.uniform(-1.5, 1.5, (200, 2))
        for w, dw in points:
            u, y = np.array([w]), np.array([w, dw])
            assert state(0.0, u).tobytes() == _old_state_rhs(en.h, chart, u, 0.7).tobytes()
            assert tangent(0.0, y).tobytes() == _old_tangent_rhs(en.h, chart, y, 0.7).tobytes()


def test_a_wrong_size_operator_fails_when_bound(monkeypatch):
    from cohspace import tdvp
    from cohspace.chaos import lyapunov_continuous
    from cohspace.errors import ConfigError

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_rk45 ran")

    monkeypatch.setattr(tdvp, "solve_rk45", no_solve)
    z0, message = unit_spinor(1.0, 0.2), r"operator is \(5, 5\) but the chart embeds into dimension 4"
    with pytest.raises(ConfigError, match=message):
        MatrixExpectation(np.eye(5)).on(SphereChart(3, south=True))
    with pytest.raises(ConfigError, match=message):
        dirac_frenkel_flow(spin_space(3), MatrixExpectation(np.eye(5)), z0, (0.0, 1.0))
    with pytest.raises(ConfigError, match=message):
        lyapunov_continuous(spin_space(3), MatrixExpectation(np.eye(5)), z0, t_total=4.0,
                            resample=1.0)


def test_callable_energy_calls_per_rhs():
    # the velocity costs the stencil's 4 calls per chart coordinate, its h
    # the stencil's mean; the tangent field 21 (value, gradient and the
    # gradient's own stencil)
    calls = []

    def fn(p):
        calls.append(p)
        return float(abs(p.coords[-1]) ** 2 + 0.3 * p.coords[-1].real)

    en = CallableExpectation(fn)
    flat = FlatChart(2)
    chart_rhs(flat, en.on(flat), 1.0)(0.0, np.array([0.3 + 0.1j, -0.2j]))
    assert len(calls) == 8
    chart = SphereChart(4, south=True)
    derivs = en.on(chart)
    calls.clear()
    chart_rhs(chart, derivs, 1.0, tangent=True)(0.0, np.array([0.3 + 0.1j, 1.0]))
    assert len(calls) == 21
    u = np.array([0.4 - 0.2j])
    assert abs(derivs(u, 1)[0] - derivs(u, 0)[0]) <= 1e-10


def test_charts_of_one_side_share_their_table():
    for n in (1, 6):
        north = SphereChart(n)
        assert north.flipped()._table is SphereChart(n, south=True)._table
        assert north.flipped().flipped()._table is north._table


def test_non_hermitian_energy_matrix_rejected():
    from cohspace.errors import ConfigError

    ham = _random_hermitian(np.random.default_rng(1), 5) * 50.0
    MatrixExpectation(ham + 1e-13 * np.eye(5)[::-1] * 1j)  # rounding-level asymmetry passes
    bad = ham.copy()
    bad[3, 1] += 1e-6
    with pytest.raises(ConfigError, match=r"not Hermitian.*1\.000e-06 between entries \(1, 3\) and \(3, 1\)"):
        MatrixExpectation(bad)


# ------------------------------------------------------------------- flows


def test_oscillator_tdvp_matches_exact():
    omega = 1.3
    sp = klauder_space(1)
    z0 = Point([0.1 + 0.05j, 0.8 - 0.4j])
    en = MatrixExpectation(omega * np.diag(np.arange(64, dtype=float)))
    t_eval = np.linspace(0.0, 7.0, 61)
    traj = dirac_frenkel_flow(sp, en, z0, (0.0, 7.0), t_eval=t_eval, rtol=1e-10)
    zeta0 = z0.coords[1]
    exact = zeta0 * np.exp(-1j * omega * t_eval)
    got = np.array([p.coords[1] for p in traj.points])
    np.testing.assert_allclose(got, exact, atol=5e-9)
    # spectator z0 untouched, energies flat, norms constant (|zeta| preserved)
    assert all(p.coords[0] == z0.coords[0] for p in traj.points)
    assert np.max(np.abs(traj.energies - traj.energies[0])) <= 1e-9 * abs(traj.energies[0])
    np.testing.assert_allclose(traj.norms, traj.norms[0], rtol=1e-9)

    # against the exact coherent flow of the same Hamiltonian
    flow = LinearHamiltonianFlow(np.diag([0.0, omega]))
    ref = coherent_flow(sp, flow, z0, (0.0, 7.0), t_eval=t_eval, rtol=1e-10)
    ref_zeta = np.array([p.coords[1] for p in ref.points])
    np.testing.assert_allclose(got, ref_zeta, atol=5e-9)


def test_two_mode_klauder_flow_with_an_energy_callable():
    # the flat chart's metric is the identity for any number of modes
    omega = np.array([0.7, 1.9])
    z0 = Point([0.1, 0.5 + 0.2j, -0.3 + 0.6j])
    energy = CallableExpectation(lambda p: float(omega @ np.abs(p.coords[1:]) ** 2))
    t_eval = np.linspace(0.0, 3.0, 7)
    traj = dirac_frenkel_flow(klauder_space(2), energy, z0, (0.0, 3.0), t_eval=t_eval)
    got = np.array([p.coords[1:] for p in traj.points])
    exact = z0.coords[1:] * np.exp(-1j * np.outer(t_eval, omega))
    np.testing.assert_allclose(got, exact, atol=1e-6)


def test_driven_oscillator_closed_form():
    omega, kappa = 1.1, 0.4
    rep = FockRep(64)
    ham = omega * rep.number() + kappa * (rep.lowering() + rep.lowering().conj().T)
    sp = klauder_space(1)
    z0 = Point([0.0, 0.5 + 0.2j])
    t1 = 4.0
    traj = dirac_frenkel_flow(sp, MatrixExpectation(ham), z0, (0.0, t1),
                              t_eval=[0.0, t1], rtol=1e-11)
    shift = kappa / omega
    zeta_exact = (z0.coords[1] + shift) * np.exp(-1j * omega * t1) - shift
    assert traj.points[-1].coords[1] == pytest.approx(zeta_exact, abs=1e-8)
    # the driven orbit changes |zeta|, so the coherent norm genuinely moves
    assert np.max(traj.norms) - np.min(traj.norms) > 1e-3


def test_spin_precession_tdvp_matches_exact():
    n, omega = 6, 1.7
    sp = spin_space(n)
    z0 = unit_spinor(1.0, 0.35 - 0.2j)
    w0 = z0.coords[1] / z0.coords[0]
    en = MatrixExpectation(omega * SpinRep(n).dgamma(SZ))
    t_eval = np.linspace(0.0, 5.0, 51)
    traj = dirac_frenkel_flow(sp, en, z0, (0.0, 5.0), t_eval=t_eval, rtol=1e-10)
    got = np.array([p.coords[1] / p.coords[0] for p in traj.points])
    np.testing.assert_allclose(got, w0 * np.exp(1j * omega * t_eval), atol=5e-9)

    flow = LinearHamiltonianFlow(omega * SZ)
    ref = coherent_flow(sp, flow, z0, (0.0, 5.0), t_eval=t_eval, rtol=1e-10)
    for p, q in zip(traj.points, ref.points):
        np.testing.assert_allclose(bloch_vector(p), bloch_vector(q), atol=5e-9)


def test_chart_switch_roundtrip():
    n, omega = 4, 1.3
    sp = spin_space(n)
    z0 = unit_spinor(1.0, 0.2)
    en = MatrixExpectation(omega * SpinRep(n).dgamma(SX))
    t_eval = np.linspace(0.0, 6.0, 121)
    traj = dirac_frenkel_flow(sp, en, z0, (0.0, 6.0), t_eval=t_eval, rtol=1e-10)
    assert set(np.unique(traj.chart_flags)) == {0, 1}  # south chart visited

    flow = LinearHamiltonianFlow(omega * SX)
    ref = coherent_flow(sp, flow, z0, (0.0, 6.0), t_eval=t_eval, rtol=1e-10)
    err = max(
        np.max(np.abs(bloch_vector(p) - bloch_vector(q)))
        for p, q in zip(traj.points, ref.points)
    )
    assert err <= 1e-7
    # precession about x keeps <J_x> fixed; energy monitored through switches
    xs = np.array([bloch_vector(p)[0] for p in traj.points])
    np.testing.assert_allclose(xs, xs[0], atol=1e-8)
    drift = np.max(np.abs(traj.energies - traj.energies[0]))
    assert drift <= 1e-8 * abs(traj.energies[0])


def test_samples_do_not_change_the_variational_run():
    # the chart-switching flow of test_chart_switch_roundtrip, sampled at
    # 101 times and at its two ends: same step sequence, same end state
    n, omega = 4, 1.3
    sp = spin_space(n)
    z0 = unit_spinor(1.0, 0.2)
    en = MatrixExpectation(omega * SpinRep(n).dgamma(SX))
    dense = dirac_frenkel_flow(sp, en, z0, (0.0, 6.0), t_eval=np.linspace(0.0, 6.0, 101),
                               rtol=1e-10)
    ends = dirac_frenkel_flow(sp, en, z0, (0.0, 6.0), t_eval=[0.0, 6.0], rtol=1e-10)
    assert np.count_nonzero(np.diff(dense.chart_flags)) >= 2  # switched there and back
    assert dense.stats == ends.stats
    assert dense.points[-1].coords.tobytes() == ends.points[-1].coords.tobytes()
    assert dense.chart_flags[-1] == ends.chart_flags[-1]


def _per_sample_label(chart, u):
    """The chart map of one sample in scalar arithmetic: the oracle for the
    batched chart maps."""
    if isinstance(chart, FlatChart):
        return np.concatenate([[chart.z0], u])
    w = u[0]
    s = 1.0 / math.sqrt(1.0 + abs(w) ** 2)
    return np.array([w * s, s] if chart.south else [s, w * s])


@pytest.mark.parametrize("kind", ["spin", "klauder"])
def test_trajectory_labels_match_the_per_sample_route(monkeypatch, kind):
    from cohspace import tdvp

    runs = []
    solve = tdvp.charted_solve
    monkeypatch.setattr(tdvp, "charted_solve",
                        lambda *args, **kwargs: runs.append(solve(*args, **kwargs)) or runs[-1])
    if kind == "spin":  # the chart-switching flow of test_chart_switch_roundtrip
        sp, z0 = spin_space(4), unit_spinor(1.0, 0.2)
        en = MatrixExpectation(1.3 * SpinRep(4).dgamma(SX))
    else:
        sp, z0 = klauder_space(1), Point([0.1 + 0.05j, 0.8 - 0.4j])
        en = MatrixExpectation(1.3 * np.diag(np.arange(64, dtype=float)))
    traj = dirac_frenkel_flow(sp, en, z0, (0.0, 6.0), t_eval=np.linspace(0.0, 6.0, 121))
    ((segments, _, _),) = runs
    assert len(segments) == (3 if kind == "spin" else 1)
    want = [_per_sample_label(ch, u) for ch, sol in segments for u in sol.states]
    np.testing.assert_allclose(traj.coords, want, rtol=0, atol=1e-15)
    norms = [eval_kernel(sp, p, p).real for p in traj.points]
    np.testing.assert_allclose(traj.norms, norms, rtol=1e-13, atol=0)


def test_energy_conservation_long_run():
    n = 6
    rep = SpinRep(n)
    jx, jz = rep.dgamma(SX), rep.dgamma(SZ)
    ham = jz + 0.4 * (jx @ jx)
    sp = spin_space(n)
    z0 = unit_spinor(1.0, 0.5 + 0.3j)
    traj = dirac_frenkel_flow(sp, MatrixExpectation(ham), z0, (0.0, 200.0),
                              t_eval=np.linspace(0.0, 200.0, 21), rtol=1e-11)
    assert traj.stats.steps >= 10_000
    drift = np.max(np.abs(traj.energies - traj.energies[0]))
    assert drift <= 1e-8 * abs(traj.energies[0])


def test_energy_drift_guard_trips():
    n = 6
    rep = SpinRep(n)
    ham = rep.dgamma(SZ) + 0.4 * (rep.dgamma(SX) @ rep.dgamma(SX))
    sp = spin_space(n)
    z0 = unit_spinor(1.0, 0.5 + 0.3j)
    with pytest.raises(IntegratorFailure, match="energy drift"):
        dirac_frenkel_flow(sp, MatrixExpectation(ham), z0, (0.0, 500.0),
                           t_eval=[0.0, 500.0], rtol=1e-3, atol=1e-6)


def test_callable_route_matches_matrix_route():
    n = 3
    rep = SpinRep(n)
    ham = 0.9 * rep.dgamma(SZ) + 0.5 * rep.dgamma(SX)
    sp = spin_space(n)
    z0 = unit_spinor(1.0, 0.3 + 0.1j)

    def h_fn(p):
        v = rep.embed(p)
        return (np.vdot(v, ham @ v) / np.vdot(v, v)).real

    t_eval = [0.0, 3.0]
    a = dirac_frenkel_flow(sp, MatrixExpectation(ham), z0, (0.0, 3.0), t_eval=t_eval)
    b = dirac_frenkel_flow(sp, CallableExpectation(h_fn), z0, (0.0, 3.0), t_eval=t_eval)
    np.testing.assert_allclose(a.points[-1].coords, b.points[-1].coords, atol=1e-7)


def test_chart_for_rejects_unsupported():
    from cohspace.errors import ConfigError

    with pytest.raises(ConfigError):
        chart_for(trivial_space(2), Point([1.0, 0.0]))
    with pytest.raises(ConfigError):
        chart_for(spin_space(0.5), Point([1.0, 0.0]))
