"""Kicked top and Lyapunov diagnostics against the classical map oracle.

The variational flow of a spin coherent family under precession + J_z^2
torsion IS the classical kicked top on the Bloch sphere (the torsion strength
is normalized by 1/(n-1)), so every quantity here has an independent
classical oracle: the period map, and Benettin exponents in the chaotic
(k = 3, lambda ~ 0.35) and regular (k = 0.5, lambda ~ 0) regimes.  The
continuous driver carries the integrator's step across renormalizations; the
route that probes a fresh step on every segment stays as its oracle (running
estimates within 10 rtol).
"""

import math

import numpy as np
import pytest

from oracles import (FiniteDifferenceEnergy, bloch_vector, kicked_top_classical_lyapunov,
                     kicked_top_classical_step, spin_monomial_embed)
from labels import chart_point, label
from cohspace.chaos import (
    KickedTop,
    apply_kick,
    lyapunov_continuous,
    lyapunov_kicked,
    spinor_from_bloch,
)
from cohspace.errors import ConfigError
from cohspace.kernels import klauder_space, spin_space
from cohspace.reps import SpinRep
from cohspace.tdvp import (
    MatrixExpectation,
    SphereChart,
    chart_for,
    chart_rhs,
    charted_solve,
)
from cohspace.chaos import _metric_len

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]]) / 2
SZ = np.diag([0.5, -0.5]).astype(complex)

PREC = np.pi / 2
BLOCH0 = np.array([0.62, 0.4, 0.68]) / np.linalg.norm([0.62, 0.4, 0.68])


def test_spinor_from_bloch_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        p = spinor_from_bloch(s)
        assert np.linalg.norm(p[0][0]) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(bloch_vector(p[0][0]), s, atol=1e-13)


def test_period_map_matches_classical():
    top = KickedTop(6, 3.0, PREC)
    rng = np.random.default_rng(21)
    for _ in range(25):
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        z = spinor_from_bloch(s)
        chart, u = chart_for(top.space, z)
        chart, w, _, _ = top.period(chart, u[0], 0.0j)
        got = bloch_vector(chart_point(chart, [w])[0][0])
        np.testing.assert_allclose(got, kicked_top_classical_step(s, 3.0, PREC), atol=1e-10)


def test_exact_period_matches_integrated_precession():
    # oracle: the precession integrated as the variational flow of p J_y
    # (rtol 1e-12) and then kicked; starts include the preimages of both
    # poles, whose images land at the start chart's pole or its origin
    cases = set()
    rng = np.random.default_rng(17)
    for n in (6, 20):
        for p in (np.pi / 2, 1.0, 2.5):
            top = KickedTop(n, kick=float(rng.uniform(0.5, 6.0)), precession=p)
            energy = MatrixExpectation(p * SpinRep(n).dgamma(SY))
            poles = [np.array([np.sin(p), 0.0, -np.cos(p)]), np.array([-np.sin(p), 0.0, np.cos(p)])]
            starts = [pole + eps * rng.standard_normal(3) for pole in poles for eps in (1e-3, 1e-7)]
            starts += list(rng.standard_normal((4, 3)))
            for s0 in starts:
                z = spinor_from_bloch(s0)
                chart, u = chart_for(top.space, z)
                w = complex(u[0])
                d = complex(*rng.standard_normal(2))
                ch, wg, dg, switched = top.period(chart, w, d)
                _, ch_i, (wi, di) = charted_solve(chart, energy, np.array([w, d]), (0.0, 1.0),
                                                  1e-12, 1e-14, tangent=True)
                wi, di = apply_kick(wi, di, top.kick)
                np.testing.assert_allclose(bloch_vector(chart_point(ch, [wg])[0][0]),
                                           bloch_vector(chart_point(ch_i, [wi])[0][0]),
                                           atol=1e-10)
                ell = _metric_len(ch_i, wi, di)
                assert abs(_metric_len(ch, wg, dg) - ell) <= 1e-10 * ell
                if ch_i.south != ch.south:   # the tangent itself, in the exact map's chart
                    wi, di = SphereChart.transition(np.array([wi, di]))
                assert abs(dg - di) <= 1e-10 * abs(di)
                cases.add((chart.south, switched))
    assert cases == {(False, 0), (False, 1), (True, 0), (True, 1)}


def test_kick_jacobian_matches_fd():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        w = complex(*rng.normal(scale=0.9, size=2))
        k = float(rng.uniform(0.3, 4.0))
        for d0 in (1.0 + 0.0j, 1.0j):
            _, dd = apply_kick(w, d0, k)
            fp, _ = apply_kick(w + h * d0, 0.0j, k)
            fm, _ = apply_kick(w - h * d0, 0.0j, k)
            fd = (fp - fm) / (2 * h)
            assert abs(dd - fd) <= 1e-7 * (1 + abs(dd))


def test_tangent_flow_matches_flowmap_fd():
    # three full periods, crossing one chart switch; the propagated tangent
    # must agree with central differences of the period map itself
    top = KickedTop(6, 0.8, PREC)
    z = spinor_from_bloch(np.array([0.2, 0.1, 0.97]) / np.linalg.norm([0.2, 0.1, 0.97]))
    chart0, u0 = chart_for(top.space, z)
    w0 = complex(u0[0])

    def flow3(w, d):
        ch, ww, dd = chart0, w, d
        for _ in range(3):
            ch, ww, dd, _ = top.period(ch, ww, dd)
        return ww, dd

    h = 1e-6
    for d0 in (1.0 + 0.0j, 1.0j):
        _, dd = flow3(w0, d0)
        wp, _ = flow3(w0 + h * d0, 0.0j)
        wm, _ = flow3(w0 - h * d0, 0.0j)
        fd = (wp - wm) / (2 * h)
        assert abs(dd - fd) <= 1e-7 * (1 + abs(dd))


def _tangent_field(chart, energy):
    """f(w) -> (F, A, B) of the tangent RHS [F, A dw + B conj(dw)], read off
    at dw = 1 and dw = i."""
    rhs = chart_rhs(chart, energy.on(chart), 1.0, tangent=True)

    def fab(w):
        f, at_1 = rhs(0.0, np.array([w, 1.0]))
        _, at_i = rhs(0.0, np.array([w, 1.0j]))
        return f, (at_1 - 1j * at_i) / 2, (at_1 + 1j * at_i) / 2

    return fab


def test_linearized_field_fd_route_consistent():
    n = 6
    rep = SpinRep(n)
    ham = rep.dgamma(SZ) + 0.4 * (rep.dgamma(SX) @ rep.dgamma(SX))

    def h_fn(z):
        v = spin_monomial_embed(n, z)
        return (np.vdot(v, ham @ v) / np.vdot(v, v)).real

    chart = SphereChart(n)
    analytic = _tangent_field(chart, MatrixExpectation(ham))
    fd = _tangent_field(chart, FiniteDifferenceEnergy(h_fn))
    for w in (0.3 + 0.2j, -0.8 + 0.5j, 1.4 - 0.9j):
        fa, aa, ba = analytic(w)
        fb, ab, bb = fd(w)
        assert abs(fa - fb) <= 1e-8 * (1 + abs(fa))
        assert abs(aa - ab) <= 2e-3 * (1 + abs(aa))
        assert abs(ba - bb) <= 2e-3 * (1 + abs(ba))


def test_chaotic_top_exponent():
    top = KickedTop(6, 3.0, PREC)
    res = lyapunov_kicked(top, spinor_from_bloch(BLOCH0), n_periods=500)
    assert res.exponent > 0.1
    assert res.chart_switches > 0
    classical = kicked_top_classical_lyapunov(BLOCH0, 3.0, PREC, 500)
    assert abs(res.exponent - classical) <= 0.05
    assert res.segments == 500
    assert res.running[-1] == pytest.approx(res.exponent)
    assert np.all(np.diff(res.times) > 0)


def test_regular_top_exponent():
    top = KickedTop(6, 0.5, PREC)
    res = lyapunov_kicked(top, spinor_from_bloch(BLOCH0), n_periods=500)
    assert abs(res.exponent) < 0.02
    classical = kicked_top_classical_lyapunov(BLOCH0, 0.5, PREC, 500)
    assert abs(res.exponent - classical) <= 0.005


@pytest.mark.parametrize("system", ["kicked", "continuous"])
def test_segment_times_and_running_means(monkeypatch, system):
    # times are the sequential sums of the segment length, bit for bit; each
    # running estimate is the sum of the logged metric lengths over its time
    from cohspace import chaos

    lengths = []
    monkeypatch.setattr(chaos, "_metric_len",
                        lambda *args: lengths.append(_metric_len(*args)) or lengths[-1])
    if system == "kicked":
        res = lyapunov_kicked(KickedTop(6, 3.0, PREC), spinor_from_bloch(BLOCH0), n_periods=12)
        want = np.arange(1, 13, dtype=float)
    else:
        res = lyapunov_continuous(spin_space(4), MatrixExpectation(1.3 * SpinRep(4).dgamma(SX)),
                                  spinor_from_bloch(BLOCH0), t_total=0.8, resample=0.1)
        want, t = [], 0.0
        for _ in range(8):
            t += 0.1
            want.append(t)
        want = np.array(want)
    assert res.times.tobytes() == want.tobytes()
    logs = [math.log(ell) for ell in lengths[1:]]   # lengths[0] normalizes the seed tangent
    assert len(logs) == res.segments
    assert res.running.tobytes() == (np.cumsum(logs) / want).tobytes()


def test_continuous_integrable_flow():
    n = 6
    rep = SpinRep(n)
    ham = rep.dgamma(SZ) + 0.4 * (rep.dgamma(SX) @ rep.dgamma(SX))
    z0 = spinor_from_bloch([0.5, 0.3, 0.81])
    res = lyapunov_continuous(spin_space(n), MatrixExpectation(ham), z0,
                              t_total=480.0, resample=4.0, rtol=1e-8)
    assert abs(res.exponent) < 0.02
    assert res.tail_gap < 0.01


def test_continuous_linear_flow_zero_exponent():
    res = lyapunov_continuous(
        klauder_space(1),
        MatrixExpectation(1.3 * np.diag(np.arange(64.0))),
        label([0.0, 0.7 + 0.2j]),
        t_total=16.0,
        resample=2.0,
        rtol=1e-10,
    )
    assert abs(res.exponent) < 1e-9


def _restart_route(space, energy, z0, t_total, resample, rtol, seed=7):
    """Oracle: the Benettin loop with a fresh initial-step probe on every
    segment, as the continuous driver ran before it carried the step."""
    from cohspace import chaos

    def advance(chart, w, delta):
        segments, chart, (w, delta) = charted_solve(
            chart, energy, np.array([w, delta]), (0.0, resample), rtol, 1e-12, tangent=True,
            first_step=None)
        steps[0] += sum(sol.stats.steps for _, sol in segments)
        return chart, w, delta, sum(sol.halted for _, sol in segments)

    steps = [0]
    chart, u = chart_for(space, z0)
    res = chaos._benettin(chart, complex(u[0]), advance,
                          round(t_total / resample), resample, np.random.default_rng(seed))
    return res, steps[0]


def _flows_case():
    # the benchmark's continuous Lyapunov job: spin 10 under n.J, n near (0, 0.6, 0.8)
    axis = np.array([0.0, 0.6, 0.8])
    return (spin_space(10), MatrixExpectation(SpinRep(10).dgamma(axis[1] * SY + axis[2] * SZ)),
            label(np.array([0.8, 0.48 + 0.36j])), 15.0)


def _twisting_case():
    # J_z^2 / n + 0.3 J_x at spin 8: a nonlinear flow that switches chart 4 times
    rep = SpinRep(8)
    jz, jx = rep.dgamma(SZ), rep.dgamma(SX)
    return (spin_space(8), MatrixExpectation(jz @ jz / 8 + 0.3 * jx),
            spinor_from_bloch([0.5, 0.8, 0.0]), 40.0)


@pytest.mark.parametrize("case, resample, rtol", [
    ("flows", 1.0, 1e-10),
    ("twisting", 0.25, 1e-8), ("twisting", 0.25, 1e-10),
    ("twisting", 1.0, 1e-8), ("twisting", 1.0, 1e-10),
])
def test_carried_step_agrees_with_the_restart_route(case, resample, rtol):
    space, energy, z0, t_total = _flows_case() if case == "flows" else _twisting_case()
    carried = lyapunov_continuous(space, energy, z0, t_total=t_total, resample=resample,
                                  rtol=rtol)
    restarted, restarted_steps = _restart_route(space, energy, z0, t_total, resample, rtol)
    assert carried.chart_switches == restarted.chart_switches
    assert case == "flows" or carried.chart_switches == 4
    assert carried.times.tobytes() == restarted.times.tobytes()
    assert np.abs(carried.running - restarted.running).max() <= 10 * rtol
    # the carried run costs at most one uninterrupted solve of the tangent
    # system plus a step per segment; the restart route does not
    chart, u = chart_for(space, z0)
    segments, _, _ = charted_solve(chart, energy, np.array([complex(u[0]), 1.0]),
                                   (0.0, t_total), rtol, 1e-12, tangent=True)
    bound = sum(sol.stats.steps for _, sol in segments) + carried.segments
    assert carried.stats.steps <= bound < restarted_steps


def test_each_form_stack_is_built_once_per_chart_side(monkeypatch):
    # 160 Benettin segments and 4 chart switches: one form stack per side
    from cohspace import tdvp

    builds = []
    build = tdvp._form_stack

    def counted(h, power, jet):
        builds.append((power.tobytes(), jet.tobytes()))
        return build(h, power, jet)

    monkeypatch.setattr(tdvp, "_form_stack", counted)
    space, energy, z0, t_total = _twisting_case()
    res = lyapunov_continuous(space, energy, z0, t_total=t_total, resample=0.25, rtol=1e-8)
    assert res.segments == 160 and res.chart_switches == 4
    assert len(builds) == len(set(builds)) == 2


@pytest.mark.parametrize("t_total", [2.0, 1.3])
def test_segment_count_must_be_whole(t_total):
    # resample 0.3 divides neither: 2.0 used to run to t = 2.1, and 1.3 to t = 1.2
    with pytest.raises(ConfigError, match="'t_total'.*'resample'"):
        lyapunov_continuous(spin_space(4), MatrixExpectation(1.3 * SpinRep(4).dgamma(SX)),
                            spinor_from_bloch(BLOCH0), t_total=t_total, resample=0.3)


def test_config_errors():
    with pytest.raises(ConfigError):
        KickedTop(0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        lyapunov_kicked(KickedTop(4, 1.0, 1.0), spinor_from_bloch([0, 0, 1]), n_periods=2)
    with pytest.raises(ConfigError):
        lyapunov_continuous(spin_space(4), MatrixExpectation(np.eye(5)),
                            spinor_from_bloch([0, 0, 1]), t_total=2.0, resample=2.0)
    with pytest.raises(ConfigError, match="dimension"):
        MatrixExpectation(np.eye(3)).on(SphereChart(4))
