"""Coherent flows, Schroedinger lifts, Ehrenfest residual."""

import math

import numpy as np
import pytest

import oracles
from cohspace import dynamics, integrate, liealg, tdvp
from cohspace.dynamics import (
    LinearHamiltonianFlow,
    coherent_flow,
    ehrenfest_residual,
    verify_schrodinger_lift,
)
from cohspace.errors import ConfigError, DomainError
from cohspace.integrate import solve_rk45
from cohspace.kernels import Point, eval_kernel, heisenberg_space, klauder_space, spin_space
from cohspace.reps import FockRep, SpinRep, propagate_eig

HBAR = 1.0


def klauder_oscillator_flow(omega=1.0, hbar=1.0):
    # i hbar (z0., zeta.) = diag(0, hbar omega) (z0, zeta): zeta(t) = e^{-i omega t} zeta0
    return LinearHamiltonianFlow(np.diag([0.0, hbar * omega]).astype(complex), hbar=hbar)


def spin_precession_flow(omega=1.0, hbar=1.0):
    # A = hbar omega sigma_z / 2: chart w = z2/z1 rotates as e^{+i omega t}
    return LinearHamiltonianFlow(hbar * omega * np.diag([0.5, -0.5]).astype(complex), hbar=hbar)


def test_oscillator_labels_match_closed_form():
    sp = klauder_space(1)
    z0 = Point([0.1 + 0.05j, 1.2 - 0.3j])
    omega = 1.3
    traj = coherent_flow(sp, klauder_oscillator_flow(omega), z0, (0.0, 10.0),
                         t_eval=np.linspace(0, 10, 21))
    for t, p in zip(traj.times, traj.points):
        expected = np.array([z0.coords[0], np.exp(-1j * omega * t) * z0.coords[1]])
        np.testing.assert_allclose(p.coords, expected, rtol=1e-8, atol=1e-10)


def test_spin_labels_match_closed_form():
    sp = spin_space(4)
    z = np.array([1.0, 0.6 + 0.3j])
    z = z / np.linalg.norm(z)
    omega = 0.9
    traj = coherent_flow(sp, spin_precession_flow(omega), Point(z), (0.0, 12.0),
                         t_eval=np.linspace(0, 12, 25))
    for t, p in zip(traj.times, traj.points):
        expected = np.array([np.exp(-0.5j * omega * t) * z[0], np.exp(0.5j * omega * t) * z[1]])
        # coherent states are label-valued: compare up to nothing, labels are exact here
        np.testing.assert_allclose(p.coords, expected, rtol=1e-8, atol=1e-9)
        # constraint projection keeps points exactly on the sphere
        assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-14


def test_schrodinger_lift_fock():
    sp = klauder_space(1)
    z0 = Point([0.0, 1.2 + 0.4j])
    traj = coherent_flow(sp, klauder_oscillator_flow(1.0), z0, (0.0, 10.0),
                         t_eval=np.linspace(0, 10, 41))
    report = verify_schrodinger_lift(FockRep(64), klauder_oscillator_flow(1.0), traj,
                                     n_checks=8)
    assert report.max_deficit < 1e-8
    assert report.rep_dim == 64


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
def test_fock_lift_rejects_a_generator_touching_z0(entry):
    sp = klauder_space(1)
    traj = coherent_flow(sp, klauder_oscillator_flow(1.0), Point([0.0, 0.5]), (0.0, 1.0),
                         t_eval=np.linspace(0, 1, 5))
    a = np.diag([0.0, 1.0]).astype(complex)
    a[entry] = 1e-6
    message = ("FockRep lifts need single-mode label generators acting on zeta only "
               "(first row/column zero)")
    for generator in (a, lambda t: a):  # the exact and the integrated lift
        with pytest.raises(ConfigError) as exc:
            verify_schrodinger_lift(FockRep(16), LinearHamiltonianFlow(generator), traj)
        assert str(exc.value) == message


def test_schrodinger_lift_spin():
    n = 6
    sp = spin_space(n)
    z = np.array([1.0, 0.5 - 0.8j])
    z = Point(z / np.linalg.norm(z))
    flow = spin_precession_flow(1.7)
    traj = coherent_flow(sp, flow, z, (0.0, 8.0), t_eval=np.linspace(0, 8, 33))
    report = verify_schrodinger_lift(SpinRep(n), flow, traj, n_checks=6)
    assert report.max_deficit < 1e-9


def test_schrodinger_lift_generic_spin_generator():
    # a non-diagonal Hermitian label generator: still an exact lift
    n = 3
    sp = spin_space(n)
    a = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]], dtype=complex)
    flow = LinearHamiltonianFlow(a, hbar=0.7)
    z = Point(np.array([0.8, 0.6j]))
    traj = coherent_flow(sp, flow, z, (0.0, 6.0), t_eval=np.linspace(0, 6, 25))
    report = verify_schrodinger_lift(SpinRep(n), flow, traj, n_checks=6)
    assert report.max_deficit < 1e-9


def test_time_dependent_flow_lift(monkeypatch):
    n = 2
    sp = spin_space(n)

    def gen(t):
        return np.diag([0.5, -0.5]).astype(complex) * (1.0 + 0.5 * math.sin(t))

    flow = LinearHamiltonianFlow(gen, hbar=1.0)
    z = Point(np.array([1.0, 0.4 + 0.2j]) / np.linalg.norm([1.0, 0.4 + 0.2j]))
    traj = coherent_flow(sp, flow, z, (0.0, 5.0), t_eval=np.linspace(0, 5, 11),
                         rtol=1e-11, atol=1e-14)
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return solve_rk45(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_rk45", counted)
    report = verify_schrodinger_lift(SpinRep(n), flow, traj, n_checks=4)
    # diagonal generators commute across times, so the lift is still exact
    assert report.max_deficit < 1e-8
    assert len(solves) == 1 and len(report.checked_times) == 4  # one solve, sampled


def test_exact_flow_matches_rk45_oracle():
    # the RK route on the same right-hand side A z / (i hbar), at rtol 1e-12,
    # stays the oracle for exact propagation: agreement within 1e-9 relative
    z = np.array([1.0, 0.6 + 0.3j]) / np.linalg.norm([1.0, 0.6 + 0.3j])
    cases = [
        (klauder_space(1), klauder_oscillator_flow(1.3, hbar=0.8),
         np.array([0.1 + 0.05j, 1.2 - 0.3j]), 20.0),
        (spin_space(4), spin_precession_flow(0.9), z, 12.0),
        (spin_space(3), LinearHamiltonianFlow(
            np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]]), hbar=0.7), z, 9.0),
    ]
    for sp, flow, z0, t1 in cases:
        t_eval = np.linspace(0.0, t1, 41)
        traj = coherent_flow(sp, flow, Point(z0), (0.0, t1), t_eval)
        assert traj.stats is None
        a = flow.matrix_at(0.0)
        ref = solve_rk45(lambda t, y: a @ y / (1j * flow.hbar), 0.0, t1, z0,
                         rtol=1e-12, atol=1e-14, t_eval=t_eval)
        got = np.array([p.coords for p in traj.points])
        assert np.max(np.abs(got - ref.states)) <= 1e-9 * max(1.0, np.abs(ref.states).max())
        np.testing.assert_array_equal(traj.times, ref.times)


def test_coherent_trajectory_matches_the_per_sample_route():
    # the per-sample route: np.linalg.norm of each state on the unit-spinor
    # kinds, a Point per sample carrying z0's multiplier, eval_kernel per norm
    cases = [
        (spin_space(3), np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]]), Point([0.8, 0.6j])),
        (klauder_space(1), np.diag([0.0, 1.3]), Point([0.1 + 0.05j, 1.2 - 0.3j])),
        (heisenberg_space(2), np.diag([0.7, -1.1]), Point([0.3 - 0.2j, 0.5j], 0.8 - 0.6j)),
    ]
    for sp, a, z0 in cases:
        traj = coherent_flow(sp, LinearHamiltonianFlow(a), z0, (0.0, 4.0),
                             t_eval=np.linspace(0.0, 4.0, 41))
        states = propagate_eig(a, z0.coords, traj.times)
        want = [y / np.linalg.norm(y) if sp.kind == "spin" else y for y in states]
        np.testing.assert_allclose(traj.coords, want, rtol=0, atol=1e-15)
        pts = traj.points
        assert [p.multiplier for p in pts] == [z0.multiplier] * 41
        norms = [eval_kernel(sp, p, p).real for p in pts]
        np.testing.assert_allclose(traj.norms, norms, rtol=1e-13, atol=0)


def test_time_independent_flows_never_call_the_integrator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_rk45 called")

    for module in (integrate, dynamics, tdvp):
        monkeypatch.setattr(module, "solve_rk45", refuse)
    assert not hasattr(liealg, "solve_rk45")
    sp = spin_space(2)
    z = Point(np.array([1.0, 0.4 + 0.2j]) / np.linalg.norm([1.0, 0.4 + 0.2j]))
    traj = coherent_flow(sp, spin_precession_flow(1.1), z, (0.0, 5.0))
    assert len(traj.points) == 101
    alg, rep = liealg.su2_qubit()
    st = liealg.state_from_density(alg, rep, np.array([[0.7, 0.1j], [-0.1j, 0.3]]))
    tab = liealg.evolve_expectations(alg, rep, alg.basis_vector(3), st,
                                     [alg.basis_vector(k) for k in (1, 2, 3)], (0.0, 4.0))
    assert tab.values.shape == (201, 3) and tab.final_cross_check <= 1e-8
    # a time-dependent generator still takes the RK route
    flow = LinearHamiltonianFlow(lambda t: np.diag([0.5, -0.5]).astype(complex) * (1.0 + t))
    with pytest.raises(AssertionError, match="solve_rk45 called"):
        coherent_flow(sp, flow, z, (0.0, 1.0))


def test_exact_flow_checks_sample_times():
    sp = klauder_space(1)
    z0 = Point([0.0, 0.5])
    alg, rep = liealg.su2_qubit()
    st = liealg.state_from_density(alg, rep, np.diag([0.6, 0.4]).astype(complex))
    obs = [alg.basis_vector(k) for k in (1, 2, 3)]
    for t_span, t_eval in [((1.0, 0.0), None), ((0.0, 1.0), [0.5, 0.2]),
                           ((0.0, 1.0), [0.5, 2.0])]:
        with pytest.raises(ConfigError):
            coherent_flow(sp, klauder_oscillator_flow(), z0, t_span, t_eval)
        with pytest.raises(ConfigError):
            liealg.evolve_expectations(alg, rep, alg.basis_vector(3), st, obs, t_span, t_eval)


def test_flow_shape_mismatch():
    sp = klauder_space(1)
    with pytest.raises(ConfigError):
        coherent_flow(sp, LinearHamiltonianFlow(np.eye(3)), Point([0.0, 0.5]), (0.0, 1.0))


def test_norm_column_records_kernel_diagonal():
    sp = klauder_space(1)
    z0 = Point([0.0, 0.7])
    traj = coherent_flow(sp, klauder_oscillator_flow(), z0, (0.0, 3.0),
                         t_eval=np.linspace(0, 3, 7))
    np.testing.assert_allclose(traj.norms, math.exp(0.49), rtol=1e-9)


# -------------------------------------------------------- Ehrenfest residual


def test_ehrenfest_residual_second_order():
    rng = np.random.default_rng(9)
    dim = 12
    a, ad, n_op = oracles.fock_ops(dim)
    h = 1.3 * n_op + 0.4 * (a + ad)
    x = (a + ad) / math.sqrt(2.0)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    r1 = ehrenfest_residual(psi, x, h, t=0.7, dt=1e-2)
    r2 = ehrenfest_residual(psi, x, h, t=0.7, dt=5e-3)
    assert r1 / r2 >= 3.5  # O(dt^2) halving


def test_ehrenfest_residual_density_matrix():
    rng = np.random.default_rng(4)
    dim = 6
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = h + h.conj().T
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = x + x.conj().T
    v = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    rho = v @ v.conj().T
    rho /= np.trace(rho).real
    r1 = ehrenfest_residual(rho, x, h, t=0.3, dt=1e-2)
    r2 = ehrenfest_residual(rho, x, h, t=0.3, dt=5e-3)
    assert r1 / r2 >= 3.5


def test_ehrenfest_rejects_unnormalized():
    dim = 4
    h = np.eye(dim, dtype=complex)
    x = np.eye(dim, dtype=complex)
    with pytest.raises(DomainError):
        ehrenfest_residual(2.0 * np.ones(dim) / math.sqrt(dim), x, h, 0.0, 1e-3)
