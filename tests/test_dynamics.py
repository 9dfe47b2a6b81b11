"""Coherent flows: closed forms, Schroedinger lifts, the exact route against RK45."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from labels import label, multiplier, points
from cohspace import dynamics, integrate, liealg, tdvp
from cohspace.dynamics import coherent_flow
from cohspace.errors import ConfigError
from cohspace.integrate import solve_rk45
from cohspace.kernels import (eval_kernel, heisenberg_space, klauder_space, power_space,
                              spin_space, spin_t_space)
from cohspace.reps import propagate_eig

HBAR = 1.0


def klauder_oscillator_generator(omega=1.0, hbar=1.0):
    # i hbar (z0., zeta.) = diag(0, hbar omega) (z0, zeta): zeta(t) = e^{-i omega t} zeta0
    return np.diag([0.0, hbar * omega]).astype(complex)


def spin_precession_generator(omega=1.0, hbar=1.0):
    # A = hbar omega sigma_z / 2: chart w = z2/z1 rotates as e^{+i omega t}
    return hbar * omega * np.diag([0.5, -0.5]).astype(complex)


def lift_deficit(h, embed, hbar, traj):
    """The largest fidelity deficit 1 - |<psi_t, v(z_t)>|^2 / (|psi_t|^2 |v(z_t)|^2)
    of the trajectory's embeddings v(z_t) against psi_t, the start embedding
    propagated exactly by the lifted Hamiltonian h."""
    psi0 = embed(traj.coords[0])
    worst = 0.0
    for t, z in zip(traj.times, traj.coords):
        psi = scipy.linalg.expm(-1j * (t - traj.times[0]) * h / hbar) @ psi0
        v = embed(z)
        fidelity = abs(np.vdot(psi, v)) ** 2 / (np.vdot(psi, psi).real * np.vdot(v, v).real)
        worst = max(worst, 1.0 - fidelity)
    return worst


def spin_lift_deficit(n, a, hbar, traj):
    """lift_deficit of the monomial embeddings under the Wigner-matrix lift of
    the generator: A = tr(A)/2 + sum_k tr(A sigma_k) sigma_k/2 lifts to
    n tr(A)/2 + sum_k tr(A sigma_k) J_k."""
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    h = np.trace(a) / 2 * n * np.eye(n + 1) + sum(
        np.trace(a @ s) * j for s, j in zip(paulis, oracles.wigner_matrices(n)))
    return lift_deficit(h, lambda z: oracles.spin_monomial_embed(n, z), hbar, traj)


def test_oscillator_labels_match_closed_form():
    sp = klauder_space(1)
    z0 = label([0.1 + 0.05j, 1.2 - 0.3j])
    omega = 1.3
    traj = coherent_flow(sp, klauder_oscillator_generator(omega), z0, (0.0, 10.0),
                         t_eval=np.linspace(0, 10, 21))
    for t, p in zip(traj.times, points(traj.coords, traj.multipliers)):
        expected = np.array([z0[0][0][0], np.exp(-1j * omega * t) * z0[0][0][1]])
        np.testing.assert_allclose(p[0][0], expected, rtol=1e-8, atol=1e-10)


def test_spin_labels_match_closed_form():
    sp = spin_space(4)
    z = np.array([1.0, 0.6 + 0.3j])
    z = z / np.linalg.norm(z)
    omega = 0.9
    traj = coherent_flow(sp, spin_precession_generator(omega), label(z), (0.0, 12.0),
                         t_eval=np.linspace(0, 12, 25))
    for t, p in zip(traj.times, points(traj.coords, traj.multipliers)):
        expected = np.array([np.exp(-0.5j * omega * t) * z[0], np.exp(0.5j * omega * t) * z[1]])
        # coherent states are label-valued: compare up to nothing, labels are exact here
        np.testing.assert_allclose(p[0][0], expected, rtol=1e-8, atol=1e-9)
        # constraint projection keeps points exactly on the sphere
        assert abs(np.linalg.norm(p[0][0]) - 1.0) < 1e-14


def test_schrodinger_lift_fock():
    # diag(0, hbar omega) acts on zeta only, so it lifts to hbar omega N on the
    # truncated Fock space of the coherent vectors e^{z0} sum zeta^k/sqrt(k!) |k>
    sp = klauder_space(1)
    z0 = label([0.0, 1.2 + 0.4j])
    traj = coherent_flow(sp, klauder_oscillator_generator(1.0), z0, (0.0, 10.0),
                         t_eval=np.linspace(0, 10, 41))
    cutoff = 64
    _, _, number = oracles.fock_ops(cutoff)
    deficit = lift_deficit(1.0 * number, lambda z: oracles.fock_coherent(cutoff, *z), 1.0, traj)
    assert deficit < 1e-8


def test_schrodinger_lift_spin():
    n = 6
    sp = spin_space(n)
    z = np.array([1.0, 0.5 - 0.8j])
    z = label(z / np.linalg.norm(z))
    a = spin_precession_generator(1.7)
    traj = coherent_flow(sp, a, z, (0.0, 8.0), t_eval=np.linspace(0, 8, 33))
    assert spin_lift_deficit(n, a, 1.0, traj) < 1e-9


def test_schrodinger_lift_generic_spin_generator():
    # a non-diagonal Hermitian label generator: still an exact lift
    n = 3
    sp = spin_space(n)
    a = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]], dtype=complex)
    z = label(np.array([0.8, 0.6j]))
    traj = coherent_flow(sp, a, z, (0.0, 6.0), t_eval=np.linspace(0, 6, 25), hbar=0.7)
    assert spin_lift_deficit(n, a, 0.7, traj) < 1e-9


def test_exact_flow_matches_rk45_oracle():
    # the RK route on the same right-hand side A z / (i hbar), at rtol 1e-12,
    # stays the oracle for exact propagation: agreement within 1e-9 relative
    z = np.array([1.0, 0.6 + 0.3j]) / np.linalg.norm([1.0, 0.6 + 0.3j])
    cases = [
        (klauder_space(1), klauder_oscillator_generator(1.3, hbar=0.8), 0.8,
         np.array([0.1 + 0.05j, 1.2 - 0.3j]), 20.0),
        (spin_space(4), spin_precession_generator(0.9), 1.0, z, 12.0),
        (spin_space(3), np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]]), 0.7, z, 9.0),
    ]
    for sp, a, hbar, z0, t1 in cases:
        t_eval = np.linspace(0.0, t1, 41)
        traj = coherent_flow(sp, a, label(z0), (0.0, t1), t_eval, hbar=hbar)
        assert traj.stats is None
        ref = solve_rk45(lambda t, y: a @ y / (1j * hbar), 0.0, t1, z0,
                         rtol=1e-12, atol=1e-14, t_eval=t_eval)
        got = np.array([p[0][0] for p in points(traj.coords, traj.multipliers)])
        assert np.max(np.abs(got - ref.states)) <= 1e-9 * max(1.0, np.abs(ref.states).max())
        np.testing.assert_array_equal(traj.times, ref.times)


def test_coherent_trajectory_matches_the_per_sample_route():
    # the per-sample route: np.linalg.norm of each state on the unit-spinor
    # kinds, a label per sample carrying z0's multiplier, eval_kernel per norm
    cases = [
        (spin_space(3), np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]]), label([0.8, 0.6j])),
        (klauder_space(1), np.diag([0.0, 1.3]), label([0.1 + 0.05j, 1.2 - 0.3j])),
        (heisenberg_space(2), np.diag([0.7, -1.1]), label([0.3 - 0.2j, 0.5j], 0.8 - 0.6j)),
    ]
    for sp, a, z0 in cases:
        traj = coherent_flow(sp, a, z0, (0.0, 4.0),
                             t_eval=np.linspace(0.0, 4.0, 41))
        states = propagate_eig(a, z0[0][0], traj.times)
        want = [y / np.linalg.norm(y) if sp.kind == "spin" else y for y in states]
        np.testing.assert_allclose(traj.coords, want, rtol=0, atol=1e-15)
        pts = points(traj.coords, traj.multipliers)
        assert [multiplier(p) for p in pts] == [multiplier(z0)] * 41
        norms = [eval_kernel(sp, p, p).real for p in pts]
        np.testing.assert_allclose(traj.norms, norms, rtol=1e-13, atol=0)


def test_time_independent_flows_never_call_the_integrator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_rk45 called")

    for module in (integrate, tdvp):
        monkeypatch.setattr(module, "solve_rk45", refuse)
    assert not hasattr(dynamics, "solve_rk45") and not hasattr(liealg, "solve_rk45")
    sp = spin_space(2)
    z = label(np.array([1.0, 0.4 + 0.2j]) / np.linalg.norm([1.0, 0.4 + 0.2j]))
    traj = coherent_flow(sp, spin_precession_generator(1.1), z, (0.0, 5.0))
    assert len(points(traj.coords, traj.multipliers)) == 101
    alg, rep = liealg.su2_qubit()
    st = liealg.state_from_density(alg, rep, np.array([[0.7, 0.1j], [-0.1j, 0.3]]))
    tab = liealg.evolve_expectations(alg, rep, alg.basis_vector(3), st,
                                     [alg.basis_vector(k) for k in (1, 2, 3)], (0.0, 4.0))
    assert tab.values.shape == (201, 3) and tab.final_cross_check <= 1e-8


@pytest.mark.parametrize("space", [
    spin_space(2), spin_t_space(3), power_space(spin_space(1), 2),
    dataclasses.replace(spin_space(2), constraint_name="reworded"), klauder_space(1)],
    ids=["spin", "spin_t", "power-of-spin", "spin-reworded", "klauder"])
def test_unit_norm_kinds_are_projected_back_onto_the_sphere(space):
    # a decaying generator shrinks every label as e^(-t/2): the unit-norm kinds
    # are put back on their sphere, whatever their constraint's message says,
    # and a klauder label keeps its decayed norm
    traj = coherent_flow(space, -0.5j * np.eye(2), label([0.6, 0.8j]), (0.0, 2.0),
                         t_eval=[0.0, 1.0, 2.0])
    norms = np.linalg.norm(traj.coords, axis=1)
    want = np.ones(3) if space.kind != "klauder" else np.exp(-0.5 * traj.times)
    np.testing.assert_allclose(norms, want, rtol=1e-14)


def test_exact_flow_checks_sample_times():
    sp = klauder_space(1)
    z0 = label([0.0, 0.5])
    alg, rep = liealg.su2_qubit()
    st = liealg.state_from_density(alg, rep, np.diag([0.6, 0.4]).astype(complex))
    obs = [alg.basis_vector(k) for k in (1, 2, 3)]
    for t_span, t_eval in [((1.0, 0.0), None), ((0.0, 1.0), [0.5, 0.2]),
                           ((0.0, 1.0), [0.5, 2.0])]:
        with pytest.raises(ConfigError):
            coherent_flow(sp, klauder_oscillator_generator(), z0, t_span, t_eval)
        with pytest.raises(ConfigError):
            liealg.evolve_expectations(alg, rep, alg.basis_vector(3), st, obs, t_span, t_eval)


def test_flow_shape_mismatch():
    sp = klauder_space(1)
    with pytest.raises(ConfigError):
        coherent_flow(sp, np.eye(3), label([0.0, 0.5]), (0.0, 1.0))


def test_empty_sample_grid_gives_an_empty_trajectory():
    a = np.diag([0.0, 1.3]).astype(complex)
    for space, z0 in ((klauder_space(1), label([0.2, 1.1 - 0.4j])),
                      (spin_space(3), label(np.array([0.6, 0.8j]))),
                      (heisenberg_space(2), label([0.2, 0.5j], 0.7))):
        traj = coherent_flow(space, a, z0, (0.0, 5.0), t_eval=[])
        assert traj.times.shape == (0,) and traj.norms.shape == (0,)
        assert traj.coords.shape == (0, space.label_dim) and points(traj.coords, traj.multipliers) == []
        assert (traj.multipliers is None) == (multiplier(z0) is None)
        assert traj.stats is None


def test_norm_column_records_kernel_diagonal():
    sp = klauder_space(1)
    z0 = label([0.0, 0.7])
    traj = coherent_flow(sp, klauder_oscillator_generator(), z0, (0.0, 3.0),
                         t_eval=np.linspace(0, 3, 7))
    np.testing.assert_allclose(traj.norms, math.exp(0.49), rtol=1e-9)

