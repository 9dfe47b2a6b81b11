"""Lie-*-algebra states, expectation dynamics, and lattice diagnostics.

Every closed-system evolution is checked against direct unitary propagation
of a density matrix (von Neumann route); structure constants are checked
against explicit matrix commutators.
"""

import json

import numpy as np
import pytest

from oracles import fock_ops, fock_coherent

from cohspace.integrate import solve_rk45
from cohspace.errors import (
    AlgebraAxiomError,
    ClosureError,
    ConfigError,
    OutOfSpanError,
    PreconditionError,
    StatePositivityError,
)
from cohspace.liealg import (
    CATALOG,
    AlgebraState,
    LieStarAlgebra,
    algebra_descriptor,
    algebra_from_descriptor,
    classical_function_algebra,
    covariant_ehrenfest_residual,
    evolve_expectations,
    koopman_circle,
    koopman_state,
    lie_product,
    matrix_coefficients,
    matrix_star_algebra,
    observability_report,
    oscillator_algebra,
    pauli_matrices,
    rep_defect,
    so3_rotator,
    star_element,
    state_from_density,
    su2_qubit,
    uncertain_value,
    uncertainty,
)


def qubit_state(r):
    alg, rep = su2_qubit()
    rho = 0.5 * (np.eye(2) + r[0] * rep[1] + r[1] * rep[2] + r[2] * rep[3])
    return alg, rep, state_from_density(alg, rep, rho)


# ---------------------------------------------------------------------------
# axioms and structure constants


def test_catalog_axioms_and_rep_defects():
    for name, build in CATALOG.items():
        alg, rep = build()
        assert alg.name, name
        if rep is not None:
            assert rep_defect(alg, rep) <= 1e-12
    alg, rep = matrix_star_algebra(3)
    assert alg.dim == 9
    assert rep_defect(alg, rep) <= 1e-12
    alg, rep = classical_function_algebra(4)
    assert rep_defect(alg, rep) == 0.0


def test_pauli_structure_against_commutators():
    alg, rep = su2_qubit()
    # sigma_1 |> sigma_2 = -2 sigma_3, and generally i[s_a, s_b] expanded
    prod = lie_product(alg, alg.basis_vector(1), alg.basis_vector(2))
    np.testing.assert_allclose(prod, -2.0 * alg.basis_vector(3), atol=1e-15)
    for a in range(1, 4):
        for b in range(1, 4):
            want = 1j * (rep[a] @ rep[b] - rep[b] @ rep[a])
            got = sum(c * rep[k] for k, c in enumerate(lie_product(alg, alg.basis_vector(a), alg.basis_vector(b))))
            np.testing.assert_allclose(got, want, atol=1e-14)


def test_axiom_violations_rejected():
    c = np.zeros((4, 4, 4))
    c[1, 2, 3] = 1.0  # no antisymmetric partner
    with pytest.raises(AlgebraAxiomError, match="antisym"):
        LieStarAlgebra("bad", ("unit", "a", "b", "c"), c, np.eye(4))

    c = np.zeros((4, 4, 4))
    c[1, 2, 3], c[2, 1, 3] = 1.0, -1.0
    c[1, 3, 1], c[3, 1, 1] = 1.0, -1.0  # cyclic sum over (1,2,3) leaves -X_3
    with pytest.raises(AlgebraAxiomError, match="Jacobi"):
        LieStarAlgebra("bad", ("unit", "a", "b", "c"), c, np.eye(4))

    c = np.zeros((3, 3, 3))
    c[1, 0, 1], c[0, 1, 1] = 1.0, -1.0
    with pytest.raises(AlgebraAxiomError, match="unit"):
        LieStarAlgebra("bad", ("unit", "a", "b"), c, np.eye(3))

    c = np.zeros((4, 4, 4))
    c[1:, 1:, 1:] = -2.0 * np.array([[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                                     [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                                     [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], dtype=float)
    with pytest.raises(AlgebraAxiomError, match="involution"):
        LieStarAlgebra("bad", ("unit", "a", "b", "c"), c, np.diag([1.0, 1.0, 1.0, -1.0]))


def test_star_is_antilinear_on_ladder():
    alg, _ = CATALOG["ladder"]()
    low, rai = alg.basis_vector(1), alg.basis_vector(2)
    np.testing.assert_allclose(star_element(alg, low), rai, atol=1e-15)
    np.testing.assert_allclose(star_element(alg, 2j * low), -2j * rai, atol=1e-15)
    # (a |> a+)* = a* |> (a+)*  exercised with complex structure constants
    lhs = star_element(alg, lie_product(alg, low, rai))
    rhs = lie_product(alg, star_element(alg, low), star_element(alg, rai))
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


# ---------------------------------------------------------------------------
# states, means, uncertainties


def test_qubit_mean_and_uncertainty():
    r = np.array([0.2, 0.5, 0.3])
    alg, _, st = qubit_state(r)
    ez = alg.basis_vector(3)
    assert uncertain_value(st, ez) == pytest.approx(r[2], abs=1e-12)
    assert uncertainty(st, ez) == pytest.approx(np.sqrt(1 - r[2] ** 2), abs=1e-12)
    # restriction of the form to span{1, sigma_z}
    sub = st.form[np.ix_([0, 3], [0, 3])]
    np.testing.assert_allclose(sub, [[1.0, r[2]], [r[2], 1.0]], atol=1e-12)


def test_maximally_mixed_and_pure_uncertainty():
    alg, _, mixed = qubit_state([0.0, 0.0, 0.0])
    assert uncertainty(mixed, alg.basis_vector(3)) == pytest.approx(1.0, abs=1e-13)
    _, _, pure = qubit_state([0.0, 0.0, 1.0])
    meta = {}
    assert uncertainty(pure, alg.basis_vector(3), meta) <= 1e-7
    assert "raw_variance" in meta and "clamped" in meta


def test_uncertainty_clamp_and_positivity_failure():
    alg, _ = classical_function_algebra(2)
    # barely-indefinite form: passes state validation, variance along e1 is -3e-11
    s = np.array([[1.0, 0.5], [0.5, 0.25 - 3e-11]])
    st = AlgebraState(alg, s)
    meta = {}
    assert uncertainty(st, alg.basis_vector(1), meta) == 0.0
    assert meta["clamped"] and meta["raw_variance"] == pytest.approx(-3e-11, rel=1e-3)
    with pytest.raises(StatePositivityError, match="variance"):
        uncertainty(st, 40.0 * alg.basis_vector(1))
    with pytest.raises(StatePositivityError):
        AlgebraState(alg, np.array([[1.0, 0.5], [0.5, 0.2]]))


def test_uncertainties_nonnegative_seeded():
    rng = np.random.default_rng(0)
    alg, rep = su2_qubit()
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(2) / 2
    st = state_from_density(alg, rep, rho)
    for _ in range(200):
        x = rng.normal(size=4) * 3.0
        assert uncertainty(st, x.astype(complex)) >= 0.0


def test_density_validation():
    alg, rep = su2_qubit()
    with pytest.raises(ConfigError, match="trace"):
        state_from_density(alg, rep, np.eye(2, dtype=complex))
    with pytest.raises(StatePositivityError):
        state_from_density(alg, rep, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ConfigError, match="identity"):
        state_from_density(alg, [2 * np.eye(2), *pauli_matrices()], np.eye(2) / 2)


def test_koopman_form_matches_density_route():
    alg, rep = classical_function_algebra(4)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    st = koopman_state(alg, rep, p)
    st2 = state_from_density(alg, rep, np.diag(p).astype(complex))
    np.testing.assert_allclose(st.form, st2.form, atol=1e-14)
    # unit row carries the plain means
    assert uncertain_value(st, alg.basis_vector(2)) == pytest.approx(p[2], abs=1e-14)


# ---------------------------------------------------------------------------
# expectation dynamics


def test_qubit_precession_with_cross_check():
    r = np.array([0.3, -0.2, 0.4])
    alg, rep, st = qubit_state(r)
    omega = 1.3
    obs = [alg.basis_vector(k) for k in (1, 2, 3)]
    tab = evolve_expectations(alg, rep, 0.5 * omega * alg.basis_vector(3), st, obs,
                              (0.0, 5.0))
    t = tab.times
    exact = np.stack([r[0] * np.cos(omega * t) - r[1] * np.sin(omega * t),
                      r[0] * np.sin(omega * t) + r[1] * np.cos(omega * t),
                      np.full_like(t, r[2])], axis=1)
    assert np.max(np.abs(tab.values - exact)) <= 1e-9
    assert tab.final_cross_check is not None and tab.final_cross_check <= 1e-8


def test_empty_sample_grid_gives_an_empty_table():
    alg, rep, st = qubit_state(np.array([0.3, -0.2, 0.4]))
    obs = [alg.basis_vector(k) for k in (1, 2, 3)]
    tab = evolve_expectations(alg, rep, 0.65 * alg.basis_vector(3), st, obs, (0.0, 5.0),
                              t_eval=[])
    assert tab.times.shape == (0,) and tab.values.shape == (0, 3)
    assert tab.final_cross_check is None
    # the expm route (i G not Hermitian) too
    tab = evolve_expectations(alg, rep, alg.basis_vector(3), st, [obs[0], 2.0 * obs[1], obs[2]],
                              (0.0, 5.0), t_eval=[])
    assert np.abs(1j * tab.generator - (1j * tab.generator).conj().T).max() > 0.1
    assert tab.values.shape == (0, 3) and tab.final_cross_check is None


def test_rotator_preserves_angular_momentum_norm():
    alg, rep = so3_rotator()
    psi = np.array([0.2 + 0.1j, 0.5, 1.0 - 0.3j])
    psi /= np.linalg.norm(psi)
    st = state_from_density(alg, rep, np.outer(psi, psi.conj()))
    obs = [alg.basis_vector(k) for k in (1, 2, 3)]
    tab = evolve_expectations(alg, rep, alg.basis_vector(3), st, obs, (0.0, 7.0))
    norms = np.linalg.norm(tab.values.real, axis=1)
    assert np.max(np.abs(tab.values.imag)) <= 1e-10
    assert np.max(np.abs(norms - norms[0])) <= 1e-8
    assert np.max(np.abs(tab.values[:, 2] - tab.values[0, 2])) <= 1e-10  # <H> constant
    assert tab.final_cross_check <= 1e-8


def test_oscillator_expectations_follow_classical_orbit():
    mass, spring = 1.4, 2.2
    omega = np.sqrt(spring / mass)
    alg, _ = oscillator_algebra(mass, spring)
    a, ad, _ = fock_ops(60)
    q = np.sqrt(1.0 / (2 * mass * omega)) * (a + ad)
    p = 1j * np.sqrt(mass * omega / 2) * (ad - a)
    h = p @ p / (2 * mass) + spring * (q @ q) / 2
    psi = fock_coherent(60, 0.0, 1.1 + 0.4j)
    psi /= np.linalg.norm(psi)
    st = state_from_density(alg, [np.eye(60, dtype=complex), q, p, h],
                            np.outer(psi, psi.conj()))
    obs = [alg.basis_vector(k) for k in (1, 2, 3)]
    tab = evolve_expectations(alg, None, alg.basis_vector(3), st, obs, (0.0, 12.0))
    t = tab.times
    q0, p0 = tab.values[0, 0].real, tab.values[0, 1].real
    qt = q0 * np.cos(omega * t) + p0 / (mass * omega) * np.sin(omega * t)
    pt = p0 * np.cos(omega * t) - mass * omega * q0 * np.sin(omega * t)
    assert np.max(np.abs(tab.values[:, 0] - qt)) <= 1e-9
    assert np.max(np.abs(tab.values[:, 1] - pt)) <= 1e-9
    assert np.max(np.abs(tab.values[:, 2] - tab.values[0, 2])) <= 1e-10
    assert tab.final_cross_check is None  # no faithful rep supplied


def test_exact_expectations_match_rk45_oracle():
    # RK45 on de/dt = G e at rtol 1e-12 stays the oracle: agreement within
    # 1e-9 relative on the eigh path (i G Hermitian) and the expm path
    alg, rep, st = qubit_state([0.3, -0.2, 0.4])
    qubit = (alg, rep, st, 0.65 * alg.basis_vector(3), 6.0, True)
    mass, spring = 1.4, 2.2
    alg_o, _ = oscillator_algebra(mass, spring)
    a, ad, _ = fock_ops(60)
    q = np.sqrt(1.0 / (2 * mass)) * (a + ad)
    p = 1j * np.sqrt(mass / 2) * (ad - a)
    h = p @ p / (2 * mass) + spring * (q @ q) / 2
    psi = fock_coherent(60, 0.0, 1.1 + 0.4j)
    psi /= np.linalg.norm(psi)
    st_o = state_from_density(alg_o, [np.eye(60, dtype=complex), q, p, h],
                              np.outer(psi, psi.conj()))
    osc = (alg_o, None, st_o, alg_o.basis_vector(3), 12.0, False)
    for alg, rep, st, ham, t1, eigh_path in (qubit, osc):
        obs = [alg.basis_vector(k) for k in (1, 2, 3)]
        tab = evolve_expectations(alg, rep, ham, st, obs, (0.0, t1))
        g = tab.generator
        assert np.allclose(1j * g, (1j * g).conj().T, atol=1e-12) == eigh_path
        assert eigh_path or not np.allclose(g @ g.conj().T, g.conj().T @ g)
        ref = solve_rk45(lambda t, e: g @ e, 0.0, t1, tab.values[0], rtol=1e-12, atol=1e-14,
                         t_eval=tab.times)
        scale = max(1.0, np.abs(ref.states).max())
        assert np.max(np.abs(tab.values - ref.states)) <= 1e-9 * scale


def test_closure_error_reports_escape_direction():
    alg, rep, st = qubit_state([0.1, 0.2, 0.3])
    with pytest.raises(ClosureError) as exc:
        evolve_expectations(alg, rep, alg.basis_vector(3), st,
                            [alg.basis_vector(1)], (0.0, 1.0))
    esc = exc.value.escape
    # sigma_z |> sigma_x = -2 sigma_y escapes along the pauli_y axis
    assert abs(esc[2]) == pytest.approx(1.0, abs=1e-12)


def test_koopman_circle_permutes_indicator_expectations():
    alg, rep, gen = koopman_circle(5)
    p = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
    st = state_from_density(alg, rep, np.diag(p).astype(complex))
    basis = [alg.basis_vector(a) for a in range(alg.dim)]
    period = 2 * np.pi / 5
    tab = evolve_expectations(alg, rep, gen, st, basis, (0.0, period),
                              t_eval=[0.0, period])
    indicators = [matrix_coefficients(rep, np.diag(np.eye(5)[j]).astype(complex))
                  for j in range(5)]
    start = np.array([c @ tab.values[0] for c in indicators])
    final = np.array([c @ tab.values[-1] for c in indicators])
    np.testing.assert_allclose(start.real, p, atol=1e-10)
    np.testing.assert_allclose(final.real, np.roll(p, -1), atol=1e-10)
    assert tab.final_cross_check <= 1e-10


# ---------------------------------------------------------------------------
# lattice fields


def translated_qubit_field(dx, omega=1.0, r=(0.2, 0.1, 0.3), sites=range(-2, 3)):
    alg, rep = su2_qubit()
    rho0 = 0.5 * (np.eye(2) + r[0] * rep[1] + r[1] * rep[2] + r[2] * rep[3])
    w, v = np.linalg.eigh(0.5 * omega * rep[3])
    field = {}
    for k in sites:
        u = (v * np.exp(-1j * w * k * dx)) @ v.conj().T
        field[(k,)] = state_from_density(alg, rep, u @ rho0 @ u.conj().T)
    return alg, rep, field


def test_covariant_residual_small_and_second_order():
    alg, rep, field = translated_qubit_field(1e-3)
    pvec = 0.5 * alg.basis_vector(3)
    res = covariant_ehrenfest_residual(alg, rep, [pvec], field, alg.basis_vector(1), (0,), 1e-3)
    assert res[0] <= 1e-6
    _, _, half = translated_qubit_field(5e-4)
    res_half = covariant_ehrenfest_residual(alg, rep, [pvec], half, alg.basis_vector(1), (0,), 5e-4)
    assert 3.8 <= res[0] / res_half[0] <= 4.2


def test_covariant_residual_trivial_cases():
    alg, rep, field = translated_qubit_field(1e-3)
    # the unit is translation invariant and annihilated by the bracket
    res = covariant_ehrenfest_residual(alg, rep, [0.5 * alg.basis_vector(3)], field,
                                       alg.unit, (0,), 1e-3)
    assert res[0] <= 1e-13
    # constant field with zero momentum: both sides vanish identically
    _, _, const = translated_qubit_field(1e-3, omega=0.0)
    zero = np.zeros(4, dtype=complex)
    res = covariant_ehrenfest_residual(alg, rep, [zero], const, alg.basis_vector(1), (0,), 1e-3)
    assert res[0] == 0.0


def test_covariant_residual_needs_neighbours():
    alg, rep, field = translated_qubit_field(1e-3)
    del field[(1,)]
    with pytest.raises(PreconditionError, match="site"):
        covariant_ehrenfest_residual(alg, rep, [alg.basis_vector(3)], field,
                                     alg.basis_vector(1), (0,), 1e-3)


def test_observability_report():
    alg, rep, field = translated_qubit_field(1e-3, r=(0.2, 0.1, 0.3))
    shifts = [(1,), (-1,)]
    rz = observability_report(field, alg.basis_vector(3), (0,), shifts, delta=1e-6)
    assert rz.slow_variation  # sigma_z commutes with the generator
    assert not rz.small_uncertainty  # sigma = 0.954 >> 0.3
    assert rz.uncertainty == pytest.approx(np.sqrt(1 - 0.09), abs=1e-12)
    assert rz.scale == pytest.approx(0.3 + 1e-6, abs=1e-12)
    rx = observability_report(field, alg.basis_vector(1), (0,), shifts, delta=1e-9)
    assert not rx.slow_variation  # mean moves ~ omega*dx under a shift
    # near-pure state: uncertainty small against the mean
    _, _, sharp = translated_qubit_field(1e-3, r=(0.0, 0.0, 0.9999))
    rs = observability_report(sharp, alg.basis_vector(3), (0,), shifts, delta=1e-6)
    assert rs.slow_variation and rs.small_uncertainty
    assert rs.ratio == pytest.approx(rs.uncertainty / rs.scale)


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_round_trip():
    for build in (su2_qubit, CATALOG["ladder"], so3_rotator):
        alg, _ = build()
        data = json.loads(json.dumps(algebra_descriptor(alg)))
        back = algebra_from_descriptor(data)
        assert back.basis_names == alg.basis_names
        assert back.unit_index == alg.unit_index
        assert back.convention == alg.convention
        np.testing.assert_allclose(back.structure, alg.structure, atol=1e-15)
        np.testing.assert_allclose(back.involution, alg.involution, atol=1e-15)


def test_descriptor_rejects_garbage():
    with pytest.raises(ConfigError):
        algebra_from_descriptor({"name": "x", "dim": 2})
    alg, _ = su2_qubit()
    data = algebra_descriptor(alg)
    data["structure"][0][3] = 99.0  # breaks antisymmetry -> axiom failure
    with pytest.raises(AlgebraAxiomError):
        algebra_from_descriptor(data)


def test_matrix_coefficients_out_of_span():
    _, rep = classical_function_algebra(3)
    with pytest.raises(OutOfSpanError):
        matrix_coefficients(rep, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex))
