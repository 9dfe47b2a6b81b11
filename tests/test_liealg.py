"""Lie-*-algebra states, expectation dynamics, and lattice diagnostics.

Every closed-system evolution is checked against direct unitary propagation
of a density matrix (von Neumann route); structure constants are checked
against explicit matrix commutators.
"""

import json

import numpy as np
import pytest

from oracles import commutator_structure, fock_coherent, fock_ops, rep_defect_pairwise

from cohspace.integrate import solve_rk45
from cohspace.errors import (
    AlgebraAxiomError,
    ClosureError,
    ConfigError,
    PreconditionError,
    StatePositivityError,
)
from cohspace.liealg import (
    CATALOG,
    AlgebraState,
    LieStarAlgebra,
    algebra_descriptor,
    algebra_from_descriptor,
    covariant_ehrenfest_residual,
    evolve_expectations,
    hermitian_basis,
    lie_product,
    matrix_star_algebra,
    oscillator_algebra,
    pauli_matrices,
    rep_defect,
    so3_rotator,
    state_from_density,
    su2_qubit,
    uncertain_value,
    uncertainty,
)


def abelian_algebra(n):
    """Functions on n points: the unit and n - 1 site indicators, with the zero
    bracket, represented by diagonal matrices."""
    names = ("unit",) + tuple(f"site_{k}" for k in range(1, n))
    rep = [np.eye(n, dtype=complex)] + [np.diag(np.eye(n, dtype=complex)[k]) for k in range(1, n)]
    alg = LieStarAlgebra(f"functions_{n}", names, np.zeros((n, n, n), dtype=complex), np.eye(n),
                         convention="classical")
    return alg, rep


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
    alg, rep = abelian_algebra(4)
    assert rep_defect(alg, rep) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_matrix_structure_matches_the_pairwise_commutator_loop(d):
    alg, rep = matrix_star_algebra(d)
    want = commutator_structure(hermitian_basis(d)[0])
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(alg.structure - want)) <= 1e-15 * scale
    assert rep_defect(alg, rep) == pytest.approx(rep_defect_pairwise(want, rep), abs=1e-15 * scale)


def test_rep_defect_matches_the_pairwise_loop_on_every_catalog_rep():
    reps = {name: build() for name, build in CATALOG.items()}
    reps.update(abelian_4=abelian_algebra(4), matrix_3=matrix_star_algebra(3))
    checked = []
    for name, (alg, rep) in reps.items():
        if rep is None:
            continue
        scale = max(1.0, float(np.max(np.abs(alg.structure))))
        want = rep_defect_pairwise(alg.structure, rep, alg.hbar)
        assert abs(rep_defect(alg, rep) - want) <= 1e-15 * scale, name
        checked.append(name)
    assert checked == ["su2_qubit", "so3_rotator", "abelian_4", "matrix_3"]


@pytest.mark.parametrize("rep, message", [
    ([np.eye(2), np.eye(3)], "square and of one shape"),
    ([np.eye(2)] * 3, r"representation is \(3, 2, 2\), needs \(4, n, n\)"),
    ([np.ones((2, 3))] * 4, r"representation is \(4, 2, 3\)"),
    ([2 * np.eye(2)] * 4, "identity"),
])
def test_one_rule_checks_a_rep_for_every_caller(rep, message):
    alg, good = su2_qubit()
    calls = [lambda: rep_defect(alg, rep),
             lambda: state_from_density(alg, rep, np.eye(2) / 2),
             lambda: evolve_expectations(alg, rep, alg.basis_vector(3),
                                         state_from_density(alg, good, np.eye(2) / 2),
                                         [alg.basis_vector(3)], (0.0, 1.0))]
    for call in calls:
        with pytest.raises(ConfigError, match=message):
            call()


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
    # x* = M^T conj(x) for the involution matrix M; the ladder entry's swaps
    # lowering and raising, compatibly with lie_product's complex constants
    alg, _ = CATALOG["ladder"]()

    def star(x):
        return alg.involution.T @ np.conj(x)

    low, rai = alg.basis_vector(1), alg.basis_vector(2)
    np.testing.assert_allclose(star(low), rai, atol=1e-15)
    np.testing.assert_allclose(star(2j * low), -2j * rai, atol=1e-15)
    # (a |> a+)* = a* |> (a+)*  exercised with complex structure constants
    lhs = star(lie_product(alg, low, rai))
    rhs = lie_product(alg, star(low), star(rai))
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
    assert uncertainty(pure, alg.basis_vector(3)) <= 1e-7


def test_uncertainty_clamp_and_positivity_failure():
    alg, _ = abelian_algebra(2)
    # barely-indefinite form: passes state validation, variance along e1 is -3e-11
    s = np.array([[1.0, 0.5], [0.5, 0.25 - 3e-11]])
    st = AlgebraState(alg, s)
    assert uncertainty(st, alg.basis_vector(1)) == 0.0
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
    # the classical (Koopman) form <X, Y> = sum_k p_k conj(X(k)) Y(k) of the
    # functions on 4 points is the form of the diagonal density diag(p)
    alg, rep = abelian_algebra(4)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    f = np.stack([np.diag(r) for r in rep])
    st = AlgebraState(alg, (np.conj(f) * p) @ f.T)
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


def coefficients(rep, matrix):
    """The coefficient vector of a matrix over the representation basis."""
    cols = np.stack([r.ravel() for r in rep], axis=1)
    coeff, *_ = np.linalg.lstsq(cols, matrix.ravel(), rcond=None)
    np.testing.assert_allclose(cols @ coeff, matrix.ravel(), atol=1e-12)
    return coeff


def test_koopman_circle_permutes_indicator_expectations():
    # L = F diag(0..n-1) F* with F the unitary DFT: exp(-2 pi i L / n) shifts
    # the n-cycle one site, so stroboscopic indicator expectations permute
    alg, rep = matrix_star_algebra(5)
    j = np.arange(5)
    f = np.exp(-2j * np.pi * np.outer(j, j) / 5) / np.sqrt(5)
    gen = coefficients(rep, f @ np.diag(j.astype(complex)) @ f.conj().T)
    p = np.array([0.4, 0.25, 0.15, 0.12, 0.08])
    st = state_from_density(alg, rep, np.diag(p).astype(complex))
    basis = [alg.basis_vector(a) for a in range(alg.dim)]
    period = 2 * np.pi / 5
    tab = evolve_expectations(alg, rep, gen, st, basis, (0.0, period),
                              t_eval=[0.0, period])
    indicators = [coefficients(rep, np.diag(np.eye(5)[k]).astype(complex)) for k in range(5)]
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
    res = covariant_ehrenfest_residual(alg, [pvec], field, alg.basis_vector(1), (0,), 1e-3)
    assert res[0] <= 1e-6
    _, _, half = translated_qubit_field(5e-4)
    res_half = covariant_ehrenfest_residual(alg, [pvec], half, alg.basis_vector(1), (0,), 5e-4)
    assert 3.8 <= res[0] / res_half[0] <= 4.2


def test_covariant_residual_trivial_cases():
    alg, rep, field = translated_qubit_field(1e-3)
    # the unit is translation invariant and annihilated by the bracket
    res = covariant_ehrenfest_residual(alg, [0.5 * alg.basis_vector(3)], field,
                                       alg.basis_vector(alg.unit_index), (0,), 1e-3)
    assert res[0] <= 1e-13
    # constant field with zero momentum: both sides vanish identically
    _, _, const = translated_qubit_field(1e-3, omega=0.0)
    zero = np.zeros(4, dtype=complex)
    res = covariant_ehrenfest_residual(alg, [zero], const, alg.basis_vector(1), (0,), 1e-3)
    assert res[0] == 0.0


def test_covariant_residual_needs_neighbours():
    alg, rep, field = translated_qubit_field(1e-3)
    del field[(1,)]
    with pytest.raises(PreconditionError, match="site"):
        covariant_ehrenfest_residual(alg, [alg.basis_vector(3)], field,
                                     alg.basis_vector(1), (0,), 1e-3)


def test_observability_report():
    # an observable is observable at a site when its mean varies slowly under
    # probe shifts (by at most delta) and its uncertainty is much smaller
    # (a tenth) than |mean| + delta
    def readings(field, x, delta, site=(0,), shifts=((1,), (-1,))):
        mean = uncertain_value(field[site], x)
        variation = max(abs(uncertain_value(field[(site[0] + h[0],)], x) - mean)
                        for h in shifts)
        sigma = uncertainty(field[site], x)
        return variation <= delta, sigma, abs(mean) + delta

    alg, rep, field = translated_qubit_field(1e-3, r=(0.2, 0.1, 0.3))
    slow, sigma, scale = readings(field, alg.basis_vector(3), 1e-6)
    assert slow  # sigma_z commutes with the generator
    assert sigma == pytest.approx(np.sqrt(1 - 0.09), abs=1e-12)
    assert scale == pytest.approx(0.3 + 1e-6, abs=1e-12)
    assert not sigma <= 0.1 * scale  # sigma = 0.954 >> 0.3
    slow, _, _ = readings(field, alg.basis_vector(1), 1e-9)
    assert not slow  # mean moves ~ omega*dx under a shift
    # near-pure state: uncertainty small against the mean
    _, _, sharp = translated_qubit_field(1e-3, r=(0.0, 0.0, 0.9999))
    slow, sigma, scale = readings(sharp, alg.basis_vector(3), 1e-6)
    assert slow and sigma <= 0.1 * scale


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


def test_descriptor_rows_parse_to_the_catalog_bits():
    # every catalog algebra through its JSON descriptor, which lists the
    # nonzero entries: their bits come back, -0.0 parts included
    for build in CATALOG.values():
        alg = build()[0]
        back = algebra_from_descriptor(json.loads(json.dumps(algebra_descriptor(alg))))
        for got, want in ((back.structure, alg.structure), (back.involution, alg.involution)):
            assert got.tobytes() == np.where(want != 0, want, 0).tobytes()


_INDICES = "must start with {} indices in 0..3, got"


@pytest.mark.parametrize("key, row, message", [
    ("structure", [-1, 0.7, "1", True, 0], "'algebra.structure[1]' must be a finite number, got '1'"),
    ("structure", [-1, 0, 1, 1, 0], f"'algebra.structure[1]' {_INDICES.format(3)} [-1, 0, 1, 1, 0]"),
    ("structure", [0.5, 0, 1, 1, 0], f"'algebra.structure[1]' {_INDICES.format(3)} [0.5, 0, 1, 1, 0]"),
    ("structure", [1, 2, 4, 1, 0], f"'algebra.structure[1]' {_INDICES.format(3)} [1, 2, 4, 1, 0]"),
    ("structure", [1, 2, 3, float("nan"), 0],
     "'algebra.structure[1]' must be a finite number, got nan"),
    ("structure", [1, 2, 3, 1], "'algebra.structure[1]' must be a list of 5 numbers, got [1, 2, 3, 1]"),
    ("involution", [0, 4, 1, 0], f"'algebra.involution[1]' {_INDICES.format(2)} [0, 4, 1, 0]"),
    ("involution", [0, 0, True, 0], "'algebra.involution[1]' must be a finite number, got True"),
], ids=["string-and-bool", "negative-index", "fractional-index", "index-beyond-dim", "nan-value",
        "short-row", "involution-index", "involution-bool"])
def test_descriptor_rows_name_the_first_bad_row(key, row, message):
    # the first row stays sound; the second used to be read with int() and float()
    data = json.loads(json.dumps(algebra_descriptor(su2_qubit()[0])))
    data[key][1] = row
    with pytest.raises(ConfigError) as exc:
        algebra_from_descriptor(data)
    assert str(exc.value) == message
