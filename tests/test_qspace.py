"""Quantum spaces: Gram factorization, rank, truncation and span-state coordinates."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from labels import points
from cohspace.errors import (
    CoherenceViolationError,
    ConfigError,
    InvalidPointError,
    NumericalError,
)
from cohspace.kernels import (
    check_coherence,
    classical_limit_space,
    debranges_space,
    discrete_space,
    euclidean_subset,
    eval_kernel,
    gram_matrix,
    heisenberg_space,
    icosahedron_space,
    icosahedron_vertices,
    klauder_space,
    moebius_space,
    power_space,
    sample_points,
    spin_space,
    spin_t_space,
    trivial_space,
)
from cohspace.qspace import build_quantum_space

SEED = 11


def factor(qb):
    """B = diag(sqrt(lam)) U* of the retained eigendecomposition: the columns
    of B are the coordinates of the |y_i>, with B* B = G."""
    return np.sqrt(qb.eigvals)[:, None] * qb.eigvecs.conj().T


def test_factor_reconstructs_gram():
    rng = np.random.default_rng(SEED)
    for sp, n in ((trivial_space(3), 8), (klauder_space(1), 9), (spin_space(2), 10)):
        qb = build_quantum_space(sp, *sample_points(sp, rng, n))
        b, g = factor(qb), gram_matrix(sp, qb.coords, qb.multipliers)
        scale = max(1.0, np.abs(g).max())
        np.testing.assert_allclose(b.conj().T @ b, g, rtol=0, atol=1e-12 * scale)


def test_rank_matches_span_dimension():
    rng = np.random.default_rng(SEED)
    # trivial C^3: rank 3 from any >=3 generic points
    qb = build_quantum_space(trivial_space(3), *sample_points(trivial_space(3), rng, 10))
    assert qb.rank == 3
    # spin n: monomial dimension n+1
    for n in (1, 2, 3):
        sp = spin_space(n)
        qb = build_quantum_space(sp, *sample_points(sp, rng, 12))
        assert qb.rank == n + 1
    # icosahedron: 12 vertices span R^3
    ico = icosahedron_space()
    assert build_quantum_space(ico, icosahedron_vertices().astype(complex)).rank == 3
    # classical limit: delta Gram, full rank
    cl = classical_limit_space(2)
    qb = build_quantum_space(cl, *sample_points(cl, rng, 7))
    assert qb.rank == 7


def test_rank_stable_under_1e6_perturbation():
    rng = np.random.default_rng(SEED)
    sp = trivial_space(3)
    pts, _ = sample_points(sp, rng, 20)
    r0 = build_quantum_space(sp, pts).rank
    bumped = np.array([p + 1e-6 * oracles.np.exp(1j * rng.uniform(0, 2 * math.pi))
                       * rng.standard_normal(3) for p in pts])
    assert build_quantum_space(sp, bumped).rank == r0


_NOT_PSD = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
_PSD_RULE_SPACES = {
    "trivial3": trivial_space(3), "euclidean3": euclidean_subset(3, 0.8),
    "klauder1": klauder_space(1), "klauder3": klauder_space(3), "spin4": spin_space(4),
    "spin0.5": spin_space(0.5), "spin0.6": spin_space(0.6), "spin2.5": spin_space(2.5),
    "classical2": classical_limit_space(2), "power-spin2": power_space(spin_space(2), 3),
    "debranges": debranges_space(), "debranges-quadratic": debranges_space([-2.0, 3j, 1.0]),
    "moebius": moebius_space(), "icosahedron": icosahedron_space(),
    "discrete": discrete_space(np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])),
    "discrete-not-psd": discrete_space(_NOT_PSD),
}


def test_build_rejects_non_psd_kernel():
    """One PSD rule: over the Hermitian catalog, a build at tol fails exactly
    where check_coherence at tol does, with the same min eigenvalue within
    1e-12 lam_max (eigh against eigvalsh of one Gram)."""
    failing = {}
    for name, sp in _PSD_RULE_SPACES.items():
        coords, mults = sample_points(sp, np.random.default_rng(0), 8)
        if name == "discrete-not-psd":
            coords = np.array([[0], [1], [0]], dtype=complex)
        for tol in (1e-10, 1e-8, 1e-4, 0.5):
            verdict = check_coherence(sp, coords, mults, tol=tol)
            if verdict.passed:
                build_quantum_space(sp, coords, mults, tol=tol)
                continue
            failing.setdefault(name, []).append(tol)
            with pytest.raises(CoherenceViolationError) as info:
                build_quantum_space(sp, coords, mults, tol=tol)
            assert (abs(info.value.min_eigenvalue - verdict.min_eigenvalue)
                    <= 1e-12 * verdict.gram_norm)
    # each negative eigenvalue lies below -lam_max / 4 and above -lam_max / 2
    assert failing == {name: [1e-10, 1e-8, 1e-4]
                       for name in ("spin0.5", "spin0.6", "spin2.5", "discrete-not-psd")}


@pytest.mark.parametrize("sp", [spin_t_space(3), heisenberg_space(2, 0.7), discrete_space(
    np.array([[1.0, 0.5j], [0.5j, 1.0]]))], ids=["spin_t", "heisenberg", "discrete-not-hermitian"])
def test_build_and_check_reject_a_non_hermitian_kernel_alike(sp):
    coords, mults = sample_points(sp, np.random.default_rng(0), 4)
    for run in (check_coherence, build_quantum_space):
        with pytest.raises(InvalidPointError, match=f"{sp.kind}: PSD check needs a Hermitian"):
            run(sp, coords, mults)


def test_build_makes_one_gram(monkeypatch):
    """A kind without features forms its Gram once; a kind with features forms none."""
    import cohspace.kernels

    calls = []

    def counting(space, coords, multipliers=None):
        calls.append(len(coords))
        return original(space, coords, multipliers)

    original = cohspace.kernels.gram_matrix
    monkeypatch.setattr(cohspace.kernels, "gram_matrix", counting)
    sp = spin_space(3)
    build_quantum_space(sp, *sample_points(sp, np.random.default_rng(SEED), 9))
    assert calls == []

    sp = klauder_space(1)
    build_quantum_space(sp, *sample_points(sp, np.random.default_rng(SEED), 9))
    assert calls == [9]

    calls.clear()
    bad = spin_space(0.5)
    with pytest.raises(CoherenceViolationError) as info:
        build_quantum_space(bad, *sample_points(bad, np.random.default_rng(0), 8))
    assert calls == [8]
    assert info.value.min_eigenvalue < -1e-6


# ------------------------------------------------------------ SVD route against eigh


def gram_route(sp):
    """The space without its features: build_quantum_space takes eigh of the Gram."""
    return dataclasses.replace(sp, features=None)


def sin_largest_angle(u, v):
    """sin of the largest principal angle between the column spans of the
    orthonormal u and v (of one dimension)."""
    return np.linalg.norm(v - u @ (u.conj().T @ v), 2)


_ROUTE_CASES = {
    "spin8-200": (spin_space(8), 200),
    "spin8-5": (spin_space(8), 5),   # fewer labels than the 9 features
    "spin3-40": (spin_space(3), 40),
    "spin0-4": (spin_space(0), 4),
    "trivial3-30": (trivial_space(3), 30),
    "euclidean4-12": (euclidean_subset(4), 12),
    "icosahedron-12": (icosahedron_space(), 12),
}


@pytest.mark.parametrize("name", list(_ROUTE_CASES))
def test_svd_route_matches_eigh_of_the_gram(name):
    """sigma^2 within 1e-14 lam_max of eigh's eigenvalues, the same rank, and
    retained spans within 1e-12 in the sine of their largest principal angle
    (eps-level perturbations over retained gaps of at least 0.05 lam_max)."""
    sp, count = _ROUTE_CASES[name]
    coords, _ = sample_points(sp, np.random.default_rng(SEED), count)
    qb = build_quantum_space(sp, coords)
    lam = np.linalg.eigvalsh(gram_matrix(sp, coords))[::-1]
    assert qb.feature_basis is not None and qb.feature_basis.shape[0] == qb.rank
    assert np.abs(qb.eigvals - lam[:qb.rank]).max() <= 1e-14 * lam[0]
    oracle = build_quantum_space(gram_route(sp), coords)
    assert oracle.feature_basis is None and oracle.rank == qb.rank
    assert sin_largest_angle(qb.eigvecs, oracle.eigvecs) <= 1e-12


def _ico_rows(*signed):
    """Icosahedron vertex rows; -k is the antipode of vertex k (nonzero k)."""
    v = icosahedron_vertices()
    return np.array([np.sign(k) * v[abs(k)] for k in signed], dtype=complex)


@pytest.mark.parametrize("sp, coords, rank", [
    (icosahedron_space(), _ico_rows(1, 1, 1), 1),                     # one vertex thrice
    (icosahedron_space(), _ico_rows(1, -1), 1),                       # an antipodal pair
    (icosahedron_space(), _ico_rows(1, -1, 2, -2, 2), 2),
    (icosahedron_space(), _ico_rows(1, 2, 3, -1, -2, -3), 3),
    (spin_space(8), np.array([[1, 0], [0.6, 0.8], [1, 0], [0.6, 0.8]], dtype=complex), 2),
    (trivial_space(2), np.array([[1, 2j], [0.5, -1.0], [1, 2j]]), 2),
], ids=["ico-repeated", "ico-antipodes", "ico-two-axes", "ico-three-axes", "spin8-repeated",
        "trivial-repeated"])
def test_rank_deficient_labels_give_one_rank_on_both_routes(sp, coords, rank):
    assert build_quantum_space(sp, coords).rank == rank
    assert build_quantum_space(gram_route(sp), coords).rank == rank


@pytest.mark.parametrize("route", [lambda sp: sp, gram_route], ids=["svd", "eigh"])
def test_both_routes_keep_the_checks(route):
    spin3, triv = route(spin_space(3)), route(trivial_space(2))
    good, _ = sample_points(spin3, np.random.default_rng(SEED), 4)
    with pytest.raises(InvalidPointError, match="unit spinor norm"):
        build_quantum_space(spin3, np.array([[1.0, 1.0]], dtype=complex))
    with pytest.raises(InvalidPointError, match="non-finite label coordinates"):
        build_quantum_space(triv, np.array([[1.0, np.nan]], dtype=complex))
    for tol in (0.0, 1.0):
        with pytest.raises(ConfigError, match="'tol' must lie in"):
            build_quantum_space(spin3, good, tol=tol)
    with pytest.raises(ConfigError, match="at least one basis point"):
        build_quantum_space(spin3, good[:0])
    with pytest.raises(CoherenceViolationError, match="trivial: Gram has no positive eigenvalues"):
        build_quantum_space(triv, np.zeros((3, 2), dtype=complex))
    with pytest.raises(NumericalError, match="overflowed float64"):  # |z|^2 = 1e400
        build_quantum_space(triv, np.array([[1e200, 0.0]], dtype=complex))


def test_powers_and_fractional_spins_stay_on_the_gram_route():
    """A power of spin has no features (its base's would give K, not K^2),
    so its build is eigh of its own Gram: rank 5 for <z, z'>^(2 * 2)."""
    sp = power_space(spin_space(2), 2)
    coords, _ = sample_points(sp, np.random.default_rng(SEED), 12)
    lam = np.linalg.eigh(gram_matrix(sp, coords))[0][::-1]
    qb = build_quantum_space(sp, coords)
    assert sp.features is None and qb.feature_basis is None
    assert qb.rank == 5 and np.array_equal(qb.eigvals, lam[:5])

    frac = spin_space(2.5)
    coords, _ = sample_points(frac, np.random.default_rng(SEED), 12)
    with pytest.raises(CoherenceViolationError) as info:
        build_quantum_space(frac, coords)
    assert frac.features is None
    assert info.value.min_eigenvalue == np.linalg.eigh(gram_matrix(frac, coords))[0][0]


# ------------------------------------------------------------ span-state coordinates


def kernel_form(sp, coords, a, b):
    """<sum a_i |y_i>, sum b_j |y_j>> = sum conj(a_i) b_j K(y_i, y_j), point by point."""
    pts = points(coords)
    return sum(np.conj(a[i]) * b[j] * eval_kernel(sp, y, x)
               for i, y in enumerate(pts) for j, x in enumerate(pts))


def test_embed_isometry():
    # the span state sum c_i |y_i> has coordinates B c in C^rank
    rng = np.random.default_rng(SEED)
    for sp, n in ((trivial_space(2), 6), (klauder_space(1), 8), (spin_space(3), 9)):
        pts, _ = sample_points(sp, rng, n)
        qb = build_quantum_space(sp, pts)
        coef = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = factor(qb) @ coef
        n2 = kernel_form(sp, pts, coef, coef).real
        assert abs(np.vdot(v, v).real - n2) <= 1e-10 * max(1.0, n2)


def test_embed_cross_inner_products_match_kernel():
    rng = np.random.default_rng(SEED)
    sp = klauder_space(1)
    pts, _ = sample_points(sp, rng, 7)
    qb = build_quantum_space(sp, pts)
    a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    va, vb = factor(qb) @ a, factor(qb) @ b
    assert np.vdot(va, vb) == pytest.approx(kernel_form(sp, pts, a, b), rel=1e-10, abs=1e-10)


def test_embed_handles_duplicate_basis_points():
    sp = trivial_space(2)
    z = [1.0, 2j]
    qb = build_quantum_space(sp, np.array([z, [0.5, -1.0], z]))
    assert qb.rank == 2
    v = factor(qb) @ np.array([1.0, 0.0, -1.0])  # |z> - |z> = 0
    assert np.linalg.norm(v) <= 1e-12
