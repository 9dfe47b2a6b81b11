"""Quantum spaces: Gram factorization, rank, truncation and span-state coordinates."""

import math

import numpy as np
import pytest

import oracles
from labels import points
from cohspace.errors import CoherenceViolationError
from cohspace.kernels import (
    classical_limit_space,
    eval_kernel,
    gram_matrix,
    icosahedron_space,
    icosahedron_vertices,
    klauder_space,
    sample_points,
    spin_space,
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


def test_build_rejects_non_psd_kernel():
    sp = spin_space(0.5)
    rng = np.random.default_rng(0)
    with pytest.raises(CoherenceViolationError):
        build_quantum_space(sp, *sample_points(sp, rng, 8))


def test_build_makes_one_gram(monkeypatch):
    import cohspace.kernels
    import cohspace.qspace

    calls = []

    def counting(space, coords, multipliers=None):
        calls.append(len(coords))
        return original(space, coords, multipliers)

    original = cohspace.kernels.gram_matrix
    for module in (cohspace.kernels, cohspace.qspace):
        monkeypatch.setattr(module, "gram_matrix", counting)
    sp = spin_space(3)
    build_quantum_space(sp, *sample_points(sp, np.random.default_rng(SEED), 9))
    assert calls == [9]

    calls.clear()
    bad = spin_space(0.5)
    with pytest.raises(CoherenceViolationError) as info:
        build_quantum_space(bad, *sample_points(bad, np.random.default_rng(0), 8))
    assert calls == [8]
    assert info.value.min_eigenvalue < -1e-6


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
