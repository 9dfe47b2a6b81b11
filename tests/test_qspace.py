"""Quantum spaces: Gram factorization, embeddings, derivative-state inner products."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from cohspace.errors import CoherenceViolationError, OutOfSpanError
from cohspace.kernels import (
    Point,
    classical_limit_space,
    debranges_space,
    icosahedron_space,
    icosahedron_vertices,
    klauder_space,
    sample_points,
    spin_space,
    trivial_space,
)
from cohspace.qspace import (
    DerivativeState,
    SpanState,
    build_quantum_space,
    derivative_inner,
    embed_state,
    inner_product,
    mixed_inner,
)

SEED = 11


def test_factor_reconstructs_gram():
    rng = np.random.default_rng(SEED)
    for sp, n in ((trivial_space(3), 8), (klauder_space(1), 9), (spin_space(2), 10)):
        qb = build_quantum_space(sp, sample_points(sp, rng, n))
        recon = qb.factor.conj().T @ qb.factor
        scale = max(1.0, np.abs(qb.gram).max())
        np.testing.assert_allclose(recon, qb.gram, rtol=0, atol=1e-12 * scale)


def test_rank_matches_span_dimension():
    rng = np.random.default_rng(SEED)
    # trivial C^3: rank 3 from any >=3 generic points
    qb = build_quantum_space(trivial_space(3), sample_points(trivial_space(3), rng, 10))
    assert qb.rank == 3
    # spin n: monomial dimension n+1
    for n in (1, 2, 3):
        sp = spin_space(n)
        qb = build_quantum_space(sp, sample_points(sp, rng, 12))
        assert qb.rank == n + 1
    # icosahedron: 12 vertices span R^3
    ico = icosahedron_space()
    pts = [Point(v.astype(complex)) for v in icosahedron_vertices()]
    assert build_quantum_space(ico, pts).rank == 3
    # classical limit: delta Gram, full rank
    cl = classical_limit_space(2)
    qb = build_quantum_space(cl, sample_points(cl, rng, 7))
    assert qb.rank == 7


def test_rank_stable_under_1e6_perturbation():
    rng = np.random.default_rng(SEED)
    sp = trivial_space(3)
    pts = sample_points(sp, rng, 20)
    r0 = build_quantum_space(sp, pts).rank
    bumped = [Point(p.coords + 1e-6 * oracles.np.exp(1j * rng.uniform(0, 2 * math.pi))
                    * rng.standard_normal(3)) for p in pts]
    assert build_quantum_space(sp, bumped).rank == r0


def test_build_rejects_non_psd_kernel():
    sp = spin_space(0.5)
    rng = np.random.default_rng(0)
    with pytest.raises(CoherenceViolationError):
        build_quantum_space(sp, sample_points(sp, rng, 8))


def test_build_makes_one_gram(monkeypatch):
    import cohspace.kernels
    import cohspace.qspace

    calls = []

    def counting(space, points):
        calls.append(len(points))
        return original(space, points)

    original = cohspace.kernels.gram_matrix
    for module in (cohspace.kernels, cohspace.qspace):
        monkeypatch.setattr(module, "gram_matrix", counting)
    sp = spin_space(3)
    build_quantum_space(sp, sample_points(sp, np.random.default_rng(SEED), 9))
    assert calls == [9]

    calls.clear()
    bad = spin_space(0.5)
    with pytest.raises(CoherenceViolationError) as info:
        build_quantum_space(bad, sample_points(bad, np.random.default_rng(0), 8))
    assert calls == [8]
    assert info.value.min_eigenvalue < -1e-6


def test_embed_isometry():
    rng = np.random.default_rng(SEED)
    for sp, n in ((trivial_space(2), 6), (klauder_space(1), 8), (spin_space(3), 9)):
        pts = sample_points(sp, rng, n)
        qb = build_quantum_space(sp, pts)
        coef = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        st = SpanState(coef, pts)
        v = embed_state(qb, st)
        n2 = inner_product(sp, st, st).real
        assert abs(np.vdot(v, v).real - n2) <= 1e-10 * max(1.0, n2)


def test_embed_cross_inner_products_match_kernel():
    rng = np.random.default_rng(SEED)
    sp = klauder_space(1)
    pts = sample_points(sp, rng, 7)
    qb = build_quantum_space(sp, pts)
    a = SpanState(rng.standard_normal(7) + 1j * rng.standard_normal(7), pts)
    b = SpanState(rng.standard_normal(7) + 1j * rng.standard_normal(7), pts)
    va, vb = embed_state(qb, a), embed_state(qb, b)
    assert np.vdot(va, vb) == pytest.approx(inner_product(sp, a, b), rel=1e-10, abs=1e-10)


def test_embed_rejects_off_basis_labels():
    rng = np.random.default_rng(SEED)
    sp = trivial_space(2)
    pts = sample_points(sp, rng, 4)
    qb = build_quantum_space(sp, pts)
    stranger = sample_points(sp, rng, 1)
    with pytest.raises(OutOfSpanError):
        embed_state(qb, SpanState([1.0], stranger))


def test_embed_handles_duplicate_basis_points():
    sp = trivial_space(2)
    z = Point([1.0, 2j])
    pts = [z, Point([0.5, -1.0]), Point(z.coords.copy())]
    qb = build_quantum_space(sp, pts)
    assert qb.rank == 2
    st = SpanState([1.0, 0.0, -1.0], pts)  # |z> - |z> = 0
    v = embed_state(qb, st)
    assert np.linalg.norm(v) <= 1e-12


# ------------------------------------------------------------ derivative states


def test_derivative_inner_linear_paths_trivial():
    sp = trivial_space(3)
    rng = np.random.default_rng(SEED)
    a, b, c, d = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4))
    d1 = DerivativeState(lambda t: Point(a + t * b), time=0.2)
    d2 = DerivativeState(lambda s: Point(c + s * d), time=-0.1)
    # d2/(dt ds) <a + t b, c + s d> = <b, d>
    assert derivative_inner(sp, d1, d2) == pytest.approx(np.vdot(b, d), rel=1e-9)
    z = Point(a)
    # d/ds <a, c + s d> = <a, d>
    assert mixed_inner(sp, z, d2) == pytest.approx(np.vdot(a, d), rel=1e-9)


def test_derivative_inner_fd_matches_analytic_partials():
    rng = np.random.default_rng(SEED)
    spaces = [trivial_space(2), klauder_space(1), spin_space(3)]
    for sp in spaces:
        assert sp.partials is not None
        fd_sp = dataclasses.replace(sp, partials=None)
        if sp.kind == "spin":
            jx, jy, jz = oracles.wigner_matrices(1)  # 2x2 Pauli/2
            z0, w0 = sample_points(sp, rng, 2)
            u_rot = oracles.su2_rotation(1, [0.3, 0.5, 1.0], 1.0)

            def path1(t, z0=z0):
                m = oracles.scipy.linalg.expm(-1j * t * (jx + 0.5 * jz))
                return Point(m @ z0.coords)

            def path2(s, w0=w0):
                return Point(oracles.scipy.linalg.expm(-1j * s * (0.2 * jy + jz)) @ w0.coords)
        else:
            z0, w0 = sample_points(sp, rng, 2)
            b = rng.standard_normal(sp.label_dim) + 1j * rng.standard_normal(sp.label_dim)
            d = rng.standard_normal(sp.label_dim) + 1j * rng.standard_normal(sp.label_dim)

            def path1(t, z0=z0, b=b):
                return Point(z0.coords + t * b + 0.3 * t * t * d)

            def path2(s, w0=w0, d=d):
                return Point(w0.coords + s * d - 0.1 * s * s * b)

        d1 = DerivativeState(path1, time=0.1)
        d2 = DerivativeState(path2, time=0.05)
        ana = derivative_inner(sp, d1, d2, h=1e-4)
        fd = derivative_inner(fd_sp, d1, d2, h=1e-4)
        assert abs(ana - fd) <= 1e-6 * (1.0 + abs(ana)), f"{sp.kind}: {abs(ana - fd):.2e}"
        z = sample_points(sp, rng, 1)[0]
        m_ana = mixed_inner(sp, z, d2, h=1e-4)
        m_fd = mixed_inner(fd_sp, z, d2, h=1e-4)
        assert abs(m_ana - m_fd) <= 1e-6 * (1.0 + abs(m_ana))


def test_derivative_inner_klauder_closed_form():
    # path moving only zeta: (z0, zeta + t b): d2/(dt ds) K = K (conj(b)(...)) checked
    sp = klauder_space(1)
    z0 = 0.1 + 0.2j
    za, zb = 0.3 - 0.4j, -0.2 + 0.5j
    b, d = 0.7 - 0.1j, 0.4 + 0.3j
    d1 = DerivativeState(lambda t: Point([z0, za + t * b]), time=0.0)
    d2 = DerivativeState(lambda s: Point([z0, zb + s * d]), time=0.0)
    k = np.exp(np.conj(z0) + z0 + np.conj(za) * zb)
    expected = k * (np.conj(b) * zb * np.conj(za) * d + np.conj(b) * d)
    assert derivative_inner(sp, d1, d2) == pytest.approx(expected, rel=1e-9)


def test_derivative_inner_fd_only_space():
    # de Branges: no analytic partials; still a smooth scalar-kernel derivative
    sp = debranges_space([-2.0, 3j, 1.0])
    d1 = DerivativeState(lambda t: Point([0.3 + 0.2j + t * (0.5 - 0.1j)]), time=0.0)
    d2 = DerivativeState(lambda s: Point([-0.1 + 0.6j + s * (0.2 + 0.4j)]), time=0.0)
    val = derivative_inner(sp, d1, d2, h=1e-3)
    ref = derivative_inner(sp, d1, d2, h=5e-4)
    assert val == pytest.approx(ref, rel=1e-7, abs=1e-7)
