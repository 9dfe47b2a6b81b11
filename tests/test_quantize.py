"""Quantized maps and generators against embedding-route oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import oracles
from cohspace.errors import SpanEscapeError, StepSizeError
from cohspace.kernels import (
    Point,
    eval_kernel,
    icosahedron_space,
    icosahedron_vertices,
    klauder_space,
    linear_point_map,
    sample_points,
    spin_space,
    trivial_space,
)
from cohspace.qspace import build_quantum_space
from cohspace.quantize import (
    CoherentMapSpec,
    GeneratorSpec,
    check_homomorphism,
    generator_matrix,
    quantize_map,
)

SEED = 23


def rand_unitary(rng, n):
    return scipy.stats.unitary_group.rvs(n, random_state=np.random.RandomState(rng.integers(1 << 31)))


def linear_spec(m, adjoint=None):
    return CoherentMapSpec(forward=linear_point_map(m),
                           adjoint=None if adjoint is None else linear_point_map(adjoint))


def circle_klauder_basis(n=12, radius=0.9):
    return [Point([0.0, radius * np.exp(2j * math.pi * k / n)]) for k in range(n)]


def klauder_rotation_spec(steps: int, n=12):
    phase = np.exp(2j * math.pi * steps / n)

    def fwd(z):
        return Point([z.coords[0], phase * z.coords[1]])

    def adj(z):
        return Point([z.coords[0], np.conj(phase) * z.coords[1]])

    return CoherentMapSpec(fwd, adj)


# ------------------------------------------------------------------- Gamma(A)


def test_quantized_map_reproduces_kernel_matrix_elements():
    rng = np.random.default_rng(SEED)
    sp = trivial_space(3)
    pts = sample_points(sp, rng, 7)
    qb = build_quantum_space(sp, pts)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q = quantize_map(qb, linear_spec(a), tol=1e-6)
    for j in range(7):
        for i in range(7):
            lhs = np.vdot(qb.factor[:, j], q.matrix @ qb.factor[:, i])
            rhs = eval_kernel(sp, pts[j], Point(a @ pts[i].coords))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)
    assert q.residual <= 5e-8  # rank-complete basis: residual at the sqrt(eps) floor


def test_quantized_map_eigenvalues_match_label_matrix_on_trivial_space():
    rng = np.random.default_rng(SEED + 1)
    sp = trivial_space(4)
    qb = build_quantum_space(sp, sample_points(sp, rng, 9))
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q = quantize_map(qb, linear_spec(a), tol=1e-6)
    got = np.sort_complex(np.linalg.eigvals(q.matrix))
    want = np.sort_complex(np.linalg.eigvals(a))
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-9)


def test_quantized_rotation_matches_symmetric_power_rep():
    rng = np.random.default_rng(SEED + 2)
    n = 3
    sp = spin_space(n)
    rep = oracles  # silence linters; real oracle below
    from cohspace.reps import SpinRep

    srep = SpinRep(n)
    pts = sample_points(sp, rng, 10)
    qb = build_quantum_space(sp, pts)
    u = rand_unitary(rng, 2)
    q = quantize_map(qb, linear_spec(u, adjoint=u.conj().T), tol=1e-6)
    g_rep = srep.gamma(u)
    for j in range(6):
        for i in range(6):
            lhs = np.vdot(qb.factor[:, j], q.matrix @ qb.factor[:, i])
            rhs = np.vdot(srep.embed(pts[j]), g_rep @ srep.embed(pts[i]))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)


def test_unitarity_of_quantized_rotations():
    rng = np.random.default_rng(SEED + 3)
    for n, npts in ((2, 9), (3, 11)):
        sp = spin_space(n)
        qb = build_quantum_space(sp, sample_points(sp, rng, npts))
        u = rand_unitary(rng, 2)
        q = quantize_map(qb, linear_spec(u, adjoint=u.conj().T), tol=1e-6)
        defect = np.linalg.norm(q.matrix.conj().T @ q.matrix - np.eye(qb.rank), 2)
        assert defect <= 1e-8, f"n={n}: unitarity defect {defect:.2e}"


def test_span_escape_raises_with_guidance():
    sp = klauder_space(1)
    qb = build_quantum_space(sp, circle_klauder_basis(8, radius=0.6))
    squeeze = CoherentMapSpec(lambda z: Point([z.coords[0], 1.8 * z.coords[1]]))
    with pytest.raises(SpanEscapeError, match="enrich the basis"):
        quantize_map(qb, squeeze, tol=1e-8)


# -------------------------------------------------------------- homomorphism


def test_homomorphism_50_pairs_under_1e8():
    rng = np.random.default_rng(SEED + 4)
    checked = 0
    # trivial C^3, generic invertible pairs
    sp = trivial_space(3)
    qb = build_quantum_space(sp, sample_points(sp, rng, 8))
    for _ in range(20):
        a = np.eye(3) + 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        b = np.eye(3) + 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert check_homomorphism(qb, linear_spec(a), linear_spec(b)) <= 1e-8
        checked += 1
    # spin(4): unitary pairs
    sp = spin_space(4)
    qb = build_quantum_space(sp, sample_points(sp, rng, 12))
    for _ in range(15):
        u, v = rand_unitary(rng, 2), rand_unitary(rng, 2)
        assert check_homomorphism(qb, linear_spec(u, u.conj().T), linear_spec(v, v.conj().T)) <= 1e-8
        checked += 1
    # icosahedron: symmetry-group elements permuting the vertex basis
    ico = icosahedron_space()
    pts = [Point(v.astype(complex)) for v in icosahedron_vertices()]
    qb = build_quantum_space(ico, pts)
    cyc = np.roll(np.eye(3), 1, axis=0).astype(complex)       # (x,y,z) -> (z,x,y)
    flip = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    words = [cyc, flip, cyc @ flip, cyc @ cyc, flip @ cyc]
    for i in range(10):
        a, b = words[i % len(words)], words[(i * 2 + 1) % len(words)]
        assert check_homomorphism(qb, linear_spec(a, a.conj().T), linear_spec(b, b.conj().T)) <= 1e-10
        checked += 1
    # Klauder: basis-preserving rotations of a 12-point circle basis
    sp = klauder_space(1)
    qb = build_quantum_space(sp, circle_klauder_basis(12))
    for i in range(5):
        assert check_homomorphism(qb, klauder_rotation_spec(i + 1), klauder_rotation_spec(7 - i)) <= 1e-8
        checked += 1
    assert checked == 50


# ------------------------------------------------------------------ dGamma(X)


def spin_flow(x):
    """s -> point map of expm(i s X) on spinors."""

    def flow(s):
        u = scipy.linalg.expm(1j * s * np.asarray(x, dtype=complex))
        return linear_point_map(u)

    return GeneratorSpec(flow)


def test_generator_matches_angular_momentum_rep():
    rng = np.random.default_rng(SEED + 5)
    n = 4
    sp = spin_space(n)
    pts = sample_points(sp, rng, 12)
    qb = build_quantum_space(sp, pts)
    from cohspace.reps import SpinRep

    srep = SpinRep(n)
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    d = generator_matrix(qb, spin_flow(sx), s=1e-3, tol=1e-6)
    # compare matrix elements against dGamma(sigma_x/2) = J_x in the monomial rep
    jx = srep.dgamma(sx)
    for j in range(8):
        for i in range(8):
            lhs = np.vdot(qb.factor[:, j], d.matrix @ qb.factor[:, i])
            rhs = np.vdot(srep.embed(pts[j]), jx @ srep.embed(pts[i]))
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-8)
    # eigenvalues are m = -j..j
    eigs = np.sort(np.linalg.eigvalsh((d.matrix + d.matrix.conj().T) / 2))
    np.testing.assert_allclose(eigs, np.arange(-2.0, 2.5, 1.0), atol=1e-7)


def test_generator_additivity():
    rng = np.random.default_rng(SEED + 6)
    sp = spin_space(3)
    qb = build_quantum_space(sp, sample_points(sp, rng, 10))
    x = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]])
    y = np.array([[0.1, 0.4j], [-0.4j, 0.2]])
    dx = generator_matrix(qb, spin_flow(x), s=1e-3).matrix
    dy = generator_matrix(qb, spin_flow(y), s=1e-3).matrix
    dxy = generator_matrix(qb, spin_flow(x + y), s=1e-3).matrix
    scale = 1.0 + np.linalg.norm(dxy, 2)
    assert np.linalg.norm(dxy - dx - dy, 2) / scale <= 1e-6


def test_generator_exponential_consistency():
    rng = np.random.default_rng(SEED + 7)
    sp = spin_space(2)
    qb = build_quantum_space(sp, sample_points(sp, rng, 9))
    x = np.array([[0.2, 0.1], [0.1, -0.3]], dtype=complex)  # Hermitian
    d = generator_matrix(qb, spin_flow(x), s=1e-3).matrix
    u_flow = scipy.linalg.expm(1j * np.asarray(x))
    g = quantize_map(qb, linear_spec(u_flow, u_flow.conj().T), tol=1e-6).matrix
    assert np.linalg.norm(g - scipy.linalg.expm(1j * d), 2) <= 1e-6


def test_generator_uniqueness_across_bases():
    # same operator quantized over two different rank-complete bases:
    # spectra agree to 1e-8
    rng = np.random.default_rng(SEED + 8)
    sp = spin_space(2)
    qb1 = build_quantum_space(sp, sample_points(sp, rng, 9))
    qb2 = build_quantum_space(sp, sample_points(sp, rng, 11))
    sz = np.diag([0.5, -0.5]).astype(complex)
    d1 = generator_matrix(qb1, spin_flow(sz), s=1e-3).matrix
    d2 = generator_matrix(qb2, spin_flow(sz), s=1e-3).matrix
    e1 = np.sort(np.linalg.eigvalsh((d1 + d1.conj().T) / 2))
    e2 = np.sort(np.linalg.eigvalsh((d2 + d2.conj().T) / 2))
    np.testing.assert_allclose(e1, e2, atol=1e-8)


def test_generator_step_size_error():
    rng = np.random.default_rng(SEED + 9)
    sp = spin_space(3)
    qb = build_quantum_space(sp, sample_points(sp, rng, 10))
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(StepSizeError):
        generator_matrix(qb, spin_flow(x), s=1.5, tol=1e-10)


def test_klauder_number_generator_spectrum():
    qb = build_quantum_space(klauder_space(1), circle_klauder_basis(12))
    gen = GeneratorSpec(lambda s: (lambda z: Point([z.coords[0], np.exp(1j * s) * z.coords[1]])))
    d = generator_matrix(qb, gen, s=1e-3, tol=1e-5)
    eigs = np.sort(np.linalg.eigvalsh((d.matrix + d.matrix.conj().T) / 2))
    # low-lying number-operator eigenvalues: 0, 1, 2, ... (top of the span is
    # polluted by truncation; check the reliable lower half)
    np.testing.assert_allclose(eigs[:6], np.arange(6.0), atol=1e-5)
