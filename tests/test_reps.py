"""Finite representations and exact propagation vs ladder-operator and Fock oracles."""

import numpy as np
import pytest
import scipy.linalg

import oracles
from labels import label, sampled
from cohspace.kernels import eval_kernel, klauder_space, spin_space
from cohspace.reps import SpinRep, propagate_eig

SEED = 5


def test_spin_embed_reproduces_kernel():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 4):
        sp = spin_space(n)
        z, w = sampled(sp, rng, 2)
        embed_z, embed_w = (oracles.spin_monomial_embed(n, p[0][0]) for p in (z, w))
        assert np.vdot(embed_z, embed_w) == pytest.approx(eval_kernel(sp, z, w), rel=1e-12)


def test_spin_dgamma_gives_angular_momentum():
    # dGamma(sigma_a / 2) must equal the ladder-formula matrices (m = j - k)
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.diag([1.0, -1.0]).astype(complex) / 2
    for n in (1, 2, 3, 5):
        rep = SpinRep(n)
        jx, jy, jz = oracles.wigner_matrices(n)
        np.testing.assert_allclose(rep.dgamma(sx), jx, atol=1e-12)
        np.testing.assert_allclose(rep.dgamma(sy), jy, atol=1e-12)
        np.testing.assert_allclose(rep.dgamma(sz), jz, atol=1e-12)
        # dGamma(I) = n * Id (total monomial degree)
        np.testing.assert_allclose(rep.dgamma(np.eye(2)), n * np.eye(n + 1), atol=1e-12)


def test_spin_gamma_is_multiplicative_and_matches_embedding():
    # Gamma(A) of the oracle: intertwines the embedding, is multiplicative,
    # and is the exponential of the derivation action dGamma
    rng = np.random.default_rng(SEED)
    n = 3
    rep = SpinRep(n)
    sp = spin_space(n)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    (z,) = sampled(sp, rng, 1)
    # intertwining with the embedding
    az = label(a @ z[0][0])
    np.testing.assert_allclose(oracles.spin_gamma(n, a) @ oracles.spin_monomial_embed(n, z[0][0]),
                               oracles.spin_monomial_embed(n, az[0][0]), rtol=1e-11, atol=1e-12)
    # multiplicativity
    np.testing.assert_allclose(oracles.spin_gamma(n, a @ b),
                               oracles.spin_gamma(n, a) @ oracles.spin_gamma(n, b),
                               rtol=1e-10, atol=1e-12)
    # exponential consistency with the derivation action
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(oracles.spin_gamma(n, scipy.linalg.expm(x)),
                               scipy.linalg.expm(rep.dgamma(x)), rtol=1e-9, atol=1e-10)


def test_fock_embed_matches_oracle_and_kernel():
    rng = np.random.default_rng(SEED)
    sp = klauder_space(1)
    z, w = sampled(sp, rng, 2)
    embed_z, embed_w = (oracles.fock_coherent(64, *p[0][0]) for p in (z, w))
    assert np.vdot(embed_z, embed_w) == pytest.approx(eval_kernel(sp, z, w), rel=1e-12)


def test_propagate_eig_matches_expm():
    rng = np.random.default_rng(SEED)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = h + h.conj().T
    psi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    times = [0.0, 0.3, 1.7]
    out = propagate_eig(h, psi0, times, hbar=0.7)
    for t, row in zip(times, out):
        ref = scipy.linalg.expm(-1j * t * h / 0.7) @ psi0
        np.testing.assert_allclose(row, ref, rtol=1e-10, atol=1e-12)
