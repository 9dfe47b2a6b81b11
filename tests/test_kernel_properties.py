"""Property-based checks of the kernel axioms (hypothesis)."""

import cmath

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from labels import label, sampled, stack
from cohspace.kernels import (
    check_coherence,
    classical_limit_space,
    cross_gram,
    debranges_space,
    discrete_space,
    euclidean_subset,
    eval_kernel,
    gram_matrix,
    heisenberg_space,
    icosahedron_space,
    klauder_space,
    moebius_space,
    power_space,
    spin_space,
    spin_t_space,
    trivial_space,
)

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def cvec(draw, dim):
    re = [draw(finite) for _ in range(dim)]
    im = [draw(finite) for _ in range(dim)]
    return np.array([complex(a, b) for a, b in zip(re, im)])


@st.composite
def spinor(draw):
    v = draw(cvec(2))
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0 + 0j, 0.0j])
        n = 1.0
    return label(v / n)


@st.composite
def klauder_pt(draw):
    v = draw(cvec(2))
    return label(np.array([0.3 * v[0], 0.8 * v[1]]))


@given(cvec(3), cvec(3))
@settings(max_examples=150)
def test_trivial_hermitian(a, b):
    sp = trivial_space(3)
    k = eval_kernel(sp, label(a), label(b))
    assert abs(k - np.conj(eval_kernel(sp, label(b), label(a)))) <= 1e-12 * (1 + abs(k))


@given(klauder_pt(), klauder_pt())
@settings(max_examples=150)
def test_klauder_hermitian(z, w):
    sp = klauder_space(1)
    k = eval_kernel(sp, z, w)
    assert abs(k - np.conj(eval_kernel(sp, w, z))) <= 1e-12 * (1 + abs(k))


@given(spinor(), spinor(), spinor())
@settings(max_examples=100)
def test_spin_triangle_inequality(a, b, c):
    g = gram_matrix(spin_space(2), *stack([a, b, c], 2)).real
    d = np.sqrt(np.maximum(np.add.outer(g.diagonal(), g.diagonal()) - 2.0 * g, 0.0))
    assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-9


@given(st.lists(klauder_pt(), min_size=2, max_size=6))
@settings(max_examples=60)
def test_klauder_small_grams_psd(pts):
    assert check_coherence(klauder_space(1), *stack(pts, 2), tol=1e-8).passed


@given(cvec(2), cvec(2))
@settings(max_examples=100)
def test_power_square_is_product(a, b):
    base = trivial_space(2)
    sq = power_space(base, 2)
    k = eval_kernel(base, label(a), label(b))
    assert eval_kernel(sq, label(a), label(b)) == k * k


# ------------------------------------------- batched kernels vs per-pair oracle
#
# Each formula below is written from the kernel's definition, one pair at a
# time, without the package's kernel code.


def _vdot(z, w):
    return complex(np.vdot(z[0][0], w[0][0]))


def _debranges(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    dc = np.polynomial.polynomial.polyder(c)

    def e(x):
        return complex(np.polynomial.polynomial.polyval(x, c))

    def es(x):  # E#(x) = conj(E(conj x))
        return e(x.conjugate()).conjugate()

    def de(x):
        return complex(np.polynomial.polynomial.polyval(x, dc)) if dc.size else 0j

    def des(x):
        return de(x.conjugate()).conjugate()

    def k(z, w):
        zb, x = complex(z[0][0][0]).conjugate(), complex(w[0][0][0])
        if abs(zb - x) <= 1e-8 * (1.0 + abs(zb) + abs(x)):
            m = 0.5 * (zb + x)
            return (es(m) * de(m) - e(m) * des(m)) / (-2j)
        return (es(zb) * e(x) - e(zb) * es(x)) / (2j * (zb - x))

    return k


def _klauder(z, w):
    return cmath.exp(z[0][0][0].conjugate() + w[0][0][0] + complex(np.vdot(z[0][0][1:], w[0][0][1:])))


def _heisenberg(hbar):
    def k(z, w):
        return z[1][0] * w[1][0] * cmath.exp(complex(np.sum(z[0][0] * w[0][0])) / hbar)

    return k


def _fractional(n):
    def k(z, w):
        s = _vdot(z, w)
        return cmath.exp(n * cmath.log(s)) if s != 0 else 0j

    return k


_TABLE = np.array([[2.0, 0.5j, 0.3], [-0.5j, 1.5, 0.2 - 0.1j], [0.3, 0.2 + 0.1j, 1.0]])

CATALOG = {
    "trivial": (lambda: trivial_space(3), _vdot),
    "euclidean_subset": (lambda: euclidean_subset(2), _vdot),
    "klauder1": (lambda: klauder_space(1), _klauder),
    "klauder2": (lambda: klauder_space(2), _klauder),
    "spin3": (lambda: spin_space(3), lambda z, w: _vdot(z, w) ** 3),
    "spin2.5": (lambda: spin_space(2.5), _fractional(2.5)),
    "spin_t": (lambda: spin_t_space(2), lambda z, w: complex(np.sum(z[0][0] * w[0][0])) ** 2),
    "classical_limit": (
        lambda: classical_limit_space(2),
        lambda z, w: 1.0 + 0j if all(abs(a.conjugate() - b) <= 1e-12 for a, b in zip(z[0][0], w[0][0])) else 0j,
    ),
    "power": (lambda: power_space(klauder_space(1), 3), lambda z, w: _klauder(z, w) ** 3),
    "power_heisenberg": (lambda: power_space(heisenberg_space(1), 2), lambda z, w: _heisenberg(1.0)(z, w) ** 2),
    "debranges": (lambda: debranges_space([1j, 1.0]), _debranges([1j, 1.0])),
    "debranges2": (lambda: debranges_space([-2.0, 3j, 1.0]), _debranges([-2.0, 3j, 1.0])),
    "moebius": (
        lambda: moebius_space(),
        lambda z, w: 1.0 / (z[0][0][0].conjugate() * w[0][0][0] - z[0][0][1].conjugate() * w[0][0][1]),
    ),
    "discrete": (
        lambda: discrete_space(_TABLE),
        lambda z, w: complex(_TABLE[int(round(z[0][0][0].real)), int(round(w[0][0][0].real))]),
    ),
    "icosahedron": (lambda: icosahedron_space(), _vdot),
    "heisenberg": (lambda: heisenberg_space(2, hbar=0.7), _heisenberg(0.7)),
}


def _oracle(k, left, right):
    return np.array([[k(z, w) for w in right] for z in left], dtype=complex).reshape(len(left), len(right))


def _labels(sp, seed, count, mirrored):
    """Sampled points plus conjugates of the first few (exercising z' = conj z)."""
    pts = sampled(sp, np.random.default_rng(seed), count)
    return pts + [(c.conj(), None if m is None else m.conj()) for c, m in pts[:mirrored]]


@given(st.sampled_from(sorted(CATALOG)), st.integers(0, 2**32 - 1), st.integers(1, 7),
       st.integers(0, 3), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_batched_gram_and_cross_gram_match_pairwise_oracle(name, seed, count, mirrored, split):
    make, k = CATALOG[name]
    sp = make()
    pts = _labels(sp, seed, count, mirrored)
    g = gram_matrix(sp, *stack(pts, sp.label_dim))
    g0 = _oracle(k, pts, pts)
    np.testing.assert_allclose(g, g0, rtol=0, atol=1e-13 * max(1.0, np.abs(g0).max()))
    left, right = pts[:split], pts[split:]
    c = cross_gram(sp, *stack(left, sp.label_dim), *stack(right, sp.label_dim))
    c0 = _oracle(k, left, right)
    assert c.shape == (len(left), len(right))
    np.testing.assert_allclose(c, c0, rtol=0, atol=1e-13 * max(1.0, np.abs(c0).max(initial=0.0)))
    z, w = pts[0], pts[-1]
    assert abs(eval_kernel(sp, z, w) - k(z, w)) <= 1e-13 * max(1.0, abs(k(z, w)))


@given(st.sampled_from(sorted(n for n in CATALOG if CATALOG[n][0]().hermitian)),
       st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_hermitian_grams_are_exactly_hermitian_with_real_diagonal(name, seed, count, mirrored):
    sp = CATALOG[name][0]()
    g = gram_matrix(sp, *stack(_labels(sp, seed, count, mirrored), sp.label_dim))
    assert np.array_equal(g, g.conj().T)
    assert np.all(g.diagonal().imag == 0.0)
