"""Batched sampling, diagonals and propagation against per-item loops.

Each oracle below is the per-item loop written out here: one label drawn at
a time, one kernel row at a time, one sample time at a time, one band entry
at a time.  The batched code must reproduce it bit for bit, so every
comparison is on ``.view(np.uint64)``.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from labels import points
from cohspace import kernels
from cohspace.errors import ConfigError
from cohspace.kernels import (
    classical_limit_space,
    cross_gram,
    debranges_space,
    discrete_space,
    euclidean_subset,
    eval_kernel,
    heisenberg_space,
    icosahedron_space,
    icosahedron_vertices,
    kernel_diagonal,
    klauder_space,
    moebius_space,
    power_space,
    sample_points,
    space_from_descriptor,
    spin_space,
    spin_t_space,
    trivial_space,
)
from cohspace.reps import SpinRep, propagate_eig

COUNTS = (0, 1, 2, 7, 40)


def catalog():
    """At least one space of every catalog kind, rejection kinds included."""
    return [
        trivial_space(1), trivial_space(3), euclidean_subset(3, 0.8), klauder_space(1),
        klauder_space(3), spin_space(4), spin_space(0.6), spin_t_space(3),
        classical_limit_space(2), power_space(spin_space(2), 3),
        power_space(heisenberg_space(2), 2), debranges_space(),
        debranges_space([-2.0, 3j, 1.0]), moebius_space(),
        discrete_space(np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])),
        icosahedron_space(), heisenberg_space(2, 0.7),
    ]


def bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def test_the_catalog_covers_every_kind():
    assert {sp.kind for sp in catalog()} == set(kernels._CATALOG)


# ------------------------------------------------------------ sampling


def _cgauss(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def one_label(space, rng):
    """One label (coords, multiplier) drawn as the one-point samplers did."""
    kind, desc = space.kind, space.descriptor
    if kind == "power":
        return one_label(space_from_descriptor(desc["base"]), rng)
    if kind == "trivial":
        return _cgauss(rng, desc["dim"]), None
    if kind == "euclidean_subset":
        v = _cgauss(rng, desc["dim"])
        r = np.linalg.norm(v)
        if r > desc["radius"]:
            v = v * (rng.uniform(0.05, 0.95) * desc["radius"] / r)
        return v, None
    if kind == "klauder":
        return np.concatenate([_cgauss(rng, 1, 0.3), _cgauss(rng, desc["modes"], 0.8)]), None
    if kind in ("spin", "spin_t"):
        v = _cgauss(rng, 2)
        return v / np.linalg.norm(v), None
    if kind == "classical_limit":
        return rng.standard_normal(desc["dim"]).astype(complex), None
    if kind == "debranges":
        return _cgauss(rng, 1), None
    if kind == "moebius":
        z1 = _cgauss(rng, 1, 1.0)
        while abs(z1[0]) < 0.3:
            z1 = _cgauss(rng, 1, 1.0)
        t = rng.uniform(0.0, 0.7)
        phase = np.exp(2j * math.pi * rng.uniform())
        return np.array([z1[0], t * abs(z1[0]) * phase]), None
    if kind == "discrete":
        return np.array([complex(rng.integers(0, len(desc["table"])))]), None
    if kind == "icosahedron":
        verts = icosahedron_vertices()
        return verts[rng.integers(0, len(verts))].astype(complex), None
    if kind == "heisenberg":
        lam = complex(_cgauss(rng, 1, 1.0)[0])
        while abs(lam) < 0.1:
            lam = complex(_cgauss(rng, 1, 1.0)[0])
        return _cgauss(rng, desc["modes"], 0.7), lam
    raise AssertionError(kind)


@pytest.mark.parametrize("space", catalog(), ids=lambda sp: sp.kind)
def test_sample_points_draws_one_label_after_another(space):
    for seed in range(3):
        for count in COUNTS:
            batch, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            coords, mults = sample_points(space, batch, count)
            drawn = [one_label(space, loop) for _ in range(count)]
            assert coords.shape == (count, space.label_dim)
            assert (mults is None) == (space.projective_degree is None)
            for i, (z, mult) in enumerate(drawn):
                np.testing.assert_array_equal(bits(coords[i]), bits(z))
                assert (mults is None) == (mult is None)
                if mult is not None:
                    np.testing.assert_array_equal(bits(mults[i]), bits(mult))
            assert batch.bit_generator.state == loop.bit_generator.state
            np.testing.assert_array_equal(batch.standard_normal(3).view(np.uint64),
                                          loop.standard_normal(3).view(np.uint64))


def test_split_counts_draw_the_same_labels():
    sp = klauder_space(2)
    whole, _ = sample_points(sp, np.random.default_rng(4), 9)
    rng = np.random.default_rng(4)
    parts = [sample_points(sp, rng, count)[0] for count in (4, 0, 5)]
    np.testing.assert_array_equal(bits(whole), bits(np.concatenate(parts)))


def test_negative_count_is_a_config_error():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="count"):
        sample_points(spin_space(2), rng, -3)
    assert rng.bit_generator.state == state


# ------------------------------------------------------ kernel values


def _labels(space, seed, count):
    coords, mults = sample_points(space, np.random.default_rng(seed), count)
    return points(coords, mults), coords, mults


@pytest.mark.parametrize("space", catalog(), ids=lambda sp: sp.kind)
def test_kernel_diagonal_equals_eval_kernel_row_by_row(space):
    for seed in range(3):
        for count in COUNTS:
            pts, coords, mults = _labels(space, seed, count)
            diag = kernel_diagonal(space, coords, mults)
            assert diag.shape == (count,)
            rows = [eval_kernel(space, p, p) for p in pts]
            np.testing.assert_array_equal(bits(diag), bits(rows))


def _pv(p, w):
    out = 0.0j
    for ck in p[::-1]:
        out = out * w + ck
    return out


def two_d_kernel(space):
    """The kernel on (n, d) x (m, d) stacks, in its two-dimensional form."""
    kind, desc = space.kind, space.descriptor
    if kind in ("trivial", "euclidean_subset", "icosahedron"):
        return lambda a, b: a.conj() @ b.T
    if kind == "klauder":
        return lambda a, b: np.exp(a[:, :1].conj() + b[:, 0] + a[:, 1:].conj() @ b[:, 1:].T)
    if kind == "spin":
        n = desc["exponent"]
        if n == round(n):
            return lambda a, b: np.power(a.conj() @ b.T, int(n))

        def fractional(a, b):  # the principal branch in polar form
            s = a.conj() @ b.T
            with np.errstate(divide="ignore", invalid="ignore"):
                r, phi = np.exp(n * np.log(np.abs(s))), n * np.angle(s)
                k = np.zeros_like(s)
                k.real = np.where(s != 0, r * np.cos(phi), 0.0)
                k.imag = np.where(s != 0, r * np.sin(phi), 0.0)
            return k

        return fractional
    if kind == "spin_t":
        return lambda a, b: np.power(a @ b.T, desc["exponent"])
    if kind == "classical_limit":
        return lambda a, b: (np.abs(a.conj()[:, None, :] - b[None, :, :])
                             <= 1e-12).all(axis=-1).astype(complex)
    if kind == "power":
        base = two_d_kernel(space_from_descriptor(desc["base"]))
        return lambda a, b: np.power(base(a, b), desc["n"])
    if kind == "debranges":
        c = np.array([complex(re, im) for re, im in desc["coeffs"]])
        cs, dc = np.conj(c), c[1:] * np.arange(1, c.size)
        dcs = cs[1:] * np.arange(1, c.size)

        def two_branch(a, b):
            zb, w = a[:, :1].conj(), b[:, 0]
            diff = zb - w
            near = np.abs(diff) <= 1e-8 * (1.0 + np.abs(zb) + np.abs(w))
            mid = 0.5 * (zb + w)
            limit = (_pv(cs, mid) * _pv(dc, mid) - _pv(c, mid) * _pv(dcs, mid)) / (-2j)
            generic = ((_pv(cs, zb) * _pv(c, w) - _pv(c, zb) * _pv(cs, w))
                       / (2j * np.where(near, 1.0, diff)))
            return np.where(near, limit, generic)

        return two_branch
    if kind == "moebius":
        return lambda a, b: 1.0 / (a[:, :1].conj() * b[:, 0] - a[:, 1:].conj() * b[:, 1])
    if kind == "discrete":
        tab = np.array([[complex(re, im) for re, im in row] for row in desc["table"]])
        return lambda a, b: tab[np.rint(a[:, 0].real).astype(int)[:, None],
                                np.rint(b[:, 0].real).astype(int)]
    if kind == "heisenberg":  # exp in polar form, e^re cos(im) + i e^re sin(im)
        def polar(a, b):
            s = a @ b.T / desc["hbar"]
            return np.exp(s.real) * np.cos(s.imag) + 1j * (np.exp(s.real) * np.sin(s.imag))

        return polar
    raise AssertionError(kind)


@pytest.mark.parametrize("space", catalog(), ids=lambda sp: sp.kind)
def test_two_d_gram_is_the_two_d_kernel(space):
    kernel = two_d_kernel(space)
    for seed in range(3):
        for count in COUNTS[1:]:
            _, coords, mults = _labels(space, seed, count)
            expect = kernel(coords, coords)
            if mults is not None:
                expect = np.power(np.outer(mults, mults), space.projective_degree) * expect
            np.testing.assert_array_equal(bits(cross_gram(space, coords, mults)), bits(expect))


# ---------------------------------------------------------- propagation


def per_time(h, psi0, times, hbar):
    """exp(-i H t / hbar) psi0 one time at a time, as the loop over times did."""
    h = np.asarray(h, dtype=complex)
    if np.abs(h - h.conj().T).max() > 1e-10 * max(1.0, np.abs(h).max()):
        return [scipy.linalg.expm(-1j * float(t) * h / hbar) @ psi0 for t in times]
    lam, u = np.linalg.eigh(h)
    c = (u.conj().T @ psi0).T
    return [u @ (np.exp(-1j * lam * float(t) / hbar) * c).T for t in times]


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 17])
@pytest.mark.parametrize("hermitian", [True, False])
def test_propagate_eig_equals_the_per_time_loop(dim, hermitian):
    rng = np.random.default_rng(dim)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if hermitian:
        h = h + h.conj().T
    vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    grids = ([0.4], [-0.3, 0.0, 1.7], list(np.linspace(0.0, 3.0, 101)), [])
    for psi0 in (vector, np.eye(dim)):
        for times in grids:
            out = propagate_eig(h, psi0, times, hbar=0.7)
            assert out.shape == (len(times), *psi0.shape)
            for row, ref in zip(out, per_time(h, psi0, times, 0.7)):
                np.testing.assert_array_equal(bits(row), bits(ref))


# ------------------------------------------------------------ dgamma


def dgamma_per_row(n, x):
    d = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        d[k, k] = (n - k) * x[0, 0] + k * x[1, 1]
        if k + 1 <= n:
            d[k, k + 1] = x[0, 1] * math.sqrt((n - k) * (k + 1))
        if k - 1 >= 0:
            d[k, k - 1] = x[1, 0] * math.sqrt(k * (n - k + 1))
    return d


def test_spin_dgamma_fills_its_bands_as_the_row_loop():
    rng = np.random.default_rng(11)
    for n in list(range(41)) + [63, 120, 400]:
        for _ in range(3):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            np.testing.assert_array_equal(bits(SpinRep(n).dgamma(x)), bits(dgamma_per_row(n, x)))
