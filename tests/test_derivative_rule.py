"""The numerical-derivative rule, pinned bit for bit.

Each route through ``qspace.richardson``, ``qspace.central`` and
``qspace.mixed``, and the chain rule of the power partials, is compared byte
for byte (``.tobytes()``) with its formula written out by hand below: the
extrapolated central difference of a label path, the extrapolated 4-point
stencil of K and of log K, the generator quotient, and the partials of
<z, z'>^n and of K_base^n.  Paths and points are random, so no coordinate is
a signed zero.
"""

import numpy as np
import pytest
import scipy.linalg

from cohspace import qspace, tdvp
from cohspace.errors import DomainError
from cohspace.kernels import (
    Point,
    debranges_space,
    euclidean_subset,
    eval_kernel,
    klauder_space,
    linear_point_map,
    moebius_space,
    power_space,
    sample_points,
    spin_space,
    trivial_space,
)
from cohspace.qspace import DerivativeState, build_quantum_space, derivative_inner, mixed_inner
from cohspace.quantize import CoherentMapSpec, GeneratorSpec, generator_matrix, quantize_map

SEED = 23
SPIN_NS = (0, 1, 2, 3, 8, 40)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# --------------------------------------------------- the formulas, by hand


def hand_spin_partials(n):
    """d_second and d_first_second of K = <z, z'>^n, as spin_space wrote them."""

    def d_second(z, v, vdot):
        s = np.vdot(z.coords, v.coords)
        return n * s ** (n - 1) * np.vdot(z.coords, vdot) if n >= 1 else 0.0j

    def d_first_second(u, udot, v, vdot):
        s = np.vdot(u.coords, v.coords)
        out = 0.0j
        if n >= 2:
            out += n * (n - 1) * s ** (n - 2) * np.vdot(udot, v.coords) * np.vdot(u.coords, vdot)
        if n >= 1:
            out += n * s ** (n - 1) * np.vdot(udot, vdot)
        return out

    return d_second, d_first_second


def hand_power_partials(base, n):
    """d_second and d_first_second of K_base^n, as power_space wrote them."""
    bp = base.partials

    def k_at(z, w):
        return base.kernel(z.coords[None, :], w.coords[None, :])[0, 0]

    def d_second(z, v, vdot):
        return n * k_at(z, v) ** (n - 1) * bp.d_second(z, v, vdot)

    def d_first_second(u, udot, v, vdot):
        k = k_at(u, v)
        dt = np.conj(bp.d_second(v, u, udot))
        ds = bp.d_second(u, v, vdot)
        out = n * k ** (n - 1) * bp.d_first_second(u, udot, v, vdot)
        if n >= 2:
            out += n * (n - 1) * k ** (n - 2) * dt * ds
        return out

    return d_second, d_first_second


def hand_tangent(d, h):
    def diff(step):
        pp, pm = d.path(d.time + step), d.path(d.time - step)
        return (pp.coords - pm.coords) / (2.0 * step)

    d1 = diff(h)
    d2 = diff(h / 2.0)
    return d.path(d.time), (4.0 * d2 - d1) / 3.0


def hand_derivative_inner(space, partials, d1, d2, h):
    if partials is not None:
        (u, udot), (v, vdot) = hand_tangent(d1, h), hand_tangent(d2, h)
        return complex(partials[1](u, udot, v, vdot))

    def phi(dt, ds):
        return eval_kernel(space, d1.path(d1.time + dt), d2.path(d2.time + ds))

    def mixed(step):
        return (phi(step, step) - phi(step, -step) - phi(-step, step) + phi(-step, -step)) / (4.0 * step * step)

    m1, m2 = mixed(h), mixed(h / 2.0)
    return (4.0 * m2 - m1) / 3.0


def hand_mixed_inner(space, partials, z, d, h):
    if partials is not None:
        v, vdot = hand_tangent(d, h)
        return complex(partials[0](z, v, vdot))

    def psi(ds):
        return eval_kernel(space, z, d.path(d.time + ds))

    d1 = (psi(h) - psi(-h)) / (2.0 * h)
    d2 = (psi(h / 2.0) - psi(-h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def hand_log_kernel_stencil(space, z, j, k, h):
    dim = space.label_dim
    ej, ek = np.eye(dim)[j], np.eye(dim)[k]

    def logk(a, b):
        return np.log(eval_kernel(space, Point(a), Point(b)))

    def mixed(step):
        zp = z.coords
        return (
            logk(zp + step * ej, zp + step * ek)
            - logk(zp + step * ej, zp - step * ek)
            - logk(zp - step * ej, zp + step * ek)
            + logk(zp - step * ej, zp - step * ek)
        ) / (4.0 * step * step)

    m1, m2 = mixed(h), mixed(h / 2.0)
    return (4.0 * m2 - m1) / 3.0


# ------------------------------------------------------------ the partials


def _cvec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


@pytest.mark.parametrize("n", SPIN_NS)
def test_spin_partials_are_the_hand_written_chain_rule(n):
    rng = np.random.default_rng(SEED + n)
    partials = spin_space(n).partials
    hand = hand_spin_partials(n)
    for _ in range(150):
        u, v = Point(_cvec(rng, 2)), Point(_cvec(rng, 2))
        udot, vdot = _cvec(rng, 2), _cvec(rng, 2)
        assert same_bits(partials.d_second(u, v, vdot), hand[0](u, v, vdot))
        assert same_bits(partials.d_first_second(u, udot, v, vdot),
                         hand[1](u, udot, v, vdot))


@pytest.mark.parametrize("base", [trivial_space(3), klauder_space(2), spin_space(3)],
                         ids=lambda sp: sp.kind)
@pytest.mark.parametrize("n", (1, 2, 3, 8))
def test_power_partials_are_the_hand_written_chain_rule(base, n):
    rng = np.random.default_rng(SEED + 100 * n)
    partials = power_space(base, n).partials
    hand = hand_power_partials(base, n)
    for _ in range(50):
        u, v = sample_points(base, rng, 2)
        udot, vdot = _cvec(rng, base.label_dim), _cvec(rng, base.label_dim)
        assert same_bits(partials.d_second(u, v, vdot), hand[0](u, v, vdot))
        assert same_bits(partials.d_first_second(u, udot, v, vdot),
                         hand[1](u, udot, v, vdot))


# ------------------------------------------------- derivative inner products


def _spin_path(rng, z):
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = 0.3 * (x + x.conj().T)
    return lambda t: Point(scipy.linalg.expm(-1j * t * x) @ z.coords)


def _line_path(rng, z, speed):
    b, c = speed * _cvec(rng, len(z.coords)), speed * _cvec(rng, len(z.coords))
    return lambda t: Point(z.coords + t * b + 0.3 * t * t * c)


def _own(space):
    """The analytic partials of a space that is not a power of another kernel."""
    return space.partials.d_second, space.partials.d_first_second


# space, its partials (None: the stencil route), path speed (None: a rotation)
_SPACES = [
    ("trivial", trivial_space(2), _own(trivial_space(2)), 1.0),
    ("klauder", klauder_space(1), _own(klauder_space(1)), 0.5),
    ("spin 3", spin_space(3), hand_spin_partials(3), None),
    ("spin 8", spin_space(8), hand_spin_partials(8), None),
    ("power klauder", power_space(klauder_space(1), 2), hand_power_partials(klauder_space(1), 2),
     0.5),
    ("power debranges", power_space(debranges_space([-2.0, 3j, 1.0]), 2), None, 0.5),
    ("debranges", debranges_space([-2.0, 3j, 1.0]), None, 0.5),
    ("moebius", moebius_space(), None, 0.05),
    ("euclidean_subset", euclidean_subset(2), None, 0.02),
]


@pytest.mark.parametrize("name, space, hand, speed", _SPACES, ids=[s[0] for s in _SPACES])
def test_derivative_inner_products_are_the_hand_written_routes(name, space, hand, speed):
    rng = np.random.default_rng(SEED + len(name))
    for h in (1e-4, 1e-3):
        for _ in range(10):
            z0, w0, z = sample_points(space, rng, 3)
            if speed is None:
                p1, p2 = _spin_path(rng, z0), _spin_path(rng, w0)
            else:
                p1, p2 = _line_path(rng, z0, speed), _line_path(rng, w0, speed)
            d1, d2 = DerivativeState(p1, time=0.0), DerivativeState(p2, time=0.0)
            assert same_bits(derivative_inner(space, d1, d2, h=h),
                             hand_derivative_inner(space, hand, d1, d2, h))
            assert same_bits(mixed_inner(space, z, d2, h=h), hand_mixed_inner(space, hand, z, d2, h))


# ----------------------------------------------------------- Kaehler metric


_METRIC_SPACES = [trivial_space(2), euclidean_subset(3), moebius_space(),
                  debranges_space([-2.0, 3j, 1.0]), debranges_space([1.0, 0.5 - 1j, 0.25j, 1.0])]


@pytest.mark.parametrize("space", _METRIC_SPACES, ids=lambda sp: f"{sp.kind}-{sp.label_dim}")
def test_generic_metric_stencil_is_the_hand_written_one(space, monkeypatch):
    """Each entry of the generic Kaehler metric, before it is symmetrized, is
    the hand-written log-kernel stencil, on degenerate metrics too."""
    rng = np.random.default_rng(SEED)
    entries, mixed = [], qspace.mixed

    def spy(phi, h):
        entries.append(mixed(phi, h))
        return entries[-1]

    monkeypatch.setattr(qspace, "mixed", spy)
    for z in sample_points(space, rng, 8):
        entries.clear()
        try:
            tdvp.kahler_metric(space, z)
        except DomainError:  # degenerate metrics are computed all the same
            pass
        dim = space.label_dim
        want = [hand_log_kernel_stencil(space, z, j, k, tdvp.METRIC_FD_STEP)
                for j in range(dim) for k in range(dim)]
        assert same_bits(np.array(entries, dtype=complex), np.array(want, dtype=complex))


# --------------------------------------------------------------- generators


def _hand_generator(qb, gen, s):
    def quotient(step):
        qp = quantize_map(qb, CoherentMapSpec(gen.flow(step)), tol=1.0)
        qm = quantize_map(qb, CoherentMapSpec(gen.flow(-step)), tol=1.0)
        return (qp.matrix - qm.matrix) / (2j * step)

    d1, d2 = quotient(s), quotient(s / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _spin_generator(x):
    return GeneratorSpec(lambda s: linear_point_map(scipy.linalg.expm(1j * s * x)))


@pytest.mark.parametrize("n, x", [
    (2, np.diag([0.5, -0.5])),
    (3, np.array([[0.0, 0.5], [0.5, 0.0]])),
    (3, np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]])),
    (4, np.array([[0.1, 0.4j], [-0.4j, 0.2]])),
])
def test_generator_matrix_is_the_hand_written_quotient(n, x):
    rng = np.random.default_rng(SEED + n)
    sp = spin_space(n)
    qb = build_quantum_space(sp, sample_points(sp, rng, 2 * n + 4))
    gen = _spin_generator(np.asarray(x, dtype=complex))
    assert same_bits(generator_matrix(qb, gen, s=1e-3, tol=1e-6).matrix,
                     _hand_generator(qb, gen, 1e-3))


def test_klauder_generator_matrix_is_the_hand_written_quotient():
    pts = [Point([0.0, 0.9 * np.exp(2j * np.pi * k / 12)]) for k in range(12)]
    qb = build_quantum_space(klauder_space(1), pts)
    gen = GeneratorSpec(lambda s: (lambda z: Point([z.coords[0], np.exp(1j * s) * z.coords[1]])))
    assert same_bits(generator_matrix(qb, gen, s=1e-3, tol=1e-5).matrix,
                     _hand_generator(qb, gen, 1e-3))
