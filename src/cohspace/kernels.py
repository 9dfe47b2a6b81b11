"""Coherent-space kernel catalog and kernel operations.

A coherent space here is a label set Z together with a kernel K(z, z'),
antiholomorphic in the first slot, such that every finite Gram matrix
[K(z_i, z_j)] is Hermitian positive semidefinite.  The catalog below covers:

- ``trivial``           K = <z, z'> on C^n,
- ``euclidean_subset``  the same kernel restricted to a subset of C^n,
- ``klauder``           labels (z0, zeta) in C x C^m, K = exp(conj(z0) + z0' + <zeta, zeta'>),
- ``spin``              unit spinors in C^2, K = <z, z'>^n  (admissible iff n is a
                        nonnegative integer; n = 2j),
- ``spin_t``            transpose variant K = (z^T z')^n, *not* Hermitian; it obeys
                        the involutive identity conj K(z, z') = K(conj z, conj z'),
- ``classical_limit``   K(z, z') = 1 if z' = conj(z) else 0 (delta Gram on
                        self-conjugate labels),
- ``power``             K_base^n for integer n >= 1,
- ``debranges``         two-branch kernel built from an entire polynomial E with
                        E#(w) := conj(E(conj w)); the branch at z' = conj(z) is the
                        removable-singularity limit of the generic branch,
- ``moebius``           Z = {|z1| > |z2|} in C^2, K = 1/(conj(z1) z1' - conj(z2) z2'),
- ``discrete``          finite label set with an explicit kernel table,
- ``icosahedron``       the 12 icosahedron vertices with the real dot-product kernel,
- ``heisenberg``        line-bundle labels (lambda, s) with the *bilinear* kernel
                        lambda lambda' exp(s^T s'/hbar); not Hermitian, projective
                        degree 1 under (lambda, s) -> (alpha lambda, s).

Each factory states once, over stacked label coordinates, its kernel
(..., n, d) x (..., m, d) -> (..., n, m), its point constraint and domain
(n, d) -> (n,), and a sampler of `count` labels; ``_CATALOG`` maps each kind
to (factory, fields).  ``check_stack`` checks a stack in one pass
(``validate_point`` is one row), ``cross_gram`` applies the kernel to two
point lists (line-bundle multipliers included), ``gram_matrix`` mirrors its
upper triangle for Hermitian kernels, and ``eval_kernel`` is its 1 x 1 case.

Analytic path partials (``KernelPartials``) come with ``trivial`` and
``klauder``; ``power`` and integer ``spin``, which is the n-th power of the
trivial kernel, take theirs from one chain rule, ``_power_partials``.

Throughout, <a, b> = sum conj(a_k) b_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    REQUIRED,
    CoherenceViolationError,
    ConfigError,
    InvalidPointError,
    NumericalError,
    from_descriptor,
)

POINT_TOL = 1e-12          # constraint residual accepted as "on the manifold"
PSD_TOL = 1e-8             # relative PSD tolerance: eig >= -tol * max(1, ||G||)
DISTANCE_SLACK = 1e-6      # relative slack before a negative radicand is fatal


class Point:
    """A label point: complex coordinate vector plus an optional line-bundle multiplier."""

    __slots__ = ("coords", "multiplier")

    def __init__(self, coords, multiplier: complex | None = None):
        self.coords = np.atleast_1d(np.asarray(coords, dtype=complex))
        self.multiplier = None if multiplier is None else complex(multiplier)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.multiplier is None:
            return f"Point({self.coords.tolist()})"
        return f"Point({self.coords.tolist()}, multiplier={self.multiplier})"

    def close_to(self, other: "Point", tol: float = 1e-12) -> bool:
        if self.coords.shape != other.coords.shape:
            return False
        if not np.allclose(self.coords, other.coords, rtol=0.0, atol=tol):
            return False
        a = 0.0 if self.multiplier is None else self.multiplier
        b = 0.0 if other.multiplier is None else other.multiplier
        return abs(a - b) <= tol


@dataclass
class KernelPartials:
    """Analytic path derivatives of the kernel.

    ``d_second(z, v, vdot)``            = d/ds K(z, v(s))      given v, v' = vdot
    ``d_first_second(u, udot, v, vdot)`` = d2/(dt ds) K(u(t), v(s))
    """

    d_second: Callable[[Point, Point, np.ndarray], complex]
    d_first_second: Callable[[Point, np.ndarray, Point, np.ndarray], complex]


def _conj_coords(z: Point) -> Point:
    return Point(np.conj(z.coords), None if z.multiplier is None else np.conj(z.multiplier))


@dataclass
class KernelSpace:
    """A catalog space.  ``kernel(A, B)`` maps label stacks (..., n, d) x
    (..., m, d) to the (..., n, m) kernel values, without line-bundle
    multipliers; ``sampler(rng, count)`` returns valid labels (count, d) and
    multipliers ((count,) or None), drawn as `count` one-label draws would be."""

    label_dim: int
    kind: str
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], tuple]
    conjugate_fn: Callable[[Point], Point] = _conj_coords
    partials: Optional[KernelPartials] = None
    projective_degree: Optional[int] = None
    hermitian: bool = True
    constraint: Optional[Callable[[np.ndarray], np.ndarray]] = None  # residual per row
    constraint_name: str = ""
    domain: Optional[Callable[[np.ndarray], np.ndarray]] = None  # True per row inside
    domain_name: str = ""
    rowwise_diagonal: bool = False  # kernel takes (n, d) x (m, d) only
    scalar_mult: Optional[Callable[[complex, Point], Point]] = None
    descriptor: dict = field(default_factory=dict)
    base: Optional["KernelSpace"] = None  # set for power spaces

    def eval(self, z: Point, z2: Point) -> complex:
        return eval_kernel(self, z, z2)

    def conjugate(self, z: Point) -> Point:
        validate_point(self, z)
        return self.conjugate_fn(z)


def row_norms(a: np.ndarray) -> np.ndarray:
    """The norm of each row, bit for bit np.linalg.norm's of the row alone."""
    return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))


def check_stack(space: KernelSpace, coords: np.ndarray, multipliers=None) -> None:
    """Check labels (n, d) with multipliers (n,) or None in one pass: each
    row's finiteness, multiplier, constraint and domain, in that order.  The
    first bad row raises the InvalidPointError validate_point gives it."""
    if coords.ndim != 2 or coords.shape[1] != space.label_dim:
        raise InvalidPointError(f"{space.kind}: label has {coords.shape[-1]} coordinates, "
                                f"expected {space.label_dim}")
    checks = [(~np.isfinite(coords).all(axis=1), lambda i: "non-finite label coordinates")]
    if space.projective_degree is not None:
        checks.append((np.ones(len(coords), bool), lambda i: "line-bundle point needs a multiplier")
                      if multipliers is None else
                      (~np.isfinite(multipliers), lambda i: "non-finite multiplier"))
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite rows fail quietly
        if space.constraint is not None:
            res = space.constraint(coords)
            checks.append((res > POINT_TOL, lambda i: f"constraint '{space.constraint_name}' "
                                                      f"violated (residual {res[i]:.3e})"))
        if space.domain is not None:
            checks.append((~space.domain(coords),
                           lambda i: f"label outside the domain {space.domain_name}"))
    fails = [(int(bad.argmax()), j) for j, (bad, _) in enumerate(checks) if bad.any()]
    if fails:  # the least (row, check) pair is the first bad row's first failure
        row, j = min(fails)
        raise InvalidPointError(f"{space.kind}: {checks[j][1](row)}")


def _stacked(space: KernelSpace, points: list) -> tuple:
    """Coordinates (n, d) and multipliers ((n,) or None) of a point list,
    checked as one stack; the first entry that cannot join it (not a Point,
    a wrong shape, no multiplier) is checked after the rows before it."""
    d, line = space.label_dim, space.projective_degree is not None
    cut = next((i for i, p in enumerate(points) if not isinstance(p, Point)
                or p.coords.shape != (d,) or (line and p.multiplier is None)), len(points))
    coords = np.array([p.coords for p in points[:cut]], dtype=complex).reshape(cut, d)
    mults = np.array([p.multiplier for p in points[:cut]], dtype=complex) if line else None
    check_stack(space, coords, mults)
    if cut < len(points):
        if not isinstance(points[cut], Point):
            raise InvalidPointError(f"expected a Point, got {type(points[cut]).__name__}")
        check_stack(space, points[cut].coords[None, :])  # raises
    return coords, mults


def validate_point(space: KernelSpace, z: Point) -> None:
    _stacked(space, [z])


def cross_gram(space: KernelSpace, left: Sequence[Point], right: Sequence[Point]) -> np.ndarray:
    """K(left_i, right_j) for two point lists, shape (len(left), len(right));
    passing the same object as both lists checks and stacks it once."""
    a, la = _stacked(space, list(left))
    b, lb = (a, la) if right is left else _stacked(space, list(right))
    k = space.kernel(a, b)
    if space.projective_degree is not None:
        k = np.power(np.outer(la, lb), space.projective_degree) * k
    return k


def eval_kernel(space: KernelSpace, z: Point, z2: Point) -> complex:
    pts = (z,)
    return complex(cross_gram(space, pts, pts if z2 is z else (z2,))[0, 0])


def kernel_diagonal(space: KernelSpace, coords: np.ndarray, multipliers=None) -> np.ndarray:
    """K(z_i, z_i) of checked labels (n, d), bit-equal to eval_kernel(z_i, z_i):
    one kernel call on the 1 x 1 blocks (n, 1, d), or one per row for kinds
    whose kernel multiplies complex arrays (numpy may fuse a multiply-add on
    a vector, not on eval_kernel's single element)."""
    check_stack(space, coords, multipliers)
    rows = coords[:, None]
    k = (np.array([space.kernel(r, r)[0, 0] for r in rows], dtype=complex)
         if space.rowwise_diagonal else space.kernel(rows, rows)[:, 0, 0])
    if space.projective_degree is not None:
        k = np.power(multipliers * multipliers, space.projective_degree) * k
    return k


def _at(kernel, z: Point, w: Point) -> complex:
    return kernel(z.coords[None, :], w.coords[None, :])[0, 0]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _cgauss(rng: np.random.Generator, count: int, *groups: tuple) -> np.ndarray:
    """Complex Gaussian labels (count, sum of k) from one standard_normal block
    drawn label by label: each (k, scale) group takes k real, then k imaginary parts."""
    x = rng.standard_normal((count, 2 * sum(k for k, _ in groups)))
    out, at = [], 0
    for k, scale in groups:
        out.append(scale * (x[:, at:at + k] + 1j * x[:, at + k:at + 2 * k]) / math.sqrt(2.0))
        at += 2 * k
    return np.concatenate(out, axis=1)


def _per_label(draw: Callable, dim: int, line: bool = False) -> Callable:
    """A batch sampler from a one-label draw(rng) -> (coords, multiplier),
    for kinds whose number of draws depends on the values drawn."""

    def sampler(rng, count):
        drawn = [draw(rng) for _ in range(count)]
        coords = np.array([c for c, _ in drawn], dtype=complex).reshape(count, dim)
        return coords, np.array([m for _, m in drawn], dtype=complex) if line else None

    return sampler


def _sesquilinear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.conj() @ b.swapaxes(-1, -2)


_SESQUILINEAR_PARTIALS = KernelPartials(
    d_second=lambda z, v, vdot: np.vdot(z.coords, vdot),
    d_first_second=lambda u, udot, v, vdot: np.vdot(udot, vdot),
)


def _power_partials(kernel, partials: KernelPartials, n: int) -> KernelPartials:
    """Partials of the pointwise power K^n (n >= 0) by the chain rule, from
    the stacked Hermitian base kernel and its partials."""

    def d_second(z, v, vdot):
        return n * _at(kernel, z, v) ** (n - 1) * partials.d_second(z, v, vdot) if n >= 1 else 0.0j

    def d_first_second(u, udot, v, vdot):
        if n < 1:
            return 0.0j
        k = _at(kernel, u, v)
        out = n * k ** (n - 1) * partials.d_first_second(u, udot, v, vdot)
        if n >= 2:
            # dK/dt of the Hermitian base via conj of the s-derivative with slots swapped
            dt = np.conj(partials.d_second(v, u, udot))
            out += n * (n - 1) * k ** (n - 2) * dt * partials.d_second(u, v, vdot)
        return out

    return KernelPartials(d_second, d_first_second)


def trivial_space(dim: int) -> KernelSpace:
    return KernelSpace(
        label_dim=dim,
        kind="trivial",
        kernel=_sesquilinear,
        sampler=lambda rng, count: (_cgauss(rng, count, (dim, 1.0)), None),
        partials=_SESQUILINEAR_PARTIALS,
        descriptor={"kind": "trivial", "dim": dim},
    )


def euclidean_subset(dim: int, radius: float = 1.0) -> KernelSpace:
    """The trivial kernel restricted to the closed ball ||z|| <= radius."""

    def draw(rng):
        v = _cgauss(rng, 1, (dim, 1.0))[0]
        r = np.linalg.norm(v)
        if r > radius:
            v = v * (rng.uniform(0.05, 0.95) * radius / r)
        return v, None

    return KernelSpace(
        label_dim=dim,
        kind="euclidean_subset",
        kernel=_sesquilinear,
        sampler=_per_label(draw, dim),
        domain=lambda a: row_norms(a) <= radius + POINT_TOL,
        domain_name=f"||z|| <= {radius}",
        descriptor={"kind": "euclidean_subset", "dim": dim, "radius": radius},
    )


def klauder_space(modes: int = 1) -> KernelSpace:
    """Labels (z0, zeta) in C x C^modes with K = exp(conj(z0) + z0' + <zeta, zeta'>)."""

    def kernel(a, b):
        return np.exp(a[..., :1].conj() + b[..., None, :, 0]
                      + _sesquilinear(a[..., 1:], b[..., 1:]))

    def d_second(z, v, vdot):
        return _at(kernel, z, v) * (vdot[0] + np.vdot(z.coords[1:], vdot[1:]))

    def d_first_second(u, udot, v, vdot):
        k = _at(kernel, u, v)
        a = np.conj(udot[0]) + np.vdot(udot[1:], v.coords[1:])
        b = vdot[0] + np.vdot(u.coords[1:], vdot[1:])
        return k * (a * b + np.vdot(udot[1:], vdot[1:]))

    return KernelSpace(
        label_dim=1 + modes,
        kind="klauder",
        kernel=kernel,
        sampler=lambda rng, count: (_cgauss(rng, count, (1, 0.3), (modes, 0.8)), None),
        partials=KernelPartials(d_second, d_first_second),
        descriptor={"kind": "klauder", "modes": modes},
    )


def _unit_norm_residual(a: np.ndarray) -> np.ndarray:
    return np.abs(row_norms(a) - 1.0)


def _unit_spinors(rng: np.random.Generator, count: int) -> tuple:
    v = _cgauss(rng, count, (2, 1.0))
    return v / row_norms(v)[:, None], None


def spin_space(exponent: float) -> KernelSpace:
    """Unit spinors in C^2 with K = <z, z'>^n, n = exponent = 2j.

    Coherent (all Grams PSD) exactly when the exponent is a nonnegative
    integer; other exponents are accepted for diagnostics and fail the PSD
    check with a genuinely negative eigenvalue.
    """
    n = exponent
    is_int = abs(n - round(n)) < 1e-12

    def kernel(a, b):
        s = _sesquilinear(a, b)
        if is_int:
            return np.power(s, int(round(n)))
        # principal branch for diagnostic (inadmissible) exponents
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(s != 0, np.exp(n * np.log(s)), 0.0j)

    return KernelSpace(
        label_dim=2,
        kind="spin",
        kernel=kernel,
        sampler=_unit_spinors,
        partials=(_power_partials(_sesquilinear, _SESQUILINEAR_PARTIALS, int(round(n)))
                  if is_int else None),
        constraint=_unit_norm_residual,
        constraint_name="unit spinor norm",
        descriptor={"kind": "spin", "exponent": n},
    )


def spin_t_space(exponent: int) -> KernelSpace:
    """Transpose variant K = (z^T z')^n on unit spinors; involutive, not Hermitian."""
    n = int(exponent)
    return KernelSpace(
        label_dim=2,
        kind="spin_t",
        kernel=lambda a, b: np.power(a @ b.swapaxes(-1, -2), n),
        sampler=_unit_spinors,
        hermitian=False,
        constraint=_unit_norm_residual,
        constraint_name="unit spinor norm",
        descriptor={"kind": "spin_t", "exponent": n},
    )


def classical_limit_space(dim: int) -> KernelSpace:
    """K(z, z') = 1 iff z' = conj(z) (within 1e-12) else 0."""

    def kernel(a, b):
        close = np.abs(a.conj()[..., :, None, :] - b[..., None, :, :]) <= 1e-12
        return close.all(axis=-1).astype(complex)

    return KernelSpace(
        label_dim=dim,
        kind="classical_limit",
        kernel=kernel,
        sampler=lambda rng, count: (rng.standard_normal((count, dim)).astype(complex), None),
        descriptor={"kind": "classical_limit", "dim": dim},
    )


def power_space(base: KernelSpace, n: int) -> KernelSpace:
    """Pointwise power K_base^n, coherent for integer n >= 1 (Schur product)."""
    n = int(n)
    if n < 1:
        raise ConfigError("power kernel needs an integer exponent n >= 1")

    # labels, sampler, checks and symmetries are the base's
    return replace(
        base,
        kind="power",
        kernel=lambda a, b: np.power(base.kernel(a, b), n),
        partials=(_power_partials(base.kernel, base.partials, n)
                  if base.partials is not None and base.hermitian else None),
        projective_degree=None if base.projective_degree is None else n * base.projective_degree,
        descriptor={"kind": "power", "base": base.descriptor, "n": n},
        base=base,
    )


def debranges_space(coeffs: Sequence[complex] = (1j, 1.0)) -> KernelSpace:
    """Two-branch kernel built from the entire polynomial E (ascending coeffs).

    Generic branch (z' != conj z):

        K(z, z') = [E#(zbar) E(z') - E(zbar) E#(z')] / (2i (zbar - z'))

    with E#(w) = conj(E(conj w)) (conjugated coefficients).  At z' = conj z the
    kernel is the removable-singularity limit, evaluated at the Hermitian
    midpoint c = (zbar + z')/2 so the two-branch function stays exactly
    Hermitian across the switch:

        K = [E#(c) E'(c) - E(c) E#'(c)] / (-2i).

    The default E(z) = z + i is Hermite-Biehler with K identically 1.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size < 1:
        raise ConfigError("debranges: need a 1-d coefficient list for E")
    cs = np.conj(c)  # coefficients of E#
    dc = c[1:] * np.arange(1, c.size)   # E'
    dcs = cs[1:] * np.arange(1, c.size)  # E#'

    def _pv(p, w):
        # polyval, ascending coefficients
        out = 0.0j
        for ck in p[::-1]:
            out = out * w + ck
        return out

    switch = 1e-8

    def kernel(a, b):
        zb = a[:, :1].conj()
        w = b[:, 0]
        diff = zb - w
        near = np.abs(diff) <= switch * (1.0 + np.abs(zb) + np.abs(w))
        mid = 0.5 * (zb + w)
        limit = (_pv(cs, mid) * _pv(dc, mid) - _pv(c, mid) * _pv(dcs, mid)) / (-2j)
        generic = ((_pv(cs, zb) * _pv(c, w) - _pv(c, zb) * _pv(cs, w))
                   / (2j * np.where(near, 1.0, diff)))
        return np.where(near, limit, generic)

    return KernelSpace(
        label_dim=1,
        kind="debranges",
        kernel=kernel,
        sampler=lambda rng, count: (_cgauss(rng, count, (1, 1.0)), None),
        rowwise_diagonal=True,
        descriptor={"kind": "debranges", "coeffs": [[float(x.real), float(x.imag)] for x in c]},
    )


def moebius_space() -> KernelSpace:
    """Z = {(z1, z2) : |z1| > |z2|}, K = 1/(conj(z1) z1' - conj(z2) z2')."""

    def draw(rng):
        z1 = _cgauss(rng, 1, (1, 1.0))[0]
        while abs(z1[0]) < 0.3:
            z1 = _cgauss(rng, 1, (1, 1.0))[0]
        t = rng.uniform(0.0, 0.7)
        phase = np.exp(2j * math.pi * rng.uniform())
        return np.array([z1[0], t * abs(z1[0]) * phase]), None

    return KernelSpace(
        label_dim=2,
        kind="moebius",
        kernel=lambda a, b: 1.0 / (a[:, :1].conj() * b[:, 0] - a[:, 1:].conj() * b[:, 1]),
        sampler=_per_label(draw, 2),
        rowwise_diagonal=True,
        domain=lambda a: np.abs(a[:, 0]) > np.abs(a[:, 1]),
        domain_name="|z1| > |z2|",
        descriptor={"kind": "moebius"},
    )


def discrete_space(table: np.ndarray) -> KernelSpace:
    """Finite label set {0..m-1} with kernel values from an explicit table."""
    tab = np.asarray(table, dtype=complex)
    if tab.ndim != 2 or tab.shape[0] != tab.shape[1]:
        raise ConfigError("discrete kernel table must be square")
    m = tab.shape[0]
    herm = bool(np.allclose(tab, tab.conj().T, rtol=0.0, atol=1e-12))

    def _idx(x: np.ndarray) -> np.ndarray:
        i = np.rint(x.real).astype(int)
        bad = (np.abs(x - i) > 1e-9) | (i < 0) | (i >= m)
        if bad.any():
            raise InvalidPointError(f"discrete: label {x[bad][0]} is not an index in 0..{m - 1}")
        return i

    return KernelSpace(
        label_dim=1,
        kind="discrete",
        kernel=lambda a, b: tab[_idx(a[..., :, 0])[..., :, None], _idx(b[..., None, :, 0])],
        sampler=lambda rng, count: (rng.integers(0, m, size=count).astype(complex)[:, None], None),
        conjugate_fn=lambda z: z,
        hermitian=herm,
        descriptor={"kind": "discrete", "table": [[[v.real, v.imag] for v in row] for row in tab]},
    )


def icosahedron_vertices() -> np.ndarray:
    """The 12 unit vertices (0, +-1, +-phi) / sqrt(1 + phi^2) and cyclic shifts."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    base = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            base.append((0.0, s1, s2 * phi))
            base.append((s1, s2 * phi, 0.0))
            base.append((s2 * phi, 0.0, s1))
    vs = np.array(sorted(set(base)), dtype=float) / math.sqrt(1.0 + phi * phi)
    assert vs.shape == (12, 3)
    return vs


def icosahedron_space() -> KernelSpace:
    """Icosahedron vertices in R^3 c C^3 with the dot-product kernel (Gram rank 3)."""
    verts = icosahedron_vertices()

    return KernelSpace(
        label_dim=3,
        kind="icosahedron",
        kernel=_sesquilinear,
        sampler=lambda rng, count: (verts[rng.integers(0, len(verts), size=count)].astype(complex),
                                    None),
        constraint=lambda a: np.abs(verts - a[:, None, :]).max(axis=2).min(axis=1),
        constraint_name="icosahedron vertex",
        descriptor={"kind": "icosahedron"},
    )


def heisenberg_space(modes: int = 1, hbar: float = 1.0) -> KernelSpace:
    """Line-bundle labels (lambda, s): K = lambda lambda' exp(s^T s'/hbar), bilinear.

    Not Hermitian-symmetric; satisfies conj K(z, z') = K(conj z, conj z') and has
    projective degree 1 under the scalar action (lambda, s) -> (alpha lambda, s).
    """

    def draw(rng):
        lam = complex(_cgauss(rng, 1, (1, 1.0))[0, 0])
        while abs(lam) < 0.1:
            lam = complex(_cgauss(rng, 1, (1, 1.0))[0, 0])
        return _cgauss(rng, 1, (modes, 0.7))[0], lam

    return KernelSpace(
        label_dim=modes,
        kind="heisenberg",
        kernel=lambda a, b: np.exp(a @ b.swapaxes(-1, -2) / hbar),
        sampler=_per_label(draw, modes, line=True),
        hermitian=False,
        projective_degree=1,
        scalar_mult=lambda a, z: Point(z.coords, a * z.multiplier),
        descriptor={"kind": "heisenberg", "modes": modes, "hbar": hbar},
    )


_DIM = ("dim", "int", REQUIRED)
_MODES = ("modes", "int", None)
# kind -> (factory, descriptor fields); unset optional fields take its defaults
_CATALOG: dict[str, tuple[Callable[..., KernelSpace], tuple]] = {
    "trivial": (trivial_space, (_DIM,)),
    "euclidean_subset": (euclidean_subset, (_DIM, ("radius", "float", None))),
    "klauder": (klauder_space, (_MODES,)),
    "spin": (spin_space, (("exponent", "float", REQUIRED),)),
    "spin_t": (spin_t_space, (("exponent", "int", REQUIRED),)),
    "classical_limit": (classical_limit_space, (_DIM,)),
    "power": (lambda base, n: power_space(from_descriptor(base, _CATALOG, "space.base"), n),
              (("base", "json", REQUIRED), ("n", "int", REQUIRED))),
    "debranges": (lambda coeffs: debranges_space([complex(re, im) for re, im in coeffs]),
                  (("coeffs", "json", ((0.0, 1.0), (1.0, 0.0))),)),
    "moebius": (moebius_space, ()),
    "discrete": (lambda table: discrete_space(np.array([[complex(re, im) for re, im in row]
                                                        for row in table])),
                 (("table", "json", REQUIRED),)),
    "icosahedron": (icosahedron_space, ()),
    "heisenberg": (heisenberg_space, (_MODES, ("hbar", "positive", None))),
}


def space_from_descriptor(desc) -> KernelSpace:
    """A catalog space from its JSON descriptor or kind name (round-trips with .descriptor)."""
    try:
        return from_descriptor(desc, _CATALOG, "space")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad space descriptor: {exc}") from exc


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def distance(space: KernelSpace, z: Point, z2: Point) -> float:
    """Kernel-induced distance sqrt(K(z,z) + K(z',z') - 2 Re K(z,z'))."""
    if not space.hermitian:
        raise InvalidPointError(f"{space.kind}: distance needs a Hermitian kernel")
    kzz = eval_kernel(space, z, z).real
    kww = eval_kernel(space, z2, z2).real
    kzw = eval_kernel(space, z, z2)
    rad = kzz + kww - 2.0 * kzw.real
    scale = max(1.0, abs(kzz), abs(kww))
    if rad < -DISTANCE_SLACK * scale:
        raise CoherenceViolationError(
            f"{space.kind}: squared distance {rad:.3e} is negative beyond tolerance; "
            "kernel is not coherent on these labels"
        )
    return math.sqrt(max(rad, 0.0))


def gram_matrix(space: KernelSpace, points: Sequence[Point]) -> np.ndarray:
    """Gram matrix G[i, j] = K(z_i, z_j); exactly Hermitian by construction
    for Hermitian kernels (upper triangle kept, lower mirrored, diagonal real)."""
    pts = list(points)
    g = cross_gram(space, pts, pts)
    if space.hermitian:
        np.copyto(g, g.conj().T, where=np.tri(len(pts), k=-1, dtype=bool))
        g[np.diag_indices(len(pts))] = g.diagonal().real
    return g


@dataclass
class PsdVerdict:
    min_eigenvalue: float
    gram_norm: float
    passed: bool
    tolerance_used: float


def psd_verdict(eigs: np.ndarray, tol: float) -> PsdVerdict:
    """The PSD rule on ascending Gram eigenvalues:
    passed iff min eig >= -tol * max(1, ||G||_2)."""
    lo = float(eigs[0])
    norm = float(max(abs(eigs[0]), abs(eigs[-1])))
    return PsdVerdict(
        min_eigenvalue=lo,
        gram_norm=norm,
        passed=bool(lo >= -tol * max(1.0, norm)),
        tolerance_used=float(tol),
    )


def check_coherence(space: KernelSpace, points: Sequence[Point], tol: float = PSD_TOL) -> PsdVerdict:
    """PSD test of the Gram matrix with a relative tolerance (see psd_verdict)."""
    if not space.hermitian:
        raise InvalidPointError(f"{space.kind}: PSD check needs a Hermitian kernel")
    g = gram_matrix(space, points)
    try:
        eigs = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"eigensolver failed on a {g.shape[0]}x{g.shape[0]} Gram: {exc}") from exc
    return psd_verdict(eigs, tol)


def check_coherent_map(space, forward, adjoint=None, samples=None, tol: float = 1e-10):
    """Verify K(z, A z') = K(A* z, z') over sample pairs.

    ``forward`` may be a CoherentMapSpec-like object carrying .forward/.adjoint,
    in which case ``adjoint`` is taken from it.  Returns (passed, max_residual)
    with residuals relative to 1 + |K|.
    """
    if adjoint is None and hasattr(forward, "forward"):
        spec = forward
        forward, adjoint = spec.forward, spec.adjoint
    if adjoint is None:
        raise ConfigError("check_coherent_map needs an adjoint map")
    if not samples:
        raise ConfigError("check_coherent_map needs sample pairs")
    worst = 0.0
    for z, z2 in samples:
        az2 = forward(z2)
        asz = adjoint(z)
        lhs = eval_kernel(space, z, az2)  # each call checks its labels, images too
        rhs = eval_kernel(space, asz, z2)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst <= tol, worst


def linear_point_map(matrix: np.ndarray, renormalize: bool = False) -> Callable[[Point], Point]:
    """Point map z -> M z on the label coordinates (multiplier untouched).

    renormalize=True projects the image back to the unit sphere, for maps that
    preserve it only up to scale.
    """
    m = np.asarray(matrix, dtype=complex)

    def apply(z: Point) -> Point:
        w = m @ z.coords
        if renormalize:
            w = w / np.linalg.norm(w)
        return Point(w, z.multiplier)

    return apply


@dataclass
class MoebiusVerdict:
    member: bool
    alpha: float
    beta_abs: float
    gamma: float


def moebius_semigroup_member(a: np.ndarray) -> MoebiusVerdict:
    """Sufficient condition for a 2x2 matrix to map {|z1|>|z2|} into itself
    compatibly with the kernel: alpha > 0, |beta| <= alpha, gamma <= alpha - 2|beta|,
    where alpha = |A11|^2 - |A21|^2, beta = conj(A11) A12 - conj(A21) A22,
    gamma = |A22|^2 - |A12|^2."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ConfigError("moebius semigroup test needs a 2x2 matrix")
    alpha = abs(a[0, 0]) ** 2 - abs(a[1, 0]) ** 2
    beta = np.conj(a[0, 0]) * a[0, 1] - np.conj(a[1, 0]) * a[1, 1]
    gamma = abs(a[1, 1]) ** 2 - abs(a[0, 1]) ** 2
    member = alpha > 0 and abs(beta) <= alpha and gamma <= alpha - 2.0 * abs(beta)
    return MoebiusVerdict(bool(member), float(alpha), float(abs(beta)), float(gamma))


def gu11_adjoint(a: np.ndarray) -> np.ndarray:
    """Adjoint within GU(1,1): A* = J A^H J with J = diag(1, -1)."""
    j = np.diag([1.0, -1.0])
    return j @ np.asarray(a, dtype=complex).conj().T @ j


def sample_points(space: KernelSpace, rng: np.random.Generator, count: int) -> list[Point]:
    """`count` valid points drawn one after another by the space's seeded
    sampler, scaled so Gram matrices stay well-conditioned (used by tests and
    the CLI); a seed gives the same labels however a count is split."""
    if count < 0:
        raise ConfigError(f"count must be nonnegative, got {count}")
    coords, mults = space.sampler(rng, count)
    return [Point(c, m) for c, m in zip(coords, [None] * count if mults is None else mults)]
