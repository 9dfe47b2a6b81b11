"""Coherent-space kernel catalog and kernel operations.

A coherent space here is a label set Z together with a kernel K(z, z'),
antiholomorphic in the first slot, such that every finite Gram matrix
[K(z_i, z_j)] is Hermitian positive semidefinite.  The catalog below covers:

- ``trivial``           K = <z, z'> on C^n,
- ``euclidean_subset``  the same kernel restricted to a subset of C^n,
- ``klauder``           labels (z0, zeta) in C x C^m, K = exp(conj(z0) + z0' + <zeta, zeta'>),
- ``spin``              unit spinors in C^2, K = <z, z'>^n  (admissible iff n is a
                        nonnegative integer; n = 2j; other n take the principal
                        branch, evaluated in polar form on real arrays),
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

The kinds whose kernel factors through a finite feature map,
K(z, z') = <phi(z), phi(z')> with phi(z) in C^D, also carry phi in the
``features`` column: ``trivial``, ``euclidean_subset`` and ``icosahedron``
(phi = z), and ``spin`` at an integer exponent 0 <= n <= 1029 (the monomials
sqrt(C(n, k)) z1^(n-k) z2^k, whose weights ``monomial_weights`` gives; above
n = 1029 they overflow float64).  ``feature_matrix`` evaluates phi on a
checked stack.

``gram_spectrum`` is the one Gram spectrum: it requires a Hermitian kernel
and takes the thin SVD of the features, without forming the Gram, for a kind
that has them, else eigh (or eigvalsh) of the Gram.  ``check_coherence`` is
the PSD rule ``psd_verdict`` on its eigenvalues, and qspace takes a quantum
space from its eigenvalues and vectors under the same rule.

A batch of labels is one stack from the config to the kernel: ``coords``
(n, d) complex and ``multipliers`` (n,) or None.  Each factory states once,
over such stacks, its kernel (..., n, d) x (..., m, d) -> (..., n, m), its
point constraint and domain (n, d) -> (n,), and a sampler of `count` labels;
``_CATALOG`` maps each kind to (factory, fields).  ``check_stack`` checks a
stack in one pass, ``cross_gram`` applies the kernel to two stacks
(multipliers included), ``gram_matrix`` mirrors its upper triangle for
Hermitian kernels, and ``eval_kernel`` is its 1 x 1 case: a single label is
the one-row stack (coords (1, d), multipliers (1,) or None).
``cross_gram`` and ``kernel_diagonal`` evaluate with numpy's overflow
warnings off and then check every value once: a non-finite kernel value
raises NumericalError naming the kind and its first entry (i, j).

Throughout, <a, b> = sum conj(a_k) b_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    REQUIRED,
    ConfigError,
    InvalidPointError,
    NumericalError,
    from_descriptor,
)

POINT_TOL = 1e-12          # constraint residual accepted as "on the manifold"
PSD_TOL = 1e-8             # relative PSD tolerance: eig >= -tol * max(1, ||G||)


@dataclass
class KernelSpace:
    """A catalog space.  ``kernel(A, B)`` maps label stacks (..., n, d) x
    (..., m, d) to the (..., n, m) kernel values, without line-bundle
    multipliers; ``sampler(rng, count)`` returns valid labels (count, d) and
    multipliers ((count,) or None), drawn as `count` one-label draws would be.
    ``features``, where set, maps labels (n, d) to phi (n, D) with
    kernel(A, B) = conj(phi(A)) @ phi(B).T; it is None for every kind whose
    kernel has no finite feature map (and for line-bundle kinds)."""

    label_dim: int
    kind: str
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], tuple]
    projective_degree: Optional[int] = None
    hermitian: bool = True
    constraint: Optional[Callable[[np.ndarray], np.ndarray]] = None  # residual per row
    constraint_name: str = ""
    domain: Optional[Callable[[np.ndarray], np.ndarray]] = None  # True per row inside
    domain_name: str = ""
    rowwise_diagonal: bool = False  # kernel takes (n, d) x (m, d) only
    features: Optional[Callable[[np.ndarray], np.ndarray]] = None  # labels (n, d) -> (n, D)
    descriptor: dict = field(default_factory=dict)


def row_norms(a: np.ndarray) -> np.ndarray:
    """The norm of each row, bit for bit np.linalg.norm's of the row alone."""
    return np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))


def check_stack(space: KernelSpace, coords: np.ndarray, multipliers=None) -> None:
    """Check labels (n, d) with multipliers (n,) or None in one pass: each
    row's finiteness, multiplier, constraint and domain, in that order.  The
    first bad row raises the InvalidPointError that row alone gives."""
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


def cross_gram(space: KernelSpace, coords: np.ndarray, multipliers=None,
               coords2: Optional[np.ndarray] = None, multipliers2=None) -> np.ndarray:
    """K(z_i, z'_j) for label stacks coords (n, d) and coords2 (m, d), with
    their multipliers, shape (n, m); without coords2 the right stack is the
    left one, checked once."""
    check_stack(space, coords, multipliers)
    if coords2 is None:
        coords2, multipliers2 = coords, multipliers
    else:
        check_stack(space, coords2, multipliers2)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        k = space.kernel(coords, coords2)
        if space.projective_degree is not None:
            k = np.power(np.outer(multipliers, multipliers2), space.projective_degree) * k
    return _finite(space, k)


def feature_matrix(space: KernelSpace, coords: np.ndarray, multipliers=None) -> np.ndarray:
    """phi(z_i) of checked labels (n, d), shape (n, D), for a kind with features."""
    check_stack(space, coords, multipliers)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        phi = space.features(coords)
    return _finite(space, phi, "feature")


def eval_kernel(space: KernelSpace, z: tuple, z2: tuple) -> complex:
    """K(z, z') of two one-row label stacks (coords (1, d), multipliers (1,) or None)."""
    return complex(cross_gram(space, *z, *(() if z2 is z else z2))[0, 0])


def kernel_diagonal(space: KernelSpace, coords: np.ndarray, multipliers=None) -> np.ndarray:
    """K(z_i, z_i) of checked labels (n, d), bit-equal to eval_kernel of row i with itself:
    one kernel call on the 1 x 1 blocks (n, 1, d), or one per row for kinds
    whose kernel multiplies complex arrays (numpy may fuse a multiply-add on
    a vector, not on eval_kernel's single element)."""
    check_stack(space, coords, multipliers)
    rows = coords[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        k = (np.array([space.kernel(r, r)[0, 0] for r in rows], dtype=complex)
             if space.rowwise_diagonal else space.kernel(rows, rows)[:, 0, 0])
        if space.projective_degree is not None:
            k = np.power(multipliers * multipliers, space.projective_degree) * k
    return _finite(space, k)


def _finite(space: KernelSpace, k: np.ndarray, what: str = "kernel") -> np.ndarray:
    """Kernel values k, (n, m) or the diagonal (n,), or features (n, D), if
    all are finite; else NumericalError naming the first non-finite entry (i, j)."""
    ok = np.isfinite(k)
    if ok.all():
        return k
    at = int(ok.argmin())
    i, j = divmod(at, k.shape[1]) if k.ndim == 2 else (at, at)
    v = complex(k.flat[at])
    raise NumericalError(f"{space.kind}: the {what} value at entry ({i}, {j}) is not finite "
                         f"(re = {v.real:g}, im = {v.imag:g}); it overflowed float64")


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


def _identity(a: np.ndarray) -> np.ndarray:
    return a


def trivial_space(dim: int) -> KernelSpace:
    return KernelSpace(
        label_dim=dim,
        kind="trivial",
        kernel=_sesquilinear,
        sampler=lambda rng, count: (_cgauss(rng, count, (dim, 1.0)), None),
        features=_identity,
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
        features=_identity,
        descriptor={"kind": "euclidean_subset", "dim": dim, "radius": radius},
    )


def klauder_space(modes: int = 1) -> KernelSpace:
    """Labels (z0, zeta) in C x C^modes with K = exp(conj(z0) + z0' + <zeta, zeta'>)."""

    def kernel(a, b):
        return np.exp(a[..., :1].conj() + b[..., None, :, 0]
                      + _sesquilinear(a[..., 1:], b[..., 1:]))

    return KernelSpace(
        label_dim=1 + modes,
        kind="klauder",
        kernel=kernel,
        sampler=lambda rng, count: (_cgauss(rng, count, (1, 0.3), (modes, 0.8)), None),
        descriptor={"kind": "klauder", "modes": modes},
    )


def unit_norm_residual(a: np.ndarray) -> np.ndarray:
    """|row norm - 1| of each row: the constraint of the unit-spinor kinds."""
    return np.abs(row_norms(a) - 1.0)


def _unit_spinors(rng: np.random.Generator, count: int) -> tuple:
    v = _cgauss(rng, count, (2, 1.0))
    return v / row_norms(v)[:, None], None


def polar_exp(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """exp(re + i im) = e^re cos(im) + i e^re sin(im), each part written in
    place by float64 vector loops (numpy's complex exp and log are scalar
    loops, and about 5x slower again right after a BLAS product); with no
    complex multiply, a 1 x 1 block gives the bits of its entry in a larger one."""
    k = np.empty(np.shape(re), dtype=complex)
    r = np.exp(re)
    np.multiply(r, np.cos(im), out=k.real)
    np.multiply(r, np.sin(im), out=k.imag)
    return k


def principal_power(s: np.ndarray, n: float) -> np.ndarray:
    """s^n on the principal branch (arg s in (-pi, pi], as np.log's), 0^n = 0,
    in polar form on real arrays: exp(n log|s| + i n arg s)."""
    m = np.abs(s)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0; inf * 0 for n < 0
        k = polar_exp(n * np.log(m), n * np.angle(s))
    k[m == 0] = 0.0
    return k


MONOMIAL_MAX_DEGREE = 1029  # sqrt(C(n, n // 2)) overflows float64 above it


def monomial_weights(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n: the weights of the degree-n spin monomials;
    ConfigError above MONOMIAL_MAX_DEGREE."""
    if n > MONOMIAL_MAX_DEGREE:
        raise ConfigError(f"spin monomials of degree {n} overflow float64; the degree limit is "
                          f"MONOMIAL_MAX_DEGREE = {MONOMIAL_MAX_DEGREE}")
    return np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])


def _monomials(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """phi_k(z) = sqrt(C(n, k)) z1^(n-k) z2^k of spinors (m, 2), shape (m, n + 1),
    so that <phi(z), phi(z')> = <z, z'>^n by the binomial theorem."""
    k = np.arange(n + 1)
    weights = monomial_weights(n)
    return lambda a: weights * a[:, :1] ** (n - k) * a[:, 1:] ** k


def spin_space(exponent: float) -> KernelSpace:
    """Unit spinors in C^2 with K = <z, z'>^n, n = exponent = 2j.

    Coherent (all Grams PSD) exactly when the exponent is a nonnegative
    integer; other exponents are accepted for diagnostics and fail the PSD
    check with a genuinely negative eigenvalue.  Integer exponents take
    np.power; the others the principal branch |s|^n e^(i n arg s) of
    ``principal_power``, on real arrays.  Integer exponents up to
    MONOMIAL_MAX_DEGREE carry the monomial features.
    """
    n = exponent
    is_int = abs(n - round(n)) < 1e-12
    degree = int(round(n)) if is_int else None

    def kernel(a, b):
        s = _sesquilinear(a, b)
        return np.power(s, degree) if is_int else principal_power(s, n)

    return KernelSpace(
        label_dim=2,
        kind="spin",
        kernel=kernel,
        sampler=_unit_spinors,
        constraint=unit_norm_residual,
        constraint_name="unit spinor norm",
        features=(_monomials(degree) if is_int and 0 <= degree <= MONOMIAL_MAX_DEGREE
                  else None),
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
        constraint=unit_norm_residual,
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

    # labels, sampler, checks and symmetries are the base's; its features are not K^n's
    return replace(
        base,
        kind="power",
        kernel=lambda a, b: np.power(base.kernel(a, b), n),
        features=None,
        projective_degree=None if base.projective_degree is None else n * base.projective_degree,
        descriptor={"kind": "power", "base": base.descriptor, "n": n},
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
    if tab.ndim != 2 or tab.shape[0] != tab.shape[1] or not tab.size:
        raise ConfigError("discrete kernel table must be square and non-empty")
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
        hermitian=herm,
        descriptor={"kind": "discrete", "table": np.stack((tab.real, tab.imag), -1).tolist()},
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
        features=_identity,
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

    def kernel(a, b):
        s = a @ b.swapaxes(-1, -2) / hbar
        return polar_exp(s.real, s.imag)

    return KernelSpace(
        label_dim=modes,
        kind="heisenberg",
        kernel=kernel,
        sampler=_per_label(draw, modes, line=True),
        hermitian=False,
        projective_degree=1,
        descriptor={"kind": "heisenberg", "modes": modes, "hbar": hbar},
    )


_DIM = ("dim", "size", REQUIRED)  # label dimensions are positive integers
_MODES = ("modes", "size", None)
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
    "debranges": (debranges_space, (("coeffs", "pairs", None),)),
    "moebius": (moebius_space, ()),
    "discrete": (discrete_space, (("table", "matrix", REQUIRED),)),
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


def gram_matrix(space: KernelSpace, coords: np.ndarray, multipliers=None) -> np.ndarray:
    """Gram matrix G[i, j] = K(z_i, z_j); exactly Hermitian by construction
    for Hermitian kernels (upper triangle kept, lower mirrored, diagonal real)."""
    g = cross_gram(space, coords, multipliers)
    if space.hermitian:
        np.copyto(g, g.conj().T, where=np.tri(len(coords), k=-1, dtype=bool))
        g[np.diag_indices(len(coords))] = g.diagonal().real
    return g


@dataclass
class PsdVerdict:
    min_eigenvalue: float
    gram_norm: float
    passed: bool
    tolerance_used: float


def psd_verdict(eigs: np.ndarray, tol: float) -> PsdVerdict:
    """The PSD rule on descending Gram eigenvalues (gram_spectrum's):
    passed iff min eig >= -tol * max(1, ||G||_2)."""
    lo = float(eigs[-1])
    norm = float(max(abs(eigs[0]), abs(eigs[-1])))
    return PsdVerdict(
        min_eigenvalue=lo,
        gram_norm=norm,
        passed=bool(lo >= -tol * max(1.0, norm)),
        tolerance_used=float(tol),
    )


def gram_spectrum(space: KernelSpace, coords: np.ndarray, multipliers=None,
                  vectors: bool = True) -> tuple:
    """(lam, U, V*) of the Gram G = [K(z_i, z_j)] of labels (n, d): its n
    eigenvalues lam, descending, and, with `vectors`, eigenvectors U with
    G = U diag(lam) U* (over U's columns).  A kind with features takes the
    thin SVD conj(Phi) = U diag(sigma) V* of its features Phi (n, D) and forms
    no Gram: lam is sigma^2, PSD by construction, with n - D exact zeros below
    it where the labels outnumber the features, and the rows of V* span the
    coherent vectors in feature coordinates, whatever `vectors` says (one
    SVD gives every caller the same sigma^2, bit for bit).  Every other kind
    takes eigh of its Gram, or eigvalsh without `vectors` (U None), and has
    V* None.  InvalidPointError for a non-Hermitian kernel; NumericalError
    where the solver fails or sigma_max^2 overflows float64."""
    if not space.hermitian:
        raise InvalidPointError(f"{space.kind}: PSD check needs a Hermitian kernel")
    n = len(coords)
    try:
        if space.features is not None:
            u, sigma, vh = np.linalg.svd(feature_matrix(space, coords, multipliers).conj(),
                                         full_matrices=False)
            with np.errstate(over="ignore"):  # reported below
                lam = np.concatenate((sigma * sigma, np.zeros(n - len(sigma))))
            if not np.isfinite(lam[0]):
                raise NumericalError(f"{space.kind}: the largest Gram eigenvalue "
                                     f"({sigma[0]:.3e})^2 is not finite; it overflowed float64")
            return lam, u, vh
        g = gram_matrix(space, coords, multipliers)
        if not vectors:
            return np.linalg.eigvalsh(g)[::-1], None, None
        lam, u = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"the Gram spectrum of {n} labels failed: {exc}") from exc
    order = np.argsort(lam)[::-1]          # descending, fixed tie order
    return lam[order], u[:, order], None


def check_coherence(space: KernelSpace, coords: np.ndarray, multipliers=None,
                    tol: float = PSD_TOL) -> PsdVerdict:
    """PSD test of the Gram eigenvalues of gram_spectrum, values only, with a
    relative tolerance (see psd_verdict)."""
    return psd_verdict(gram_spectrum(space, coords, multipliers, vectors=False)[0], tol)


def linear_point_map(matrix: np.ndarray,
                     renormalize: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """Label map z -> M z on each row of a stack (n, d), bit for bit M @ z
    row by row (multipliers untouched).

    renormalize=True projects each image back to the unit sphere, for maps
    that preserve it only up to scale.
    """
    m = np.asarray(matrix, dtype=complex)

    def apply(coords: np.ndarray) -> np.ndarray:
        w = np.matvec(m, coords)
        return w / row_norms(w)[:, None] if renormalize else w

    return apply


def sample_points(space: KernelSpace, rng: np.random.Generator, count: int) -> tuple:
    """`count` valid labels and their multipliers, drawn one after another by
    the space's seeded sampler, scaled so Gram matrices stay well-conditioned;
    a seed gives the same labels however a count is split."""
    if count < 0:
        raise ConfigError(f"count must be nonnegative, got {count}")
    return space.sampler(rng, count)
