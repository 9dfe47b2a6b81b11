"""Finite quantum spaces from Gram factorizations, span states, derivative states.

A quantum space over basis labels y_1..y_n is the span of the coherent
vectors |y_i>.  Numerically it is carried by the factor B with G = B* B,
obtained from the eigendecomposition G = U diag(lam) U*: the retained rows

    B = diag(sqrt(lam_r)) U_r*          (rank x n)

give coordinates of |y_i> as the columns of B, so plain C^rank inner
products reproduce kernel values:  B[:, i]* B[:, j] = G[i, j].

States are either spans (coefficients against label points, possibly off the
basis) or first derivatives of label paths; inner products of the latter are
the mixed path derivatives of the kernel, computed analytically when the
space carries kernel partials and by finite differences otherwise.

The package's one numerical-derivative rule: ``central`` (central difference)
and ``mixed`` (4-point mixed stencil) at steps h and h/2, combined by
``richardson``; tdvp's generic Kaehler metric and quantize's generators use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (CoherenceViolationError, ConfigError, InvalidPointError, NumericalError,
                     OutOfSpanError)
from .kernels import (KernelSpace, Point, cross_gram, eval_kernel, gram_matrix, psd_verdict,
                      validate_point)

DEFAULT_TRUNCATION_TOL = 1e-10


@dataclass
class QuantumBasis:
    space: KernelSpace
    points: list[Point]
    gram: np.ndarray
    factor: np.ndarray          # B with G = B* B, shape (rank, n)
    rank: int
    truncation_tol: float
    # eigendecomposition kept for pseudo-inverse work in quantization
    eigvals: np.ndarray = field(repr=False, default=None)
    eigvecs: np.ndarray = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return len(self.points)


def build_quantum_space(space: KernelSpace, points: Sequence[Point],
                        tol: float = DEFAULT_TRUNCATION_TOL) -> QuantumBasis:
    """Factor the Gram of `points`; eigenvalues below tol * lam_max are truncated.

    Raises CoherenceViolationError if the Gram fails the PSD check at `tol`,
    and ConfigError unless 0 < tol < 1 (tol >= 1 would truncate every
    eigenvalue).
    """
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"'tol' must lie in (0, 1), got {tol!r}")
    pts = list(points)
    if not pts:
        raise ConfigError("need at least one basis point")
    if not space.hermitian:
        raise InvalidPointError(f"{space.kind}: PSD check needs a Hermitian kernel")
    g = gram_matrix(space, pts)
    try:
        lam, u = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericalError(f"eigensolver failed on a {len(pts)}x{len(pts)} Gram: {exc}") from exc
    verdict = psd_verdict(lam, tol)
    if not verdict.passed:
        raise CoherenceViolationError(
            f"{space.kind}: Gram of {len(pts)} points is not PSD "
            f"(min eigenvalue {verdict.min_eigenvalue:.3e})",
            min_eigenvalue=verdict.min_eigenvalue,
        )
    order = np.argsort(lam)[::-1]          # descending, fixed tie order
    lam, u = lam[order], u[:, order]
    lam_max = lam[0]
    if lam_max <= 0.0:
        raise CoherenceViolationError(f"{space.kind}: Gram has no positive eigenvalues")
    keep = lam > tol * lam_max
    rank = int(np.count_nonzero(keep))
    lam_r, u_r = lam[:rank], u[:, :rank]
    factor = np.sqrt(lam_r)[:, None] * u_r.conj().T
    return QuantumBasis(
        space=space, points=pts, gram=g, factor=factor, rank=rank,
        truncation_tol=float(tol), eigvals=lam_r, eigvecs=u_r,
    )


# ----------------------------------------------------------------- span states


@dataclass
class SpanState:
    """Finite combination sum_k coefficients[k] |labels[k]>."""

    coefficients: np.ndarray
    labels: list[Point]

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 1 or len(self.coefficients) != len(self.labels):
            raise ConfigError("SpanState needs one coefficient per label")


def inner_product(space: KernelSpace, a: SpanState, b: SpanState) -> complex:
    """<a, b> = sum_jk conj(alpha_j) beta_k K(y_j, y'_k); labels with a zero
    coefficient, or facing only zero coefficients, are neither used nor validated."""
    ka, kb = a.coefficients != 0, b.coefficients != 0
    if not (ka.any() and kb.any()):
        return 0.0j
    g = cross_gram(space, [y for y, k in zip(a.labels, ka) if k],
                   [y for y, k in zip(b.labels, kb) if k])
    return complex(a.coefficients[ka].conj() @ g @ b.coefficients[kb])


def embed_state(qb: QuantumBasis, state: SpanState, tol: float = 1e-8) -> np.ndarray:
    """Coordinates of a span state in the quantum space (C^rank).

    Labels are matched against the basis points; labels off the basis raise
    OutOfSpanError (they may lie outside the retained span).
    """
    v = np.zeros(qb.rank, dtype=complex)
    for c, y in zip(state.coefficients, state.labels):
        hit = None
        for i, p in enumerate(qb.points):
            if y is p or y.close_to(p):
                hit = i
                break
        if hit is None:
            raise OutOfSpanError(
                f"label {y} is not a basis point; embed only span states over the basis"
            )
        v += c * qb.factor[:, hit]
    # consistency of the embedding with the kernel inner product
    n2_kernel = inner_product(qb.space, state, state).real
    n2_coords = float(np.vdot(v, v).real)
    if abs(n2_coords - n2_kernel) > max(tol, 1e-8) * max(1.0, abs(n2_kernel)):
        raise OutOfSpanError(
            f"state norm escapes the retained span: coords {n2_coords:.6e} "
            f"vs kernel {n2_kernel:.6e}; raise the basis rank or loosen truncation"
        )
    return v


# ------------------------------------------------------------ derivative states


def richardson(q_h, q_half):
    """Richardson extrapolation of an O(h^2) quotient from its values at steps
    h and h/2: (4 q(h/2) - q(h)) / 3 is O(h^4)."""
    return (4.0 * q_half - q_h) / 3.0


def central(f: Callable, h: float):
    """d f / dt at t = 0, f(t) a number or an array: the central difference
    (f(step) - f(-step)) / (2 step) at steps h and h/2, extrapolated."""
    def diff(step):
        return (f(step) - f(-step)) / (2.0 * step)

    return richardson(diff(h), diff(h / 2.0))


def mixed(phi: Callable, h: float):
    """d^2 phi / (dt ds) at (0, 0): the 4-point stencil at steps h and h/2,
    extrapolated; phi(t, s) is called at (+, +), (+, -), (-, +), (-, -)."""
    def stencil(step):
        return ((phi(step, step) - phi(step, -step) - phi(-step, step) + phi(-step, -step))
                / (4.0 * step * step))

    return richardson(stencil(h), stencil(h / 2.0))


@dataclass
class DerivativeState:
    """First derivative (d/dt)|path(t)> at `time`."""

    path: Callable[[float], Point]
    time: float


def _path_point(space: KernelSpace, path, t: float) -> Point:
    p = path(t)
    validate_point(space, p)
    return p


def _path_tangent(space: KernelSpace, d: DerivativeState, h: float) -> tuple[Point, np.ndarray]:
    """The path point and its tangent by `central` (stencil points validated)."""
    p0 = _path_point(space, d.path, d.time)
    return p0, central(lambda dt: _path_point(space, d.path, d.time + dt).coords, h)


def derivative_inner(space: KernelSpace, d1: DerivativeState, d2: DerivativeState,
                     h: float = 1e-4) -> complex:
    """<d1, d2> = d^2/(dt ds) K(u(t), v(s)) at (d1.time, d2.time)."""
    if space.partials is not None:
        u, udot = _path_tangent(space, d1, h)
        v, vdot = _path_tangent(space, d2, h)
        return complex(space.partials.d_first_second(u, udot, v, vdot))
    return mixed(lambda dt, ds: eval_kernel(space, _path_point(space, d1.path, d1.time + dt),
                                            _path_point(space, d2.path, d2.time + ds)), h)


def mixed_inner(space: KernelSpace, z: Point, d: DerivativeState, h: float = 1e-4) -> complex:
    """<z, d> = d/ds K(z, v(s)) at d.time."""
    validate_point(space, z)
    if space.partials is not None:
        v, vdot = _path_tangent(space, d, h)
        return complex(space.partials.d_second(z, v, vdot))
    return central(lambda ds: eval_kernel(space, z, _path_point(space, d.path, d.time + ds)), h)
