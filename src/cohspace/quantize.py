"""Quantization of coherent maps and their generators on a quantum space.

A coherent map A acts on labels with an adjoint A* satisfying
K(z, A z') = K(A* z, z').  Its quantization on span{|y_i>} is the linear
operator with Gamma(A)|y_i> = |A y_i>.  Numerically: expand each image
coherent vector in the retained eigenbasis by solving B* u = c with
c_j = K(y_j, A y_i) (closed-form pseudo-inverse from the stored
eigendecomposition), record how much of the image escapes the span, and
assemble Gamma = U B^+.

Generators are recovered from one-parameter flows by an antisymmetric
difference quotient with Richardson extrapolation:

    dGamma(X) ~ (Gamma(flow(s)) - Gamma(flow(-s))) / (2 i s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, SpanEscapeError, StepSizeError
from .kernels import Point, cross_gram
from .qspace import QuantumBasis


@dataclass
class CoherentMapSpec:
    forward: Callable[[Point], Point]
    adjoint: Optional[Callable[[Point], Point]] = None


@dataclass
class QuantizedOperator:
    matrix: np.ndarray
    residual: float


@dataclass
class GeneratorSpec:
    """One-parameter label flow s -> flow(s): Point -> Point with flow(0) = id."""

    flow: Callable[[float], Callable[[Point], Point]]


def quantize_map(qb: QuantumBasis, a, tol: float = 1e-6) -> QuantizedOperator:
    """Gamma(A) on the retained span; raises SpanEscapeError if any image
    coherent vector leaves the span by more than `tol` (relative amplitude;
    note the sqrt in the residual puts the roundoff floor near sqrt(eps),
    so tolerances below ~1e-7 only make sense for exactly-representable maps)."""
    forward = a.forward if isinstance(a, CoherentMapSpec) else a
    space, pts = qb.space, qb.points
    n, r = qb.size, qb.rank
    images = [forward(p) for p in pts]
    c = cross_gram(space, pts, images)     # c[j, i] = K(y_j, A y_i); validates the images
    kimg = cross_gram(space, images, images).diagonal().real
    # solve B* u = c via the eigendecomposition pseudo-inverse
    u_cols = (qb.eigvecs.conj().T @ c) / np.sqrt(qb.eigvals)[:, None]
    proj = (u_cols.conj() * u_cols).real.sum(axis=0)
    residuals = np.sqrt(np.divide(np.maximum(0.0, kimg - proj), kimg,
                                  out=np.zeros(n), where=kimg > 0))
    worst = float(residuals.max()) if n else 0.0
    if worst > tol:
        bad = int(np.argmax(residuals))
        raise SpanEscapeError(
            f"image of basis point {bad} escapes the span (residual {worst:.3e} > {tol:.1e}); "
            "enrich the basis with image points",
            residuals=residuals,
        )
    gamma = u_cols @ (qb.eigvecs / np.sqrt(qb.eigvals)[None, :])
    return QuantizedOperator(matrix=gamma, residual=worst)


def check_homomorphism(qb: QuantumBasis, a: CoherentMapSpec, b: CoherentMapSpec,
                       tol: float = 1e-8) -> float:
    """Relative defect ||Gamma(A o B) - Gamma(A) Gamma(B)|| / (1 + ||Gamma(A o B)||)."""
    comp = CoherentMapSpec(
        forward=lambda z: a.forward(b.forward(z)),
        adjoint=(None if (a.adjoint is None or b.adjoint is None)
                 else (lambda z: b.adjoint(a.adjoint(z)))),
    )
    g_ab = quantize_map(qb, comp, tol=max(tol, 1e-6)).matrix
    g_a = quantize_map(qb, a, tol=max(tol, 1e-6)).matrix
    g_b = quantize_map(qb, b, tol=max(tol, 1e-6)).matrix
    num = np.linalg.norm(g_ab - g_a @ g_b, 2)
    return float(num / (1.0 + np.linalg.norm(g_ab, 2)))


def generator_matrix(qb: QuantumBasis, gen: GeneratorSpec, s: float = 1e-4,
                     tol: float = 1e-8) -> QuantizedOperator:
    """dGamma(X) by the Richardson-extrapolated antisymmetric quotient.

    Raises StepSizeError when the two step estimates disagree by more than
    100 * tol, which signals a badly chosen s (too large: curvature; too
    small: span-projection noise).
    """
    if s <= 0:
        raise ConfigError("generator step must be positive")

    def quotient(step: float) -> tuple[np.ndarray, float]:
        qp = quantize_map(qb, CoherentMapSpec(gen.flow(step)), tol=1.0)
        qm = quantize_map(qb, CoherentMapSpec(gen.flow(-step)), tol=1.0)
        return (qp.matrix - qm.matrix) / (2j * step), max(qp.residual, qm.residual)

    d1, r1 = quotient(s)
    d2, r2 = quotient(s / 2.0)
    scale = 1.0 + np.linalg.norm(d2, 2)
    disagreement = np.linalg.norm(d1 - d2, 2) / scale
    if disagreement > 100.0 * tol:
        raise StepSizeError(
            f"generator quotient unstable: step {s:.1e} vs {s / 2:.1e} differ by "
            f"{disagreement:.3e} (relative); adjust s"
        )
    return QuantizedOperator(matrix=(4.0 * d2 - d1) / 3.0, residual=max(r1, r2))
