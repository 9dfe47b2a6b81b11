"""Quantization of coherent maps and their generators on a quantum space.

A coherent map A acts on label stacks: coords (n, d) -> (n, d), the
multipliers left as they are (see kernels.linear_point_map).  Its
quantization on span{|y_i>} is the linear operator with Gamma(A)|y_i> =
|A y_i>.  Numerically: expand each image coherent vector in the retained
orthonormal basis e_r = sum_j U_jr |y_j> / sqrt(lam_r) of the span, record
how much of the image escapes the span, and assemble Gamma = u B^+, with
B = diag(sqrt(lam)) U* the coordinates of the |y_i>.  The coordinates u_ri =
<e_r|A y_i> come from one of the two routes of the quantum space:

- Gram route: solve B* u = c with c_j = K(y_j, A y_i) (closed-form
  pseudo-inverse from the stored eigendecomposition); the escape is
  sqrt(K(Ay, Ay) - |u|^2), whose roundoff floor is near sqrt(eps);
- feature route: e_r is the r-th retained row of V*, conjugated, so u = V*_r
  phi(A y)^T, and the escape is the norm of phi(A y) minus its projection
  V_r u, at the roundoff floor eps.

Generators are recovered from one-parameter flows s -> flow(s), a map with
flow(0) = id, by an antisymmetric difference quotient with Richardson
extrapolation:

    dGamma(X) ~ (Gamma(flow(s)) - Gamma(flow(-s))) / (2 i s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, SpanEscapeError, StepSizeError
from .kernels import cross_gram, feature_matrix, kernel_diagonal
from .qspace import QuantumBasis, richardson

LabelMap = Callable[[np.ndarray], np.ndarray]  # label stack (n, d) -> its image (n, d)


@dataclass
class QuantizedOperator:
    matrix: np.ndarray
    residual: float


def quantize_map(qb: QuantumBasis, a: LabelMap, tol: float = 1e-6) -> QuantizedOperator:
    """Gamma(A) on the retained span; raises SpanEscapeError if any image
    coherent vector leaves the span by more than `tol` (relative amplitude;
    on the Gram route the sqrt in the residual puts the roundoff floor near
    sqrt(eps), so tolerances below ~1e-7 only make sense for
    exactly-representable maps)."""
    space, y, mults = qb.space, qb.coords, qb.multipliers
    n = qb.size
    images = a(y)
    if qb.feature_basis is None:
        c = cross_gram(space, y, mults, images, mults)  # c[j, i] = K(y_j, A y_i); checks the images
        kimg = kernel_diagonal(space, images, mults).real
        # solve B* u = c via the eigendecomposition pseudo-inverse
        u_cols = (qb.eigvecs.conj().T @ c) / np.sqrt(qb.eigvals)[:, None]
        proj = (u_cols.conj() * u_cols).real.sum(axis=0)
        residuals = np.sqrt(np.divide(np.maximum(0.0, kimg - proj), kimg,
                                      out=np.zeros(n), where=kimg > 0))
    else:
        phi = feature_matrix(space, images, mults).T  # column i is phi(A y_i); checks the images
        u_cols = qb.feature_basis @ phi
        norms = np.linalg.norm(phi, axis=0)
        escape = np.linalg.norm(phi - qb.feature_basis.conj().T @ u_cols, axis=0)
        residuals = np.divide(escape, norms, out=np.zeros(n), where=norms > 0)
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


def check_homomorphism(qb: QuantumBasis, a: LabelMap, b: LabelMap, tol: float = 1e-8) -> float:
    """Relative defect ||Gamma(A o B) - Gamma(A) Gamma(B)|| / (1 + ||Gamma(A o B)||)."""
    g_ab = quantize_map(qb, lambda z: a(b(z)), tol=max(tol, 1e-6)).matrix
    g_a = quantize_map(qb, a, tol=max(tol, 1e-6)).matrix
    g_b = quantize_map(qb, b, tol=max(tol, 1e-6)).matrix
    num = np.linalg.norm(g_ab - g_a @ g_b, 2)
    return float(num / (1.0 + np.linalg.norm(g_ab, 2)))


def generator_matrix(qb: QuantumBasis, flow: Callable[[float], LabelMap],
                     s: float = 1e-4, tol: float = 1e-8) -> QuantizedOperator:
    """dGamma(X) of the one-parameter flow s -> flow(s) by the
    Richardson-extrapolated antisymmetric quotient.

    Raises StepSizeError when the two step estimates disagree by more than
    100 * tol, which signals a badly chosen s (too large: curvature; too
    small: span-projection noise).
    """
    if s <= 0:
        raise ConfigError("generator step must be positive")

    def quotient(step: float) -> tuple[np.ndarray, float]:
        qp = quantize_map(qb, flow(step), tol=1.0)
        qm = quantize_map(qb, flow(-step), tol=1.0)
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
    return QuantizedOperator(matrix=richardson(d1, d2), residual=max(r1, r2))
