"""Finite quantum spaces from Gram eigendecompositions.

A quantum space over basis labels y_1..y_n is the span of the coherent
vectors |y_i>.  Numerically it is carried by the eigendecomposition
G = U diag(lam) U* of their Gram, truncated to the eigenvalues above
tol * lam_max.  kernels.gram_spectrum gives (lam, U, V*), the one spectrum
kernels.check_coherence also takes its verdict from: the thin SVD of the
features for a kind with features (kernels.KernelSpace.features), which
forms no Gram and whose retained rows of V* span the coherent vectors in
feature coordinates, else eigh of the Gram (V* None).  Both routes pass
the same PSD rule, kernels.psd_verdict, at tol; the SVD route always does.

The retained (lam_r, U_r), and V*_r on the feature route, are all that
quantize reads.

The package's one numerical-derivative rule, ``richardson``, combines a
central quotient at steps h and h/2; quantize's generators use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoherenceViolationError, ConfigError
from .kernels import KernelSpace, gram_spectrum, psd_verdict

DEFAULT_TRUNCATION_TOL = 1e-10


@dataclass
class QuantumBasis:
    space: KernelSpace
    coords: np.ndarray          # basis labels (n, d)
    multipliers: np.ndarray | None  # (n,)
    rank: int
    truncation_tol: float
    eigvals: np.ndarray         # retained Gram eigenvalues, descending (rank,)
    eigvecs: np.ndarray         # their eigenvectors, shape (n, rank)
    feature_basis: np.ndarray | None = None  # retained rows of V* (rank, D); None without features

    @property
    def size(self) -> int:
        return len(self.coords)


def build_quantum_space(space: KernelSpace, coords: np.ndarray, multipliers=None,
                        tol: float = DEFAULT_TRUNCATION_TOL) -> QuantumBasis:
    """The Gram spectrum of labels (n, d) from kernels.gram_spectrum,
    descending, with the eigenvalues at or below tol * lam_max truncated.

    Raises CoherenceViolationError if the Gram fails the PSD check at `tol`
    or has no positive eigenvalue, and ConfigError unless 0 < tol < 1
    (tol >= 1 would truncate every eigenvalue).
    """
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"'tol' must lie in (0, 1), got {tol!r}")
    n = len(coords)
    if not n:
        raise ConfigError("need at least one basis point")
    lam, u, vh = gram_spectrum(space, coords, multipliers)
    verdict = psd_verdict(lam, tol)
    if not verdict.passed:
        raise CoherenceViolationError(
            f"{space.kind}: Gram of {n} points is not PSD "
            f"(min eigenvalue {verdict.min_eigenvalue:.3e})",
            min_eigenvalue=verdict.min_eigenvalue,
        )
    if lam[0] <= 0.0:
        raise CoherenceViolationError(f"{space.kind}: Gram has no positive eigenvalues")
    rank = int(np.count_nonzero(lam > tol * lam[0]))
    return QuantumBasis(space=space, coords=coords, multipliers=multipliers, rank=rank,
                        truncation_tol=float(tol), eigvals=lam[:rank], eigvecs=u[:, :rank],
                        feature_basis=None if vh is None else vh[:rank])


# ------------------------------------------------------------ derivative rule


def richardson(q_h, q_half):
    """Richardson extrapolation of an O(h^2) quotient from its values at steps
    h and h/2: (4 q(h/2) - q(h)) / 3 is O(h^4)."""
    return (4.0 * q_half - q_h) / 3.0
