"""Concrete finite representations of the catalog spaces.

- ``SpinRep(n)``: the (n+1)-dimensional space of degree-n monomials in the
  spinor components.  Basis k = 0..n carries sqrt(C(n,k)) z1^(n-k) z2^k, so
  the monomial embedding reproduces the spin kernel <z, z'>^n exactly.
  ``dgamma(X)`` is the derivation action of a 2x2 label generator
  (dGamma(sigma_a/2) are the standard angular momentum matrices with
  m = j - k, i.e. k = 0 is the north pole).
- ``propagate_eig``: exact propagation exp(-i H t / hbar) psi0, refused once
  a phase is too large for a float to carry any of its digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass
class SpinRep:
    n: int  # = 2j

    def dgamma(self, x: np.ndarray) -> np.ndarray:
        """Derivation action of the label generator X (2x2) on monomials:
        row k couples to k (diag), k+1 (X12 band) and k-1 (X21 band)."""
        x = np.asarray(x, dtype=complex)
        n = self.n
        k = np.arange(n + 1)
        up, down = k[:-1], k[1:]  # rows with a k+1, a k-1 neighbour
        d = np.zeros((n + 1, n + 1), dtype=complex)
        d[k, k] = (n - k) * x[0, 0] + k * x[1, 1]
        d[up, up + 1] = x[0, 1] * np.sqrt((n - up) * (up + 1))
        d[down, down - 1] = x[1, 0] * np.sqrt(down * (n - down + 1))
        return d


def propagate_eig(h: np.ndarray, psi0: np.ndarray, times, hbar: float = 1.0) -> np.ndarray:
    """Exact propagation exp(-i H t / hbar) psi0, shape (len(times), *psi0.shape);
    psi0 may be a matrix of columns (the identity gives the propagator).
    Hermitian H uses its eigendecomposition, with one exp for all phases and
    one stacked matmul (each time's own product), and raises NumericalError
    once a phase |lambda t / hbar| reaches 2^52; any other H, expm per time."""
    h, psi0 = np.asarray(h, dtype=complex), np.asarray(psi0)
    times = np.asarray(times, dtype=float)
    herm_defect = np.abs(h - h.conj().T).max()
    if herm_defect > 1e-10 * max(1.0, np.abs(h).max()):
        import scipy.linalg  # here, so that runs that never reach this branch never load scipy

        states = [scipy.linalg.expm(-1j * float(t) * h / hbar) @ psi0 for t in times]
        return np.array(states, dtype=complex).reshape(len(times), *psi0.shape)
    lam, u = np.linalg.eigh(h)
    with np.errstate(over="ignore"):  # an overflow is inf, which is past the bound
        turns = np.abs(times)[:, None] * np.abs(lam / hbar)  # |lambda t / hbar|
    past = turns >= 2.0**52  # where a phase's float spacing reaches 1 rad
    if past.any():
        i = past.any(axis=1).argmax()
        raise NumericalError(f"exact propagation: the phase lambda t / hbar of the eigenvalue "
                             f"{lam[past[i].argmax()]:.6g} reaches 2^52 rad after a time "
                             f"{times[i]:.6g}; its float spacing there is 1 rad, so the phase "
                             f"has no correct digit")
    c = (u.conj().T @ psi0.reshape(len(u), -1)).T  # (columns, eigen-axis)
    phases = np.exp(-1j * lam * times[:, None] / hbar)  # (times, eigen-axis)
    states = u @ (phases[:, None] * c[None]).swapaxes(-1, -2)  # (times, rows, columns)
    return states.reshape(len(times), *psi0.shape)
