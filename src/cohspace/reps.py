"""Concrete finite representations of the catalog spaces.

These provide the independent "matrix mechanics" route used to verify
quantization and dynamics:

- ``SpinRep(n)``: the (n+1)-dimensional space of degree-n monomials in the
  spinor components.  Basis k = 0..n carries sqrt(C(n,k)) z1^(n-k) z2^k, so
  <embed(z), embed(z')> = <z, z'>^n reproduces the spin kernel exactly.
  ``dgamma(X)`` is the derivation action of a 2x2 label generator
  (dGamma(sigma_a/2) are the standard angular momentum matrices with
  m = j - k, i.e. k = 0 is the north pole).

- ``FockRep(cutoff)``: truncated boson Fock space for single-mode Klauder
  labels (z0, zeta); embed(z) = e^{z0} sum_n zeta^n/sqrt(n!) |n>, exact up to
  the truncated tail (checked against K(z, z) at embed time).  ``dgamma(X)``
  lifts a generator acting on zeta alone to X[1, 1] times the number operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TruncationError
from .kernels import Point

TAIL_TOL = 1e-12


@dataclass
class SpinRep:
    n: int  # = 2j

    @property
    def dim(self) -> int:
        return self.n + 1

    def embed(self, z: Point) -> np.ndarray:
        z1, z2 = z.coords
        return np.array([math.sqrt(math.comb(self.n, k)) * z1 ** (self.n - k) * z2 ** k
                         for k in range(self.n + 1)])

    def dgamma(self, x: np.ndarray) -> np.ndarray:
        """Derivation action of the label generator X (2x2) on monomials:
        row k couples to k (diag), k+1 (X12 band) and k-1 (X21 band)."""
        x = np.asarray(x, dtype=complex)
        n = self.n
        d = np.zeros((n + 1, n + 1), dtype=complex)
        for k in range(n + 1):
            d[k, k] = (n - k) * x[0, 0] + k * x[1, 1]
            if k + 1 <= n:
                d[k, k + 1] = x[0, 1] * math.sqrt((n - k) * (k + 1))
            if k - 1 >= 0:
                d[k, k - 1] = x[1, 0] * math.sqrt(k * (n - k + 1))
        return d

    def gamma(self, a: np.ndarray) -> np.ndarray:
        """Symmetric-power action: Gamma(A) embed(z) = embed(A z) exactly.

        Column k expands (a11 z1 + a21 z2)^(n-k) (a12 z1 + a22 z2)^k by
        binomial convolution back onto the weighted monomial basis.
        """
        a = np.asarray(a, dtype=complex)
        n = self.n
        out = np.zeros((n + 1, n + 1), dtype=complex)
        # column k: embed coefficients of the polynomial
        #   (a11 z1 + a21 z2)^(n-k) (a12 z1 + a22 z2)^k / sqrt(C(n,k))-weights
        for k in range(n + 1):
            poly = np.zeros(n + 1, dtype=complex)  # coeffs of z1^(n-m) z2^m
            p1 = _binomial_poly(a[0, 0], a[1, 0], n - k)
            p2 = _binomial_poly(a[0, 1], a[1, 1], k)
            conv = np.convolve(p1, p2)
            poly[: len(conv)] = conv
            w = math.sqrt(math.comb(n, k))
            for m in range(n + 1):
                out[m, k] = poly[m] * w / math.sqrt(math.comb(n, m))
        return out


def _binomial_poly(alpha: complex, beta: complex, p: int) -> np.ndarray:
    """Coefficients of (alpha z1 + beta z2)^p in the z1^(p-m) z2^m basis."""
    return np.array([math.comb(p, m) * alpha ** (p - m) * beta ** m for m in range(p + 1)],
                    dtype=complex)


@dataclass
class FockRep:
    cutoff: int = 64

    @property
    def dim(self) -> int:
        return self.cutoff

    def lowering(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1, self.cutoff)), k=1).astype(complex)

    def number(self) -> np.ndarray:
        return np.diag(np.arange(self.cutoff)).astype(complex)

    def embed(self, z: Point) -> np.ndarray:
        if z.coords.shape != (2,):
            raise ConfigError("FockRep embeds single-mode Klauder labels (z0, zeta)")
        z0, zeta = z.coords
        v = np.zeros(self.cutoff, dtype=complex)
        term = 1.0 + 0.0j
        for n in range(self.cutoff):
            v[n] = term
            term = term * zeta / math.sqrt(n + 1)
        v = np.exp(z0) * v
        kzz = math.exp(2.0 * z0.real + abs(zeta) ** 2)
        tail = 1.0 - float(np.vdot(v, v).real) / kzz
        if tail > TAIL_TOL:
            raise TruncationError(
                f"Fock cutoff {self.cutoff} keeps only 1-{tail:.2e} of the state; raise the cutoff"
            )
        return v

    def dgamma(self, x: np.ndarray) -> np.ndarray:
        """dGamma of a single-mode label generator X (2x2) acting on zeta
        alone: X[1, 1] times the number operator."""
        a = np.asarray(x, dtype=complex)
        if a.shape != (2, 2) or abs(a[0, 0]) + abs(a[0, 1]) + abs(a[1, 0]) > 1e-14:
            raise ConfigError("FockRep lifts need single-mode label generators acting on zeta "
                              "only (first row/column zero)")
        return a[1, 1] * self.number()


def propagate_eig(h: np.ndarray, psi0: np.ndarray, times, hbar: float = 1.0) -> np.ndarray:
    """Exact propagation exp(-i H t / hbar) psi0, rows = times; psi0 may be a
    matrix of columns (the identity gives the propagator).  Hermitian H uses
    its eigendecomposition, any other H scaling-and-squaring expm per time."""
    h = np.asarray(h, dtype=complex)
    herm_defect = np.abs(h - h.conj().T).max()
    if herm_defect > 1e-10 * max(1.0, np.abs(h).max()):
        import scipy.linalg  # here, so that runs that never reach this branch never load scipy

        return np.array([scipy.linalg.expm(-1j * float(t) * h / hbar) @ psi0 for t in times])
    lam, u = np.linalg.eigh(h)
    c = (u.conj().T @ psi0).T  # eigen-axis last: the phases broadcast over columns
    return np.array([u @ (np.exp(-1j * lam * float(t) / hbar) * c).T for t in times])
