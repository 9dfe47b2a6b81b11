"""Lattice sections and the two kernel conditions of a causal coherent space.

A *section* is a finitely supported map from lattice sites (t, x) to complex
amplitudes.  Given a kernel K on sections and an independence relation
between sites (causal disjointness), the two conditions checked are, for
triples (j, k, j'):

- normalization:  K(j, j') = 1           whenever j and j' are independent,
- causality:      K(j+k, j'+k) = K(j, j') whenever k is independent of both.

The independence preconditions are the caller's responsibility; triples that
do not even satisfy the causality precondition raise PreconditionError naming
the offending sites.

Triples are arrays (``Triples``, parsed and checked from JSON rows by
``triples_from_rows``).  A kernel is given by its pairing W of sites,
K(a, b) = exp(s(a, b)) with s(a, b) = sum_{xi, eta} a(xi) W(xi - eta) b(eta),
and W and the independence relation take arrays of site differences.  Each
s is one einsum, and s(j+k, j'+k) = s(j, j') + s(j, k) + s(k, j') + s(k, k).

``lattice_weyl_kernel`` gives the canonical 1+1-dimensional example: the
lattice light-cone commutator W(t, x) = -(i/2) sgn(t) [|x| <= |t|]
(antisymmetric, supported exactly on the cone at unit lattice speed), whose
kernel satisfies both conditions exactly.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumberError, NumericalError, PreconditionError, check_numbers


class Triples(NamedTuple):
    """n (j, k, j') triples of sections padded to s rows, (n, 3, s) each: int64
    sites t and x, complex amplitudes amp (0 on padding; rows at a site add)."""

    t: np.ndarray
    x: np.ndarray
    amp: np.ndarray


_SITES = "sites t and x must be integers with |t|, |x| <= 2^53"


def _read(rows: list, counts: list) -> np.ndarray:
    """The rows (m, 4) of sections of counts rows, or the ConfigError naming
    the triple of the first bad row; a row's numbers come before its sites."""
    def triple(r):
        return int(np.searchsorted(np.cumsum(counts), r, side="right")) // 3

    try:
        a = check_numbers(rows, "triples", (None, 4))
    except NumberError as exc:
        r, v = exc.at[0], exc.value
        _read(rows[:r], counts)  # a bad site in an earlier row comes first
        real = len(exc.at) == 2 and not isinstance(v, bool) and isinstance(v, numbers.Real)
        fault = ("section rows must be [t, x, re, im] numbers" if not real else
                 "section rows hold an integer beyond float64" if isinstance(v, int) else
                 _SITES if exc.at[1] < 2 else "amplitudes re and im must be finite")
        raise ConfigError(f"triples[{triple(r)}]: {fault}") from None
    bad = ~((np.abs(a[:, :2]) <= 2.0**53) & (a[:, :2] == np.round(a[:, :2]))).all(axis=1)
    if bad.any():
        raise ConfigError(f"triples[{triple(int(bad.argmax()))}]: {_SITES}")
    return a


def triples_from_rows(spec) -> Triples:
    """Triples from a list of [j, k, j'] triples of sections of [t, x, re, im]
    rows.  A malformed triple raises ConfigError naming the first, triples[i],
    with its first fault in reading order: sections, then rows (numbers, sites)."""
    if not isinstance(spec, (list, tuple)):
        raise ConfigError(f"'triples' must be a list of [j, k, j'] triples, got {spec!r}")
    rows, counts = [], []
    for i, triple in enumerate(spec):
        fault = ("each entry must hold 3 sections [j, k, j']"
                 if not (isinstance(triple, (list, tuple)) and len(triple) == 3) else
                 "a section must be a list of [t, x, re, im] rows"
                 if not all(isinstance(section, (list, tuple)) for section in triple) else None)
        if fault:
            _read(rows, counts)  # an earlier triple's fault comes first
            raise ConfigError(f"triples[{i}]: {fault}")
        for section in triple:
            rows += section
            counts.append(len(section))
    a, n, s = _read(rows, counts), len(spec), max([1, *counts])
    cells = np.zeros((n, 3, s, 4))  # row j of a section in slot j; 0 on padding
    cells.reshape(3 * n, s, 4)[np.arange(s) < np.array(counts)[:, None]] = a
    return Triples(*cells[..., :2].astype(np.int64).transpose(3, 0, 1, 2),
                   cells[..., 2:].copy().view(complex)[..., 0])


class CausalVerdict(NamedTuple):
    """The verdict, counts and worst deviations, as the causal-check payload."""

    passed: bool
    normal_checked: int
    causal_checked: int
    normal_max: float
    causal_max: float
    tolerance: float


def check_causal_conditions(kernel, independent, triples: Triples,
                            tol: float = 1e-12) -> CausalVerdict:
    """Evaluate both conditions over (j, k, j') triples, for the kernel of
    the pairing W ``kernel`` and the relation ``independent``, each taking
    arrays of site differences (dt, dx).

    The causality precondition (k independent of j and of j') must hold for
    every triple; the normalization condition is evaluated on those triples
    whose (j, j') pair happens to be independent.  A site whose rows add to
    0 lies in no support.
    """
    t, x, amp = triples
    if not len(amp):
        raise ConfigError("check_causal_conditions needs at least one triple")
    same = (t[..., :, None] == t[..., None, :]) & (x[..., :, None] == x[..., None, :])
    live = np.einsum("...ab,...b->...a", same, amp) != 0  # the supports

    def d(a, b):  # (dt, dx) from each row of section a to each of section b, (n, s, s)
        return t[:, a, :, None] - t[:, b, None, :], x[:, a, :, None] - x[:, b, None, :]

    def apart(a, b):  # (n, s, s): each row pair not both live, or independent
        return independent(*d(a, b)) | ~(live[:, a, :, None] & live[:, b, None, :])

    def pair_sum(a, b):  # (n,) sum_{xi, eta} a(xi) W(xi - eta) b(eta)
        return np.einsum("na,nab,nb->n", amp[:, a], kernel(*d(a, b)), amp[:, b])

    for name, b in (("j", 0), ("j'", 2)):
        ok = apart(1, b)
        if not ok.all():
            i = int(ok.all(axis=(1, 2)).argmin())
            ti, xi = t[i].tolist(), x[i].tolist()
            sites = dict.fromkeys(((ti[1][p], xi[1][p]), (ti[b][q], xi[b][q]))
                                  for p, q in zip(*np.nonzero(~ok[i])))
            raise PreconditionError(f"triple {i}: k is not independent of {name}; "
                                    f"offending site pairs {list(sites)[:4]}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = pair_sum(0, 2)
        base = np.exp(s)
        shifted = np.exp(s + pair_sum(0, 1) + pair_sum(1, 2) + pair_sum(1, 1))
    finite = np.isfinite(base) & np.isfinite(shifted)
    if not finite.all():
        raise NumericalError(f"triple {int(finite.argmin())}: a kernel value overflowed float64")
    normal = np.abs(base - 1.0)[apart(0, 2).all(axis=(1, 2))]
    worst_norm, worst_caus = float(normal.max(initial=0.0)), float(np.abs(shifted - base).max())
    return CausalVerdict(bool(worst_norm <= tol and worst_caus <= tol), len(normal), len(s),
                         worst_norm, worst_caus, float(tol))


# --------------------------------------------------------------- 1+1D example


def lightcone_commutator(dt, dx, nonlocal_violation: bool = False):
    """W(t, x) = -(i/2) sgn(t) on the closed cone |x| <= |t| (or for every
    t != 0 with nonlocal_violation), zero elsewhere, of arrays of site
    differences."""
    return np.where(nonlocal_violation | (np.abs(dx) <= np.abs(dt)), -0.5j * np.sign(dt), 0j)


def lattice_weyl_kernel(nonlocal_violation: bool = False):
    """Pairing W and independence relation (strictly spacelike) of the 1+1D
    lattice Weyl-type example, K(j, j') = exp( sum_{xi, eta} j(xi)
    W(xi - eta) j'(eta) ), both on arrays of site differences (dt, dx).

    With ``nonlocal_violation=True`` the cone restriction of W is dropped
    (sign of the time difference only), which deliberately breaks the
    normalization condition; useful to exercise the checker.
    """
    return (lambda dt, dx: lightcone_commutator(dt, dx, nonlocal_violation),
            lambda dt, dx: np.abs(dx) > np.abs(dt))
