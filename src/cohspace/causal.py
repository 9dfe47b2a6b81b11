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

import itertools
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, PreconditionError


class Triples(NamedTuple):
    """n (j, k, j') triples of sections padded to s rows, (n, 3, s) each: int64
    sites t and x, complex amplitudes amp (0 on padding; rows at a site add)."""

    t: np.ndarray
    x: np.ndarray
    amp: np.ndarray


def _rows(spec) -> tuple:
    """(the rows [t, x, re, im] of every section of the triples spec as an
    (m, 4) float array, each section's row count), or ConfigError."""
    if not (set(map(type, spec)) <= {list, tuple} and set(map(len, spec)) <= {3}):
        raise ConfigError("each entry must hold 3 sections [j, k, j']")
    sections = [section for triple in spec for section in triple]
    if not set(map(type, sections)) <= {list, tuple}:
        raise ConfigError("a section must be a list of [t, x, re, im] rows")
    rows = [row for section in sections for row in section]
    values = list(itertools.chain.from_iterable(rows))  # not a bool, not a string:
    if not (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {4}
            and set(map(type, values)) <= {int, float}):
        raise ConfigError("section rows must be [t, x, re, im] numbers")
    try:
        a = np.array(values, dtype=float).reshape(len(rows), 4)
    except OverflowError:
        raise ConfigError("section rows hold an integer beyond float64") from None
    sites = a[:, :2]
    if not ((np.abs(sites) <= 2.0**53) & (sites == np.round(sites))).all():
        raise ConfigError("sites t and x must be integers with |t|, |x| <= 2^53")
    if not np.isfinite(a[:, 2:]).all():
        raise ConfigError("amplitudes re and im must be finite")
    return a, np.fromiter(map(len, sections), dtype=np.int64, count=len(sections))


def triples_from_rows(spec) -> Triples:
    """Triples from a list of [j, k, j'] triples, each section a list of
    [t, x, re, im] rows; a malformed triple raises ConfigError naming the
    first, triples[i]."""
    if not isinstance(spec, (list, tuple)):
        raise ConfigError(f"'triples' must be a list of [j, k, j'] triples, got {spec!r}")
    try:
        a, counts = _rows(spec)
    except ConfigError:
        for i, triple in enumerate(spec):
            try:
                _rows([triple])
            except ConfigError as exc:
                raise ConfigError(f"triples[{i}]: {exc}") from None
    n, s = len(spec), counts.max(initial=1)
    section = np.repeat(np.arange(3 * n), counts)
    slot = np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts, counts)
    t, x = np.zeros((2, 3 * n, s), dtype=np.int64)
    amp = np.zeros((3 * n, s), dtype=complex)
    t[section, slot], x[section, slot] = a[:, 0], a[:, 1]
    amp.real[section, slot], amp.imag[section, slot] = a[:, 2], a[:, 3]
    return Triples(t.reshape(n, 3, s), x.reshape(n, 3, s), amp.reshape(n, 3, s))


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
