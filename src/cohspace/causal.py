"""Lattice sections and the two kernel conditions of a causal coherent space.

A *section* is a finitely supported map from lattice sites (integer tuples,
here (t, x)) to complex amplitudes.  Given a kernel K on sections and an
independence relation between sites (causal disjointness), the two conditions
checked are, for triples (j, k, j'):

- normalization:  K(j, j') = 1           whenever j and j' are independent,
- causality:      K(j+k, j'+k) = K(j, j') whenever k is independent of both.

The independence preconditions are the caller's responsibility; triples that
do not even satisfy the causality precondition raise PreconditionError naming
the offending sites.

``lattice_weyl_kernel`` builds the canonical 1+1-dimensional example: the
exponential of the bilinear pairing with the lattice light-cone commutator
W(t, x) = -(i/2) sgn(t) [|x| <= |t|] (antisymmetric, supported exactly on the
cone at unit lattice speed), which satisfies both conditions exactly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import ConfigError, PreconditionError

Site = tuple[int, ...]


@dataclass
class CausalSection:
    """Finitely supported complex amplitudes on lattice sites; zeros are dropped."""

    values: dict[Site, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[Site, complex] = {}
        for site, v in self.values.items():
            v = complex(v)
            if v != 0:
                clean[tuple(int(c) for c in site)] = v
        self.values = clean

    @property
    def support(self) -> set[Site]:
        return set(self.values)

    def __add__(self, other: "CausalSection") -> "CausalSection":
        out = dict(self.values)
        for site, v in other.values.items():
            s = out.get(site, 0.0 + 0.0j) + v
            if s == 0:
                out.pop(site, None)
            else:
                out[site] = s
        return CausalSection(out)

    def __len__(self) -> int:
        return len(self.values)


def sections_independent(independent: Callable[[Site, Site], bool],
                         a: CausalSection, b: CausalSection) -> bool:
    return all(independent(x, y) for x in a.support for y in b.support)


@dataclass
class CausalVerdict:
    normal_checked: int
    causal_checked: int
    normal_max: float
    causal_max: float
    passed: bool
    tolerance_used: float


def check_causal_conditions(
    kernel: Callable[[CausalSection, CausalSection], complex],
    independent: Callable[[Site, Site], bool],
    triples: Sequence[tuple[CausalSection, CausalSection, CausalSection]],
    tol: float = 1e-12,
) -> CausalVerdict:
    """Evaluate both conditions over (j, k, j') triples.

    The causality precondition (k independent of j and of j') must hold for
    every triple; the normalization condition is evaluated on those triples
    whose (j, j') pair happens to be independent.
    """
    if not triples:
        raise ConfigError("check_causal_conditions needs at least one triple")
    n_norm = n_caus = 0
    worst_norm = worst_caus = 0.0
    for idx, (j, k, jp) in enumerate(triples):
        for name, a in (("j", j), ("j'", jp)):
            if not sections_independent(independent, k, a):
                bad = [(x, y) for x in k.support for y in a.support if not independent(x, y)]
                raise PreconditionError(
                    f"triple {idx}: k is not independent of {name}; "
                    f"offending site pairs {bad[:4]}"
                )
        base = kernel(j, jp)
        shifted = kernel(j + k, jp + k)
        worst_caus = max(worst_caus, abs(shifted - base))
        n_caus += 1
        if sections_independent(independent, j, jp):
            worst_norm = max(worst_norm, abs(base - 1.0))
            n_norm += 1
    return CausalVerdict(
        normal_checked=n_norm,
        causal_checked=n_caus,
        normal_max=worst_norm,
        causal_max=worst_caus,
        passed=bool(worst_norm <= tol and worst_caus <= tol),
        tolerance_used=float(tol),
    )


# --------------------------------------------------------------- 1+1D example


def lightcone_commutator(dt: int, dx: int) -> complex:
    """W(t, x) = -(i/2) sgn(t) on the closed cone |x| <= |t|, zero elsewhere."""
    if dt == 0 or abs(dx) > abs(dt):
        return 0.0j
    return -0.5j if dt > 0 else 0.5j


def lattice_weyl_kernel(nonlocal_violation: bool = False):
    """Kernel and independence relation for the 1+1D lattice Weyl-type example.

    K(j, j') = exp( sum_{xi, eta} j(xi) W(xi - eta) j'(eta) ).

    With ``nonlocal_violation=True`` the cone restriction of W is dropped
    (sign of the time difference only), which deliberately breaks the
    normalization condition; useful to exercise the checker.
    """

    def w(dt: int, dx: int) -> complex:
        if nonlocal_violation:
            return 0.0j if dt == 0 else (-0.5j if dt > 0 else 0.5j)
        return lightcone_commutator(dt, dx)

    def kernel(a: CausalSection, b: CausalSection) -> complex:
        s = 0.0j
        for (ta, xa), va in a.values.items():
            for (tb, xb), vb in b.values.items():
                wv = w(ta - tb, xa - xb)
                if wv != 0:
                    s += va * wv * vb
        return cmath.exp(s)

    def independent(p: Site, q: Site) -> bool:
        return abs(p[1] - q[1]) > abs(p[0] - q[0])

    return kernel, independent


def section_from_pairs(pairs: Iterable[Sequence[float]]) -> CausalSection:
    """Build a section from rows [t, x, re, im] (JSON-friendly form)."""
    vals: dict[Site, complex] = {}
    try:
        for row in pairs:
            t, x, re, im = row
            site = (int(t), int(x))
            vals[site] = vals.get(site, 0.0j) + complex(float(re), float(im))
    except (TypeError, ValueError):
        raise ConfigError(f"section rows must be [t, x, re, im] numbers, got {pairs!r}") from None
    return CausalSection(vals)
