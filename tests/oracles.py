"""Independent dense-matrix / textbook oracles used to freeze expected values.

Everything in here is written from standard formulas (ladder operators,
finite differences, classical maps) without importing the package, so the
production code can be validated against genuinely independent routes.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys

import numpy as np
import scipy.linalg
import scipy.sparse


# --- angular momentum via ladder formulas (basis ordered m = j, j-1, ..., -j) ---

def wigner_matrices(two_j: int):
    j = two_j / 2.0
    dim = two_j + 1
    m = j - np.arange(dim)  # m_k = j - k
    # J+ |j m> = sqrt(j(j+1) - m(m+1)) |j m+1>; row index of m+1 is k-1
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.T.copy()
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    jz = np.diag(m).astype(complex)
    return jx.astype(complex), jy, jz


def su2_rotation(two_j: int, axis, angle: float) -> np.ndarray:
    jx, jy, jz = wigner_matrices(two_j)
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return scipy.linalg.expm(-1j * angle * (n[0] * jx + n[1] * jy + n[2] * jz))


def spin_monomial_embed(two_j: int, spinor) -> np.ndarray:
    """|z> components sqrt(C(n,k)) z1^(n-k) z2^k, k = 0..n (so k=0 <-> m=j)."""
    z1, z2 = complex(spinor[0]), complex(spinor[1])
    n = two_j
    return np.array([math.sqrt(math.comb(n, k)) * z1 ** (n - k) * z2 ** k for k in range(n + 1)])


def spin_gamma(two_j: int, a) -> np.ndarray:
    """Gamma(A) on the monomial basis, Gamma(A) |z> = |A z>: column k expands
    (a11 z1 + a21 z2)^(n-k) (a12 z1 + a22 z2)^k one coefficient at a time."""
    n = two_j
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        p1 = [math.comb(n - k, m) * a[0, 0] ** (n - k - m) * a[1, 0] ** m for m in range(n - k + 1)]
        p2 = [math.comb(k, m) * a[0, 1] ** (k - m) * a[1, 1] ** m for m in range(k + 1)]
        poly = np.convolve(np.array(p1, dtype=complex), np.array(p2, dtype=complex))
        for m in range(n + 1):
            out[m, k] = poly[m] * math.sqrt(math.comb(n, k)) / math.sqrt(math.comb(n, m))
    return out


def bloch_vector(spinor) -> np.ndarray:
    """(X, Y, Z) = <sigma> of the unit spinor (z1, z2) in the defining rep."""
    z1, z2 = complex(spinor[0]), complex(spinor[1])
    c = z1.conjugate() * z2
    return np.array([2.0 * c.real, 2.0 * c.imag, abs(z1) ** 2 - abs(z2) ** 2])


def _falling(p: int, m: int) -> int:
    """p (p - 1) ... (p - m + 1): the m-th derivative factor of w^p."""
    return math.prod(range(p - m + 1, p + 1))


def sphere_jet(n: int, w: complex, south: bool = False) -> np.ndarray:
    """Rows v, v', v'' (3, n + 1) of the chart monomials sqrt(C(n,k)) w^p_k,
    p_k = k (north) or n - k (south), and their w-derivatives."""
    jet = np.zeros((3, n + 1), dtype=complex)
    for k in range(n + 1):
        p = n - k if south else k
        for m in range(min(p, 2) + 1):
            jet[m, k] = math.sqrt(math.comb(n, k)) * _falling(p, m) * w ** (p - m)
    return jet


def flat_jet(cutoff: int, z0: complex, w: complex) -> np.ndarray:
    """Rows v, v', v'' (3, cutoff) of the Fock components e^z0 w^k / sqrt(k!)
    and their w-derivatives."""
    jet = np.zeros((3, cutoff), dtype=complex)
    for k in range(cutoff):
        for m in range(min(k, 2) + 1):
            jet[m, k] = np.exp(z0) * _falling(k, m) * w ** (k - m) / math.sqrt(math.factorial(k))
    return jet


def power_matrices(coef, power) -> np.ndarray:
    """Dense power matrices S (3, d, d) of the components coef_k w^power_k:
    the jet rows v, v', v'' are S_0 p, S_1 p and S_2 p of the power vector
    p = (1, w, ..., w^(d-1)).  Row k of S_m holds coef_k power_k (power_k - 1)
    ... (power_k - m + 1), multiplied left to right as the derivative is
    written, in the column of power_k - m, and is zero when power_k < m."""
    d = len(power)
    s = np.zeros((3, d, d), dtype=complex)
    for m in range(3):
        live = power >= m
        s[m, live.nonzero()[0], power[live] - m] = np.broadcast_to(coef, power.shape)[live]
        coef = coef * (power - m)
    return s


def sphere_power_matrices(n: int, south: bool = False) -> np.ndarray:
    """S of the spin chart monomials sqrt(C(n, k)) w^k (north) or w^(n-k) (south)."""
    k = np.arange(n + 1)
    weights = np.array([math.sqrt(math.comb(n, j)) for j in range(n + 1)])
    return power_matrices(weights, n - k if south else k)


def flat_power_matrices(cutoff: int, z0: complex) -> np.ndarray:
    """S of the Fock components e^z0 w^k / sqrt(k!), k < cutoff."""
    k = np.arange(cutoff)
    fact = np.cumprod(np.sqrt(np.maximum(k, 1)))  # sqrt(k!)
    return power_matrices(np.exp(complex(z0)), k) / fact[:, None]


def dense_form_stack(ham: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(8 d, d): for the jet-row pairs (a, b) = (0, 0), (1, 0), (1, 1), (2, 0),
    S_a^dagger H S_b and S_a^dagger S_b one below the other, so that
    <v_a|X|v_b> = conj(p) . M . p for X = H and X = 1."""
    return np.concatenate([m for a, b in ((0, 0), (1, 0), (1, 1), (2, 0))
                           for m in (s[a].conj().T @ ham @ s[b], s[a].conj().T @ s[b])])


# --- truncated Fock space ---

def fock_ops(cutoff: int):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), k=1).astype(complex)
    return a, a.conj().T, a.conj().T @ a


def fock_coherent(cutoff: int, z0: complex, zeta: complex) -> np.ndarray:
    """Unnormalized Klauder-label coherent vector e^{z0} sum zeta^n/sqrt(n!) |n>."""
    v = np.zeros(cutoff, dtype=complex)
    term = 1.0 + 0.0j
    for n in range(cutoff):
        v[n] = term
        term = term * zeta / math.sqrt(n + 1)
    return np.exp(z0) * v


# --- classical kicked top (unit Bloch vectors) ---

def kicked_top_classical_step(s: np.ndarray, kick: float, prec: float) -> np.ndarray:
    """One period: precession by angle `prec` about y, then torsion R_z(kick * Z') about z."""
    x, y, z = s
    cp, sp = math.cos(prec), math.sin(prec)
    x1 = cp * x + sp * z
    z1 = -sp * x + cp * z
    y1 = y
    ang = kick * z1
    ca, sa = math.cos(ang), math.sin(ang)
    return np.array([ca * x1 - sa * y1, sa * x1 + ca * y1, z1])


def kicked_top_classical_lyapunov(s0: np.ndarray, kick: float, prec: float, n_steps: int) -> float:
    """Benettin with a finite separation vector renormalized each kick."""
    rng = np.random.default_rng(7)
    s = np.asarray(s0, dtype=float) / np.linalg.norm(s0)
    d0 = 1e-8
    v = rng.standard_normal(3)
    v -= s * (s @ v)
    v *= d0 / np.linalg.norm(v)
    acc = 0.0
    for _ in range(n_steps):
        s_pert = s + v
        s_pert /= np.linalg.norm(s_pert)
        s = kicked_top_classical_step(s, kick, prec)
        s_pert = kicked_top_classical_step(s_pert, kick, prec)
        diff = s_pert - s
        diff -= s * (s @ diff)
        d = np.linalg.norm(diff)
        acc += math.log(d / d0)
        v = diff * (d0 / d)
    return acc / n_steps


# --- hydrogen-like radial problem by finite differences ---

def hydrogen_fd_levels(mass: float, alpha: float, hbar: float, n_levels: int,
                       r_max: float = 200.0, n_grid: int = 10_000) -> np.ndarray:
    """Lowest s-wave eigenvalues of -(hbar^2/2m) u'' - (alpha/r) u = E u on (0, r_max)."""
    r = np.linspace(0.0, r_max, n_grid + 2)[1:-1]
    h = r[1] - r[0]
    c = hbar * hbar / (2.0 * mass)
    main = 2.0 * c / h**2 - alpha / r
    off = -c / h**2 * np.ones(n_grid - 1)
    vals = scipy.linalg.eigh_tridiagonal(main, off, select="i", select_range=(0, n_levels - 1))[0]
    return vals


# --- energy surface on a chart by central differences ---

ENERGY_FD_STEP = 1e-6


def _wirtinger(f, u: np.ndarray) -> tuple:
    """(mean, d f/d u row, d f/d ubar row) over the chart coordinates j, from
    the central differences fx, fy of f along Re u_j and Im u_j
    (ENERGY_FD_STEP): d/du = (fx - i fy) / 2 and d/dubar = (fx + i fy) / 2.
    The mean of the 4 dim stencil values is f(u) to O(ENERGY_FD_STEP^2)."""
    h = ENERGY_FD_STEP
    out = np.zeros((2, len(u)), dtype=complex)
    total = 0.0
    for j in range(len(u)):
        e = np.zeros(len(u), dtype=complex)
        e[j] = h
        xp, xm, yp, ym = f(u + e), f(u - e), f(u + 1j * e), f(u - 1j * e)
        fx, fy = (xp - xm) / (2 * h), (yp - ym) / (2 * h)
        out[:, j] = (fx - 1j * fy) / 2, (fx + 1j * fy) / 2
        total += xp + xm + yp + ym
    return total / (4 * len(u)), out[0], out[1]


class FiniteDifferenceEnergy:
    """Energy h(u) = fn(z) of a function on label coordinates z (d,), on any
    chart whose `.labels(us)` gives the label rows of coordinates us: the
    reference route for an energy's `on(chart)` and `chart_values(chart, us)`,
    its derivatives by central differences.
    At order 1 the stencil's mean stands in for h, so the velocity costs only
    the stencil's calls; order 2 differentiates the stencil gradient."""

    def __init__(self, fn):
        self.fn = fn

    def spectral_radius(self) -> float:
        """The drift scale a flow floors |h0| with, as a matrix energy's
        spectral radius is: 1 for this oracle."""
        return 1.0

    def on(self, chart):
        def h(u):
            return float(self.fn(chart.labels(u[None])[0]))

        def derivs(u, order):
            if order == 0:
                return (h(u),)
            mean, _, grad = _wirtinger(h, u)
            if order == 1:
                return mean, grad
            _, (mixed,), (grad2,) = _wirtinger(lambda v: _wirtinger(h, v)[2][0], u)
            return h(u), grad[0], mixed, grad2

        return derivs

    def chart_values(self, chart, us: np.ndarray) -> np.ndarray:
        derivs = self.on(chart)
        return np.array([derivs(u, 0)[0] for u in us], dtype=float)


def gram_bruteforce(eval_fn, points) -> np.ndarray:
    n = len(points)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            g[i, j] = eval_fn(points[i], points[j])
    return g


# --- config label entries, read one number at a time, then stacked ---

def _finite_number(name: str, x) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{name!r} must be a finite number, got {x!r}")
    return float(x)


def _number_pair(name: str, x) -> complex:
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise ValueError(f"{name!r} must be a list of 2 numbers, got {x!r}")
    return complex(_finite_number(name, x[0]), _finite_number(name, x[1]))


def label_entry(entry, name: str):
    """(coords (d,) complex, multiplier or None) of one config label entry: a
    coordinate list or a {"coords", "multiplier"} object, a coordinate being
    an [re, im] pair or a real number.  A bad entry raises ValueError with
    the command line's message, naming the entry."""
    coords, mult = entry, None
    if isinstance(entry, dict):
        unknown = sorted(set(entry) - {"coords", "multiplier"})
        if unknown:
            keys = ", ".join(repr(f"{name}.{key}") for key in unknown)
            raise ValueError(f"unknown key {keys}; accepted keys: coords, multiplier")
        if entry.get("coords") is None:
            raise ValueError(f"missing required key '{name}.coords'")
        coords, mult = entry["coords"], entry.get("multiplier")
    elif not isinstance(entry, (list, tuple)):
        raise ValueError(f"{name}: must be a coordinate list or an object with 'coords'")
    if not isinstance(coords, (list, tuple)):
        raise ValueError(f"{name}: coordinates must be a list")
    z = [_number_pair(name, c) if isinstance(c, (list, tuple)) else complex(_finite_number(name, c))
         for c in coords]
    return (np.array(z, dtype=complex),
            None if mult is None else _number_pair(f"{name}.multiplier", mult))


def label_stack(labels, dim: int, line: bool, check):
    """Coordinates (n, dim) and multipliers ((n,) on a line bundle, else None)
    of (coords, multiplier) labels, passed to check(coords, multipliers) as
    one stack up to the first label that cannot join it (another dimension,
    or no multiplier on a line bundle), which is then checked alone."""
    cut = next((i for i, (z, m) in enumerate(labels) if z.shape != (dim,) or (line and m is None)),
               len(labels))
    coords = np.array([z for z, _ in labels[:cut]], dtype=complex).reshape(cut, dim)
    mults = np.array([m for _, m in labels[:cut]], dtype=complex) if line else None
    check(coords, mults)
    if cut < len(labels):
        check(labels[cut][0][None, :], None)
    return coords, mults


# --- numeric config fields and triples, read one number at a time ---

def number_array(data, key: str, shape: tuple, pairs: bool = False) -> np.ndarray:
    """The numbers of a config field, nested lists of `shape` (None: any
    length at the top, and the top's length below it: a square matrix), read
    one at a time: floats, or with pairs=True complex(re, im) of each innermost pair.
    The first bad item in reading order (a list's length before its items)
    raises ValueError naming the list at fault, key and its indices."""
    def walk(x, shape, path):
        name = key + "".join(f"[{i}]" for i in path)
        n, rest = shape[0], shape[1:]
        if not isinstance(x, (list, tuple)) or n is not None and len(x) != n:
            count = "" if n is None else f"{n} "
            raise ValueError(f"{name!r} must be a list of {count}{'lists' if rest else 'numbers'}, "
                             f"got {x!r}")
        if not rest:
            values = [_finite_number(name, v) for v in x]
            return complex(*values) if pairs else values
        if rest[0] is None:
            rest = (len(x),) + rest[1:]
        return [walk(item, rest, path + (i,)) for i, item in enumerate(x)]

    out, dims, x = walk(data, shape, ()), [], data
    for n in shape[:-1] if pairs else shape:
        dims.append(len(x) if len(x) or n is None else n)
        x = x[0] if len(x) else []
    return np.array(out, dtype=complex if pairs else float).reshape(dims)


_SITES = "sites t and x must be integers with |t|, |x| <= 2^53"
_ROWS = "section rows must be [t, x, re, im] numbers"


def _triple_row(row) -> list:
    """The floats of one [t, x, re, im] row, or ValueError with its first fault."""
    if not (isinstance(row, (list, tuple)) and len(row) == 4):
        raise ValueError(_ROWS)
    out = []
    for col, v in enumerate(row):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(_ROWS)
        if isinstance(v, int) and abs(v) > sys.float_info.max:
            raise ValueError("section rows hold an integer beyond float64")
        if not math.isfinite(v):
            raise ValueError(_SITES if col < 2 else "amplitudes re and im must be finite")
        out.append(float(v))
    if not all(abs(s) <= 2.0**53 and s == math.floor(s) for s in out[:2]):
        raise ValueError(_SITES)
    return out


def triples_walk(spec) -> tuple:
    """(t, x, amp) padded to (n, 3, s) of [j, k, j'] triples of [t, x, re, im]
    rows, read one triple, row and number at a time: the first bad triple
    raises ValueError naming it, triples[i], with its first fault in reading
    order (its sections, then each row's numbers and then its sites)."""
    if not isinstance(spec, (list, tuple)):
        raise ValueError(f"'triples' must be a list of [j, k, j'] triples, got {spec!r}")
    sections = []
    for i, triple in enumerate(spec):
        try:
            if not (isinstance(triple, (list, tuple)) and len(triple) == 3):
                raise ValueError("each entry must hold 3 sections [j, k, j']")
            if not all(isinstance(section, (list, tuple)) for section in triple):
                raise ValueError("a section must be a list of [t, x, re, im] rows")
            sections += [[_triple_row(row) for row in section] for section in triple]
        except ValueError as exc:
            raise ValueError(f"triples[{i}]: {exc}") from None
    n, s = len(spec), max([1] + [len(section) for section in sections])
    t, x = np.zeros((2, 3 * n, s), dtype=np.int64)
    amp = np.zeros((3 * n, s), dtype=complex)
    for k, section in enumerate(sections):
        for j, (tj, xj, re, im) in enumerate(section):
            t[k, j], x[k, j], amp[k, j] = int(tj), int(xj), complex(re, im)
    return t.reshape(n, 3, s), x.reshape(n, 3, s), amp.reshape(n, 3, s)


# --- causal coherent spaces: dict sections, both conditions pair by pair ---

class CausalSection:
    """Finitely supported complex amplitudes on lattice sites (t, x), built
    from rows [t, x, re, im]; rows at one site add, and zeros are dropped."""

    def __init__(self, values: dict):
        self.values = {tuple(int(c) for c in site): complex(v)
                       for site, v in values.items() if complex(v) != 0}

    @classmethod
    def from_rows(cls, rows) -> "CausalSection":
        vals = {}
        for t, x, re, im in rows:
            vals[(int(t), int(x))] = vals.get((int(t), int(x)), 0.0j) + complex(float(re), float(im))
        return cls(vals)

    @property
    def support(self) -> set:
        return set(self.values)

    def __add__(self, other: "CausalSection") -> "CausalSection":
        out = dict(self.values)
        for site, v in other.values.items():
            out[site] = out.get(site, 0.0j) + v
        return CausalSection(out)


def site_independent(p, q) -> bool:
    """Causal disjointness at unit lattice speed: strictly spacelike."""
    return abs(p[1] - q[1]) > abs(p[0] - q[0])


def sections_independent(a: CausalSection, b: CausalSection) -> bool:
    return all(site_independent(x, y) for x in a.support for y in b.support)


def weyl_commutator(dt: int, dx: int, nonlocal_violation: bool = False) -> complex:
    """-(i/2) sgn(t) on the closed cone |x| <= |t| (everywhere off t = 0 when
    nonlocal_violation)."""
    if dt == 0 or (not nonlocal_violation and abs(dx) > abs(dt)):
        return 0.0j
    return -0.5j if dt > 0 else 0.5j


def weyl_kernel(a: CausalSection, b: CausalSection, nonlocal_violation: bool = False) -> complex:
    """exp(sum_{xi, eta} a(xi) W(xi - eta) b(eta)), pair by pair."""
    s = 0.0j
    for (ta, xa), va in a.values.items():
        for (tb, xb), vb in b.values.items():
            wv = weyl_commutator(ta - tb, xa - xb, nonlocal_violation)
            if wv != 0:
                s += va * wv * vb
    return cmath.exp(s)


def causal_check_pairwise(triples, nonlocal_violation: bool = False) -> dict:
    """Both conditions over (j, k, j') triples of row lists, one section pair
    at a time: the checked counts and the worst deviations.  A triple whose k
    is not independent of j (then j') raises ValueError naming the triple,
    the section and the offending site pairs.  kernel_max is the largest
    |K| met, the scale of either route's rounding."""
    out = {"normal_checked": 0, "causal_checked": 0, "normal_max": 0.0, "causal_max": 0.0,
           "kernel_max": 0.0}
    for idx, rows in enumerate(triples):
        j, k, jp = map(CausalSection.from_rows, rows)
        for name, a in (("j", j), ("j'", jp)):
            bad = {(x, y) for x in k.support for y in a.support if not site_independent(x, y)}
            if bad:
                raise ValueError(idx, name, bad)
        base = weyl_kernel(j, jp, nonlocal_violation)
        shifted = weyl_kernel(j + k, jp + k, nonlocal_violation)
        out["causal_max"] = max(out["causal_max"], abs(shifted - base))
        out["kernel_max"] = max(out["kernel_max"], abs(base), abs(shifted))
        out["causal_checked"] += 1
        if sections_independent(j, jp):
            out["normal_max"] = max(out["normal_max"], abs(base - 1.0))
            out["normal_checked"] += 1
    return out


# --- Lie algebras of matrices: one basis pair and one matrix at a time ---

def operator_sum(coeffs, mats) -> np.ndarray:
    """sum_a c_a M_a, adding the matrices of nonzero coefficients one by one."""
    out = np.zeros_like(np.asarray(mats[0], dtype=complex))
    for c, m in zip(coeffs, mats):
        if c != 0.0:
            out = out + c * np.asarray(m, dtype=complex)
    return out


def commutator_structure(basis) -> np.ndarray:
    """C[a, b, k] = Tr(B_k^dagger i[B_a, B_b]) of a basis whose first element is
    the identity and whose others are trace-orthonormal, pair by pair (a < b;
    C[b, a] = -C[a, b]); the identity takes no part."""
    dim = len(basis)
    c = np.zeros((dim, dim, dim), dtype=complex)
    for a in range(1, dim):
        for b in range(a + 1, dim):
            comm = 1j * (basis[a] @ basis[b] - basis[b] @ basis[a])
            coeff = np.array([np.trace(basis[k].conj().T @ comm) for k in range(1, dim)])
            c[a, b, 1:] = coeff
            c[b, a, 1:] = -coeff
    return c


def rep_defect_pairwise(structure, rep, hbar: float = 1.0) -> float:
    """max over basis pairs of |(i/hbar)[R_a, R_b] - sum_c C[a, b, c] R_c|."""
    rep = [np.asarray(r, dtype=complex) for r in rep]
    worst = 0.0
    for a in range(len(rep)):
        for b in range(len(rep)):
            got = (1j / hbar) * (rep[a] @ rep[b] - rep[b] @ rep[a])
            worst = max(worst, float(np.max(np.abs(got - operator_sum(structure[a, b], rep)))))
    return worst
