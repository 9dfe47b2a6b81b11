"""Lie-*-algebras of observables and expectation-form states.

An algebra element is a coefficient vector against a fixed basis
(X_0 .. X_{d-1}); the antisymmetric product is stored as a dense structure
tensor C with

    X_a |> X_b = sum_c C[a, b, c] X_c.

Quantum catalog entries use the convention x |> y = (i/hbar)[x, y], so
d<X>/dt = <H |> X> is the Ehrenfest equation; classical entries use the
negative Poisson bracket.  The convention and hbar are recorded on the
algebra and echoed into its JSON descriptor.

The involution is antilinear and acts on the basis through a matrix M,
(X_a)* = sum_b M[a, b] X_b, so a coefficient vector transforms as
star(x) = M^T conj(x).

A state is the sesquilinear expectation form S[a, b] = <X_a, X_b>,
antilinear in the first slot.  Means are Xbar = <1, X>, uncertainties
sqrt(<X, X> - |Xbar|^2).  ``state_from_density`` gives the state of a
density matrix under a compatible matrix representation (unit represented by
the identity),

    S[a, b] = Tr(rep_b rho rep_a^dagger),

which is Hermitian and positive semidefinite by construction; the state
keeps rho, so that evolve_expectations can cross-check against it.

A representation is one stacked (dim, n, n) array R checked by one rule
(square matrices of one shape, unit represented by the identity); an operator
sum sum_a c_a R[a] is one contraction, np.tensordot(c, R, 1), and all the
commutators [R[a], R[b]] one batched product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    REQUIRED,
    AlgebraAxiomError,
    ClosureError,
    ConfigError,
    PreconditionError,
    StatePositivityError,
    check_fields,
    check_numbers,
    check_sample_times,
)
from .reps import propagate_eig

AXIOM_TOL = 1e-12
CLOSURE_TOL = 1e-10
VARIANCE_FLOOR = -1e-8  # below this a negative variance is a positivity failure


@dataclass(frozen=True, eq=False)
class LieStarAlgebra:
    """Finite-dimensional Lie algebra with unit and antilinear involution.

    structure[a, b, c] is the coefficient of X_c in X_a |> X_b;
    involution[a, b] the coefficient of X_b in (X_a)*.  Axioms
    (antisymmetry, Jacobi, unit annihilation, involution compatibility)
    are verified on construction to AXIOM_TOL.
    """

    name: str
    basis_names: tuple[str, ...]
    structure: np.ndarray
    involution: np.ndarray
    unit_index: int = 0
    convention: str = "quantum"
    hbar: float = 1.0

    def __post_init__(self):
        dim = len(self.basis_names)
        c = np.asarray(self.structure, dtype=complex)
        m = np.asarray(self.involution, dtype=complex)
        if c.shape != (dim, dim, dim):
            raise ConfigError(
                f"structure tensor is {c.shape}, needs ({dim}, {dim}, {dim})"
            )
        if m.shape != (dim, dim):
            raise ConfigError(f"involution matrix is {m.shape}, needs ({dim}, {dim})")
        if not 0 <= self.unit_index < dim:
            raise ConfigError(f"unit_index {self.unit_index} out of range for dim {dim}")
        object.__setattr__(self, "basis_names", tuple(self.basis_names))
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "involution", m)
        _check_axioms(self)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def basis_vector(self, a: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[a] = 1.0
        return e


def _check_axioms(alg: LieStarAlgebra) -> None:
    c = alg.structure
    m = alg.involution
    u = alg.unit_index
    scale = max(1.0, float(np.max(np.abs(c))))

    anti = np.max(np.abs(c + c.transpose(1, 0, 2)))
    if anti > AXIOM_TOL * scale:
        raise AlgebraAxiomError(f"product is not antisymmetric (deviation {anti:.3e})")

    # (Xa |> Xb) |> Xc summed over cyclic permutations of (a, b, c)
    t = np.einsum("abd,dce->abce", c, c)
    jac = np.max(np.abs(t + t.transpose(2, 0, 1, 3) + t.transpose(1, 2, 0, 3)))
    if jac > AXIOM_TOL * scale**2:
        raise AlgebraAxiomError(f"Jacobi identity fails (deviation {jac:.3e})")

    unit_act = max(np.max(np.abs(c[:, u, :])), np.max(np.abs(c[u, :, :])))
    if unit_act > AXIOM_TOL * scale:
        raise AlgebraAxiomError(f"unit does not annihilate the product ({unit_act:.3e})")

    mscale = max(1.0, float(np.max(np.abs(m))))
    invol = np.max(np.abs(np.conj(m) @ m - np.eye(alg.dim)))
    if invol > AXIOM_TOL * mscale**2:
        raise AlgebraAxiomError(f"involution is not involutive (deviation {invol:.3e})")

    unit_star = np.max(np.abs(m[u] - np.eye(alg.dim)[u]))
    if unit_star > AXIOM_TOL * mscale:
        raise AlgebraAxiomError(f"unit is not fixed by the involution ({unit_star:.3e})")

    # (Xa |> Xb)* = Xa* |> Xb*
    lhs = np.conj(c) @ m
    rhs = np.einsum("ax,by,xyc->abc", m, m, c)
    compat = np.max(np.abs(lhs - rhs))
    if compat > AXIOM_TOL * scale * mscale**2:
        raise AlgebraAxiomError(
            f"involution is not compatible with the product (deviation {compat:.3e})"
        )


def _coeffs(algebra: LieStarAlgebra, x, what: str = "element") -> np.ndarray:
    """x as a complex coefficient vector of length algebra.dim, else ConfigError."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (algebra.dim,):
        raise ConfigError(f"{what} must be a coefficient vector of length {algebra.dim}")
    return x


def _rep(algebra: LieStarAlgebra, rep) -> np.ndarray:
    """rep as one (dim, n, n) complex stack of square matrices whose unit is
    the identity, else ConfigError."""
    try:
        r = np.asarray(rep, dtype=complex)
    except ValueError:
        raise ConfigError("representation matrices must be square and of one shape") from None
    if r.ndim != 3 or r.shape[0] != algebra.dim or r.shape[1] != r.shape[2]:
        raise ConfigError(f"representation is {r.shape}, needs ({algebra.dim}, n, n)")
    if np.max(np.abs(r[algebra.unit_index] - np.eye(r.shape[1]))) > 1e-12:
        raise ConfigError("the unit must be represented by the identity matrix")
    return r


def _check_hermitian_psd(a: np.ndarray, what: str, tol: float) -> None:
    """a Hermitian to tol * max(1, max |a_ij|) (else ConfigError), no eigenvalue
    below -tol * max(1, the largest) (else StatePositivityError)."""
    scale = max(1.0, float(np.max(np.abs(a))))
    herm = np.max(np.abs(a - a.conj().T))
    if herm > tol * scale:
        raise ConfigError(f"{what} is not Hermitian (deviation {herm:.3e})")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if w[0] < -tol * max(1.0, w[-1]):
        raise StatePositivityError(f"{what} has negative eigenvalue {w[0]:.3e}")


def lie_product(algebra: LieStarAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x, y = _coeffs(algebra, x), _coeffs(algebra, y)
    return np.einsum("a,b,abc->c", x, y, algebra.structure)


# ---------------------------------------------------------------------------
# states


@dataclass(eq=False)
class AlgebraState:
    """Expectation form over the algebra basis; Hermitian, PSD, <1,1> = 1.
    rho is the density matrix the form comes from, or None."""

    algebra: LieStarAlgebra
    form: np.ndarray
    rho: Optional[np.ndarray] = None

    def __post_init__(self):
        s = np.asarray(self.form, dtype=complex)
        dim = self.algebra.dim
        if s.shape != (dim, dim):
            raise ConfigError(f"expectation form is {s.shape}, needs ({dim}, {dim})")
        _check_hermitian_psd(s, "expectation form", 1e-10)
        u = self.algebra.unit_index
        if abs(s[u, u] - 1.0) > 1e-10:
            raise ConfigError(f"<1, 1> = {s[u, u]:.12g}, needs 1")
        self.form = s


def state_from_density(
    algebra: LieStarAlgebra, rep: Sequence[np.ndarray], rho: np.ndarray
) -> AlgebraState:
    """The state of a density matrix under a matrix representation whose
    unit is the identity: S[a, b] = Tr(rep_b rho rep_a^dagger), rho kept."""
    r = _rep(algebra, rep)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != r.shape[1:]:
        raise ConfigError(f"density matrix is {rho.shape}; the {algebra.name} "
                          f"representation needs {r.shape[1:]}")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ConfigError(f"density matrix has trace {np.trace(rho):.12g}, needs 1")
    _check_hermitian_psd(rho, "density matrix", 1e-12)
    prod = np.einsum("bij,jk->bik", r, rho)
    return AlgebraState(algebra, np.tensordot(np.conj(r), prod, axes=([1, 2], [1, 2])), rho)


def uncertain_value(state: AlgebraState, x: np.ndarray) -> complex:
    """Mean <1, x> of an algebra element in the given state."""
    return complex(state.form[state.algebra.unit_index] @ _coeffs(state.algebra, x))


def uncertainty(state: AlgebraState, x: np.ndarray) -> float:
    """sqrt(<x, x> - |<1, x>|^2), clamped at zero.

    Tiny negative variances (roundoff against a barely-PSD form) are clamped.
    A variance below VARIANCE_FLOOR is a genuine positivity violation and
    raises.
    """
    x = _coeffs(state.algebra, x)
    xx = float(np.real(np.conj(x) @ state.form @ x))
    mean = uncertain_value(state, x)
    raw = xx - abs(mean) ** 2
    if raw < VARIANCE_FLOOR:
        raise StatePositivityError(
            f"variance {raw:.3e} is negative beyond tolerance {VARIANCE_FLOOR:.0e}"
        )
    return math.sqrt(max(0.0, raw))


# ---------------------------------------------------------------------------
# expectation dynamics


@dataclass
class ExpectationTable:
    """Expectations of the requested observables along the flow.

    values[k, i] is <observables[i]> at times[k]; generator is the matrix G
    of the closed linear system de/dt = G e; final_cross_check is the max
    deviation from direct von Neumann propagation of the density matrix at
    the last sample time (None without a representation, density or time).
    """

    times: np.ndarray
    values: np.ndarray
    generator: np.ndarray
    final_cross_check: Optional[float]


def evolve_expectations(
    algebra: LieStarAlgebra,
    rep: Optional[Sequence[np.ndarray]],
    hamiltonian: np.ndarray,
    state: AlgebraState,
    observables: Sequence[np.ndarray],
    t_span: tuple[float, float],
    t_eval: Optional[Sequence[float]] = None,
) -> ExpectationTable:
    """Propagate means through the closed linear system d<X>/dt = <H |> X>.

    The span of the observables must be invariant under H |> . to
    CLOSURE_TOL; otherwise ClosureError carries the escaping direction.
    The system de/dt = G e is solved exactly, e(t) = exp(G (t - t0)) e0, by
    reps.propagate_eig with h = i G (eigendecomposition when i G is
    Hermitian, expm otherwise).  When the state is density-backed and a
    representation is supplied, the final row is cross-checked against
    unitary propagation of rho.
    """
    h = _coeffs(algebra, hamiltonian, "hamiltonian")
    obs = [_coeffs(algebra, o, f"observables[{i}]") for i, o in enumerate(observables)]
    if not obs:
        raise ConfigError("need at least one observable")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 201)
    times = np.array(check_sample_times(t0, t1, t_eval))

    span = np.stack(obs, axis=1)
    g = np.zeros((len(obs), len(obs)), dtype=complex)
    for i, o in enumerate(obs):
        y = lie_product(algebra, h, o)
        coeff, *_ = np.linalg.lstsq(span, y, rcond=None)
        resid = y - span @ coeff
        rn = float(np.linalg.norm(resid))
        if rn > CLOSURE_TOL * (1.0 + np.linalg.norm(y)):
            raise ClosureError(
                f"hamiltonian action leaves the observable span on observable {i} "
                f"(residual {rn:.3e}); extend the span along the escaping direction",
                escape=resid / rn,
            )
        g[i] = coeff

    e0 = np.array([uncertain_value(state, o) for o in obs])
    values = propagate_eig(1j * g, e0, times - t0)

    cross = None
    if state.rho is not None and rep is not None and len(times):
        rep = _rep(algebra, rep)
        hmat = np.tensordot(h, rep, 1)
        scale = max(1.0, float(np.max(np.abs(hmat))))
        if np.max(np.abs(hmat - hmat.conj().T)) > 1e-10 * scale:
            raise ConfigError("represented hamiltonian is not Hermitian; cannot cross-check")
        u = propagate_eig(hmat, np.eye(len(hmat)), [times[-1] - t0], hbar=algebra.hbar)[0]
        final = state_from_density(algebra, rep, u @ state.rho @ u.conj().T)
        vn = np.array([uncertain_value(final, o) for o in obs])
        cross = float(np.max(np.abs(vn - values[-1])))

    return ExpectationTable(
        times=times,
        values=values,
        generator=g,
        final_cross_check=cross,
    )


# ---------------------------------------------------------------------------
# lattice state fields: covariant expectation derivative


def _field_state(state_field: Mapping, site: tuple) -> AlgebraState:
    s = state_field.get(site)
    if s is None:
        raise PreconditionError(f"state field has no entry at site {site}")
    return s


def covariant_ehrenfest_residual(
    algebra: LieStarAlgebra,
    momenta: Sequence[np.ndarray],
    state_field: Mapping,
    x: np.ndarray,
    site: Sequence[int],
    dx: float,
) -> np.ndarray:
    """|central difference of <x> minus <p_nu |> x>| per lattice direction.

    The field of states, a mapping from integer sites to states, is sampled
    on a lattice of spacing dx; a site whose +/- neighbour along some
    direction is missing is a precondition failure.  For a field generated by
    translating a state with the momenta the residual is O(dx^2).
    """
    if dx <= 0:
        raise ConfigError("dx must be positive")
    site = tuple(int(v) for v in site)
    if len(momenta) != len(site):
        raise ConfigError(f"{len(momenta)} momenta for a {len(site)}-dimensional site")
    x = _coeffs(algebra, x, "x")
    center = _field_state(state_field, site)
    out = np.empty(len(momenta))
    for nu, p in enumerate(momenta):
        plus = tuple(s + (1 if k == nu else 0) for k, s in enumerate(site))
        minus = tuple(s - (1 if k == nu else 0) for k, s in enumerate(site))
        diff = (
            uncertain_value(_field_state(state_field, plus), x)
            - uncertain_value(_field_state(state_field, minus), x)
        ) / (2.0 * dx)
        gen = uncertain_value(center, lie_product(algebra, p, x))
        out[nu] = abs(diff - gen)
    return out


# ---------------------------------------------------------------------------
# representations


def rep_defect(algebra: LieStarAlgebra, rep: Sequence[np.ndarray]) -> float:
    """Max deviation of (i/hbar)[rep_a, rep_b] from the represented product.

    Zero (to roundoff) certifies that density-matrix propagation and the
    closed expectation system agree; the classical catalog entries are
    arranged so their reps satisfy the same commutator identity.
    """
    r = _rep(algebra, rep)
    got = (1j / algebra.hbar) * (r[:, None] @ r[None] - r[None] @ r[:, None])
    return float(np.max(np.abs(got - np.tensordot(algebra.structure, r, 1))))


# ---------------------------------------------------------------------------
# catalog

_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def su2_qubit() -> tuple[LieStarAlgebra, list]:
    """Pauli algebra: sigma_a |> sigma_b = -2 eps_abc sigma_c  (hbar = 1)."""
    c = np.zeros((4, 4, 4), dtype=complex)
    c[1:, 1:, 1:] = -2.0 * _EPS3
    alg = LieStarAlgebra(
        "su2_qubit", ("unit", "pauli_x", "pauli_y", "pauli_z"), c, np.eye(4)
    )
    return alg, [np.eye(2, dtype=complex), *pauli_matrices()]


def so3_rotator() -> tuple[LieStarAlgebra, list]:
    """Angular momentum with J_a |> J_b = eps_abc J_c (cross product).

    This is the negative Lie-Poisson bracket of the free rotator; the
    supplied 3x3 Hermitian rep satisfies (i)[rep_a, rep_b] = eps_abc rep_c,
    so the von Neumann cross-check applies unchanged.
    """
    c = np.zeros((4, 4, 4), dtype=complex)
    c[1:, 1:, 1:] = _EPS3
    alg = LieStarAlgebra(
        "so3_rotator", ("unit", "jx", "jy", "jz"), c, np.eye(4), convention="classical"
    )
    return alg, [np.eye(3, dtype=complex), *(1j * _EPS3)]


def oscillator_algebra(mass: float = 1.0, spring: float = 1.0) -> tuple[LieStarAlgebra, None]:
    """{1, q, p, H}: q |> p = -1, H |> q = p/m, H |> p = -K q.

    No faithful finite-dimensional rep exists ([q, p] = i hbar has traceless
    left side), so the catalog entry carries none; build expectation forms
    from a truncated rep when a state is needed.
    """
    if mass <= 0:
        raise ConfigError("mass must be positive")
    if spring < 0:
        raise ConfigError("spring constant must be nonnegative")
    c = np.zeros((4, 4, 4), dtype=complex)
    q, p, h = 1, 2, 3
    c[q, p, 0], c[p, q, 0] = -1.0, 1.0
    c[h, q, p], c[q, h, p] = 1.0 / mass, -1.0 / mass
    c[h, p, q], c[p, h, q] = -spring, spring
    alg = LieStarAlgebra(
        "oscillator", ("unit", "position", "momentum", "energy"), c, np.eye(4)
    )
    return alg, None


def su11_algebra() -> tuple[LieStarAlgebra, None]:
    """Two boosts and a rotation: T1 |> T2 = T3, T2 |> T3 = -T1, T3 |> T1 = -T2."""
    c = np.zeros((4, 4, 4), dtype=complex)
    c[1, 2, 3], c[2, 1, 3] = 1.0, -1.0
    c[2, 3, 1], c[3, 2, 1] = -1.0, 1.0
    c[3, 1, 2], c[1, 3, 2] = -1.0, 1.0
    alg = LieStarAlgebra("su11", ("unit", "boost_1", "boost_2", "rotation"), c, np.eye(4))
    return alg, None


def ladder_algebra() -> tuple[LieStarAlgebra, None]:
    """{1, a, a+, n} with complex structure constants and a swapping involution.

    a |> a+ = i, n |> a = -i a, n |> a+ = i a+; the involution exchanges
    the ladder elements, exercising the antilinear compatibility axiom.
    """
    c = np.zeros((4, 4, 4), dtype=complex)
    low, rai, num = 1, 2, 3
    c[low, rai, 0], c[rai, low, 0] = 1j, -1j
    c[num, low, low], c[low, num, low] = -1j, 1j
    c[num, rai, rai], c[rai, num, rai] = 1j, -1j
    m = np.eye(4)
    m[[low, rai]] = m[[rai, low]]
    alg = LieStarAlgebra("ladder", ("unit", "lowering", "raising", "number"), c, m)
    return alg, None


def hermitian_basis(d: int) -> tuple[list, list]:
    """Identity plus a trace-orthonormal basis of traceless Hermitian matrices."""
    mats = [np.eye(d, dtype=complex)]
    names = ["unit"]
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            mats.append(m)
            names.append(f"sym_{i}{j}")
            m = np.zeros((d, d), dtype=complex)
            m[i, j], m[j, i] = -1j / np.sqrt(2), 1j / np.sqrt(2)
            mats.append(m)
            names.append(f"asym_{i}{j}")
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[:l, :l] = np.eye(l)
        m[l, l] = -l
        mats.append(m / np.sqrt(l * (l + 1)))
        names.append(f"diag_{l}")
    return mats, names


def matrix_star_algebra(d: int) -> tuple[LieStarAlgebra, list]:
    """Full d x d Hermitian observable algebra under (i)[., .]."""
    if d < 2:
        raise ConfigError("matrix algebra needs d >= 2")
    rep, names = hermitian_basis(d)
    r = np.stack(rep)
    # C[a, b, k] = Tr(R_k^dagger i[R_a, R_b]); the unit (k = 0) takes no part
    c = np.einsum("kij,abij->abk", r.conj(), 1j * (r[:, None] @ r[None] - r[None] @ r[:, None]))
    c[..., 0] = 0.0
    alg = LieStarAlgebra(f"hermitian_{d}", tuple(names), c, np.eye(d * d))
    return alg, rep


CATALOG: dict[str, Callable] = {
    "su2_qubit": su2_qubit,
    "so3_rotator": so3_rotator,
    "oscillator": oscillator_algebra,
    "su11": su11_algebra,
    "ladder": ladder_algebra,
}


# ---------------------------------------------------------------------------
# JSON descriptors


def algebra_descriptor(algebra: LieStarAlgebra) -> dict:
    """JSON-ready description; structure and involution as sparse triples."""
    structure, involution = (
        [at + [v.real, v.imag] for at, v in zip(np.argwhere(m).tolist(), m[m != 0].tolist())]
        for m in (algebra.structure, algebra.involution))
    return {
        "name": algebra.name,
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "unit_index": algebra.unit_index,
        "convention": algebra.convention,
        "hbar": algebra.hbar,
        "structure": structure,
        "involution": involution,
    }


_DESCRIPTOR = (("name", "str", REQUIRED), ("dim", "size", REQUIRED), ("basis", "json", REQUIRED),
               ("unit_index", "int", None), ("convention", "str", None), ("hbar", "positive", None),
               ("structure", "json", REQUIRED), ("involution", "json", REQUIRED))


def algebra_from_descriptor(data: Mapping) -> LieStarAlgebra:
    """The algebra of a descriptor as algebra_descriptor writes it: rows [i_1,
    ..., i_k, re, im] of structure (k = 3) and involution (k = 2), indices in
    0..dim-1, read by check_numbers; a later row at the same indices wins."""
    spec = check_fields("algebra", data, _DESCRIPTOR)
    dim, basis = spec.pop("dim"), spec.pop("basis")
    if not isinstance(basis, (list, tuple)) or len(basis) != dim:
        raise ConfigError(f"'algebra.basis' must list {dim} basis names, got {basis!r}")
    for key, k in (("structure", 3), ("involution", 2)):
        rows, spec[key] = spec[key], np.zeros((dim,) * k, dtype=complex)
        a = check_numbers(rows, f"algebra.{key}", (None, k + 2))
        idx = a[:, :k]
        bad = ((idx != np.round(idx)) | (idx < 0) | (idx >= dim)).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            raise ConfigError(f"'algebra.{key}[{i}]' must start with {k} indices in 0..{dim - 1}, "
                              f"got {rows[i]!r}")
        for at, v in zip(idx.astype(int).tolist(), a[:, k:].copy().view(complex)[:, 0]):
            spec[key][tuple(at)] = v
    return LieStarAlgebra(basis_names=tuple(map(str, basis)), **spec)
