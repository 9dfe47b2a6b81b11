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
sqrt(<X, X> - |Xbar|^2).  Given a density matrix and a compatible matrix
representation (unit represented by the identity),

    S[a, b] = Tr(rep_b rho rep_a^dagger),

which is Hermitian and positive semidefinite by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    REQUIRED,
    AlgebraAxiomError,
    ClosureError,
    ConfigError,
    OutOfSpanError,
    PreconditionError,
    StatePositivityError,
    check_fields,
    check_sample_times,
)
from .reps import propagate_eig

AXIOM_TOL = 1e-12
CLOSURE_TOL = 1e-10
VARIANCE_FLOOR = -1e-8  # below this a negative variance is a positivity failure
UNCERTAINTY_RATIO = 0.1  # "much smaller": sigma_X at most this share of |mean| + delta


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

    @property
    def unit(self) -> np.ndarray:
        return self.basis_vector(self.unit_index)


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


def lie_product(algebra: LieStarAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (algebra.dim,) or y.shape != (algebra.dim,):
        raise ConfigError(f"elements must be coefficient vectors of length {algebra.dim}")
    return np.einsum("a,b,abc->c", x, y, algebra.structure)


def star_element(algebra: LieStarAlgebra, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (algebra.dim,):
        raise ConfigError(f"elements must be coefficient vectors of length {algebra.dim}")
    return algebra.involution.T @ np.conj(x)


# ---------------------------------------------------------------------------
# states


@dataclass(eq=False)
class AlgebraState:
    """Expectation form over the algebra basis; Hermitian, PSD, <1,1> = 1."""

    algebra: LieStarAlgebra
    form: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.form, dtype=complex)
        dim = self.algebra.dim
        if s.shape != (dim, dim):
            raise ConfigError(f"expectation form is {s.shape}, needs ({dim}, {dim})")
        scale = max(1.0, float(np.max(np.abs(s))))
        herm = np.max(np.abs(s - s.conj().T))
        if herm > 1e-10 * scale:
            raise ConfigError(f"expectation form is not Hermitian (deviation {herm:.3e})")
        w = np.linalg.eigvalsh((s + s.conj().T) / 2)
        if w[0] < -1e-10 * max(1.0, w[-1]):
            raise StatePositivityError(
                f"expectation form has negative eigenvalue {w[0]:.3e}"
            )
        u = self.algebra.unit_index
        if abs(s[u, u] - 1.0) > 1e-10:
            raise ConfigError(f"<1, 1> = {s[u, u]:.12g}, needs 1")
        self.form = s


@dataclass(eq=False)
class DensityState:
    """State backed by a density matrix and a matrix representation.

    rep must represent the unit by the identity; the expectation form
    S[a, b] = Tr(rep_b rho rep_a^dagger) is computed on construction.
    """

    algebra: LieStarAlgebra
    rep: tuple[np.ndarray, ...]
    rho: np.ndarray
    form: Optional[np.ndarray] = None

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ConfigError(f"density matrix is {rho.shape}, needs square")
        n = rho.shape[0]
        rep = tuple(np.asarray(r, dtype=complex) for r in self.rep)
        if len(rep) != self.algebra.dim:
            raise ConfigError(
                f"representation has {len(rep)} matrices for a dim-{self.algebra.dim} algebra"
            )
        if any(r.shape != (n, n) for r in rep):
            raise ConfigError("representation matrices must match the density matrix shape")
        if np.max(np.abs(rep[self.algebra.unit_index] - np.eye(n))) > 1e-12:
            raise ConfigError("the unit must be represented by the identity matrix")
        if abs(np.trace(rho) - 1.0) > 1e-12:
            raise ConfigError(f"density matrix has trace {np.trace(rho):.12g}, needs 1")
        scale = max(1.0, float(np.max(np.abs(rho))))
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12 * scale:
            raise ConfigError("density matrix is not Hermitian")
        w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if w[0] < -1e-12:
            raise StatePositivityError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "rep", rep)
        if self.form is None:
            r = np.stack(rep)
            prod = np.einsum("bij,jk->bik", r, rho)
            self.form = np.tensordot(np.conj(r), prod, axes=([1, 2], [1, 2]))


State = Union[AlgebraState, DensityState]


def state_from_density(
    algebra: LieStarAlgebra, rep: Sequence[np.ndarray], rho: np.ndarray
) -> DensityState:
    return DensityState(algebra, tuple(rep), rho)


def koopman_state(
    algebra: LieStarAlgebra, rep: Sequence[np.ndarray], probabilities: Sequence[float]
) -> AlgebraState:
    """Classical state <X, Y> = sum_i p_i conj(X_i) Y_i for diagonal reps."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or np.any(p < -1e-15):
        raise ConfigError("probabilities must be a nonnegative vector")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ConfigError(f"probabilities sum to {p.sum():.12g}, need 1")
    funcs = []
    for r in rep:
        r = np.asarray(r, dtype=complex)
        if np.max(np.abs(r - np.diag(np.diag(r)))) > 1e-14:
            raise ConfigError("koopman_state needs diagonal (multiplication) reps")
        funcs.append(np.diag(r))
    f = np.stack(funcs)
    if f.shape != (algebra.dim, p.size):
        raise ConfigError("representation does not match the probability vector")
    return AlgebraState(algebra, (np.conj(f) * p) @ f.T)


def uncertain_value(state: State, x: np.ndarray) -> complex:
    """Mean <1, x> of an algebra element in the given state."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (state.algebra.dim,):
        raise ConfigError(f"elements must be coefficient vectors of length {state.algebra.dim}")
    return complex(state.form[state.algebra.unit_index] @ x)


def uncertainty(state: State, x: np.ndarray, meta: Optional[dict] = None) -> float:
    """sqrt(<x, x> - |<1, x>|^2), clamped at zero.

    Tiny negative variances (roundoff against a barely-PSD form) are clamped;
    when a meta dict is supplied the raw variance and whether clamping fired
    are recorded there.  A variance below VARIANCE_FLOOR is a genuine
    positivity violation and raises.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (state.algebra.dim,):
        raise ConfigError(f"elements must be coefficient vectors of length {state.algebra.dim}")
    xx = float(np.real(np.conj(x) @ state.form @ x))
    mean = uncertain_value(state, x)
    raw = xx - abs(mean) ** 2
    if raw < VARIANCE_FLOOR:
        raise StatePositivityError(
            f"variance {raw:.3e} is negative beyond tolerance {VARIANCE_FLOOR:.0e}"
        )
    if meta is not None:
        meta["raw_variance"] = raw
        meta["clamped"] = raw < 0.0
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
    observables: list
    generator: np.ndarray
    final_cross_check: Optional[float]


def _matrix_of(rep: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(rep[0], dtype=complex))
    for coeff, r in zip(x, rep):
        if coeff != 0.0:
            out = out + coeff * np.asarray(r, dtype=complex)
    return out


def evolve_expectations(
    algebra: LieStarAlgebra,
    rep: Optional[Sequence[np.ndarray]],
    hamiltonian: np.ndarray,
    state: State,
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
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (algebra.dim,):
        raise ConfigError(f"hamiltonian must be a coefficient vector of length {algebra.dim}")
    obs = [np.asarray(o, dtype=complex) for o in observables]
    if not obs:
        raise ConfigError("need at least one observable")
    if any(o.shape != (algebra.dim,) for o in obs):
        raise ConfigError(f"observables must be coefficient vectors of length {algebra.dim}")
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
    if isinstance(state, DensityState) and rep is not None and len(times):
        rep = tuple(np.asarray(r, dtype=complex) for r in rep)
        hmat = _matrix_of(rep, h)
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
        observables=obs,
        generator=g,
        final_cross_check=cross,
    )


# ---------------------------------------------------------------------------
# lattice state fields: covariant expectation derivative, observability


def _field_state(state_field, site: tuple) -> State:
    if callable(state_field):
        try:
            s = state_field(site)
        except (KeyError, IndexError):
            s = None
    else:
        s = state_field.get(site)
    if s is None:
        raise PreconditionError(f"state field has no entry at site {site}")
    return s


def covariant_ehrenfest_residual(
    algebra: LieStarAlgebra,
    rep: Optional[Sequence[np.ndarray]],
    momenta: Sequence[np.ndarray],
    state_field: Union[Mapping, Callable],
    x: np.ndarray,
    site: Sequence[int],
    dx: float,
) -> np.ndarray:
    """|central difference of <x> minus <p_nu |> x>| per lattice direction.

    The field of states is sampled on an integer lattice of spacing dx; a
    site whose +/- neighbour along some direction is missing is a
    precondition failure.  For a field generated by translating a state
    with the momenta the residual is O(dx^2).  rep is accepted so call
    sites can pass the same tuple they hand to evolve_expectations; the
    residual itself is representation-free.
    """
    if dx <= 0:
        raise ConfigError("dx must be positive")
    site = tuple(int(v) for v in site)
    if len(momenta) != len(site):
        raise ConfigError(f"{len(momenta)} momenta for a {len(site)}-dimensional site")
    x = np.asarray(x, dtype=complex)
    center = _field_state(state_field, site)
    out = np.empty(len(momenta))
    for nu, p in enumerate(momenta):
        plus = tuple(s + (1 if k == nu else 0) for k, s in enumerate(site))
        minus = tuple(s - (1 if k == nu else 0) for k, s in enumerate(site))
        diff = (
            uncertain_value(_field_state(state_field, plus), x)
            - uncertain_value(_field_state(state_field, minus), x)
        ) / (2.0 * dx)
        gen = uncertain_value(center, lie_product(algebra, np.asarray(p, dtype=complex), x))
        out[nu] = abs(diff - gen)
    return out


@dataclass
class ObservabilityReport:
    """Truth values of the two observability requirements at a site.

    slow_variation: the mean moves by at most delta under every probe shift;
    small_uncertainty: sigma_X is below UNCERTAINTY_RATIO * (|mean| + delta).
    The raw numbers are reported so callers can apply their own reading of
    "much smaller".
    """

    max_shift_variation: float
    slow_variation: bool
    uncertainty: float
    scale: float
    small_uncertainty: bool
    ratio: float


def observability_report(
    state_field: Union[Mapping, Callable],
    x: np.ndarray,
    site: Sequence[int],
    shifts: Sequence[Sequence[int]],
    delta: float,
) -> ObservabilityReport:
    if delta < 0:
        raise ConfigError("delta must be nonnegative")
    site = tuple(int(v) for v in site)
    base = _field_state(state_field, site)
    mean0 = uncertain_value(base, x)
    variation = 0.0
    for h in shifts:
        h = tuple(int(v) for v in h)
        if len(h) != len(site):
            raise ConfigError(f"shift {h} does not match site dimension {len(site)}")
        shifted = _field_state(state_field, tuple(s + d for s, d in zip(site, h)))
        variation = max(variation, abs(uncertain_value(shifted, x) - mean0))
    sigma = uncertainty(base, x)
    scale = abs(mean0) + delta
    if scale > 0:
        ratio = sigma / scale
    else:
        ratio = 0.0 if sigma == 0.0 else float("inf")
    return ObservabilityReport(
        max_shift_variation=variation,
        slow_variation=variation <= delta,
        uncertainty=sigma,
        scale=scale,
        small_uncertainty=sigma <= UNCERTAINTY_RATIO * scale,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# representations


def rep_defect(algebra: LieStarAlgebra, rep: Sequence[np.ndarray]) -> float:
    """Max deviation of (i/hbar)[rep_a, rep_b] from the represented product.

    Zero (to roundoff) certifies that density-matrix propagation and the
    closed expectation system agree; the classical catalog entries are
    arranged so their reps satisfy the same commutator identity.
    """
    rep = [np.asarray(r, dtype=complex) for r in rep]
    if len(rep) != algebra.dim:
        raise ConfigError(f"representation has {len(rep)} matrices for dim {algebra.dim}")
    worst = 0.0
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            got = (1j / algebra.hbar) * (rep[a] @ rep[b] - rep[b] @ rep[a])
            want = _matrix_of(rep, algebra.structure[a, b])
            worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def matrix_coefficients(
    rep: Sequence[np.ndarray], matrix: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """Expand a matrix over the representation basis (least squares)."""
    cols = np.stack([np.asarray(r, dtype=complex).ravel() for r in rep], axis=1)
    y = np.asarray(matrix, dtype=complex).ravel()
    coeff, *_ = np.linalg.lstsq(cols, y, rcond=None)
    resid = float(np.linalg.norm(y - cols @ coeff))
    if resid > tol * max(1.0, float(np.linalg.norm(y))):
        raise OutOfSpanError(
            f"matrix is not in the span of the representation basis (residual {resid:.3e})"
        )
    return coeff


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
    rep = [np.eye(3, dtype=complex)]
    for a in range(3):
        rep.append(1j * _EPS3[a].astype(complex))
    return alg, rep


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
    dim = d * d
    c = np.zeros((dim, dim, dim), dtype=complex)
    for a in range(1, dim):
        for b in range(a + 1, dim):
            comm = 1j * (rep[a] @ rep[b] - rep[b] @ rep[a])
            coeff = np.array([np.trace(rep[k].conj().T @ comm) for k in range(1, dim)])
            c[a, b, 1:] = coeff
            c[b, a, 1:] = -coeff
    alg = LieStarAlgebra(f"hermitian_{d}", tuple(names), c, np.eye(dim))
    return alg, rep


def classical_function_algebra(n: int) -> tuple[LieStarAlgebra, list]:
    """Abelian algebra of functions on n points: unit plus site indicators."""
    if n < 2:
        raise ConfigError("function algebra needs n >= 2 points")
    names = ["unit"] + [f"site_{k}" for k in range(1, n)]
    rep = [np.eye(n, dtype=complex)]
    for k in range(1, n):
        rep.append(np.diag(np.eye(n, dtype=complex)[k]))
    alg = LieStarAlgebra(
        f"functions_{n}",
        tuple(names),
        np.zeros((n, n, n), dtype=complex),
        np.eye(n),
        convention="classical",
    )
    return alg, rep


def koopman_circle(n: int) -> tuple[LieStarAlgebra, list, np.ndarray]:
    """Hermitian generator whose time-(2 pi / n) flow shifts the n-cycle one site.

    L = F diag(0..n-1) F* with F the unitary DFT; exp(-2 pi i L / n) is the
    exact one-site cyclic permutation, so stroboscopic indicator expectations
    permute.  Returns the full matrix algebra, its rep, and the coefficient
    vector of L.
    """
    if n < 2:
        raise ConfigError("circle needs n >= 2 sites")
    alg, rep = matrix_star_algebra(n)
    j = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    gen = f @ np.diag(j.astype(complex)) @ f.conj().T
    gen = (gen + gen.conj().T) / 2
    return alg, rep, matrix_coefficients(rep, gen)


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
    structure = []
    for a, b, cc in zip(*np.nonzero(algebra.structure)):
        v = algebra.structure[a, b, cc]
        structure.append([int(a), int(b), int(cc), float(v.real), float(v.imag)])
    involution = []
    for a, b in zip(*np.nonzero(algebra.involution)):
        v = algebra.involution[a, b]
        involution.append([int(a), int(b), float(v.real), float(v.imag)])
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


_DESCRIPTOR = (("name", "str", REQUIRED), ("dim", "int", REQUIRED), ("basis", "json", REQUIRED),
               ("unit_index", "int", None), ("convention", "str", None), ("hbar", "positive", None),
               ("structure", "json", REQUIRED), ("involution", "json", REQUIRED))


def algebra_from_descriptor(data: Mapping) -> LieStarAlgebra:
    """The algebra of a descriptor as algebra_descriptor writes it."""
    spec = check_fields("algebra", data, _DESCRIPTOR)
    dim = spec.pop("dim")
    try:
        names = tuple(str(s) for s in spec.pop("basis"))
        c = np.zeros((dim, dim, dim), dtype=complex)
        for a, b, cc, re, im in spec.pop("structure"):
            c[int(a), int(b), int(cc)] = float(re) + 1j * float(im)
        m = np.zeros((dim, dim), dtype=complex)
        for a, b, re, im in spec.pop("involution"):
            m[int(a), int(b)] = float(re) + 1j * float(im)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad algebra descriptor: {exc}") from None
    if len(names) != dim:
        raise ConfigError(f"descriptor lists {len(names)} basis names for dim {dim}")
    return LieStarAlgebra(basis_names=names, structure=c, involution=m, **spec)
