"""Exact coherent dynamics of linear label flows, and matrix-mechanics checks.

For a linear label flow  i hbar dz/dt = A z  the coherent trajectory
t -> |z(t)> solves the representation-space Schroedinger equation exactly,
with Hamiltonian the derivation action of A (no ordering corrections).
``coherent_flow`` propagates a time-independent label flow exactly,
z(t) = exp(-i A (t - t0) / hbar) z0 by ``reps.propagate_eig``, and integrates
a time-dependent one with RK45; ``verify_schrodinger_lift`` checks the lifted
trajectory against exact propagation in a concrete finite representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, check_sample_times
from .integrate import IntegratorStats, solve_rk45
from .kernels import KernelSpace, Point, kernel_diagonal, row_norms
from .reps import FockRep, SpinRep, propagate_eig


@dataclass
class LinearHamiltonianFlow:
    """i hbar dz/dt = generator(t) z on label coordinates; generator is a
    matrix (time-independent) or a callable t -> matrix (time-dependent)."""

    generator: Union[np.ndarray, Callable[[float], np.ndarray]]
    hbar: float = 1.0

    def matrix_at(self, t: float) -> np.ndarray:
        if callable(self.generator):
            return np.asarray(self.generator(t), dtype=complex)
        return np.asarray(self.generator, dtype=complex)


@dataclass
class Trajectory:
    """Label coordinates (S, label_dim) at S times; multipliers (S,) or None."""

    space: KernelSpace
    times: np.ndarray
    coords: np.ndarray
    stats: Optional[IntegratorStats]  # None for exactly propagated flows
    multipliers: Optional[np.ndarray] = None
    energies: Optional[np.ndarray] = None
    norms: Optional[np.ndarray] = None
    chart_flags: Optional[np.ndarray] = None  # used by variational flows
    chart_switches: int = 0  # chart flips made by the driver (not sample-dependent)
    energy_drift: Optional[float] = None  # worst relative drift over accepted steps (TDVP)

    @property
    def points(self) -> list[Point]:
        """The samples as Points over views of the coordinate rows, built on each access."""
        mults = [None] * len(self.coords) if self.multipliers is None else self.multipliers
        return [Point(c, m) for c, m in zip(self.coords, mults)]


def _project_constraint(space: KernelSpace, coords: np.ndarray) -> np.ndarray:
    # unit-norm label manifolds: remove each row's off-manifold (radial)
    # error; the exact flow preserves the norm, so this only subtracts noise
    if space.constraint_name == "unit spinor norm":
        return coords / row_norms(coords)[:, None]
    return coords


def coherent_flow(
    space: KernelSpace,
    flow: LinearHamiltonianFlow,
    z0: Point,
    t_span: tuple[float, float],
    t_eval: Optional[Sequence[float]] = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Trajectory:
    """Sample the coherent trajectory at t_eval: exactly for a time-independent
    generator (``stats`` is None), else by solve_rk45 at rtol/atol."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 101)
    if callable(flow.generator):
        def rhs(t, y):
            return flow.generator(t) @ y / (1j * flow.hbar)

        sol = solve_rk45(rhs, t0, t1, z0.coords, rtol=rtol, atol=atol, t_eval=t_eval)
        times, states, stats = sol.times, sol.states, sol.stats
    else:
        a = flow.matrix_at(t0)
        if a.shape != (space.label_dim, space.label_dim):
            raise ConfigError(
                f"generator is {a.shape}, expected ({space.label_dim}, {space.label_dim})"
            )
        times = np.array(check_sample_times(t0, t1, t_eval))
        states = propagate_eig(a, z0.coords, times - t0, hbar=flow.hbar)
        stats = None
    coords = _project_constraint(space, states)
    mults = None if z0.multiplier is None else np.full(len(coords), z0.multiplier, dtype=complex)
    return Trajectory(space=space, times=times, coords=coords, stats=stats, multipliers=mults,
                      norms=kernel_diagonal(space, coords, mults).real)


# ------------------------------------------------------------------- the lift


@dataclass
class LiftReport:
    checked_times: np.ndarray
    deficits: np.ndarray          # 1 - |<psi_t, z(t)>|^2 / (||psi_t||^2 K(z,z))
    max_deficit: float
    rep_dim: int


def _rep_hamiltonian(rep, label_generator: np.ndarray) -> np.ndarray:
    """Derivation action of the label generator in the given representation."""
    if isinstance(rep, SpinRep):
        return rep.dgamma(label_generator)
    if isinstance(rep, FockRep):
        a = np.asarray(label_generator, dtype=complex)
        if a.shape != (2, 2) or abs(a[0, 0]) + abs(a[0, 1]) + abs(a[1, 0]) > 1e-14:
            raise ConfigError(
                "FockRep lifts need single-mode label generators acting on zeta only "
                "(first row/column zero)"
            )
        return rep.one_body(a[1, 1])
    raise ConfigError(f"unsupported representation {type(rep).__name__}")


def verify_schrodinger_lift(
    rep,
    flow: LinearHamiltonianFlow,
    traj: Trajectory,
    n_checks: int = 5,
) -> LiftReport:
    """Fidelity of the coherent trajectory against exact matrix propagation,
    with the coherent-state norms K(z, z) the trajectory carries.

    Time-independent flows are propagated by eigendecomposition (no second
    integrator error budget); time-dependent (callable) flows are integrated in
    one solve sampled at the check times, at rtol 100x tighter than typical
    trajectory tolerances.
    """
    if len(traj.times) < 2:
        raise ConfigError("trajectory too short to verify")
    idx = np.unique(np.linspace(0, len(traj.times) - 1, n_checks).astype(int))
    t0 = traj.times[0]
    points = traj.points
    psi0 = rep.embed(points[0])
    times_rel = [traj.times[i] - t0 for i in idx]
    if callable(flow.generator):
        def rhs(t, y):
            return _rep_hamiltonian(rep, flow.generator(t)) @ y / (1j * flow.hbar)

        psis = solve_rk45(rhs, 0.0, times_rel[-1], psi0, rtol=1e-11, atol=1e-14,
                          t_eval=times_rel).states
    else:
        h_q = _rep_hamiltonian(rep, flow.matrix_at(t0))
        psis = propagate_eig(h_q, psi0, times_rel, hbar=flow.hbar)
    deficits = np.empty(len(idx))
    for row, i in enumerate(idx):
        v = rep.embed(points[i])
        psi = psis[row]
        overlap = np.vdot(psi, v)
        denom = float(np.vdot(psi, psi).real) * traj.norms[i]
        deficits[row] = 1.0 - abs(overlap) ** 2 / denom
    return LiftReport(
        checked_times=traj.times[idx],
        deficits=deficits,
        max_deficit=float(deficits.max()),
        rep_dim=rep.dim,
    )


# -------------------------------------------------------- Ehrenfest residual


def ehrenfest_residual(
    state: np.ndarray,
    x_op: np.ndarray,
    h_op: np.ndarray,
    t: float,
    dt: float,
    hbar: float = 1.0,
) -> float:
    """| d<X>/dt (central difference at t) - (i/hbar) <[H, X]> (t) |.

    `state` is a unit vector or a unit-trace density matrix, propagated
    exactly by propagate_eig; the residual is O(dt^2).
    """
    state = np.asarray(state, dtype=complex)
    x_op = np.asarray(x_op, dtype=complex)
    h_op = np.asarray(h_op, dtype=complex)
    if dt <= 0:
        raise ConfigError("dt must be positive")

    is_density = state.ndim == 2
    if is_density:
        tr = complex(np.trace(state))
        if abs(tr - 1.0) > 1e-10:
            raise DomainError(f"density matrix trace {tr:.6f} != 1")
    else:
        n = float(np.vdot(state, state).real)
        if abs(n - 1.0) > 1e-10:
            raise DomainError(f"state norm^2 {n:.6f} != 1")

    rho = state if is_density else np.outer(state, state.conj())

    def expect(op: np.ndarray, tau: float) -> float:
        u = propagate_eig(h_op, np.eye(len(h_op)), [tau], hbar=hbar)[0]
        return float(np.trace(op @ (u @ rho @ u.conj().T)).real)

    deriv = (expect(x_op, t + dt) - expect(x_op, t - dt)) / (2.0 * dt)
    comm = 1j / hbar * (h_op @ x_op - x_op @ h_op)
    return abs(deriv - expect(comm, t))
