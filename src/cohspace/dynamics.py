"""Exact coherent dynamics of linear label flows.

For a linear label flow  i hbar dz/dt = A z  the coherent trajectory
t -> |z(t)> solves the representation-space Schroedinger equation exactly,
with Hamiltonian the derivation action of A (no ordering corrections).
``coherent_flow`` propagates a time-independent label flow exactly,
z(t) = exp(-i A (t - t0) / hbar) z0 by ``reps.propagate_eig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, check_sample_times
from .integrate import IntegratorStats
from .kernels import KernelSpace, kernel_diagonal, row_norms, unit_norm_residual
from .reps import propagate_eig


@dataclass
class Trajectory:
    """Label coordinates (S, label_dim) at S times; multipliers (S,) or None."""

    times: np.ndarray
    coords: np.ndarray
    stats: Optional[IntegratorStats]  # None for exactly propagated flows
    multipliers: Optional[np.ndarray] = None
    energies: Optional[np.ndarray] = None
    norms: Optional[np.ndarray] = None
    chart_flags: Optional[np.ndarray] = None  # used by variational flows
    chart_switches: int = 0  # chart flips made by the driver (not sample-dependent)
    energy_drift: Optional[float] = None  # worst drift over accepted steps / max(|h0|, 1e-3 x rho(H)) (TDVP)


def _project_constraint(space: KernelSpace, coords: np.ndarray) -> np.ndarray:
    # unit-norm label manifolds: remove each row's off-manifold (radial)
    # error; the exact flow preserves the norm, so this only subtracts noise
    if space.constraint is unit_norm_residual:
        return coords / row_norms(coords)[:, None]
    return coords


def coherent_flow(
    space: KernelSpace,
    generator: np.ndarray,
    z0: tuple,
    t_span: tuple[float, float],
    t_eval: Optional[Sequence[float]] = None,
    hbar: float = 1.0,
) -> Trajectory:
    """Sample the coherent trajectory of  i hbar dz/dt = generator z  from
    the one-row label stack z0 at t_eval exactly (``stats`` is None).
    A propagated state that is not finite (the phases overflow) raises
    NumericalError naming the first such sample time."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 101)
    a = np.asarray(generator, dtype=complex)
    if a.shape != (space.label_dim, space.label_dim):
        raise ConfigError(f"generator is {a.shape}, expected ({space.label_dim}, {space.label_dim})")
    times = np.array(check_sample_times(t0, t1, t_eval))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        states = propagate_eig(a, z0[0][0], times - t0, hbar=hbar)
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise NumericalError(f"coherent flow: the propagated label is not finite at "
                             f"t = {times[bad.argmax()]:.6g}")
    coords = _project_constraint(space, states)
    mults = None if z0[1] is None else np.repeat(z0[1], len(coords))
    return Trajectory(times=times, coords=coords, stats=None, multipliers=mults,
                      norms=kernel_diagonal(space, coords, mults).real)

