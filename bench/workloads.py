"""The benchmark's four workloads: fixed batches of CLI configs made from a seed.

A workload is a list of jobs (label, config, oracle).  cohspace sees only the
configs; the oracle names the check in ``checks.py`` that verifies the
payload.  The seed moves start points, label points and matrices but keeps
every job's size, so the work per pass hardly depends on the seed.

Why each workload exists (see README.md for the layer map):

- gram: a few large label-space requests; kernels, qspace, quantize, io and
  the CLI's payload assembly do the work and no integrator runs.
- kicked: the kicked-top Lyapunov exponent at three kicks; the chart RHS of
  the variational flow and many short RK45 solves, one per period.
- flows: a few long solves where the integrator's per-step overhead
  dominates; bypasses the kicked-top precession.
- readme: many small requests (every README command at its README size plus
  spectra and causal checks), where per-call cost and set-up dominate.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("gram", "kicked", "flows", "readme")


def _pairs(z):
    return np.stack([np.real(z), np.imag(z)], axis=-1).tolist()


def _cgauss(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _spinors(rng, n):
    v = _cgauss(rng, (n, 2))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _klauder(rng, n, modes):
    return np.concatenate([_cgauss(rng, (n, 1), 0.3), _cgauss(rng, (n, modes), 0.8)], axis=1)


def _su2(rng):
    a, b = _cgauss(rng, 2)
    r = math.hypot(abs(a), abs(b))
    a, b = a / r, b / r
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def _near(rng, base, scale):
    v = np.asarray(base, dtype=float) + scale * rng.standard_normal(len(base))
    return (v / np.linalg.norm(v)).tolist()


def _spinor_near(rng, base, scale):
    v = np.asarray(base, dtype=complex) + _cgauss(rng, 2, scale)
    return _pairs(v / np.linalg.norm(v))


# E(z) = (z + i)(z + 2i): zeros in the lower half plane, so the de Branges
# kernel is positive definite and not the constant kernel of E(z) = z + i.
_DEBRANGES = {"kind": "debranges", "coeffs": [[-2.0, 0.0], [0.0, 3.0], [1.0, 0.0]]}


def gram(rng):
    spin8 = {"kind": "spin", "exponent": 8}
    debranges_pts = _cgauss(rng, (150, 1))
    debranges_pts.imag += np.where(debranges_pts.imag >= 0, 1e-3, -1e-3)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    perm = np.roll(np.eye(3), 1, axis=0) * np.exp(1j * rng.uniform(0, 2 * math.pi, 3))
    return [
        ("gram-spin8-csv", {"command": "kernel-gram", "space": spin8,
                            "points": _pairs(_spinors(rng, 400))}, "gram"),
        ("gram-klauder2-json", {"command": "kernel-gram", "space": {"kind": "klauder", "modes": 2},
                                "points": _pairs(_klauder(rng, 200, 2)), "format": "json"}, "gram"),
        ("gram-debranges", {"command": "kernel-gram", "space": _DEBRANGES,
                            "points": _pairs(debranges_pts)}, "gram"),
        ("check-spin8", {"command": "kernel-check", "space": spin8,
                         "points": _pairs(_spinors(rng, 100))}, "psd_pass"),
        ("check-spin2.5", {"command": "kernel-check", "space": {"kind": "spin", "exponent": 2.5},
                           "points": _pairs(_spinors(rng, 150))}, "psd_fail"),
        ("qspace-spin8", {"command": "qspace-build", "space": spin8,
                          "points": _pairs(_spinors(rng, 200))}, "qspace"),
        ("qspace-klauder", {"command": "qspace-build", "space": {"kind": "klauder", "modes": 1},
                            "points": _pairs(_klauder(rng, 60, 1))}, "qspace"),
        ("quantize-spin8", {"command": "quantize", "space": spin8,
                            "points": _pairs(_spinors(rng, 30)),
                            "map": {"kind": "linear", "matrix": _pairs(phase * _su2(rng))}},
         "quantize"),
        ("quantize-trivial3", {"command": "quantize", "space": {"kind": "trivial", "dim": 3},
                               "points": _pairs(_cgauss(rng, (24, 3))),
                               "map": {"kind": "linear", "matrix": _pairs(perm)}}, "quantize"),
    ]


# Start points stay within 1e-6 of fixed Bloch vectors: the chaotic orbits
# then agree for ~15 periods across seeds and the integrator's step count,
# which follows the orbit, stays nearly seed-independent.  Every job runs
# twice from independent draws, and the jobs are short (under a second), so
# the reference loops around each run track the host's speed during it.
_KICKED = ((0.5, 20, (0.62, 0.4, 0.68)), (3.0, 20, (0.2, -0.4, 0.55)), (6.0, 40, (0.5, 0.3, 0.6)))


def kicked(rng):
    return [
        (f"kicked-k{kick:g}-{i}", {"command": "dyn-lyapunov", "system": "kicked_top", "kick": kick,
                                   "spin": spin, "periods": 15, "bloch0": _near(rng, b, 1e-6),
                                   "seed": int(rng.integers(1 << 30))}, "kicked")
        for kick, spin, b in _KICKED for i in range(2)
    ]


def _density(rng):
    a = _cgauss(rng, (2, 2))
    rho = a @ a.conj().T + 0.5 * np.eye(2)
    return _pairs(rho / np.trace(rho).real)


def _flows(rng):
    return [
        ("tdvp-spin40", {"command": "dyn-tdvp", "space": {"kind": "spin", "exponent": 40},
                         "energy": {"kind": "spin_axis", "axis": _near(rng, (0.3, 0.5, 0.8), 0.02),
                                    "coeff": 1.1},
                         "z0": _spinor_near(rng, (0.8, 0.48 + 0.36j), 0.02),
                         "t_span": [0, 7.5], "samples": 750}, "precession"),
        ("coherent-klauder", {"command": "dyn-coherent", "space": {"kind": "klauder", "modes": 1},
                              "generator": [[[0, 0], [0, 0]], [[0, 0], [1.3, 0]]],
                              "z0": _pairs(np.array([0.2 + 0.1j, 1.1 - 0.4j]) + _cgauss(rng, 2, 0.05)),
                              "t_span": [0, 75]}, "coherent"),
        ("lie-su2", {"command": "lie-evolve", "algebra": "su2_qubit", "hamiltonian": "pauli_z",
                     "state": {"density": _density(rng)},
                     "observables": ["pauli_x", "pauli_y", "pauli_z"], "t_span": [0, 50]}, "lie"),
        ("lyapunov-continuous", {"command": "dyn-lyapunov", "system": "continuous",
                                 "space": {"kind": "spin", "exponent": 10},
                                 "energy": {"kind": "spin_axis",
                                            "axis": _near(rng, (0.0, 0.6, 0.8), 0.02), "coeff": 1.0},
                                 "z0": _spinor_near(rng, (0.8, 0.48 + 0.36j), 0.02),
                                 "t_total": 15, "seed": int(rng.integers(1 << 30))},
         "zero_exponent"),
    ]


def flows(rng):
    """Each long solve twice, from independent draws (see kicked for why)."""
    first, second = _flows(rng), _flows(rng)
    return [(f"{label}-{i}", cfg, oracle) for pair in zip(first, second)
            for i, (label, cfg, oracle) in enumerate(pair)]


def _causal_triples(rng, count):
    """(j, k, j') with k spacelike to j and j' (x bands 0-2, 8-10, 16-18 or 0-2)."""
    def section(x_lo, x_hi):
        return [[int(rng.integers(0, 6)), int(rng.integers(x_lo, x_hi + 1)),
                 float(rng.standard_normal()), float(rng.standard_normal())]
                for _ in range(int(rng.integers(1, 3)))]

    return [[section(0, 2), section(8, 10), section(16, 18) if i % 2 else section(0, 2)]
            for i in range(count)]


# README command -> copies per pass, 150 runs.  The counts put the median run
# in the middle of the kernel-gram group (60 cheaper runs below it, 60 dearer
# above) and the 90th percentile inside the dyn-coherent group, not on the
# boundary between two commands of different cost.
_README_MIX = (
    ("kernel-eval", 15), ("qspace-build", 15), ("causal-check", 15), ("quantize", 15),
    ("kernel-gram", 30), ("kernel-check", 38), ("causal-triples", 2), ("dyn-coherent", 8),
    ("dyn-tdvp", 4), ("lie-evolve", 4), ("spec-solve", 4),
)


def _readme_job(command, rng, i):
    seed = int(rng.integers(1 << 30))
    if command == "kernel-eval":
        z, z2 = _cgauss(rng, (2, 2))
        return {"command": command, "space": {"kind": "trivial", "dim": 2},
                "z": _pairs(z), "z2": _pairs(z2)}, "kernel_eval"
    if command == "kernel-gram":
        return {"command": command, "space": {"kind": "spin", "exponent": 3},
                "count": 20, "seed": seed}, "sampled_gram"
    if command == "kernel-check":
        return {"command": command, "space": {"kind": "spin", "exponent": 0.6},
                "count": 40, "seed": seed}, "sampled_verdict"
    if command == "qspace-build":
        return {"command": command, "space": "icosahedron", "count": 12, "seed": seed}, "icosahedron"
    if command == "quantize":
        return {"command": command, "space": {"kind": "trivial", "dim": 2}, "count": 8,
                "seed": seed,
                "map": {"kind": "linear", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}}, \
            "sampled_quantize"
    if command == "dyn-coherent":
        return {"command": command, "space": {"kind": "klauder", "modes": 1},
                "generator": [[[0, 0], [0, 0]], [[0, 0], [1.3, 0]]],
                "z0": _pairs(np.array([0.2 + 0.1j, 1.1 - 0.4j]) + _cgauss(rng, 2, 0.05)),
                "t_span": [0, 6]}, "coherent"
    if command == "dyn-tdvp":
        return {"command": command, "space": {"kind": "spin", "exponent": 4},
                "energy": {"kind": "spin_axis", "axis": [0, 0, 1], "coeff": 1.1},
                "z0": _spinor_near(rng, (0.8, 0.48 + 0.36j), 0.02), "t_span": [0, 8]}, "precession"
    if command == "lie-evolve":
        return {"command": command, "algebra": "su2_qubit", "hamiltonian": "pauli_z",
                "state": {"density": _density(rng)},
                "observables": ["pauli_x", "pauli_y", "pauli_z"], "t_span": [0, 6]}, "lie"
    if command == "spec-solve":
        if i % 2:
            return {"command": command, "model": "coulomb", "interval": [-0.6, -0.015]}, "spectrum"
        return {"command": command, "model": "oscillator", "interval": [0, 10]}, "spectrum"
    if command == "causal-check":
        return {"command": command, "kernel": "lattice_weyl", "count": 20, "seed": seed}, "causal"
    # a few hundred explicit triples, every other batch with the nonlocal kernel
    return {"command": "causal-check", "kernel": "lattice_weyl", "triples": _causal_triples(rng, 300),
            "nonlocal_violation": bool(i % 2)}, "causal"


def readme(rng):
    return [(f"{command}-{i}", *_readme_job(command, rng, i))
            for command, copies in _README_MIX for i in range(copies)]


def build(workload, seed):
    """The fixed batch of jobs for one workload run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
