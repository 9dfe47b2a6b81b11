"""Acceptance gate: one test per numbered criterion, at the stated tolerance
and runtime budget, each validated against an independent oracle where the
criterion names one.  Run with `pytest tests/test_acceptance.py -v -s` to see
one pass/fail line per criterion (the -s makes the printed lines visible for
passing tests too; -v alone still shows one PASSED/FAILED row per criterion).
"""
import contextlib
import io
import json
import time

import numpy as np
import scipy.linalg

from oracles import (
    fock_coherent,
    fock_ops,
    hydrogen_fd_levels,
    kicked_top_classical_lyapunov,
    spin_monomial_embed,
    wigner_matrices,
)

from cohspace import cli
from cohspace.chaos import KickedTop, lyapunov_kicked, spinor_from_bloch
from cohspace.dynamics import LinearHamiltonianFlow, coherent_flow
from cohspace.kernels import (
    Point,
    check_coherence,
    eval_kernel,
    icosahedron_vertices,
    linear_point_map,
    sample_points,
    space_from_descriptor,
    spin_space,
)
from cohspace.liealg import (
    CATALOG,
    DensityState,
    covariant_ehrenfest_residual,
    evolve_expectations,
    matrix_star_algebra,
    rep_defect,
    state_from_density,
    su2_qubit,
    uncertainty,
)
from cohspace.qspace import build_quantum_space
from cohspace.quantize import (
    CoherentMapSpec,
    GeneratorSpec,
    check_homomorphism,
    generator_matrix,
    quantize_map,
)
from cohspace.reps import SpinRep
from cohspace.spectra import (
    assemble_from_algebra,
    coulomb_model,
    oscillator_model,
    solve_implicit_spectrum,
)
from cohspace.tdvp import MatrixExpectation, dirac_frenkel_flow


def _finish(number, start, budget, detail):
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} overran its {budget}s budget: {elapsed:.1f}s"
    print(f"criterion {number}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) -- {detail}")


def _fidelity_deficit(space, p, q):
    k = eval_kernel(space, p, q)
    return 1.0 - abs(k) ** 2 / (eval_kernel(space, p, p).real * eval_kernel(space, q, q).real)


def _unitary(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _linear_spec(u):
    return CoherentMapSpec(forward=linear_point_map(u),
                           adjoint=linear_point_map(u.conj().T))


# ---------------------------------------------------------------- 1: PSD


def test_criterion_1_psd_suite():
    start = time.perf_counter()
    suite = [
        {"kind": "trivial", "dim": 4},
        {"kind": "klauder", "modes": 2},
        *({"kind": "spin", "exponent": n} for n in range(5)),
        {"kind": "icosahedron"},
        {"kind": "classical_limit", "dim": 3},
        {"kind": "power", "base": {"kind": "spin", "exponent": 2}, "n": 3},
    ]
    worst = 0.0
    for i, desc in enumerate(suite):
        space = space_from_descriptor(desc)
        pts = sample_points(space, np.random.default_rng(1000 + i), 50)
        verdict = check_coherence(space, pts, tol=1e-8)
        assert verdict.passed, (desc, verdict.min_eigenvalue)
        worst = min(worst, verdict.min_eigenvalue / max(1.0, verdict.gram_norm))
    bad = check_coherence(spin_space(0.6),
                          sample_points(spin_space(0.6), np.random.default_rng(7), 50),
                          tol=1e-8)
    assert not bad.passed
    assert bad.min_eigenvalue < -1e-6  # certified negative witness
    _finish(1, start, 10.0,
            f"{len(suite)} kernels x 50 samples, worst rel eig {worst:.1e}; "
            f"spin 2j=0.6 rejected with eig {bad.min_eigenvalue:.2e}")


# --------------------------------------------------------------- 2: rank


def test_criterion_2_quantum_space_dimensions():
    start = time.perf_counter()
    ico = space_from_descriptor({"kind": "icosahedron"})
    qb = build_quantum_space(ico, [Point(v) for v in icosahedron_vertices()])
    assert qb.rank == 3 and qb.size == 12
    ranks = []
    for n in range(9):
        sp = spin_space(n)
        pts = sample_points(sp, np.random.default_rng(2000 + n), n + 4)
        ranks.append(build_quantum_space(sp, pts).rank)
        assert ranks[-1] == n + 1, (n, ranks[-1])
    _finish(2, start, 5.0,
            f"icosahedron rank 3 on 12 vertices; spin ranks {ranks} = n+1 for n <= 8")


# ------------------------------------------------------- 3: quantization


def test_criterion_3_quantization_homomorphism():
    start = time.perf_counter()
    cases = [
        ({"kind": "spin", "exponent": 2}, 2, 9),
        ({"kind": "spin", "exponent": 3}, 2, 10),
        ({"kind": "trivial", "dim": 3}, 3, 7),
    ]
    worst_dev = worst_uni = worst_exp = 0.0
    for i, (desc, d, n_pts) in enumerate(cases):
        space = space_from_descriptor(desc)
        rng = np.random.default_rng(3000 + i)
        qb = build_quantum_space(space, sample_points(space, rng, n_pts))
        for _ in range(50):
            u1, u2 = _unitary(rng, d), _unitary(rng, d)
            dev = check_homomorphism(qb, _linear_spec(u1), _linear_spec(u2))
            worst_dev = max(worst_dev, dev)
            assert dev <= 1e-8, (desc, dev)
            g = quantize_map(qb, _linear_spec(u1)).matrix
            uni = np.linalg.norm(g @ g.conj().T - np.eye(qb.rank), 2)
            worst_uni = max(worst_uni, uni)
            assert uni <= 1e-8, (desc, uni)
        # exp-consistency: Gamma(e^{iX}) = exp(i dGamma(X)) for Hermitian X
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = 0.2 * (x + x.conj().T)
        dg = generator_matrix(
            qb, GeneratorSpec(lambda s, x=x: linear_point_map(scipy.linalg.expm(1j * s * x))),
            s=1e-3).matrix
        g1 = quantize_map(qb, _linear_spec(scipy.linalg.expm(1j * x))).matrix
        gap = np.linalg.norm(g1 - scipy.linalg.expm(1j * dg), 2)
        worst_exp = max(worst_exp, gap)
        assert gap <= 1e-6, (desc, gap)
    _finish(3, start, 30.0,
            f"50 map pairs x {len(cases)} spaces: homomorphism {worst_dev:.1e}, "
            f"Gram-unitarity {worst_uni:.1e}, exp-consistency {worst_exp:.1e}")


# ----------------------------------------------------- 4: exact dynamics


def test_criterion_4_exact_coherent_dynamics():
    start = time.perf_counter()
    # Klauder oscillator against truncated Fock propagation
    omega = 1.3
    sp = space_from_descriptor({"kind": "klauder", "modes": 1})
    z0 = Point(np.array([0.2 + 0.1j, 1.1 - 0.4j]))
    t_eval = np.linspace(0.0, 10.0 / omega, 33)
    traj = coherent_flow(sp, LinearHamiltonianFlow(np.diag([0.0, omega]).astype(complex)),
                         z0, (0.0, 10.0 / omega), t_eval)
    _, _, num = fock_ops(64)
    phases = np.exp(-1j * omega * np.diag(num)[None, :] * t_eval[:, None])
    psi0 = fock_coherent(64, z0.coords[0], z0.coords[1])
    deficit_fock = 0.0
    for i, p in enumerate(traj.points):
        oracle = phases[i] * psi0
        emb = fock_coherent(64, p.coords[0], p.coords[1])
        f = abs(np.vdot(oracle, emb)) ** 2 / (
            np.vdot(oracle, oracle).real * np.vdot(emb, emb).real)
        deficit_fock = max(deficit_fock, 1.0 - f)
    assert deficit_fock <= 1e-8

    # spin 2j=3 rotation against 4-dim Wigner propagation
    n, omega_s = 3, 1.1
    axis = np.array([0.3, -0.5, 0.8])
    axis = axis / np.linalg.norm(axis)
    sps = spin_space(n)
    a = omega_s * (axis[0] * np.array([[0, 1], [1, 0]])
                   + axis[1] * np.array([[0, -1j], [1j, 0]])
                   + axis[2] * np.diag([1, -1])).astype(complex) / 2
    z = Point(np.array([0.8, 0.6j]))
    t_eval = np.linspace(0.0, 10.0 / omega_s, 33)
    traj = coherent_flow(sps, LinearHamiltonianFlow(a), z, (0.0, 10.0 / omega_s),
                         t_eval)
    jx, jy, jz = wigner_matrices(n)
    h = omega_s * (axis[0] * jx + axis[1] * jy + axis[2] * jz)
    w, v = np.linalg.eigh(h)
    psi0 = spin_monomial_embed(n, z.coords)
    c0 = v.conj().T @ psi0
    deficit_wigner = 0.0
    for i, p in enumerate(traj.points):
        oracle = v @ (np.exp(-1j * w * t_eval[i]) * c0)
        emb = spin_monomial_embed(n, p.coords)
        f = abs(np.vdot(oracle, emb)) ** 2 / (
            np.vdot(oracle, oracle).real * np.vdot(emb, emb).real)
        deficit_wigner = max(deficit_wigner, 1.0 - f)
    assert deficit_wigner <= 1e-8
    _finish(4, start, 20.0,
            f"fidelity deficits: Fock cutoff-64 {deficit_fock:.1e}, "
            f"Wigner dim-4 {deficit_wigner:.1e}")


# ---------------------------------------------------------------- 5: TDVP


def test_criterion_5_tdvp_exactness_and_conservation():
    start = time.perf_counter()
    n, omega, rtol = 4, 1.1, 1e-9
    sp = spin_space(n)
    rep = SpinRep(n)
    z = Point(np.array([0.8, 0.48 + 0.36j]) / np.linalg.norm([0.8, 0.48 + 0.36j]))
    # H in the symmetry algebra: TDVP must reproduce the exact coherent flow
    a = omega * np.diag([0.5, -0.5]).astype(complex)
    t_eval = np.linspace(0.0, 8.0, 17)
    exact = coherent_flow(sp, LinearHamiltonianFlow(a), z, (0.0, 8.0), t_eval)
    tdvp = dirac_frenkel_flow(sp, MatrixExpectation(rep.dgamma(a)), z, (0.0, 8.0),
                              t_eval, rtol=rtol)
    dev = max(_fidelity_deficit(sp, p, q)
              for p, q in zip(exact.points, tdvp.points))
    assert dev <= 10 * rtol

    # nonlinear spin instance: conservation over >= 1e4 accepted steps
    jz = rep.dgamma(np.diag([0.5, -0.5]).astype(complex))
    jx = rep.dgamma(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    energy = MatrixExpectation(jz @ jz / n + 0.3 * jx)
    traj = dirac_frenkel_flow(sp, energy, z, (0.0, 700.0),
                              np.linspace(0.0, 700.0, 201), rtol=1e-10)
    assert traj.stats.steps >= 10_000
    e, nm = traj.energies, traj.norms
    e_drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
    n_drift = float(np.max(np.abs(nm - nm[0])) / abs(nm[0]))
    assert e_drift <= 1e-8 and n_drift <= 1e-8
    _finish(5, start, 60.0,
            f"symmetry-algebra deviation {dev:.1e} <= 10*rtol; "
            f"{traj.stats.steps} steps, energy drift {e_drift:.1e}, "
            f"norm drift {n_drift:.1e}")


# --------------------------------------------------------------- 6: chaos


def test_criterion_6_kicked_top_lyapunov():
    start = time.perf_counter()
    bloch0 = np.array([0.2, -0.4, 0.55])
    bloch0 = bloch0 / np.linalg.norm(bloch0)
    prec = np.pi / 2
    results = {}
    for kick in (3.0, 0.5):
        top = KickedTop(20, kick=kick, precession=prec)
        res = lyapunov_kicked(top, spinor_from_bloch(bloch0), n_periods=2000, seed=0)
        cl = kicked_top_classical_lyapunov(bloch0, kick, prec, 2000)
        results[kick] = (res.exponent, cl)
        assert np.sign(res.exponent) == np.sign(cl)
        assert abs(res.exponent - cl) <= 0.2 * abs(cl)
    assert results[3.0][0] > 0.1
    assert abs(results[0.5][0]) < 0.02
    _finish(6, start, 300.0,
            f"k=3: tdvp {results[3.0][0]:.3f} vs classical {results[3.0][1]:.3f}; "
            f"k=0.5: tdvp {results[0.5][0]:.4f} vs classical {results[0.5][1]:.4f}")


# -------------------------------------------------------------- 7: spectra


def test_criterion_7_spectra():
    start = time.perf_counter()
    # oscillator roots vs dense diagonalization of the truncated Hamiltonian
    a, ad, _ = fock_ops(128)
    q = np.sqrt(0.5) * (a + ad)
    p = 1j * np.sqrt(0.5) * (ad - a)
    dense = np.sort(np.linalg.eigvalsh((p @ p + q @ q) / 2))[:10]
    res = solve_implicit_spectrum(oscillator_model(1.0, 1.0, n_max=10),
                                  (0.0, 10.0), tol=1e-12)
    roots = np.array([r[1] for r in res.discrete])
    osc_gap = float(np.max(np.abs(roots - dense)))
    assert osc_gap <= 1e-10

    # Coulomb levels vs the finite-difference radial oracle, n <= 5
    res_c = solve_implicit_spectrum(coulomb_model(n_max=6), (-0.6, -0.015),
                                    tol=1e-12)
    levels = np.array([r[1] for r in res_c.discrete])
    assert len(levels) == 5
    fd = hydrogen_fd_levels(1.0, 1.0, 1.0, 5)
    coulomb_gap = float(np.max(np.abs(levels - fd) / np.abs(fd)))
    assert coulomb_gap <= 1e-3

    # lambda-root and singular-value routes agree on the clean lower half
    a, ad, _ = fock_ops(64)
    q = np.sqrt(0.5) * (a + ad)
    p = 1j * np.sqrt(0.5) * (ad - a)
    h = (p @ p + q @ q) / 2
    sv = assemble_from_algebra(None, [np.eye(64), h], lambda e: [-e, 1.0],
                               (0.0, 32.0), tol=1e-8)
    lam = solve_implicit_spectrum(oscillator_model(1.0, 1.0, n_max=32),
                                  (0.0, 32.0), tol=1e-12)
    rs = np.array([r[1] for r in sv.discrete])
    rl = np.array([r[1] for r in lam.discrete])
    route_gap = float(np.max(np.abs(rs - rl) / np.abs(rl)))
    assert route_gap <= 1e-8
    _finish(7, start, 120.0,
            f"oscillator vs dense {osc_gap:.1e}; Coulomb vs FD {coulomb_gap:.1e}; "
            f"route agreement {route_gap:.1e}")


# ------------------------------------------------------------ 8: Lie engine


def test_criterion_8_lie_state_engine():
    start = time.perf_counter()
    # axiom suite: construction re-validates antisymmetry, Jacobi, unit,
    # involution and compatibility at 1e-12; matrix reps must match brackets
    algebras = {name: fn() for name, fn in CATALOG.items()}
    algebras["matrix_3"] = matrix_star_algebra(3)
    for name, (alg, rep) in algebras.items():
        if rep is not None:
            assert rep_defect(alg, rep) <= 1e-12, name

    # Ehrenfest vs von Neumann on qubit and rotator
    alg, rep = algebras["su2_qubit"]
    rho = np.array([[0.7, 0.15 - 0.05j], [0.15 + 0.05j, 0.3]])
    state = DensityState(alg, rep, rho)
    obs = [alg.basis_vector(k) for k in (1, 2, 3)]
    tab = evolve_expectations(alg, rep, 0.65 * alg.basis_vector(3), state, obs,
                              (0.0, 6.0))
    assert tab.final_cross_check is not None and tab.final_cross_check <= 1e-8
    cross_qubit = tab.final_cross_check

    alg_r, rep_r = algebras["so3_rotator"]
    psi = np.array([0.2 + 0.1j, 0.5, 1.0 - 0.3j])
    psi = psi / np.linalg.norm(psi)
    state_r = state_from_density(alg_r, rep_r, np.outer(psi, psi.conj()))
    obs_r = [alg_r.basis_vector(k) for k in (1, 2, 3)]
    tab_r = evolve_expectations(alg_r, rep_r, alg_r.basis_vector(3), state_r,
                                obs_r, (0.0, 6.0))
    assert tab_r.final_cross_check is not None and tab_r.final_cross_check <= 1e-8

    # sigma_X >= 0 on 500 seeded self-adjoint quantities per state
    states = [
        ("qubit mixed", alg, state),
        ("qubit near-pure", alg,
         DensityState(alg, rep, np.array([[0.999, 0.0], [0.0, 0.001]]))),
        ("rotator pure", alg_r, state_r),
    ]
    for i, (label, a_s, s) in enumerate(states):
        rng = np.random.default_rng(8000 + i)
        for _ in range(500):
            x = rng.standard_normal(a_s.dim) * 3.0
            assert uncertainty(s, x) >= 0.0, label

    # covariant Ehrenfest residual is O(dx^2): step-halving ratio near 4
    def field(dx):
        rho0 = 0.5 * (np.eye(2) + 0.2 * rep[1] + 0.1 * rep[2] + 0.3 * rep[3])
        w, v = np.linalg.eigh(0.5 * rep[3])
        out = {}
        for k in range(-2, 3):
            u = (v * np.exp(-1j * w * k * dx)) @ v.conj().T
            out[(k,)] = state_from_density(alg, rep, u @ rho0 @ u.conj().T)
        return out

    pvec = 0.5 * alg.basis_vector(3)
    r1 = covariant_ehrenfest_residual(alg, rep, [pvec], field(1e-3),
                                      alg.basis_vector(1), (0,), 1e-3)[0]
    r2 = covariant_ehrenfest_residual(alg, rep, [pvec], field(5e-4),
                                      alg.basis_vector(1), (0,), 5e-4)[0]
    assert r1 <= 1e-6
    assert 3.5 <= r1 / r2 <= 4.5
    _finish(8, start, 30.0,
            f"axioms + rep defects OK; cross-checks {cross_qubit:.1e}/"
            f"{tab_r.final_cross_check:.1e}; 1500 uncertainties >= 0; "
            f"halving ratio {r1 / r2:.2f}")


# ---------------------------------------------------------- 9: determinism


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    start = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    runs = {
        "kernel-eval": ["--space", '{"kind":"klauder","modes":1}',
                        "--z", "[[0.2,0.1],[1.1,-0.4]]", "--z2", "[[0,0],[0.5,0.5]]"],
        "kernel-gram": ["--space", '{"kind":"spin","exponent":3}', "--count", "10"],
        "kernel-check": ["--space", '{"kind":"klauder","modes":2}', "--count", "12"],
        "qspace-build": ["--space", "icosahedron", "--count", "12"],
        "quantize": ["--space", '{"kind":"spin","exponent":2}', "--count", "8",
                     "--map", '{"kind":"linear","matrix":[[[0,0],[1,0]],[[1,0],[0,0]]]}'],
        "dyn-coherent": ["--space", '{"kind":"spin","exponent":2}',
                         "--generator", "[[[0.5,0],[0,0]],[[0,0],[-0.5,0]]]",
                         "--z0", "[[0.8,0],[0.6,0]]", "--t-span", "[0,4]",
                         "--samples", "9"],
        "dyn-tdvp": ["--space", '{"kind":"spin","exponent":4}',
                     "--energy", '{"kind":"spin_axis","axis":[0.2,0.3,0.9],"coeff":1.1}',
                     "--z0", "[[0.8,0],[0.6,0]]", "--t-span", "[0,4]",
                     "--samples", "9"],
        "dyn-lyapunov": ["--kick", "3.0", "--spin", "6", "--periods", "80"],
        "spec-solve": ["--model", "oscillator", "--interval", "[0,10]"],
        "lie-evolve": ["--algebra", "su2_qubit",
                       "--hamiltonian", "[[0,0],[0,0],[0,0],[0.65,0]]",
                       "--state", '{"density":[[[0.7,0],[0.15,-0.05]],[[0.15,0.05],[0.3,0]]]}',
                       "--observables", '["pauli_x","pauli_y","pauli_z"]',
                       "--t-span", "[0,2]", "--samples", "5"],
        "causal-check": ["--count", "10"],
    }
    for command, args in runs.items():
        paths = []
        for tag in ("a", "b"):
            out = f"{command}-{tag}.payload"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, *args, "--seed", "42", "--out", out,
                               "--report", f"{command}-{tag}.report.json"])
            assert rc == 0, command
            paths.append(tmp_path / out)
        blob_a, blob_b = paths[0].read_bytes(), paths[1].read_bytes()
        assert blob_a == blob_b, f"{command}: payload bytes differ between runs"
        sha = [json.loads((tmp_path / f"{command}-{t}.report.json").read_text())
               ["payload"]["sha256"] for t in ("a", "b")]
        assert sha[0] == sha[1], command
    _finish(9, start, 60.0,
            f"{len(runs)} commands, repeated runs byte-identical (sha256 match)")
