"""Where the variational flow is exact and where it is only a projection.

Two spin evolutions at the same 2j:

1. a linear precession (hamiltonian inside su(2)) — the Dirac-Frenkel flow
   must reproduce the exact coherent evolution to integrator accuracy;
2. a quadratic (twisting) energy jz^2/n + 0.3 jx — the flow leaves the exact
   quantum state but must still conserve energy and norm.

Prints the fidelity deficit per sample time for case 1 and the drift
series for case 2.

Usage:
    python3 scripts/tdvp_vs_exact.py [--spin 4] [--t-final 8.0]
"""

import argparse
import sys

import numpy as np

from cohspace.dynamics import coherent_flow
from cohspace.kernels import eval_kernel, spin_space
from cohspace.reps import SpinRep
from cohspace.tdvp import MatrixExpectation, dirac_frenkel_flow


def fidelity_deficit(space, p, q):
    kpq = eval_kernel(space, p, q)
    kpp = eval_kernel(space, p, p).real
    kqq = eval_kernel(space, q, q).real
    return 1.0 - abs(kpq) ** 2 / (kpp * kqq)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spin", type=int, default=4, help="2j")
    ap.add_argument("--t-final", type=float, default=8.0)
    ap.add_argument("--samples", type=int, default=9)
    args = ap.parse_args(argv)

    n = args.spin
    space = spin_space(n)
    rep = SpinRep(n)
    z0 = np.array([[0.8, 0.48 + 0.36j]])
    z0 = z0 / np.linalg.norm(z0), None  # a label: its one-row stack, no multiplier
    t_eval = np.linspace(0.0, args.t_final, args.samples)

    # --- case 1: precession, exact vs variational -----------------------
    omega = 1.1
    a = omega * np.diag([0.5, -0.5]).astype(complex)
    exact = coherent_flow(space, a, z0,
                          (0.0, args.t_final), t_eval=t_eval)
    energy = MatrixExpectation(rep.dgamma(a))
    var = dirac_frenkel_flow(space, energy, z0, (0.0, args.t_final),
                             t_eval=t_eval, rtol=1e-10)
    print("precession (exact case):")
    print(f"{'t':>6} {'fidelity deficit':>18}")
    for t, pe, pv in zip(t_eval, exact.coords, var.coords):
        print(f"{t:>6.2f} {fidelity_deficit(space, (pe[None], None), (pv[None], None)):>18.3e}")

    # --- case 2: twisting energy, conservation check --------------------
    jx = rep.dgamma(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    jz = rep.dgamma(np.diag([0.5, -0.5]).astype(complex))
    h = jz @ jz / n + 0.3 * jx
    t_eval2 = np.linspace(0.0, 50.0, 11)
    tw = dirac_frenkel_flow(space, MatrixExpectation(h), z0,
                            (0.0, 50.0), t_eval=t_eval2, rtol=1e-10)
    e0 = tw.energies[0]
    print("\ntwisting (projected case):")
    print(f"{'t':>6} {'energy drift':>14} {'norm drift':>12}")
    for t, e, nm in zip(t_eval2, tw.energies, tw.norms):
        print(f"{t:>6.1f} {abs(e - e0) / max(abs(e0), 1e-12):>14.3e} "
              f"{abs(nm - 1.0):>12.3e}")
    print(f"\naccepted steps: {tw.stats.steps}, "
          f"chart switches: {int(np.sum(tw.chart_flags[1:] != tw.chart_flags[:-1]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
