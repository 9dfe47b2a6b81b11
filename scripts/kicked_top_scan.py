"""Scan the kicked top's largest Lyapunov exponent over kick strength.

For each kick k the quantum (coherent-state) exponent from the variational
flow is compared against the classical map on the sphere, at fixed spin and
precession angle.  Around k ~ 2 the top crosses from regular to chaotic
motion and the two estimates should track each other.

Usage:
    python3 scripts/kicked_top_scan.py [--spin 20] [--periods 1000] \
        [--kicks 0.25:4.0:16] [--out kicked_top_scan.csv]
"""

import argparse
import csv
import sys

import numpy as np

from cohspace.chaos import KickedTop, lyapunov_kicked, spinor_from_bloch


def classical_lyapunov(s0, kick, precession, n_steps, eps=1e-7):
    """Benettin estimate for the classical kicked-top map on the unit sphere."""
    def step(s):
        sx, sy, sz = s
        # rotate by `precession` about y, then kick about z by kick * sz
        c, d = np.cos(precession), np.sin(precession)
        sx, sz = c * sx + d * sz, -d * sx + c * sz
        a = kick * sz
        ca, sa = np.cos(a), np.sin(a)
        return np.array([ca * sx - sa * sy, sa * sx + ca * sy, sz])

    s = np.asarray(s0, dtype=float)
    s = s / np.linalg.norm(s)
    rng = np.random.default_rng(5)
    d = rng.standard_normal(3)
    d -= s * (s @ d)
    d *= eps / np.linalg.norm(d)
    total = 0.0
    for _ in range(n_steps):
        s2 = step(s + d)
        s = step(s)
        d = s2 - s
        d -= s * (s @ d)
        g = np.linalg.norm(d) / eps
        total += np.log(g)
        d *= eps / np.linalg.norm(d)
    return total / n_steps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spin", type=int, default=20, help="2j (monomial degree)")
    ap.add_argument("--periods", type=int, default=1000)
    ap.add_argument("--precession", type=float, default=np.pi / 2)
    ap.add_argument("--kicks", default="0.25:4.0:16", help="lo:hi:count")
    ap.add_argument("--out", default="kicked_top_scan.csv")
    args = ap.parse_args(argv)

    lo, hi, count = args.kicks.split(":")
    kicks = np.linspace(float(lo), float(hi), int(count))
    bloch0 = np.array([0.2, -0.4, 0.55])
    bloch0 /= np.linalg.norm(bloch0)
    z0 = spinor_from_bloch(bloch0)

    rows = []
    for k in kicks:
        top = KickedTop(args.spin, kick=float(k), precession=args.precession)
        res = lyapunov_kicked(top, z0, n_periods=args.periods, seed=0)
        lam_cl = classical_lyapunov(bloch0, float(k), args.precession,
                                    args.periods)
        rows.append((float(k), res.exponent, lam_cl, res.tail_gap))
        print(f"k={k:6.3f}  quantum={res.exponent:+.4f}  "
              f"classical={lam_cl:+.4f}  tail_gap={res.tail_gap:.2e}")

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kick", "lyapunov_quantum", "lyapunov_classical",
                    "tail_gap"])
        w.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
