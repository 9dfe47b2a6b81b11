"""Correctness oracles for the benchmark, computed without importing cohspace.

Every oracle recomputes a run's answer from its config with numpy/scipy in
closed form (vectorized Gram matrices, eigenvalues of symmetric powers,
matrix exponentials, the exact kicked-top map, known spectra) and compares it
with the payload the run wrote.  A check returns a list of problems; an empty
list means the run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np
import scipy.linalg

# ----------------------------------------------------------------- payloads


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_payload(report):
    """(kind, data): ("json", obj) or ("csv", (header, rows of strings))."""
    path = report["payload"]["path"]
    if report["payload"]["format"] == "json":
        with open(path, encoding="utf-8") as f:
            return "json", json.load(f)
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return "csv", (rows[0], rows[1:])


def csv_matrix(payload):
    """Numeric CSV body as a float array (all cells numeric)."""
    header, rows = payload
    flat = np.array([c for row in rows for c in row], dtype=float)
    return header, flat.reshape(len(rows), len(header))


def complex_matrix(kind, data, key):
    """A complex matrix from a CSV of interleaved re/im columns or JSON pairs."""
    if kind == "json":
        arr = np.asarray(data[key], dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]
    _, m = csv_matrix(data)
    return m[:, 0::2] + 1j * m[:, 1::2]


def pairs(data):
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _close(name, got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != oracle {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= tol else [f"{name}: max error {err:.3e} > {tol:.1e}"]


# ------------------------------------------------------------ kernel closed forms


def _poly(coeffs, w):
    out = np.zeros_like(w, dtype=complex)
    for c in coeffs[::-1]:
        out = out * w + c
    return out


def gram_oracle(space, z):
    """Vectorized Gram [K(z_i, z_j)] for the kernel kinds the workloads use."""
    kind = space["kind"]
    if kind == "trivial":
        return z.conj() @ z.T
    if kind == "spin":
        s = z.conj() @ z.T
        n = float(space["exponent"])
        if n == round(n):
            return s ** int(round(n))
        with np.errstate(divide="ignore"):
            return np.where(s != 0, np.exp(n * np.log(s)), 0.0)
    if kind == "klauder":
        z0, zeta = z[:, 0], z[:, 1:]
        return np.exp(z0.conj()[:, None] + z0[None, :] + zeta.conj() @ zeta.T)
    if kind == "debranges":
        c = pairs(space["coeffs"])
        cs = c.conj()
        zb = z[:, 0].conj()[:, None]
        w = z[:, 0][None, :]
        num = _poly(cs, zb) * _poly(c, w) - _poly(c, zb) * _poly(cs, w)
        return num / (2j * (zb - w))
    raise ValueError(f"no Gram oracle for kernel kind {kind!r}")


def points_array(cfg):
    return np.array([pairs(p) for p in cfg["points"]])


def check_gram(cfg, kind, data):
    g = complex_matrix(kind, data, "gram")
    want = gram_oracle(cfg["space"], points_array(cfg))
    return _close("gram", g, want, 1e-9 * max(1.0, float(np.abs(want).max())))


def check_psd_verdict(cfg, kind, data, expect_pass):
    passed = data["passed"]
    problems = [] if passed == expect_pass else [f"PSD verdict {passed}, expected {expect_pass}"]
    eigs = np.linalg.eigvalsh(gram_oracle(cfg["space"], points_array(cfg)))
    norm = float(np.abs(eigs).max())
    lo = float(data["min_eigenvalue"])
    if expect_pass:
        if lo < -1e-8 * max(1.0, norm):
            problems.append(f"min eigenvalue {lo:.3e} below the PSD tolerance")
    elif abs(lo - eigs[0]) > 1e-7 * max(1.0, norm):
        problems.append(f"min eigenvalue {lo:.6e} != oracle {eigs[0]:.6e}")
    return problems


def spectrum_rows(data):
    """(eigenvalues, rank) from a qspace-build CSV: index, eigenvalue, retained."""
    header, rows = data
    col, keep = header.index("eigenvalue"), header.index("retained")
    return (np.array([float(r[col]) for r in rows]),
            sum(r[keep] == "true" for r in rows))


def _oracle_rank(eigs_desc, tol):
    """Rank at threshold tol * lam_max, or None when an eigenvalue sits so
    close to the threshold that rounding may decide it."""
    cut = tol * eigs_desc[0]
    if np.any(np.abs(eigs_desc - cut) <= 1e-3 * cut):
        return None
    return int(np.count_nonzero(eigs_desc > cut))


def check_qspace(cfg, kind, data):
    eig_pay, rank = spectrum_rows(data)
    want = np.linalg.eigvalsh(gram_oracle(cfg["space"], points_array(cfg)))[::-1]
    # the payload lists the retained eigenvalues only
    problems = _close("eigenvalues", eig_pay, want[:len(eig_pay)], 1e-9 * max(1.0, want[0]))
    oracle_rank = _oracle_rank(want, 1e-10)
    if oracle_rank is not None and rank != oracle_rank:
        problems.append(f"rank {rank} != oracle {oracle_rank}")
    return problems


def _match_spectra(name, got, want, tol):
    got, want = list(np.asarray(got)), list(np.asarray(want))
    if len(got) != len(want):
        return [f"{name}: {len(got)} eigenvalues, oracle has {len(want)}"]
    worst = 0.0
    for w in want:  # greedy nearest matching; spectra are tiny
        i = int(np.argmin([abs(g - w) for g in got]))
        worst = max(worst, abs(got.pop(i) - w))
    return [] if worst <= tol else [f"{name}: spectrum off by {worst:.3e} > {tol:.1e}"]


def map_matrix(cfg):
    return pairs(cfg["map"]["matrix"])


def quantized_spectrum(space, m):
    """Eigenvalues of Gamma(M): M itself on the trivial kernel, Sym^n(M) on spin n."""
    lam = np.linalg.eigvals(m)
    if space["kind"] == "trivial":
        return lam
    n = int(space["exponent"])
    return np.array([lam[0] ** (n - k) * lam[1] ** k for k in range(n + 1)])


def check_quantize(cfg, kind, data):
    gamma = complex_matrix(kind, data, "matrix")
    want = quantized_spectrum(cfg["space"], map_matrix(cfg))
    return _match_spectra("Gamma", np.linalg.eigvals(gamma), want, 1e-6)


# ------------------------------------------------------------------- flows


_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bloch(spinors):
    s = np.asarray(spinors)
    s = s / np.linalg.norm(s, axis=-1, keepdims=True)
    z1, z2 = s[..., 0], s[..., 1]
    x = 2.0 * (z1.conj() * z2)
    return np.stack([x.real, x.imag, np.abs(z1) ** 2 - np.abs(z2) ** 2], axis=-1)


def check_precession(cfg, kind, data):
    """Variational flow of a linear spin energy: exact Bloch precession."""
    header, m = csv_matrix(data)
    t = m[:, 0]
    pts = m[:, 1:5:2] + 1j * m[:, 2:5:2]
    e = cfg["energy"]
    h = float(e["coeff"]) * sum(a * s for a, s in zip(e["axis"], _SIGMA)) / 2
    z0 = pairs(cfg["z0"])
    want = np.array([scipy.linalg.expm(-1j * h * tk) @ z0 for tk in t])
    problems = _close("bloch vector", bloch(pts), bloch(want), 1e-6)
    n = int(cfg["space"]["exponent"])
    energy = n * float(np.real(z0.conj() @ h @ z0)) / float(np.real(z0.conj() @ z0))
    problems += _close("energy", m[:, header.index("energy")], np.full(len(t), energy),
                       1e-8 * max(1.0, abs(energy)))
    return problems


def check_coherent(cfg, kind, data):
    """Linear label flow i dz/dt = A z: z(t) = expm(-i A t) z0; norm = K(z, z)."""
    header, m = csv_matrix(data)
    t = m[:, 0]
    z = m[:, 1:5:2] + 1j * m[:, 2:5:2]
    a = pairs(cfg["generator"])
    z0 = pairs(cfg["z0"])
    want = np.array([scipy.linalg.expm(-1j * a * tk) @ z0 for tk in t])
    problems = _close("coordinates", z, want, 1e-6 * (1.0 + float(np.abs(want).max())))
    norm = np.exp(2.0 * want[:, 0].real + np.abs(want[:, 1]) ** 2)
    problems += _close("norm / norm", m[:, header.index("norm")] / norm, np.ones(len(t)), 1e-6)
    return problems


def check_lie(cfg, kind, data):
    """Pauli expectations under rho(t) = U rho U*, U = expm(-i H t)."""
    header, m = csv_matrix(data)
    t = m[:, 0]
    basis = dict(zip(("pauli_x", "pauli_y", "pauli_z"), _SIGMA))
    h = basis[cfg["hamiltonian"]]
    rho = pairs(cfg["state"]["density"])
    want = []
    for tk in t:
        u = scipy.linalg.expm(-1j * h * tk)
        r = u @ rho @ u.conj().T
        want.append([np.trace(r @ basis[o]) for o in cfg["observables"]])
    got = m[:, 1::2] + 1j * m[:, 2::2]
    return _close("expectations", got, np.array(want), 1e-7)


def check_zero_exponent(cfg, kind, data):
    """A linear spin energy is an isometry of the sphere: no tangent stretch."""
    header, m = csv_matrix(data)
    segments = int(round(float(cfg["t_total"]) / float(cfg.get("resample", 1.0))))
    if len(m) != segments:
        return [f"{len(m)} segments, expected {segments}"]
    return _close("running exponent", m[:, 2], np.zeros(segments), 1e-6)


# -------------------------------------------------------------- kicked top


def _precess(w, dw, south, p):
    """Rotation by p about y as a Moebius map in the current chart."""
    c, s = math.cos(p / 2), math.sin(p / 2)
    den = np.where(south, s * w + c, c - s * w)
    num = np.where(south, c * w - s, s + c * w)
    return num / den, dw / den ** 2


def _kick(w, dw, k):
    rho = np.abs(w) ** 2
    alpha = k * (1.0 - rho) / (1.0 + rho)
    da = -2.0 * k / (1.0 + rho) ** 2
    ph = np.exp(1j * alpha)
    return ph * w, ph * (1.0 + 1j * rho * da) * dw + 1j * ph * w * w * da * np.conj(dw)


def kicked_logs(w, dw, south, kick, prec, periods):
    """Per-period log tangent stretch of the exact kicked-top map.

    Arrays of start points run side by side; the chart flips when |w| > 1 so
    the Moebius maps stay well conditioned.  Tangent length is the chart
    metric length, |dw| / (1 + |w|^2) up to a constant factor.
    """
    w, dw, south = (np.array(x) for x in (w, dw, south))
    dw = dw * (1.0 + np.abs(w) ** 2) / np.abs(dw)
    logs = []
    for _ in range(periods):
        w, dw = _precess(w, dw, south, prec)
        w, dw = _kick(w, dw, kick)
        flip = np.abs(w) > 1.0
        dw = np.where(flip, -dw / np.where(flip, w, 1.0) ** 2, dw)
        w = np.where(flip, 1.0 / np.where(flip, w, 1.0), w)
        south = south ^ flip
        ell = np.abs(dw) / (1.0 + np.abs(w) ** 2)
        logs.append(np.log(ell))
        dw = dw / ell
    return np.array(logs)


def check_kicked(cfg, kind, data):
    """Per-period stretch against the exact map while the orbits still agree,
    and the exponent against an ensemble of exact-map Benettin estimates from
    start points 1e-9 away (the classical estimate of acceptance criterion 6,
    widened by the ensemble spread for chaotic orbits)."""
    header, m = csv_matrix(data)
    running = m[:, 2]
    periods = int(cfg["periods"])
    if len(running) != periods:
        return [f"{len(running)} periods, expected {periods}"]
    got = running * np.arange(1, periods + 1)
    got = np.diff(np.concatenate([[0.0], got]))

    x, y, z = np.asarray(cfg["bloch0"], dtype=float) / np.linalg.norm(cfg["bloch0"])
    south = z < 0
    w0 = (x - 1j * y) / (1.0 - z) if south else (x + 1j * y) / (1.0 + z)
    rng = np.random.default_rng(int(cfg["seed"]))
    dw0 = rng.standard_normal() + 1j * rng.standard_normal()  # cohspace's tangent draw
    kick, prec = float(cfg["kick"]), float(cfg.get("precession", math.pi / 2))
    want = kicked_logs([w0], [dw0], [south], kick, prec, periods)[:, 0]

    problems = []
    agree = np.concatenate([[0.0], np.cumsum(want)[:-1]]) < math.log(1e3)
    agree[0] = True
    err = float(np.max(np.abs(got[agree] - want[agree])))
    if err > 1e-5:
        problems.append(f"per-period stretch off the exact map by {err:.3e}")

    ens = np.random.default_rng(12345).standard_normal((2, 64))
    ens_w = w0 + 1e-9 * (ens[0] + 1j * ens[1])
    est = kicked_logs(ens_w, np.full(64, dw0), np.full(64, south), kick, prec, periods).mean(0)
    mean, spread = float(est.mean()), float(est.std())
    exponent = float(running[-1])
    if abs(exponent - mean) > max(0.2 * abs(mean), 5.0 * spread) + 1e-6:
        problems.append(f"exponent {exponent:.4f} vs exact-map ensemble {mean:.4f} +- {spread:.4f}")
    return problems


# ---------------------------------------------------------------- spectra


def check_spectrum(cfg, kind, data):
    header, rows = data
    roots = [(int(r[1]), float(r[2])) for r in rows if r[0] == "discrete"]
    lo, hi = (float(v) for v in cfg["interval"])
    if cfg["model"] == "oscillator":
        want = [(n, n + 0.5) for n in range(33) if lo <= n + 0.5 <= hi]
    else:  # coulomb, default n_max 8
        want = sorted(((n, -0.5 / n ** 2) for n in range(1, 9) if lo <= -0.5 / n ** 2 <= hi),
                      key=lambda r: r[1])
    if [n for n, _ in roots] != [n for n, _ in want]:
        return [f"root branches {[n for n, _ in roots]} != {[n for n, _ in want]}"]
    return _close("roots", [e for _, e in roots], [e for _, e in want], 1e-9)


# ----------------------------------------------------------------- causal


def _weyl(dt, dx, nonlocal_violation):
    if dt == 0 or (not nonlocal_violation and abs(dx) > abs(dt)):
        return 0.0
    return -0.5j if dt > 0 else 0.5j


def causal_kernel(a, b, nonlocal_violation):
    s = sum(va * _weyl(ta - tb, xa - xb, nonlocal_violation) * vb
            for (ta, xa), va in a.items() for (tb, xb), vb in b.items())
    return complex(np.exp(s))


def _section(rows):
    out = {}
    for t, x, re, im in rows:
        out[(int(t), int(x))] = out.get((int(t), int(x)), 0.0) + complex(re, im)
    return out


def _independent(a, b):
    return all(abs(p[1] - q[1]) > abs(p[0] - q[0]) for p in a for q in b)


def check_causal(cfg, kind, data):
    nl = bool(cfg.get("nonlocal_violation", False))
    if "triples" not in cfg:  # sampled triples: the lattice Weyl kernel is exact
        problems = [] if data["passed"] else ["causal verdict failed"]
        if max(data["normal_max"], data["causal_max"]) > 1e-12:
            problems.append("causal maxima above 1e-12")
        if data["causal_checked"] != cfg["count"]:
            problems.append(f"{data['causal_checked']} triples checked, expected {cfg['count']}")
        return problems
    worst_n = worst_c = 0.0
    n_norm = 0
    for j, k, jp in ((_section(s) for s in t) for t in cfg["triples"]):
        base = causal_kernel(j, jp, nl)
        jk, jpk = dict(j), dict(jp)
        for site, v in k.items():
            jk[site] = jk.get(site, 0.0) + v
            jpk[site] = jpk.get(site, 0.0) + v
        worst_c = max(worst_c, abs(causal_kernel(jk, jpk, nl) - base))
        if _independent(j, jp):
            worst_n = max(worst_n, abs(base - 1.0))
            n_norm += 1
    problems = []
    if data["normal_checked"] != n_norm or data["causal_checked"] != len(cfg["triples"]):
        problems.append("checked-triple counts differ from the oracle")
    problems += _close("normal_max", data["normal_max"], worst_n, 1e-12 + 1e-9 * worst_n)
    problems += _close("causal_max", data["causal_max"], worst_c, 1e-12 + 1e-9 * worst_c)
    passed = worst_n <= 1e-12 and worst_c <= 1e-12
    if data["passed"] != passed:
        problems.append(f"verdict {data['passed']}, oracle {passed}")
    return problems


# ------------------------------------------------------------- README runs


def check_kernel_eval(cfg, kind, data):
    v = pairs([cfg["z"]]).conj() @ pairs(cfg["z2"])
    return _close("kernel value", complex(data["re"], data["im"]), complex(v[0]), 1e-12)


def check_sampled_spin_gram(cfg, kind, data):
    """Sampled spin-n points: Hermitian, unit diagonal, PSD, rank n + 1."""
    g = complex_matrix(kind, data, "gram")
    n = int(cfg["space"]["exponent"])
    problems = _close("hermitian defect", g, g.conj().T, 0.0)
    problems += _close("diagonal", g.diagonal(), np.ones(len(g)), 1e-12)
    eigs = np.linalg.eigvalsh(g)[::-1]
    if eigs[-1] < -1e-10 * eigs[0]:
        problems.append(f"Gram not PSD (min eigenvalue {eigs[-1]:.3e})")
    if _oracle_rank(eigs, 1e-9) != min(n + 1, len(g)):
        problems.append(f"numerical rank differs from n + 1 = {n + 1}")
    return problems


def check_sampled_verdict(cfg, kind, data):
    """Non-integer spin exponents are not coherent: the check must fail."""
    if data["passed"] or data["min_eigenvalue"] >= -1e-8 * max(1.0, data["gram_norm"]):
        return [f"expected a failing PSD verdict, got {data['passed']} "
                f"(min eigenvalue {data['min_eigenvalue']:.3e})"]
    return []


def check_icosahedron(cfg, kind, data):
    eigs, rank = spectrum_rows(data)
    problems = _close("trace", eigs.sum(), float(cfg["count"]), 1e-9 * cfg["count"])
    if not 1 <= rank <= 3 or rank != np.count_nonzero(eigs > 1e-10 * eigs[0]):
        problems.append(f"rank {rank} is not the count of eigenvalues above threshold (<= 3)")
    return problems


def check_sampled_quantize(cfg, kind, data):
    gamma = complex_matrix(kind, data, "matrix")
    return _match_spectra("Gamma", np.linalg.eigvals(gamma), np.linalg.eigvals(map_matrix(cfg)),
                          1e-6)


CHECKS = {
    "gram": check_gram,
    "psd_pass": lambda c, k, d: check_psd_verdict(c, k, d, True),
    "psd_fail": lambda c, k, d: check_psd_verdict(c, k, d, False),
    "qspace": check_qspace,
    "quantize": check_quantize,
    "precession": check_precession,
    "coherent": check_coherent,
    "lie": check_lie,
    "zero_exponent": check_zero_exponent,
    "kicked": check_kicked,
    "spectrum": check_spectrum,
    "causal": check_causal,
    "kernel_eval": check_kernel_eval,
    "sampled_gram": check_sampled_spin_gram,
    "sampled_verdict": check_sampled_verdict,
    "icosahedron": check_icosahedron,
    "sampled_quantize": check_sampled_quantize,
}


def check_run(oracle, cfg, report):
    """All problems with one run: payload digest, then the oracle."""
    digest = sha256_file(report["payload"]["path"])
    if digest != report["payload"]["sha256"]:
        return ["payload sha256 differs from the report"]
    kind, data = read_payload(report)
    return CHECKS[oracle](cfg, kind, data)
