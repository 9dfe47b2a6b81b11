"""Command-line front end: one config in, two deterministic artifacts out.

Every run writes a payload (CSV or JSON with the numbers) and a JSON run
report echoing the complete configuration — seed always included — plus a
SHA-256 of the payload, so a report and its input files reproduce the run bit
for bit.  Writes are atomic (temp file + rename).

Thread pinning happens before any numeric import: --threads (or the
COHSPACE_THREADS variable) is applied to the BLAS/OpenMP environment while
this module still only uses the standard library, which is why the package
root must stay free of numpy imports.

Exit codes: 0 success, 1 domain error (diagnostic payload as JSON on stderr),
2 configuration / usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from . import io as artifacts
from .errors import ConfigError, DomainError, NumericalError

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

COMMANDS = (
    "kernel-eval",
    "kernel-gram",
    "kernel-check",
    "qspace-build",
    "quantize",
    "dyn-coherent",
    "dyn-tdvp",
    "dyn-lyapunov",
    "spec-solve",
    "lie-evolve",
    "causal-check",
)

# two-word spellings accepted on the command line
_ALIASES = {tuple(c.split("-")): c for c in COMMANDS if "-" in c}
_ALIASES[("quantize", "map")] = "quantize"

# per-command config fields: (flag, config key, coercion)
# "json" fields parse the flag value as JSON, falling back to a bare string.
_FIELDS: dict[str, list[tuple[str, str, str]]] = {
    "kernel-eval": [
        ("--space", "space", "json"),
        ("--z", "z", "json"),
        ("--z2", "z2", "json"),
    ],
    "kernel-gram": [
        ("--space", "space", "json"),
        ("--points", "points", "json"),
        ("--count", "count", "int"),
    ],
    "kernel-check": [
        ("--space", "space", "json"),
        ("--points", "points", "json"),
        ("--count", "count", "int"),
        ("--tol", "tol", "float"),
    ],
    "qspace-build": [
        ("--space", "space", "json"),
        ("--points", "points", "json"),
        ("--count", "count", "int"),
        ("--tol", "tol", "float"),
    ],
    "quantize": [
        ("--space", "space", "json"),
        ("--points", "points", "json"),
        ("--count", "count", "int"),
        ("--map", "map", "json"),
        ("--tol", "tol", "float"),
    ],
    "dyn-coherent": [
        ("--space", "space", "json"),
        ("--generator", "generator", "json"),
        ("--z0", "z0", "json"),
        ("--t-span", "t_span", "json"),
        ("--samples", "samples", "int"),
        ("--hbar", "hbar", "float"),
    ],
    "dyn-tdvp": [
        ("--space", "space", "json"),
        ("--energy", "energy", "json"),
        ("--z0", "z0", "json"),
        ("--t-span", "t_span", "json"),
        ("--samples", "samples", "int"),
        ("--rtol", "rtol", "float"),
        ("--hbar", "hbar", "float"),
    ],
    "dyn-lyapunov": [
        ("--system", "system", "json"),
        ("--spin", "spin", "int"),
        ("--kick", "kick", "float"),
        ("--precession", "precession", "float"),
        ("--periods", "periods", "int"),
        ("--bloch0", "bloch0", "json"),
        ("--space", "space", "json"),
        ("--energy", "energy", "json"),
        ("--z0", "z0", "json"),
        ("--t-total", "t_total", "float"),
        ("--resample", "resample", "float"),
        ("--rtol", "rtol", "float"),
        ("--hbar", "hbar", "float"),
    ],
    "spec-solve": [
        ("--model", "model", "json"),
        ("--interval", "interval", "json"),
        ("--tol", "tol", "float"),
        ("--grid", "grid", "int"),
    ],
    "lie-evolve": [
        ("--algebra", "algebra", "json"),
        ("--hamiltonian", "hamiltonian", "json"),
        ("--state", "state", "json"),
        ("--observables", "observables", "json"),
        ("--t-span", "t_span", "json"),
        ("--samples", "samples", "int"),
    ],
    "causal-check": [
        ("--kernel", "kernel", "json"),
        ("--nonlocal-violation", "nonlocal_violation", "json"),
        ("--triples", "triples", "json"),
        ("--count", "count", "int"),
        ("--tol", "tol", "float"),
    ],
}

# commands whose natural payload is a table rather than a verdict
_CSV_DEFAULT = frozenset(
    ("kernel-gram", "qspace-build", "quantize", "dyn-coherent", "dyn-tdvp",
     "dyn-lyapunov", "spec-solve", "lie-evolve")
)


# --------------------------------------------------------- thread pinning


def _threads_from(argv) -> int:
    """--threads wins over COHSPACE_THREADS; default 1 (single process)."""
    val = None
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            val = argv[i + 1]
        elif a.startswith("--threads="):
            val = a.split("=", 1)[1]
    if val is None:
        val = os.environ.get("COHSPACE_THREADS", "1")
    try:
        n = int(val)
    except (TypeError, ValueError):
        raise ConfigError(f"--threads must be a positive integer, got {val!r}")
    if n < 1:
        raise ConfigError(f"--threads must be a positive integer, got {val!r}")
    return n


def _pin_threads(n: int) -> None:
    for var in _BLAS_VARS:
        os.environ[var] = str(n)


# ------------------------------------------------------------ arg parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohspace",
        description="coherence-kernel toolbox: spaces, quantization, dynamics",
    )
    sub = parser.add_subparsers(dest="command")
    for command in COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON file with config fields; flags override it")
        sp.add_argument("--out", help="payload path (default cohspace-<command>.<format>)")
        sp.add_argument("--report", help="run report path (default <out>.report.json)")
        sp.add_argument("--format", choices=("csv", "json"), help="payload format")
        sp.add_argument("--seed", type=int, help="RNG seed (always recorded; default 0)")
        sp.add_argument("--threads", type=int, help="BLAS/OpenMP thread count (default 1)")
        for flag, key, _kind in _FIELDS[command]:
            sp.add_argument(flag, dest=key, type=str, default=None)
    return parser


def _coerce(raw: str, kind: str, key: str):
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
    # "json": structured values as JSON text, bare words stay strings
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _assemble_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        loaded.pop("command", None)  # the subcommand on the command line wins
        cfg.update(loaded)
    for _flag, key, kind in _FIELDS[args.command]:
        raw = getattr(args, key)
        if raw is not None:
            cfg[key] = _coerce(raw, kind, key)
    for key in ("out", "report", "format", "seed", "threads"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    cfg.setdefault("threads", int(os.environ.get("OMP_NUM_THREADS", "1")))
    return cfg


# ------------------------------------------------------- shared builders


def _plain(obj):
    """Recursively turn numpy scalars/arrays into JSON-safe python values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if hasattr(obj, "item"):
        return _plain(obj.item())
    raise ConfigError(f"cannot serialize {type(obj).__name__} into a report")


def _space_of(cfg):
    from .kernels import space_from_descriptor

    desc = cfg.get("space")
    if desc is None:
        raise ConfigError("missing 'space' descriptor")
    if isinstance(desc, str):
        desc = {"kind": desc}
    if not isinstance(desc, dict):
        raise ConfigError("'space' must be a descriptor object or a kind name")
    return space_from_descriptor(desc)


def _coords_array(coords):
    import numpy as np

    out = []
    for c in coords:
        if isinstance(c, bool):
            raise ConfigError("coordinates must be numbers or [re, im] pairs")
        if isinstance(c, (int, float)):
            out.append(complex(c))
        elif isinstance(c, (list, tuple)) and len(c) == 2:
            out.append(complex(float(c[0]), float(c[1])))
        else:
            raise ConfigError("coordinates must be numbers or [re, im] pairs")
    return np.array(out, dtype=complex)


def _point_of(data, name="point"):
    from .kernels import Point

    if data is None:
        raise ConfigError(f"missing '{name}'")
    if isinstance(data, dict):
        coords = data.get("coords")
        if coords is None:
            raise ConfigError(f"{name}: point object needs 'coords'")
        mult = data.get("multiplier")
        if mult is not None:
            if not (isinstance(mult, (list, tuple)) and len(mult) == 2):
                raise ConfigError(f"{name}: multiplier must be an [re, im] pair")
            mult = complex(float(mult[0]), float(mult[1]))
        return Point(_coords_array(coords), mult)
    if isinstance(data, (list, tuple)):
        return Point(_coords_array(data))
    raise ConfigError(f"{name}: must be a coordinate list or an object with 'coords'")


def _points_of(cfg, space):
    import numpy as np

    from .kernels import sample_points

    pts = cfg.get("points")
    if pts is not None:
        if not isinstance(pts, (list, tuple)) or not pts:
            raise ConfigError("'points' must be a non-empty list")
        return [_point_of(p, f"points[{i}]") for i, p in enumerate(pts)]
    count = cfg.get("count")
    if count is None:
        raise ConfigError("need either 'points' or 'count'")
    count = int(count)
    if count < 1:
        raise ConfigError("'count' must be positive")
    rng = np.random.default_rng(int(cfg["seed"]))
    return sample_points(space, rng, count)


def _matrix_of(cfg, key):
    data = cfg.get(key)
    if data is None:
        raise ConfigError(f"missing '{key}' matrix")
    m = artifacts.pairs_to_complex(data)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"'{key}' must be a square matrix of [re, im] pairs")
    return m


def _pair_columns(label, width):
    cols = []
    for j in range(width):
        cols.append(f"{label}{j}_re")
        cols.append(f"{label}{j}_im")
    return cols


def _interleave(vec):
    row = []
    for v in vec:
        row.append(float(v.real))
        row.append(float(v.imag))
    return row


def _t_span_of(cfg):
    span = cfg.get("t_span")
    if (not isinstance(span, (list, tuple))) or len(span) != 2:
        raise ConfigError("'t_span' must be [t0, t1]")
    return float(span[0]), float(span[1])


def _t_eval_of(cfg, t0, t1, default=101):
    import numpy as np

    n = int(cfg.get("samples", default))
    if n < 2:
        raise ConfigError("'samples' must be at least 2")
    return np.linspace(t0, t1, n)


def _energy_of(cfg, space):
    from .tdvp import MatrixExpectation

    spec = cfg.get("energy")
    if spec is None:
        raise ConfigError("missing 'energy' descriptor")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'energy' must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "matrix":
        return MatrixExpectation(_matrix_of(spec, "matrix"))
    if kind == "spin_axis":
        import numpy as np

        from .reps import SpinRep

        if space.kind not in ("spin", "spin_t"):
            raise ConfigError("spin_axis energies need a spin space")
        axis = spec.get("axis")
        if not (isinstance(axis, (list, tuple)) and len(axis) == 3):
            raise ConfigError("spin_axis: 'axis' must be [x, y, z]")
        coeff = float(spec.get("coeff", 1.0))
        sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
        sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
        m = coeff * (float(axis[0]) * sx + float(axis[1]) * sy + float(axis[2]) * sz)
        rep = SpinRep(int(space.descriptor["exponent"]))
        return MatrixExpectation(rep.dgamma(m))
    raise ConfigError(f"unknown energy kind {kind!r}")


def _trajectory_payload(traj, with_energy):
    width = len(traj.points[0].coords)
    header = ["t"] + _pair_columns("c", width)
    has_mult = any(p.multiplier is not None for p in traj.points)
    if has_mult:
        header += ["mult_re", "mult_im"]
    if with_energy:
        header.append("energy")
    header.append("norm")
    if traj.chart_flags is not None:
        header.append("chart")
    rows = []
    for i, (t, p) in enumerate(zip(traj.times, traj.points)):
        row = [float(t)] + _interleave(p.coords)
        if has_mult:
            m = p.multiplier if p.multiplier is not None else 0.0j
            row += [float(m.real), float(m.imag)]
        if with_energy:
            row.append(float(traj.energies[i]))
        row.append(float(traj.norms[i]))
        if traj.chart_flags is not None:
            row.append(int(traj.chart_flags[i]))
        rows.append(row)
    obj = {
        "times": [float(t) for t in traj.times],
        "points": [artifacts.complex_to_pairs(p.coords) for p in traj.points],
        "norms": [float(v) for v in traj.norms],
    }
    if has_mult:
        obj["multipliers"] = [
            [float(p.multiplier.real), float(p.multiplier.imag)]
            if p.multiplier is not None else [0.0, 0.0]
            for p in traj.points
        ]
    if with_energy:
        obj["energies"] = [float(e) for e in traj.energies]
    if traj.chart_flags is not None:
        obj["charts"] = [int(f) for f in traj.chart_flags]
    return {"csv": (header, rows), "json": obj}


# ------------------------------------------------------------- handlers
#
# Each handler maps a validated config to (payload, summary, warnings) with
# payload = {"csv": (header, rows), "json": obj} so --format picks either.


def _h_kernel_eval(cfg):
    from .kernels import eval_kernel

    space = _space_of(cfg)
    z = _point_of(cfg.get("z"), "z")
    z2 = _point_of(cfg.get("z2"), "z2")
    v = eval_kernel(space, z, z2)
    out = {"re": float(v.real), "im": float(v.imag)}
    payload = {"json": out, "csv": (["re", "im"], [[out["re"], out["im"]]])}
    return payload, dict(out), []


def _h_kernel_gram(cfg):
    from .kernels import gram_matrix

    space = _space_of(cfg)
    pts = _points_of(cfg, space)
    g = gram_matrix(space, pts)
    n = g.shape[0]
    header = _pair_columns("k", n)
    rows = [_interleave(g[i]) for i in range(n)]
    obj = {"gram": artifacts.complex_to_pairs(g), "space": dict(space.descriptor)}
    summary = {"points": n, "hermitian": bool(space.hermitian)}
    return {"csv": (header, rows), "json": obj}, summary, []


def _h_kernel_check(cfg):
    from .kernels import check_coherence

    space = _space_of(cfg)
    pts = _points_of(cfg, space)
    kwargs = {}
    if cfg.get("tol") is not None:
        kwargs["tol"] = float(cfg["tol"])
    verdict = check_coherence(space, pts, **kwargs)
    obj = {
        "passed": bool(verdict.passed),
        "min_eigenvalue": float(verdict.min_eigenvalue),
        "gram_norm": float(verdict.gram_norm),
        "tolerance": float(verdict.tolerance_used),
        "points": len(pts),
        "space": dict(space.descriptor),
    }
    header = ["passed", "min_eigenvalue", "gram_norm", "tolerance", "points"]
    row = [obj["passed"], obj["min_eigenvalue"], obj["gram_norm"],
           obj["tolerance"], obj["points"]]
    summary = {k: obj[k] for k in ("passed", "min_eigenvalue", "tolerance")}
    return {"csv": (header, [row]), "json": obj}, summary, []


def _h_qspace_build(cfg):
    from .qspace import build_quantum_space

    space = _space_of(cfg)
    pts = _points_of(cfg, space)
    kwargs = {}
    if cfg.get("tol") is not None:
        kwargs["tol"] = float(cfg["tol"])
    qb = build_quantum_space(space, pts, **kwargs)
    eigvals = [float(v) for v in qb.eigvals]
    header = ["index", "eigenvalue", "retained"]
    rows = [[i, v, i < qb.rank] for i, v in enumerate(eigvals)]
    obj = {
        "rank": int(qb.rank),
        "size": int(qb.size),
        "eigenvalues": eigvals,
        "truncation_tol": float(qb.truncation_tol),
        "space": dict(space.descriptor),
    }
    summary = {"rank": int(qb.rank), "size": int(qb.size)}
    return {"csv": (header, rows), "json": obj}, summary, []


def _map_of(cfg):
    from .kernels import linear_point_map

    spec = cfg.get("map")
    if spec is None:
        raise ConfigError("missing 'map' descriptor")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'map' must be an object with a 'kind'")
    if spec["kind"] == "linear":
        m = _matrix_of(spec, "matrix")
        return linear_point_map(m, renormalize=bool(spec.get("renormalize", False)))
    raise ConfigError(f"unknown map kind {spec['kind']!r}")


def _h_quantize(cfg):
    from .qspace import build_quantum_space
    from .quantize import quantize_map

    space = _space_of(cfg)
    pts = _points_of(cfg, space)
    qb = build_quantum_space(space, pts)
    a = _map_of(cfg)
    kwargs = {}
    if cfg.get("tol") is not None:
        kwargs["tol"] = float(cfg["tol"])
    op = quantize_map(qb, a, **kwargs)
    n = op.matrix.shape[0]
    header = _pair_columns("g", n)
    rows = [_interleave(op.matrix[i]) for i in range(n)]
    obj = {
        "matrix": artifacts.complex_to_pairs(op.matrix),
        "residual": float(op.residual),
        "rank": int(qb.rank),
        "space": dict(space.descriptor),
    }
    summary = {"residual": float(op.residual), "rank": int(qb.rank)}
    return {"csv": (header, rows), "json": obj}, summary, []


def _h_dyn_coherent(cfg):
    from .dynamics import LinearHamiltonianFlow, coherent_flow

    space = _space_of(cfg)
    gen = _matrix_of(cfg, "generator")
    flow = LinearHamiltonianFlow(gen, hbar=float(cfg.get("hbar", 1.0)))
    z0 = _point_of(cfg.get("z0"), "z0")
    t0, t1 = _t_span_of(cfg)
    t_eval = _t_eval_of(cfg, t0, t1)
    traj = coherent_flow(space, flow, z0, (t0, t1), t_eval)
    payload = _trajectory_payload(traj, with_energy=False)
    return payload, {"final_norm": float(traj.norms[-1])}, []


def _h_dyn_tdvp(cfg):
    from .tdvp import dirac_frenkel_flow

    space = _space_of(cfg)
    energy = _energy_of(cfg, space)
    z0 = _point_of(cfg.get("z0"), "z0")
    t0, t1 = _t_span_of(cfg)
    t_eval = _t_eval_of(cfg, t0, t1)
    traj = dirac_frenkel_flow(space, energy, z0, (t0, t1), t_eval,
                              rtol=float(cfg.get("rtol", 1e-9)),
                              hbar=float(cfg.get("hbar", 1.0)))
    payload = _trajectory_payload(traj, with_energy=True)
    e = traj.energies
    scale = max(abs(float(e[0])), 1e-12)
    summary = {
        "steps": int(traj.stats.steps),
        "energy_drift": float(max(abs(e - e[0])) / scale),
        "chart_switches": int(sum(traj.chart_flags[1:] != traj.chart_flags[:-1]))
        if traj.chart_flags is not None else 0,
    }
    return payload, summary, []


def _h_dyn_lyapunov(cfg):
    system = cfg.get("system", "kicked_top")
    if system == "kicked_top":
        from .chaos import KickedTop, lyapunov_kicked, spinor_from_bloch

        if cfg.get("kick") is None:
            raise ConfigError("kicked_top needs a 'kick' strength")
        top = KickedTop(
            int(cfg.get("spin", 40)),
            kick=float(cfg["kick"]),
            precession=float(cfg.get("precession", math.pi / 2)),
        )
        if cfg.get("z0") is not None:
            z0 = _point_of(cfg["z0"], "z0")
        else:
            bloch0 = cfg.get("bloch0", [0.62, 0.4, 0.68])
            if not (isinstance(bloch0, (list, tuple)) and len(bloch0) == 3):
                raise ConfigError("'bloch0' must be [x, y, z]")
            z0 = spinor_from_bloch([float(v) for v in bloch0])
        res = lyapunov_kicked(
            top, z0,
            n_periods=int(cfg.get("periods", 2000)),
            seed=int(cfg["seed"]),
        )
    elif system == "continuous":
        from .chaos import lyapunov_continuous

        space = _space_of(cfg)
        energy = _energy_of(cfg, space)
        z0 = _point_of(cfg.get("z0"), "z0")
        res = lyapunov_continuous(
            space, energy, z0,
            t_total=float(cfg.get("t_total", 200.0)),
            resample=float(cfg.get("resample", 1.0)),
            rtol=float(cfg.get("rtol", 1e-10)),
            hbar=float(cfg.get("hbar", 1.0)),
            seed=int(cfg["seed"]),
        )
    else:
        raise ConfigError(f"unknown system {system!r} (kicked_top or continuous)")
    header = ["segment", "time", "running_estimate"]
    rows = [[i + 1, float(t), float(r)]
            for i, (t, r) in enumerate(zip(res.times, res.running))]
    obj = {
        "exponent": float(res.exponent),
        "times": [float(t) for t in res.times],
        "running": [float(r) for r in res.running],
        "tail_gap": float(res.tail_gap),
        "chart_switches": int(res.chart_switches),
    }
    summary = {
        "exponent": float(res.exponent),
        "tail_gap": float(res.tail_gap),
        "chart_switches": int(res.chart_switches),
        "segments": int(res.segments),
    }
    return {"csv": (header, rows), "json": obj}, summary, []


def _model_of(cfg):
    from .spectra import coulomb_model, free_particle_model, oscillator_model

    spec = cfg.get("model")
    if spec is None:
        raise ConfigError("missing 'model' descriptor")
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'model' must be an object with a 'kind'")
    kind = spec["kind"]
    extra = {k: v for k, v in spec.items() if k != "kind"}
    try:
        if kind == "oscillator":
            return oscillator_model(**{k: (int(v) if k == "n_max" else float(v))
                                       for k, v in extra.items()})
        if kind == "coulomb":
            return coulomb_model(**{k: (int(v) if k == "n_max" else float(v))
                                    for k, v in extra.items()})
        if kind == "free_particle":
            return free_particle_model(**{k: float(v) for k, v in extra.items()})
    except TypeError as exc:
        raise ConfigError(f"model {kind!r}: {exc}")
    raise ConfigError(f"unknown model kind {kind!r}")


def _h_spec_solve(cfg):
    from .spectra import solve_implicit_spectrum

    model = _model_of(cfg)
    interval = cfg.get("interval")
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
        raise ConfigError("'interval' must be [lo, hi]")
    kwargs = {}
    if cfg.get("tol") is not None:
        kwargs["tol"] = float(cfg["tol"])
    if cfg.get("grid") is not None:
        kwargs["grid"] = int(cfg["grid"])
    res = solve_implicit_spectrum(model, (float(interval[0]), float(interval[1])),
                                  **kwargs)
    header = ["kind", "branch", "energy_lo", "energy_hi", "residual"]
    rows = []
    for n, e, r in res.discrete:
        rows.append(["discrete", int(n), float(e), float(e), float(r)])
    for lo, hi in res.continuous:
        rows.append(["continuous", -1, float(lo), float(hi), ""])
    obj = {
        "discrete": [{"branch": int(n), "energy": float(e), "residual": float(r)}
                     for n, e, r in res.discrete],
        "continuous": [{"lo": float(lo), "hi": float(hi)}
                       for lo, hi in res.continuous],
        "search_interval": [float(v) for v in res.search_interval],
    }
    summary = {"n_discrete": len(res.discrete), "n_continuous": len(res.continuous)}
    return {"csv": (header, rows), "json": obj}, summary, list(res.warnings)


def _algebra_of(cfg):
    from .liealg import CATALOG, algebra_from_descriptor

    spec = cfg.get("algebra")
    if spec is None:
        raise ConfigError("missing 'algebra' (catalog name or descriptor)")
    if isinstance(spec, str):
        if spec not in CATALOG:
            raise ConfigError(
                f"unknown algebra {spec!r}; catalog: {', '.join(sorted(CATALOG))}"
            )
        return CATALOG[spec]()
    if isinstance(spec, dict):
        return algebra_from_descriptor(spec), None
    raise ConfigError("'algebra' must be a catalog name or a descriptor object")


def _coeff_vector(data, algebra, what):
    import numpy as np

    if isinstance(data, str):
        if data not in algebra.basis_names:
            raise ConfigError(f"{what}: unknown basis element {data!r}")
        return algebra.basis_vector(algebra.basis_names.index(data))
    v = artifacts.pairs_to_complex(data)
    if v.ndim != 1 or v.shape[0] != algebra.dim:
        raise ConfigError(
            f"{what}: expected {algebra.dim} coefficient pairs, got shape {v.shape}"
        )
    return np.asarray(v)


def _h_lie_evolve(cfg):
    from .liealg import (AlgebraState, DensityState, algebra_descriptor,
                         evolve_expectations)

    algebra, rep = _algebra_of(cfg)
    if cfg.get("hamiltonian") is None:
        raise ConfigError("missing 'hamiltonian' coefficients")
    h = _coeff_vector(cfg["hamiltonian"], algebra, "hamiltonian")
    state_spec = cfg.get("state")
    if not isinstance(state_spec, dict):
        raise ConfigError("'state' must be an object with 'density' or 'form'")
    if "density" in state_spec:
        if rep is None:
            raise ConfigError("density states need an algebra with a catalog rep")
        state = DensityState(algebra, rep, artifacts.pairs_to_complex(state_spec["density"]))
    elif "form" in state_spec:
        state = AlgebraState(algebra, artifacts.pairs_to_complex(state_spec["form"]))
    else:
        raise ConfigError("'state' must be an object with 'density' or 'form'")
    obs_spec = cfg.get("observables")
    if not isinstance(obs_spec, (list, tuple)) or not obs_spec:
        raise ConfigError("'observables' must be a non-empty list")
    names = [o if isinstance(o, str) else f"obs{i}" for i, o in enumerate(obs_spec)]
    observables = [_coeff_vector(o, algebra, f"observables[{i}]")
                   for i, o in enumerate(obs_spec)]
    t0, t1 = _t_span_of(cfg)
    t_eval = _t_eval_of(cfg, t0, t1, default=201)
    table = evolve_expectations(algebra, rep, h, state, observables, (t0, t1), t_eval=t_eval)
    header = ["t"]
    for nm in names:
        header += [f"{nm}_re", f"{nm}_im"]
    rows = []
    for i, t in enumerate(table.times):
        rows.append([float(t)] + _interleave(table.values[i]))
    obj = {
        "times": [float(t) for t in table.times],
        "values": artifacts.complex_to_pairs(table.values),
        "observables": names,
        "algebra": algebra_descriptor(algebra),
        "final_cross_check": None if table.final_cross_check is None
        else float(table.final_cross_check),
    }
    summary = {"final_cross_check": obj["final_cross_check"],
               "observables": len(names)}
    return {"csv": (header, rows), "json": obj}, summary, []


def _random_triples(rng, count, independent):
    """Deterministic (j, k, j') test triples in spacelike-separated bands.

    Times stay in [0, 5]; j lives at x in [0, 2] and k at x in [8, 10], so
    k is strictly spacelike to j by construction.  j' alternates between the
    j band (timelike-entangled pair, causality check only) and a far band at
    x in [16, 18] (independent pair, so the normalization check runs too).
    """
    from .causal import CausalSection, sections_independent

    def section(x_lo, x_hi):
        vals = {}
        for _ in range(int(rng.integers(1, 3))):
            site = (int(rng.integers(0, 6)), int(rng.integers(x_lo, x_hi + 1)))
            vals[site] = complex(rng.standard_normal(), rng.standard_normal())
        return CausalSection(vals)

    out = []
    for i in range(count):
        j, k = section(0, 2), section(8, 10)
        jp = section(16, 18) if i % 2 else section(0, 2)
        if not (sections_independent(independent, k, j)
                and sections_independent(independent, k, jp)):
            raise NumericalError("default causal triple sampler broke independence")
        out.append((j, k, jp))
    return out


def _h_causal_check(cfg):
    import numpy as np

    from .causal import check_causal_conditions, lattice_weyl_kernel, section_from_pairs

    kind = cfg.get("kernel", "lattice_weyl")
    if kind != "lattice_weyl":
        raise ConfigError(f"unknown causal kernel {kind!r}")
    kernel, independent = lattice_weyl_kernel(bool(cfg.get("nonlocal_violation", False)))
    spec = cfg.get("triples")
    if spec is not None:
        triples = []
        for i, triple in enumerate(spec):
            if not (isinstance(triple, (list, tuple)) and len(triple) == 3):
                raise ConfigError(f"triples[{i}]: each entry must hold 3 sections")
            triples.append(tuple(section_from_pairs(s) for s in triple))
    else:
        rng = np.random.default_rng(int(cfg["seed"]))
        triples = _random_triples(rng, int(cfg.get("count", 20)), independent)
    kwargs = {}
    if cfg.get("tol") is not None:
        kwargs["tol"] = float(cfg["tol"])
    verdict = check_causal_conditions(kernel, independent, triples, **kwargs)
    obj = {
        "passed": bool(verdict.passed),
        "normal_checked": int(verdict.normal_checked),
        "causal_checked": int(verdict.causal_checked),
        "normal_max": float(verdict.normal_max),
        "causal_max": float(verdict.causal_max),
        "tolerance": float(verdict.tolerance_used),
    }
    header = list(obj)
    row = [obj[k] for k in header]
    summary = {k: obj[k] for k in ("passed", "normal_max", "causal_max")}
    return {"csv": (header, [row]), "json": obj}, summary, []


_HANDLERS = {
    "kernel-eval": _h_kernel_eval,
    "kernel-gram": _h_kernel_gram,
    "kernel-check": _h_kernel_check,
    "qspace-build": _h_qspace_build,
    "quantize": _h_quantize,
    "dyn-coherent": _h_dyn_coherent,
    "dyn-tdvp": _h_dyn_tdvp,
    "dyn-lyapunov": _h_dyn_lyapunov,
    "spec-solve": _h_spec_solve,
    "lie-evolve": _h_lie_evolve,
    "causal-check": _h_causal_check,
}


# ------------------------------------------------------------ run + main


def run(config: dict) -> dict:
    """Execute one config dict; write payload + report; return the report.

    The returned dict carries one extra key, "report_path", that is not part
    of the serialized report.
    """
    command = config.get("command")
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    fmt = config.get("format", "csv" if command in _CSV_DEFAULT else "json")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    config = dict(config)
    config.setdefault("seed", 0)
    if not isinstance(config["seed"], int):
        raise ConfigError(f"seed must be an integer, got {config['seed']!r}")
    config["format"] = fmt

    start = time.perf_counter()
    payload, summary, warnings = _HANDLERS[command](config)
    wall = time.perf_counter() - start

    out_path = config.get("out") or f"cohspace-{command}.{fmt}"
    try:
        if fmt == "csv":
            header, rows = payload["csv"]
            artifacts.write_csv(out_path, header, rows)
        else:
            artifacts.write_json(out_path, _plain(payload["json"]))
        digest = artifacts.sha256_file(out_path)
    except OSError as exc:
        raise ConfigError(f"cannot write payload {out_path!r}: {exc}")

    report = {
        "command": command,
        "version": __version__,
        "config": _plain(config),
        "seed": int(config["seed"]),
        "threads": int(config.get("threads", 1)),
        "wall_time_s": wall,
        "warnings": [str(w) for w in warnings],
        "payload": {"path": out_path, "format": fmt, "sha256": digest},
        "summary": _plain(summary),
    }
    report_path = config.get("report") or out_path + ".report.json"
    try:
        artifacts.write_json(report_path, report)
    except OSError as exc:
        raise ConfigError(f"cannot write report {report_path!r}: {exc}")
    report["report_path"] = report_path
    return report


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) >= 2 and (argv[0], argv[1]) in _ALIASES:
        argv[:2] = [_ALIASES[(argv[0], argv[1])]]
    try:
        _pin_threads(_threads_from(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; keep its code
        code = exc.code
        return code if isinstance(code, int) else 2
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        config = _assemble_config(args)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(json.dumps(exc.payload(), sort_keys=True), file=sys.stderr)
        return 1
    print(json.dumps({
        "report": report["report_path"],
        "payload": report["payload"]["path"],
        "summary": report["summary"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
