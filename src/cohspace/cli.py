"""Command-line front end: one config in, two deterministic artifacts out.

Every run writes a payload (CSV or JSON with the numbers) and a JSON run
report echoing the complete effective configuration — defaults and seed
included — plus the payload's SHA-256, so a report and its input files
reproduce the run bit for bit.  Writes are atomic (temp file + rename), and
the writer hashes the payload's bytes as it writes them (see cohspace.io).

Each command is declared once, in SCHEMA: its handler, its default payload
format and its config fields.  The argparse flags, the config checks and the
defaults all come from that table.  The config and every descriptor in it
pass errors.check_fields: an unknown key, a missing required key or a value
of the wrong type is a configuration error that names the key ("space.dim").

A batch of labels (``points`` or ``count``) reaches the library as one
stack, (coords (n, d), multipliers (n,) or None), read by ``_labels_of``
in one array conversion; a single label (``z``, ``z2``, ``z0``) is its
one-row case.  Every number of a config, in labels, matrices, descriptors,
triples and fixed-length lists, is read by errors.check_numbers.

Each handler maps the effective config to (payload, summary, warnings).
The payload is lazy, {"csv": thunk, "json": thunk}, and run calls only the
thunk of the requested format: the CSV thunk gives a header and column
blocks (numpy arrays, or sequences of cells), the JSON thunk an object
whose numeric blocks stay ndarrays, and io.write_csv or io.write_json
renders them in bulk (see cohspace.io).  Most handlers declare their table
once, as columns (_columns), and both formats follow from it.

Thread pinning happens before any numeric import: the arguments and the
config file are read with the standard library alone, then the effective
thread count (--threads, else the config's "threads", else the
COHSPACE_THREADS variable, else 1) is applied to the BLAS/OpenMP
environment, which is why the package root must stay free of numpy imports.

Exit codes: 0 success, 1 domain error (diagnostic payload as JSON on stderr),
2 configuration / usage error.
"""
from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

from . import __version__
from . import io as artifacts
from .errors import (REQUIRED, TYPES, ConfigError, DomainError, NumberError, check_fields,
                     check_numbers, check_value, from_descriptor)

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# keys every command takes; "format" defaults to the command's own format
_COMMON = (
    ("seed", "int", 0),
    ("threads", "int", 1),
    ("format", "str", None),
    ("out", "str", None),
    ("report", "str", None),
)


# --------------------------------------------------------- thread pinning


def _pin_threads(cfg: dict) -> None:
    """Pin the BLAS/OpenMP pools to the effective thread count and record it
    as cfg["threads"]: the flag or config value already in cfg, else
    COHSPACE_THREADS, else 1 (single process)."""
    val = cfg.get("threads")
    if val is None:
        val = _parse_flag(os.environ.get("COHSPACE_THREADS", "1"), "int", "COHSPACE_THREADS")
    n = check_value("threads", "int", val)
    if n < 1:
        raise ConfigError(f"threads must be a positive integer, got {val!r}")
    cfg["threads"] = n
    for var in _BLAS_VARS:
        os.environ[var] = str(n)


# ------------------------------------------------------ fields and values


def _parse_flag(raw: str, kind: str, key: str):
    if kind in TYPES:
        convert, _, noun = TYPES[kind]
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{key!r} must be {noun}, got {raw!r}")
    try:  # structured values as JSON text, bare words stay strings
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _flag_fields(command: str) -> dict:
    """key -> type of every field the command's flags can set."""
    entry = SCHEMA[command]
    fields = list(entry.fields)
    for _, extra in (entry.systems or {}).values():
        fields += extra
    return {key: kind for key, kind, _ in fields}


def _effective(command: str, config: dict) -> dict:
    """The effective config: every key checked against the command's fields,
    defaults filled in, unset optional keys left out."""
    entry = SCHEMA[command]
    fields = _COMMON + entry.fields
    if entry.systems is not None:  # the chosen system adds its own fields
        system = config.get("system")
        system = entry.fields[0][2] if system is None else check_value("system", "str", system)
        if system not in entry.systems:
            raise ConfigError(f"unknown system {system!r} ({' or '.join(entry.systems)})")
        fields += entry.systems[system][1]
    given = {key: value for key, value in config.items() if key != "command"}
    cfg = {"command": command, **check_fields("", given, fields)}
    cfg.setdefault("format", entry.format)
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    return cfg


def _given(cfg: dict, *keys) -> dict:
    """The optional keys that are set, as keyword arguments for the library."""
    return {key: cfg[key] for key in keys if key in cfg}


# ------------------------------------------------------------ arg parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohspace",
        description="coherence-kernel toolbox: spaces, quantization, dynamics",
    )
    sub = parser.add_subparsers(dest="command")
    for command in SCHEMA:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON file with config fields; flags override it")
        sp.add_argument("--out", help="payload path (default cohspace-<command>.<format>)")
        sp.add_argument("--report", help="run report path (default <out>.report.json)")
        sp.add_argument("--format", choices=("csv", "json"), help="payload format")
        sp.add_argument("--seed", type=int, help="RNG seed (always recorded; default 0)")
        sp.add_argument("--threads", type=int, help="BLAS/OpenMP thread count (default 1)")
        for key in _flag_fields(command):
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=str, default=None)
    return parser


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
    for key, kind in _flag_fields(args.command).items():
        raw = getattr(args, key)
        if raw is not None:
            cfg[key] = _parse_flag(raw, kind, key)
    for key, _, _ in _COMMON:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    return cfg


# ------------------------------------------------------- shared builders


def _space_of(cfg):
    from .kernels import space_from_descriptor

    return space_from_descriptor(cfg["space"])


def _labels_of(entries, name, space=None):
    """Label entries (coordinate lists or {"coords", "multiplier"} objects; a
    coordinate is [re, im] or a real x) as coords (n, d) and multipliers (n,),
    or None unless every entry has one, read by one check_numbers call (errors
    name name(i), in list order).  A plain stack, every entry a list of d
    [re, im] pairs (d the space's label_dim, else the first entry's length),
    is that call on the entries as they are; any other stack, or one that
    call refuses, is read entry by entry into one list of pairs, so that an
    error names its entry.  Given a space, the labels before the first of
    another dimension are checked as one stack, then that one alone."""
    from .kernels import check_stack

    if {*map(type, entries)} == {list}:
        d = len(entries[0]) if space is None else space.label_dim
        if {*map(len, entries)} == {d}:
            try:
                return check_numbers(entries, name, (None, d, 2), pairs=True), None
            except NumberError:  # read again entry by entry, to name the entry at fault
                pass
    pairs, ends, has_mult = [], [], []  # entry i's pairs end at ends[i], with its multiplier

    def key(at):  # the entry holding pair at[0], whose last pair is its multiplier
        i = bisect.bisect_right(ends, at[0])
        return name(i) + (".multiplier" if at[0] == ends[i] - 1 else "")

    for i, p in enumerate(entries):
        c, m = ((p.get("coords"), p.get("multiplier"))
                if isinstance(p, dict) and p.keys() <= {"coords", "multiplier"} else (p, None))
        if not isinstance(c, (list, tuple)):
            check_numbers(pairs, key, (None, 2), pairs=True)  # an earlier bad number comes first
            if isinstance(p, dict):
                check_fields(name(i), p, (("coords", "json", REQUIRED),
                                          ("multiplier", "json", None)))
                raise ConfigError(f"{name(i)}: coordinates must be a list")
            raise ConfigError(f"{name(i)}: must be a coordinate list or an object with 'coords'")
        pairs += [x if isinstance(x, (list, tuple)) else (x, 0) for x in c]
        pairs.append([0, 0] if m is None else m)
        ends.append(len(pairs))
        has_mult.append(m is not None)
    z = check_numbers(pairs, key, (None, 2), pairs=True)
    width = ends[0] if space is None else space.label_dim + 1
    cut = next((i for i, end in enumerate(ends) if end != (i + 1) * width), len(ends))
    stack = z[:cut * width].reshape(cut, width)
    coords, mults = stack[:, :-1].copy(), stack[:, -1] if all(has_mult[:cut]) else None
    if cut < len(ends):
        check_stack(space, coords, mults)
        check_stack(space, z[ends[cut - 1] if cut else 0:ends[cut] - 1][None], None)
    return coords, mults


def _label_of(data, name):
    """One label as its one-row stack (coords (1, d), multipliers (1,) or None)."""
    return _labels_of([data], lambda i: name)


def _points_of(cfg, space):
    import numpy as np

    from .kernels import sample_points

    pts = cfg.get("points")
    if pts is not None:
        if not isinstance(pts, (list, tuple)) or not pts:
            raise ConfigError("'points' must be a non-empty list")
        return _labels_of(pts, lambda i: f"points[{i}]", space)
    count = cfg.get("count")
    if count is None:
        raise ConfigError("need either 'points' or 'count'")
    if count < 1:
        raise ConfigError("'count' must be positive")
    rng = np.random.default_rng(cfg["seed"])
    return sample_points(space, rng, count)


def _pair_columns(names):
    """CSV names of complex columns: <name>_re, <name>_im for each name."""
    return [f"{name}_{part}" for name in names for part in ("re", "im")]


def _t_eval_of(cfg):
    import numpy as np

    t0, t1 = check_numbers(cfg["t_span"], "t_span", (2,)).tolist()
    if cfg["samples"] < 2:
        raise ConfigError("'samples' must be at least 2")
    return (t0, t1), np.linspace(t0, t1, cfg["samples"])


def _spin_axis_hamiltonian(space, axis, coeff=1.0):
    import numpy as np

    from .liealg import pauli_matrices
    from .reps import SpinRep

    if space.kind not in ("spin", "spin_t"):
        raise ConfigError("spin_axis energies need a spin space")
    x, y, z = check_numbers(axis, "energy.axis", (3,)).tolist()
    sx, sy, sz = (s / 2 for s in pauli_matrices())
    rep = SpinRep(int(space.descriptor["exponent"]))
    with np.errstate(over="ignore", invalid="ignore"):  # MatrixExpectation rejects inf and NaN
        return rep.dgamma(coeff * (x * sx + y * sy + z * sz))


# energy kind -> (Hamiltonian matrix from (space, **fields), fields)
_ENERGIES = {
    "matrix": (lambda space, matrix: matrix, (("matrix", "matrix", REQUIRED),)),
    "spin_axis": (_spin_axis_hamiltonian, (("axis", "json", REQUIRED), ("coeff", "float", None))),
}


def _energy_of(cfg, space):
    from .tdvp import MatrixExpectation

    return MatrixExpectation(from_descriptor(cfg["energy"], _ENERGIES, "energy", space))


def _columns(columns, **extra):
    """The payload of a table declared once as (CSV names, JSON key or None,
    array) column blocks; the JSON object holds the keyed blocks and extra."""
    header = [name for names, _, _ in columns for name in names]
    return {"csv": lambda: (header, [block for _, _, block in columns]),
            "json": lambda: dict(extra, **{key: block for _, key, block in columns if key})}


def _one_row(obj, header):
    """The payload of a one-row table: the CSV has obj's values under header."""
    return {"csv": lambda: (header, [[obj[k]] for k in header]), "json": lambda: obj}


def _trajectory_payload(traj, with_energy):
    columns = [(["t"], "times", traj.times),
               (_pair_columns(f"c{j}" for j in range(traj.coords.shape[1])), "points", traj.coords)]
    if traj.multipliers is not None:
        columns.append((_pair_columns(["mult"]), "multipliers", traj.multipliers))
    if with_energy:
        columns.append((["energy"], "energies", traj.energies))
    columns.append((["norm"], "norms", traj.norms))
    if traj.chart_flags is not None:
        columns.append((["chart"], "charts", traj.chart_flags))
    return _columns(columns)


# ------------------------------------------------------------- handlers


def _h_kernel_eval(cfg):
    from .kernels import eval_kernel

    space = _space_of(cfg)
    v = eval_kernel(space, _label_of(cfg["z"], "z"), _label_of(cfg["z2"], "z2"))
    out = {"re": float(v.real), "im": float(v.imag)}
    return _one_row(out, ["re", "im"]), dict(out), []


def _h_kernel_gram(cfg):
    from .kernels import gram_matrix

    space = _space_of(cfg)
    g = gram_matrix(space, *_points_of(cfg, space))
    n = g.shape[0]
    payload = _columns([(_pair_columns(f"k{j}" for j in range(n)), "gram", g)],
                       space=dict(space.descriptor))
    return payload, {"points": n, "hermitian": bool(space.hermitian)}, []


def _h_kernel_check(cfg):
    from .kernels import check_coherence

    space = _space_of(cfg)
    coords, mults = _points_of(cfg, space)
    verdict = check_coherence(space, coords, mults, **_given(cfg, "tol"))
    obj = {
        "passed": bool(verdict.passed),
        "min_eigenvalue": float(verdict.min_eigenvalue),
        "gram_norm": float(verdict.gram_norm),
        "tolerance": float(verdict.tolerance_used),
        "points": len(coords),
        "space": dict(space.descriptor),
    }
    payload = _one_row(obj, ["passed", "min_eigenvalue", "gram_norm", "tolerance", "points"])
    summary = {k: obj[k] for k in ("passed", "min_eigenvalue", "tolerance")}
    return payload, summary, []


def _h_qspace_build(cfg):
    from .qspace import build_quantum_space

    space = _space_of(cfg)
    qb = build_quantum_space(space, *_points_of(cfg, space), **_given(cfg, "tol"))
    index = range(len(qb.eigvals))
    summary = {"rank": int(qb.rank), "size": int(qb.size)}
    payload = _columns([(["index"], None, index), (["eigenvalue"], "eigenvalues", qb.eigvals),
                        (["retained"], None, [i < qb.rank for i in index])],
                       truncation_tol=float(qb.truncation_tol), space=dict(space.descriptor),
                       **summary)
    return payload, summary, []


def _linear_map(space, matrix, renormalize=False):
    from .kernels import linear_point_map

    d = space.label_dim
    if matrix.shape != (d, d):
        raise ConfigError(f"'map.matrix' is {matrix.shape}, expected ({d}, {d}) for the space's "
                          "labels")
    return linear_point_map(matrix, renormalize)


_MAPS = {"linear": (_linear_map, (("matrix", "matrix", REQUIRED), ("renormalize", "bool", None)))}


def _h_quantize(cfg):
    from .qspace import build_quantum_space
    from .quantize import quantize_map

    space = _space_of(cfg)
    qb = build_quantum_space(space, *_points_of(cfg, space))
    op = quantize_map(qb, from_descriptor(cfg["map"], _MAPS, "map", space), **_given(cfg, "tol"))
    summary = {"residual": float(op.residual), "rank": int(qb.rank)}
    names = (f"g{j}" for j in range(op.matrix.shape[0]))
    payload = _columns([(_pair_columns(names), "matrix", op.matrix)],
                       space=dict(space.descriptor), **summary)
    return payload, summary, []


def _h_dyn_coherent(cfg):
    from .dynamics import coherent_flow

    space = _space_of(cfg)
    generator = check_numbers(cfg["generator"], "generator", (None, None, 2), pairs=True)
    z0 = _label_of(cfg["z0"], "z0")
    t_span, t_eval = _t_eval_of(cfg)
    traj = coherent_flow(space, generator, z0, t_span, t_eval, hbar=cfg["hbar"])
    payload = _trajectory_payload(traj, with_energy=False)
    return payload, {"final_norm": float(traj.norms[-1])}, []


def _h_dyn_tdvp(cfg):
    from .tdvp import dirac_frenkel_flow

    space = _space_of(cfg)
    energy = _energy_of(cfg, space)
    z0 = _label_of(cfg["z0"], "z0")
    t_span, t_eval = _t_eval_of(cfg)
    traj = dirac_frenkel_flow(space, energy, z0, t_span, t_eval,
                              rtol=cfg["rtol"], hbar=cfg["hbar"])
    payload = _trajectory_payload(traj, with_energy=True)
    summary = {
        "steps": int(traj.stats.steps),
        "rhs_evals": int(traj.stats.rhs_evals),
        "h_min": float(traj.stats.h_min),
        "h_max": float(traj.stats.h_max),
        "energy_drift": float(traj.energy_drift),
        "chart_switches": int(traj.chart_switches),
    }
    return payload, summary, []


def _kicked_top_exponent(cfg):
    from .chaos import KickedTop, lyapunov_kicked, spinor_from_bloch

    top = KickedTop(cfg["spin"], kick=cfg["kick"], precession=cfg["precession"])
    if "z0" in cfg:
        z0 = _label_of(cfg["z0"], "z0")
    else:
        z0 = spinor_from_bloch(check_numbers(cfg["bloch0"], "bloch0", (3,)))
    return lyapunov_kicked(top, z0, n_periods=cfg["periods"], seed=cfg["seed"])


def _continuous_exponent(cfg):
    from .chaos import lyapunov_continuous

    space = _space_of(cfg)
    energy = _energy_of(cfg, space)
    return lyapunov_continuous(
        space, energy, _label_of(cfg["z0"], "z0"),
        t_total=cfg["t_total"], resample=cfg["resample"], rtol=cfg["rtol"],
        hbar=cfg["hbar"], seed=cfg["seed"],
    )


def _h_dyn_lyapunov(cfg):
    exponent, _ = SCHEMA["dyn-lyapunov"].systems[cfg["system"]]
    res = exponent(cfg)
    summary = {
        "exponent": float(res.exponent),
        "tail_gap": float(res.tail_gap),
        "chart_switches": int(res.chart_switches),
    }
    payload = _columns([(["segment"], None, range(1, res.segments + 1)),
                        (["time"], "times", res.times),
                        (["running_estimate"], "running", res.running)], **summary)
    report = dict(summary, segments=int(res.segments))
    if res.stats is not None:  # the integrator's work, in the report only
        report.update(steps=int(res.stats.steps), rhs_evals=int(res.stats.rhs_evals),
                      h_min=float(res.stats.h_min), h_max=float(res.stats.h_max))
    return payload, report, []


# model kind -> (factory of (the spectra module, **fields), fields)
_MODELS = {
    "oscillator": (lambda spectra, **params: spectra.oscillator_model(**params), (
        ("omega", "positive", None), ("hbar", "positive", None), ("n_max", "int", None))),
    "coulomb": (lambda spectra, **params: spectra.coulomb_model(**params), (
        ("mass", "positive", None), ("alpha", "float", None), ("hbar", "positive", None),
        ("n_max", "int", None))),
    "free_particle": (lambda spectra, **params: spectra.free_particle_model(**params), (
        ("mass", "nonnegative", None), ("c", "positive", None), ("p_max", "positive", None))),
}


def _h_spec_solve(cfg):
    from . import spectra

    model = from_descriptor(cfg["model"], _MODELS, "model", spectra)
    interval = tuple(check_numbers(cfg["interval"], "interval", (2,)).tolist())
    res = spectra.solve_implicit_spectrum(model, interval, **_given(cfg, "tol", "grid"))
    header = ["kind", "branch", "energy_lo", "energy_hi", "residual"]
    rows = ([("discrete", n, e, e, r) for n, e, r in res.discrete]
            + [("continuous", -1, lo, hi, "") for lo, hi in res.continuous])
    payload = {
        "csv": lambda: (header, list(zip(*rows)) or [()] * len(header)),
        "json": lambda: {
            "discrete": [{"branch": n, "energy": e, "residual": r} for n, e, r in res.discrete],
            "continuous": [{"lo": lo, "hi": hi} for lo, hi in res.continuous],
            "search_interval": res.search_interval,
        },
    }
    summary = {"n_discrete": len(res.discrete), "n_continuous": len(res.continuous)}
    return payload, summary, list(res.warnings)


def _algebra_of(cfg):
    from .liealg import CATALOG, algebra_from_descriptor

    spec = cfg["algebra"]
    if isinstance(spec, str):
        if spec not in CATALOG:
            raise ConfigError(f"unknown algebra {spec!r}; catalog: {', '.join(sorted(CATALOG))}")
        return CATALOG[spec]()
    if isinstance(spec, dict):
        return algebra_from_descriptor(spec), None
    raise ConfigError("'algebra' must be a catalog name or a descriptor object")


def _coeff_vector(data, algebra, what):
    if isinstance(data, str):
        if data not in algebra.basis_names:
            raise ConfigError(f"{what}: unknown basis element {data!r}")
        return algebra.basis_vector(algebra.basis_names.index(data))
    return check_numbers(data, what, (algebra.dim, 2), pairs=True)


# a lie-evolve state gives exactly one of these
_STATE = (("density", "matrix", None), ("form", "matrix", None))


def _h_lie_evolve(cfg):
    from .liealg import (AlgebraState, algebra_descriptor, evolve_expectations,
                         state_from_density)

    algebra, rep = _algebra_of(cfg)
    h = _coeff_vector(cfg["hamiltonian"], algebra, "hamiltonian")
    spec = cfg["state"]
    spec = check_fields("state", spec, _STATE) if isinstance(spec, dict) else {}
    if len(spec) != 1:
        raise ConfigError("'state' must be an object with one of 'density' and 'form'")
    if "density" in spec:
        if rep is None:
            raise ConfigError("density states need an algebra with a catalog rep")
        state = state_from_density(algebra, rep, spec["density"])
    else:
        state = AlgebraState(algebra, spec["form"])
    obs_spec = cfg["observables"]
    if not isinstance(obs_spec, (list, tuple)) or not obs_spec:
        raise ConfigError("'observables' must be a non-empty list")
    names = [o if isinstance(o, str) else f"obs{i}" for i, o in enumerate(obs_spec)]
    observables = [_coeff_vector(o, algebra, f"observables[{i}]")
                   for i, o in enumerate(obs_spec)]
    t_span, t_eval = _t_eval_of(cfg)
    table = evolve_expectations(algebra, rep, h, state, observables, t_span, t_eval=t_eval)
    cross = table.final_cross_check
    cross = None if cross is None else float(cross)
    payload = _columns([(["t"], "times", table.times),
                        (_pair_columns(names), "values", table.values)],
                       observables=names, algebra=algebra_descriptor(algebra),
                       final_cross_check=cross)
    return payload, {"final_cross_check": cross, "observables": len(names)}, []


def _random_triples(rng, count):
    """Deterministic (j, k, j') triples of [t, x, re, im] rows in spacelike bands.

    Times stay in [0, 5]; j lives at x in [0, 2] and k at x in [8, 10], so
    k is strictly spacelike to j by construction.  j' alternates between the
    j band (timelike-entangled pair, causality check only) and a far band at
    x in [16, 18] (independent pair, so the normalization check runs too).
    A site drawn twice in one section keeps its last amplitude.
    """

    def section(x_lo, x_hi):
        vals = {}
        for _ in range(int(rng.integers(1, 3))):
            site = (int(rng.integers(0, 6)), int(rng.integers(x_lo, x_hi + 1)))
            vals[site] = [float(rng.standard_normal()), float(rng.standard_normal())]
        return [[*site, *v] for site, v in vals.items()]

    return [[section(0, 2), section(8, 10), section(16, 18) if i % 2 else section(0, 2)]
            for i in range(count)]


def _h_causal_check(cfg):
    import numpy as np

    from .causal import check_causal_conditions, lattice_weyl_kernel, triples_from_rows

    if cfg["kernel"] != "lattice_weyl":
        raise ConfigError(f"unknown causal kernel {cfg['kernel']!r}")
    kernel, independent = lattice_weyl_kernel(cfg["nonlocal_violation"])
    spec = cfg.get("triples")
    if spec is None:
        spec = _random_triples(np.random.default_rng(cfg["seed"]), cfg["count"])
    obj = check_causal_conditions(kernel, independent, triples_from_rows(spec),
                                  **_given(cfg, "tol"))._asdict()
    summary = {k: obj[k] for k in ("passed", "normal_max", "causal_max")}
    return _one_row(obj, list(obj)), summary, []


# ------------------------------------------------------------ the schema


class Command(NamedTuple):
    handler: Callable[[dict], tuple]
    format: str              # default payload format
    fields: tuple            # (key, type, default)
    # dyn-lyapunov: system -> (exponent runner, the system's own fields); the
    # command's own fields are then just ("system", "str", default system)
    systems: Optional[dict] = None


_POINTS = (("space", "json", REQUIRED), ("points", "json", None), ("count", "int", None))
_FLOW = (("space", "json", REQUIRED), ("z0", "json", REQUIRED), ("t_span", "json", REQUIRED),
         ("samples", "int", 101), ("hbar", "positive", 1.0))

SCHEMA = {
    "kernel-eval": Command(_h_kernel_eval, "json", (
        ("space", "json", REQUIRED), ("z", "json", REQUIRED), ("z2", "json", REQUIRED))),
    "kernel-gram": Command(_h_kernel_gram, "csv", _POINTS),
    "kernel-check": Command(_h_kernel_check, "json", _POINTS + (("tol", "positive", None),)),
    "qspace-build": Command(_h_qspace_build, "csv", _POINTS + (("tol", "positive", None),)),
    "quantize": Command(_h_quantize, "csv", _POINTS + (
        ("map", "json", REQUIRED), ("tol", "positive", None))),
    "dyn-coherent": Command(_h_dyn_coherent, "csv", _FLOW + (("generator", "json", REQUIRED),)),
    "dyn-tdvp": Command(_h_dyn_tdvp, "csv", _FLOW + (
        ("energy", "json", REQUIRED), ("rtol", "positive", 1e-9))),
    "dyn-lyapunov": Command(_h_dyn_lyapunov, "csv", (("system", "str", "kicked_top"),), {
        "kicked_top": (_kicked_top_exponent, (
            ("kick", "float", REQUIRED), ("spin", "int", 40),
            ("precession", "float", math.pi / 2), ("periods", "int", 2000),
            ("bloch0", "json", (0.62, 0.4, 0.68)), ("z0", "json", None))),
        "continuous": (_continuous_exponent, (
            ("space", "json", REQUIRED), ("energy", "json", REQUIRED), ("z0", "json", REQUIRED),
            ("t_total", "positive", 200.0), ("resample", "positive", 1.0),
            ("rtol", "positive", 1e-10), ("hbar", "positive", 1.0))),
    }),
    "spec-solve": Command(_h_spec_solve, "csv", (
        ("model", "json", REQUIRED), ("interval", "json", REQUIRED),
        ("tol", "positive", None), ("grid", "int", None))),
    "lie-evolve": Command(_h_lie_evolve, "csv", (
        ("algebra", "json", REQUIRED), ("hamiltonian", "json", REQUIRED),
        ("state", "json", REQUIRED), ("observables", "json", REQUIRED),
        ("t_span", "json", REQUIRED), ("samples", "int", 201))),
    "causal-check": Command(_h_causal_check, "json", (
        ("kernel", "str", "lattice_weyl"), ("nonlocal_violation", "bool", False),
        ("triples", "json", None), ("count", "int", 20), ("tol", "positive", None))),
}

# two-word spellings accepted on the command line
_ALIASES = {tuple(c.split("-")): c for c in SCHEMA if "-" in c}
_ALIASES[("quantize", "map")] = "quantize"


# ------------------------------------------------------------ run + main


def run(config: dict) -> dict:
    """Execute one config dict; write payload + report; return the report.

    The report's "config" is the effective config (see _effective).  The
    returned dict carries one extra key, "report_path", that is not part of
    the serialized report.
    """
    command = config.get("command")
    if command not in SCHEMA:
        raise ConfigError(f"unknown command {command!r}")
    cfg = _effective(command, config)
    fmt = cfg["format"]

    start = time.perf_counter()
    payload, summary, warnings = SCHEMA[command].handler(cfg)
    wall = time.perf_counter() - start

    out_path = cfg.get("out") or f"cohspace-{command}.{fmt}"
    content = payload[fmt]()
    try:
        if fmt == "csv":
            digest = artifacts.write_csv(out_path, *content)
        else:
            digest = artifacts.write_json(out_path, content)
    except OSError as exc:
        raise ConfigError(f"cannot write payload {out_path!r}: {exc}")

    report = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "seed": cfg["seed"],
        "threads": cfg["threads"],
        "wall_time_s": wall,
        "warnings": [str(w) for w in warnings],
        "payload": {"path": out_path, "format": fmt, "sha256": digest},
        "summary": summary,
    }
    report_path = cfg.get("report") or out_path + ".report.json"
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
        _pin_threads(config)
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
    }, sort_keys=True, default=lambda value: value.tolist()))  # numpy scalars as python
    return 0


if __name__ == "__main__":
    sys.exit(main())
