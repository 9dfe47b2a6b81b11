"""End-to-end checks of the command-line front end.

Most tests drive cli.main() in-process for speed; environment handling goes
through a real subprocess.  Each case works inside tmp_path so the default
artifact names never collide.  Subprocesses get the ``subprocess_env``
fixture from tests/conftest.py, whose PYTHONPATH starts with the absolute
directory this process imported cohspace from, so they import the same
cohspace as the test process, installed or not.
"""
import dataclasses
import hashlib
import inspect
import json
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from labels import label
from cohspace import causal, cli, errors, kernels, liealg
from cohspace import io as artifacts
from cohspace.errors import ConfigError, InvalidPointError
from cohspace.kernels import eval_kernel, space_from_descriptor
from cohspace.liealg import algebra_from_descriptor


def run_cli(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ------------------------------------------------------------ basic runs


def test_kernel_eval_orthogonal_labels(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["kernel-eval", "--space", '{"kind":"trivial","dim":2}',
         "--z", "[1,0]", "--z2", "[0,1]"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "cohspace-kernel-eval.json").read_text())
    assert payload == {"re": 0.0, "im": 0.0}
    assert json.loads(out)["summary"]["re"] == 0.0


def test_spec_solve_oscillator_half_integers(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["spec-solve", "--model", "oscillator", "--interval", "[0,10]",
         "--out", "osc.csv"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    header, rows = read_csv(tmp_path / "osc.csv")
    energies = [float(r[header.index("energy_lo")]) for r in rows
                if r[0] == "discrete"]
    assert energies == pytest.approx([n + 0.5 for n in range(10)], abs=1e-10)


@pytest.mark.parametrize("model, interval, roots, warnings", [
    ("oscillator", "[0,100]", 33,
     ["branches above n_max=32 may have roots in [0, 100]; raise n_max"]),
    ("oscillator", "[0,10]", 10, []),
    ("coulomb", "[-0.6,-0.015]", 5, []),
])
def test_spec_solve_warns_when_the_last_branch_has_a_root(tmp_path, monkeypatch, capsys,
                                                          model, interval, roots, warnings):
    code, out, _ = run_cli(["spec-solve", "--model", model, "--interval", interval],
                           tmp_path, monkeypatch, capsys)
    assert code == 0
    report = json.loads((tmp_path / json.loads(out)["report"]).read_text())
    assert report["summary"]["n_discrete"] == roots
    assert report["warnings"] == warnings


def test_lyapunov_kicked_cli_positive_exponent(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["dyn-lyapunov", "--kick", "3.0", "--spin", "8", "--periods", "150",
         "--out", "top.csv", "--report", "top.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    report = json.loads((tmp_path / "top.json").read_text())
    assert report["summary"]["exponent"] > 0.1
    header, rows = read_csv(tmp_path / "top.csv")
    assert header == ["segment", "time", "running_estimate"]
    assert len(rows) == 150
    assert float(rows[-1][2]) == pytest.approx(report["summary"]["exponent"])


def test_dyn_coherent_keeps_norm(tmp_path, monkeypatch, capsys):
    gen = json.dumps([[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]])
    code, _, _ = run_cli(
        ["dyn-coherent", "--space", '{"kind":"spin","exponent":2}',
         "--generator", gen, "--z0", "[[1,0],[0,0]]",
         "--t-span", "[0,3]", "--samples", "7", "--out", "traj.csv"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    header, rows = read_csv(tmp_path / "traj.csv")
    assert header[:3] == ["t", "c0_re", "c0_im"]
    norms = [float(r[header.index("norm")]) for r in rows]
    assert norms == pytest.approx([1.0] * 7, abs=1e-9)


def test_dyn_tdvp_energy_columns(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["dyn-tdvp", "--space", '{"kind":"spin","exponent":4}',
         "--energy", '{"kind":"spin_axis","axis":[0,0,1],"coeff":1.0}',
         "--z0", "[[0.8,0],[0.6,0]]", "--t-span", "[0,2]", "--samples", "5",
         "--out", "t.csv", "--report", "t.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    header, rows = read_csv(tmp_path / "t.csv")
    assert "energy" in header and "chart" in header
    energies = [float(r[header.index("energy")]) for r in rows]
    assert max(abs(e - energies[0]) for e in energies) < 1e-8
    report = json.loads((tmp_path / "t.json").read_text())
    assert report["summary"]["energy_drift"] < 1e-8


def test_lie_evolve_named_observables(tmp_path, monkeypatch, capsys):
    rho = [[[0.7, 0], [0.15, -0.05]], [[0.15, 0.05], [0.3, 0]]]
    code, _, _ = run_cli(
        ["lie-evolve", "--algebra", "su2_qubit",
         "--hamiltonian", "[[0,0],[0,0],[0,0],[0.65,0]]",
         "--state", json.dumps({"density": rho}),
         "--observables", '["pauli_x","pauli_y","pauli_z"]',
         "--t-span", "[0,3]", "--samples", "4", "--out", "lie.csv",
         "--report", "lie.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    header, rows = read_csv(tmp_path / "lie.csv")
    assert header == ["t", "pauli_x_re", "pauli_x_im", "pauli_y_re",
                      "pauli_y_im", "pauli_z_re", "pauli_z_im"]
    # sigma_z commutes with the drive; sigma_x/y precess on the r3 circle
    z_col = [float(r[5]) for r in rows]
    assert z_col == pytest.approx([0.4] * 4, abs=1e-9)
    report = json.loads((tmp_path / "lie.json").read_text())
    assert report["summary"]["final_cross_check"] < 1e-8


def test_causal_check_default_and_violation(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["causal-check", "--count", "12", "--out", "ok.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    ok = json.loads((tmp_path / "ok.json").read_text())
    assert ok["passed"] and ok["causal_checked"] == 12
    assert ok["normal_checked"] > 0
    code, _, _ = run_cli(
        ["causal-check", "--count", "12", "--nonlocal-violation", "true",
         "--out", "bad.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0  # a failed verdict is a finding, not a crash
    bad = json.loads((tmp_path / "bad.json").read_text())
    assert not bad["passed"]
    assert bad["causal_max"] > bad["tolerance"]


_TRIPLE = [[[0, 0, 1.0, 0.0]], [[0, 9, 1.0, 0.0]], [[0, 18, 1.0, 0.0]]]
_SITES = "sites t and x must be integers with |t|, |x| <= 2^53"
_ROWS = "section rows must be [t, x, re, im] numbers"


def _with_row(row):
    return [[row], *_TRIPLE[1:]]


@pytest.mark.parametrize("triple, message", [
    (_with_row([0, 0, float("nan"), 0.0]), "amplitudes re and im must be finite"),
    (_with_row([0.7, 0, 1.0, 0.0]), _SITES),
    (_with_row([1e300, 0, 1.0, 0.0]), _SITES),
    (_with_row([10**300, 0, 1.0, 0.0]), _SITES),
    (_with_row([2**53 + 2, 0, 1.0, 0.0]), _SITES),
    (_with_row([0, True, 1.0, 0.0]), _ROWS),
    (_with_row([0, 0, "1", 0.0]), _ROWS),
    (_with_row([0, 0, 1.0]), _ROWS),
    (_with_row([0, 10**400, 1.0, 0.0]), "section rows hold an integer beyond float64"),
    (_TRIPLE[:2], "each entry must hold 3 sections [j, k, j']"),
    ([[], 5, []], "a section must be a list of [t, x, re, im] rows"),
], ids=["nan-amplitude", "fractional-t", "float-1e300-t", "int-1e300-t", "t-beyond-2^53",
        "bool-x", "string-re", "short-row", "int-beyond-float64", "two-sections", "number-section"])
def test_exit_2_names_the_first_bad_triple(tmp_path, monkeypatch, capsys, triple, message):
    code, out, err = run_cli(["causal-check", "--triples", json.dumps([_TRIPLE, triple, triple])],
                             tmp_path, monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err == f"config error: triples[1]: {message}\n"


_HALF = [[[0.5, 0, 1.0, 0.0]], *_TRIPLE[1:]]  # a fractional site in the first row


@pytest.mark.parametrize("triples, message", [
    ([_HALF, _with_row([0, True, 1.0, 0.0])], f"triples[0]: {_SITES}"),
    ([_TRIPLE, [[[0.5, 0, 1.0, 0.0], [0, 0, float("nan"), 0.0]], *_TRIPLE[1:]]],
     f"triples[1]: {_SITES}"),
    ([_TRIPLE, [[[0, 0, float("nan"), 0.0], [0, True, 1.0, 0.0]], *_TRIPLE[1:]]],
     "triples[1]: amplitudes re and im must be finite"),
    ([_TRIPLE, [[[0.5, 0, 1.0, "1"]], *_TRIPLE[1:]]], f"triples[1]: {_ROWS}"),
    ([_TRIPLE, _HALF, _TRIPLE[:2]], f"triples[1]: {_SITES}"),
    ([_TRIPLE[:2], _with_row([0, 10**400, 1.0, 0.0])], "triples[0]: each entry must hold 3 "
                                                        "sections [j, k, j']"),
], ids=["earlier-triple-site", "earlier-row-site", "earlier-row-amplitude", "numbers-before-site",
        "site-before-later-sections", "sections-before-later-rows"])
def test_the_first_fault_in_reading_order_names_the_triple(tmp_path, monkeypatch, capsys,
                                                           triples, message):
    # the first bad triple is named; in it, its sections, then each row's numbers, then its sites
    code, out, err = run_cli(["causal-check", "--triples", json.dumps(triples)],
                             tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


_SPIN2 = ["--space", '{"kind":"spin","exponent":2}']
_COHERENT_RUN = ["dyn-coherent"] + _SPIN2 + ["--z0", "[[1,0],[0,0]]", "--t-span", "[0,1]",
                                            "--samples", "3", "--generator"]
_GRAM_RUN = ["kernel-gram", "--count", "3", "--space"]
_LIE_RUN = ["lie-evolve", "--algebra", "su2_qubit", "--observables", '["pauli_z"]', "--t-span",
            "[0,1]", "--state"]
_UNIT_FORM = json.dumps({"form": np.stack([np.eye(4), np.zeros((4, 4))], -1).tolist()})
_SHORT_FIRST_ROW = "[[[1,0]],[[0,0],[1,0]]]"


@pytest.mark.parametrize("args, message", [
    (_COHERENT_RUN + ['[[[true,0],[0,0]],[[0,0],["1",0]]]'],
     "'generator[0][0]' must be a finite number, got True"),
    (_COHERENT_RUN + ["[[[1,0],[0,0]],[[0,0],[NaN,0]]]"],
     "'generator[1][1]' must be a finite number, got nan"),
    (_GRAM_RUN + ['{"kind":"debranges","coeffs":[[true,0],[0,3],[1,0]]}'],
     "'space.coeffs[0]' must be a finite number, got True"),
    (_GRAM_RUN + ['{"kind":"debranges","coeffs":[[1,0],[0,NaN],[1,0]]}'],
     "'space.coeffs[1]' must be a finite number, got nan"),
    (_GRAM_RUN + ['{"kind":"power","n":2,"base":{"kind":"debranges","coeffs":[[1,0],[0,"3"]]}}'],
     "'space.base.coeffs[1]' must be a finite number, got '3'"),
    (_GRAM_RUN + ['{"kind":"discrete","table":[[[1,0],[0,0]],[[0,0],[true,0]]]}'],
     "'space.table[1][1]' must be a finite number, got True"),
    (_GRAM_RUN + ['{"kind":"discrete","table":[[[1,0],[0,0]],[[0,0],[1,Infinity]]]}'],
     "'space.table[1][1]' must be a finite number, got inf"),
    (_GRAM_RUN + ['{"kind":"discrete","table":[[[1,0],[0,0]],[[0,0],[1]]]}'],
     "'space.table[1][1]' must be a list of 2 numbers, got [1]"),
    (_GRAM_RUN + ['{"kind":"discrete","table":[[[1,0],[0,0]],[[0,0]]]}'],
     "'space.table[1]' must be a list of 2 lists, got [[0, 0]]"),
    (["quantize", "--count", "6"] + _SPIN2
     + ["--map", '{"kind":"linear","matrix":[[[1,0],[0,0]],[[0,0],["1",-0.0]]]}'],
     "'map.matrix[1][1]' must be a finite number, got '1'"),
    (["dyn-tdvp", "--z0", "[1,0]", "--t-span", "[0,1]", "--space", '{"kind":"spin","exponent":1}',
      "--energy", '{"kind":"matrix","matrix":[[[1,0],[0,0]],[[0,0],[false,0]]]}'],
     "'energy.matrix[1][1]' must be a finite number, got False"),
    (_LIE_RUN + ['{"density":[[[1,0],[0,0]],[[0,0],[0,NaN]]]}', "--hamiltonian", "pauli_z"],
     "'state.density[1][1]' must be a finite number, got nan"),
    (_LIE_RUN + [_UNIT_FORM, "--hamiltonian", "[[0,0],[0,0],[0,0],[1,true]]"],
     "'hamiltonian[3]' must be a finite number, got True"),
    # a matrix's row count fixes its row length; the first row's length used
    # to, so these three named the second row and the last one reached the
    # command's shape check ("generator is (1, 2), expected (2, 2)")
    (_COHERENT_RUN + [_SHORT_FIRST_ROW], "'generator[0]' must be a list of 2 lists, got [[1, 0]]"),
    (["quantize", "--count", "6"] + _SPIN2
     + ["--map", f'{{"kind":"linear","matrix":{_SHORT_FIRST_ROW}}}'],
     "'map.matrix[0]' must be a list of 2 lists, got [[1, 0]]"),
    (_GRAM_RUN + [f'{{"kind":"discrete","table":{_SHORT_FIRST_ROW}}}'],
     "'space.table[0]' must be a list of 2 lists, got [[1, 0]]"),
    (_COHERENT_RUN + ["[[[1,0],[0,0]]]"],
     "'generator[0]' must be a list of 1 lists, got [[1, 0], [0, 0]]"),
], ids=["generator-bool-and-string", "generator-nan", "coeffs-bool", "coeffs-nan",
        "base-coeffs-string", "table-bool", "table-inf", "table-one-number", "table-ragged",
        "map-string", "energy-bool", "density-nan", "coefficient-bool",
        "generator-short-first-row", "map-short-first-row", "table-short-first-row",
        "generator-rectangular"])
def test_exit_2_names_the_first_bad_matrix_or_descriptor_entry(tmp_path, monkeypatch, capsys,
                                                              args, message):
    # each of these exited 0, exited 1 naming an overflow, ended in a
    # traceback or named the wrong row
    code, out, err = run_cli(args, tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"
    assert not list(tmp_path.glob("cohspace-*"))


def test_quantize_linear_map(tmp_path, monkeypatch, capsys):
    flip = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    code, _, _ = run_cli(
        ["quantize", "--space", '{"kind":"spin","exponent":1}', "--count", "6",
         "--map", json.dumps({"kind": "linear", "matrix": flip}),
         "--format", "json", "--out", "q.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "q.json").read_text())
    assert payload["rank"] == 2
    assert payload["residual"] < 1e-6
    m = np.array(payload["matrix"])[..., 0] + 1j * np.array(payload["matrix"])[..., 1]
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-8)


# -------------------------------------------------- determinism contract


def test_identical_config_gives_identical_payload_bytes(tmp_path, monkeypatch, capsys):
    cases = [
        ["kernel-gram", "--space", '{"kind":"klauder","modes":3}', "--count", "8",
         "--seed", "11"],
        ["dyn-coherent", "--space", '{"kind":"klauder","modes":1}',
         "--generator", "[[[0,0],[0,0]],[[0,0],[1.3,0]]]", "--z0", "[[0.2,0.1],[1.1,-0.4]]",
         "--t-span", "[0,75]"],
        ["lie-evolve", "--algebra", "su2_qubit", "--hamiltonian", "pauli_z",
         "--state", '{"density": [[[0.7,0],[0.15,-0.05]],[[0.15,0.05],[0.3,0]]]}',
         "--observables", '["pauli_x","pauli_y","pauli_z"]', "--t-span", "[0,50]"],
    ]
    for args in cases:
        name = args[0]
        for out in (f"{name}-a.csv", f"{name}-b.csv"):
            code, _, _ = run_cli(args + ["--out", out], tmp_path, monkeypatch, capsys)
            assert code == 0, args
        a, b = tmp_path / f"{name}-a.csv", tmp_path / f"{name}-b.csv"
        assert a.read_bytes() == b.read_bytes()
        sha_a = json.loads((tmp_path / f"{a.name}.report.json").read_text())["payload"]["sha256"]
        sha_b = json.loads((tmp_path / f"{b.name}.report.json").read_text())["payload"]["sha256"]
        assert sha_a == sha_b


# one small run per command (two for dyn-lyapunov, one per system)
_FLIP = json.dumps({"kind": "linear", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]})
_SPIN4 = ["--space", '{"kind":"spin","exponent":4}',
          "--energy", '{"kind":"spin_axis","axis":[0.3,0,1],"coeff":1.0}',
          "--z0", "[[0.8,0],[0.6,0]]"]
_RUNS = [
    ["kernel-eval", "--space", '{"kind":"trivial","dim":2}', "--z", "[1,0]",
     "--z2", "[0.6,0.8]"],
    ["kernel-gram", "--space", '{"kind":"spin","exponent":2}', "--count", "4", "--seed", "9"],
    ["kernel-check", "--space", '{"kind":"spin","exponent":0.6}', "--count", "6"],
    ["qspace-build", "--space", "icosahedron", "--count", "12", "--seed", "5"],
    ["quantize", "--space", '{"kind":"spin","exponent":1}', "--count", "6", "--map", _FLIP],
    ["dyn-coherent", "--space", '{"kind":"spin","exponent":2}',
     "--generator", "[[[0,0],[0,-0.5]],[[0,0.5],[0,0]]]", "--z0", "[[1,0],[0,0]]",
     "--t-span", "[0,3]", "--samples", "7"],
    ["dyn-tdvp"] + _SPIN4 + ["--t-span", "[0,2]", "--samples", "5"],
    ["dyn-lyapunov", "--kick", "3.0", "--spin", "8", "--periods", "20"],
    ["dyn-lyapunov", "--system", "continuous"] + _SPIN4 + ["--t-total", "4"],
    ["spec-solve", "--model", "oscillator", "--interval", "[0,4]"],
    ["lie-evolve", "--algebra", "su2_qubit", "--hamiltonian", "pauli_z",
     "--state", '{"density": [[[0.7,0],[0.15,-0.05]],[[0.15,0.05],[0.3,0]]]}',
     "--observables", '["pauli_x","pauli_y","pauli_z"]', "--t-span", "[0,2]", "--samples", "3"],
    ["causal-check", "--count", "6"],
]


def _defaulted_keys(cfg):
    entry = cli.SCHEMA[cfg["command"]]
    fields = cli._COMMON + entry.fields
    if entry.systems is not None:
        fields += entry.systems[cfg["system"]][1]
    return {key for key, _, default in fields
            if default is not None and default is not cli.REQUIRED}


def test_report_config_echo_reproduces_run(tmp_path, monkeypatch, capsys):
    assert {args[0] for args in _RUNS} == set(cli.SCHEMA)
    for i, args in enumerate(_RUNS):
        code, _, err = run_cli(args + ["--out", f"a{i}", "--report", f"a{i}.json"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0, (args, err)
        echoed = json.loads((tmp_path / f"a{i}.json").read_text())["config"]
        assert _defaulted_keys(echoed) <= set(echoed), args  # the effective values
        echoed["out"], echoed["report"] = f"b{i}", f"b{i}.json"
        (tmp_path / "echo.json").write_text(json.dumps(echoed))
        code, _, err = run_cli([args[0], "--config", "echo.json"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0, (args, err)
        assert (tmp_path / f"a{i}").read_bytes() == (tmp_path / f"b{i}").read_bytes(), args
        again = json.loads((tmp_path / f"b{i}.json").read_text())["config"]
        assert again == echoed, args


def test_tdvp_chart_switches_count_driver_flips_not_samples(tmp_path):
    # spin 4 under 1.3 J_x from [1, 0.2] crosses the chart radius twice on [0, 6];
    # two samples used to see no chart change at all
    switches = []
    for n in (2, 5, 101):
        report = cli.run({"command": "dyn-tdvp", "space": {"kind": "spin", "exponent": 4},
                          "energy": {"kind": "spin_axis", "axis": [1, 0, 0], "coeff": 1.3},
                          "z0": [1, 0.2], "t_span": [0, 6], "samples": n,
                          "out": str(tmp_path / f"s{n}.csv")})
        switches.append(report["summary"]["chart_switches"])
    assert switches == [2, 2, 2]


def test_a_tdvp_config_run_twice_in_one_process_writes_the_same_bytes(tmp_path):
    # the flow crosses the chart radius twice, so both chart sides are bound
    cfg = {"command": "dyn-tdvp", "space": {"kind": "spin", "exponent": 4},
           "energy": {"kind": "spin_axis", "axis": [1, 0, 0], "coeff": 1.3},
           "z0": [1, 0.2], "t_span": [0, 6], "samples": 101}
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    reports = [cli.run(dict(cfg, out=str(path))) for path in paths]
    assert reports[0]["summary"]["chart_switches"] == 2
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tdvp_energy_drift_covers_steps_not_samples(tmp_path):
    # read off the samples, the drift would be 6.6e-10, 1.1e-9 and 2.2e-9
    drifts = []
    for n in (2, 5, 101):
        report = cli.run({"command": "dyn-tdvp", "space": {"kind": "spin", "exponent": 4},
                          "energy": {"kind": "spin_axis", "axis": [1, 0, 0], "coeff": 1.3},
                          "z0": [1, 0.2], "t_span": [0, 6], "samples": n,
                          "out": str(tmp_path / f"s{n}.csv")})
        drifts.append(report["summary"]["energy_drift"])
    assert drifts[0] == drifts[1] == drifts[2]
    assert 0.0 < drifts[0] < 1e-8


def test_tdvp_rhs_evals_counts_every_chart_velocity_call(tmp_path, monkeypatch):
    # summed over the three chart segments of this flow; a report entry only
    from cohspace import tdvp

    calls = []
    make_rhs = tdvp.chart_rhs

    def counted_rhs(*args, **kwargs):
        rhs = make_rhs(*args, **kwargs)

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)
        return counted

    monkeypatch.setattr(tdvp, "chart_rhs", counted_rhs)
    report = cli.run({"command": "dyn-tdvp", "space": {"kind": "spin", "exponent": 4},
                      "energy": {"kind": "spin_axis", "axis": [1, 0, 0], "coeff": 1.3},
                      "z0": [1, 0.2], "t_span": [0, 6], "samples": 101, "format": "json",
                      "out": str(tmp_path / "s.json")})
    assert report["summary"]["chart_switches"] == 2
    assert report["summary"]["rhs_evals"] == len(calls) > 12 * report["summary"]["steps"]
    assert "rhs_evals" not in (tmp_path / "s.json").read_text()


@pytest.mark.parametrize("command", [
    {"command": "dyn-tdvp", "t_span": [0, 6], "samples": 101},
    {"command": "dyn-lyapunov", "system": "continuous", "t_total": 6, "resample": 0.5},
], ids=["dyn-tdvp", "dyn-lyapunov-continuous"])
def test_integrator_work_is_reported_over_every_solve(tmp_path, monkeypatch, command):
    # summed over Benettin and chart segments; report entries only
    from cohspace import tdvp

    calls = []
    make_rhs = tdvp.chart_rhs

    def counted_rhs(*args, **kwargs):
        rhs = make_rhs(*args, **kwargs)

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)
        return counted

    monkeypatch.setattr(tdvp, "chart_rhs", counted_rhs)
    report = cli.run(dict(command, space={"kind": "spin", "exponent": 4},
                          energy={"kind": "spin_axis", "axis": [1, 0, 0], "coeff": 1.3},
                          z0=[1, 0.2], format="json", out=str(tmp_path / "s.json")))
    summary = report["summary"]
    assert summary["chart_switches"] == 2
    assert summary["rhs_evals"] == len(calls) > 12 * summary["steps"]
    span = 6.0
    assert 0.0 < summary["h_min"] <= span / summary["steps"] <= summary["h_max"]
    text = (tmp_path / "s.json").read_text()
    for key in ("steps", "rhs_evals", "h_min", "h_max"):
        assert key not in text


def test_dyn_coherent_rows_carry_the_multiplier_of_z0(tmp_path):
    # a line-bundle start point: the flow moves the label, never its multiplier
    cfg = {"command": "dyn-coherent", "space": {"kind": "heisenberg", "modes": 1},
           "generator": [[[0.7, 0]]], "t_span": [0, 2], "samples": 5,
           "z0": {"coords": [[0.3, -0.2]], "multiplier": [0.8, -0.6]}}
    cli.run(dict(cfg, out=str(tmp_path / "traj.csv")))
    header, rows = read_csv(tmp_path / "traj.csv")
    assert header[-3:] == ["mult_re", "mult_im", "norm"]
    assert [(float(r[-3]), float(r[-2])) for r in rows] == [(0.8, -0.6)] * 5
    cli.run(dict(cfg, format="json", out=str(tmp_path / "traj.json")))
    payload = json.loads((tmp_path / "traj.json").read_text())
    assert payload["multipliers"] == [[0.8, -0.6]] * 5
    assert len(payload["points"]) == 5


def test_seed_always_recorded(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["kernel-eval", "--space", '{"kind":"trivial","dim":2}',
         "--z", "[1,0]", "--z2", "[0,1]", "--report", "r.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["seed"] == 0
    assert report["config"]["seed"] == 0
    assert report["version"]
    assert report["payload"]["sha256"]


def test_emitted_descriptors_accepted_back(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["qspace-build", "--space", '{"kind":"spin","exponent":3}',
         "--count", "6", "--format", "json", "--out", "qs.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    desc = json.loads((tmp_path / "qs.json").read_text())["space"]
    space = space_from_descriptor(desc)  # descriptor round-trips unchanged
    assert space.descriptor == desc
    code, _, _ = run_cli(
        ["lie-evolve", "--algebra", "so3_rotator",
         "--hamiltonian", "[[0,0],[0,0],[0,0],[1,0]]",
         "--state", json.dumps({"form": np.stack([np.eye(4), np.zeros((4, 4))], -1).tolist()}),
         "--observables", '["jz"]', "--t-span", "[0,1]", "--samples", "3",
         "--format", "json", "--out", "lie.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    adesc = json.loads((tmp_path / "lie.json").read_text())["algebra"]
    alg = algebra_from_descriptor(adesc)
    assert alg.basis_names == ("unit", "jx", "jy", "jz") or \
        list(alg.basis_names) == ["unit", "jx", "jy", "jz"]


def _doc_keys(fields):
    """A field table as formats.md renders it; an empty table is a dash."""
    cells = []
    for key, kind, default in fields:
        if default is cli.REQUIRED:
            cells.append(f"`{key}` {kind}, required")
        elif default is None:
            cells.append(f"`{key}` {kind}")
        else:
            cells.append(f"`{key}` {kind} = `{json.dumps(default)}`")
    return "; ".join(cells) or "—"


def test_formats_md_documents_the_schema():
    doc = (Path(__file__).resolve().parents[1] / "formats.md").read_text(encoding="utf-8")
    for key, _, _ in cli._COMMON:
        assert f"| `{key}` |" in doc, key
    for command, entry in cli.SCHEMA.items():
        assert f"- **{command}** ({entry.format}):" in doc, command
        assert f"| `{command}` | {_doc_keys(entry.fields)} |" in doc, command
        for system, (_, fields) in (entry.systems or {}).items():
            assert f"| `{command}`, system `{system}` | {_doc_keys(fields)} |" in doc, system
    # every descriptor kind, one row each, the algebra descriptor and the state
    for table in (kernels._CATALOG, cli._ENERGIES, cli._MAPS, cli._MODELS):
        for kind, (_, fields) in table.items():
            assert f"| `{kind}` | {_doc_keys(fields)} |" in doc, kind
    assert f"| algebra descriptor | {_doc_keys(liealg._DESCRIPTOR)} |" in doc
    assert f"| state object | {_doc_keys(cli._STATE)} |" in doc


# every command at its README size (plus the continuous Lyapunov system)
_README_RUNS = [
    ["kernel-eval", "--space", '{"kind":"trivial","dim":2}', "--z", "[1,0]", "--z2", "[0,1]"],
    ["kernel-gram", "--space", '{"kind":"spin","exponent":3}', "--count", "20", "--seed", "11"],
    ["kernel-check", "--space", '{"kind":"spin","exponent":0.6}', "--count", "40"],
    ["qspace-build", "--space", "icosahedron", "--count", "12"],
    ["quantize", "--space", '{"kind":"trivial","dim":2}', "--count", "8", "--map", _FLIP],
    ["dyn-coherent", "--space", '{"kind":"klauder","modes":1}',
     "--generator", "[[[0,0],[0,0]],[[0,0],[1.3,0]]]", "--z0", "[[0.2,0.1],[1.1,-0.4]]",
     "--t-span", "[0,6]"],
    ["dyn-tdvp", "--space", '{"kind":"spin","exponent":4}',
     "--energy", '{"kind":"spin_axis","axis":[0,0,1],"coeff":1.1}',
     "--z0", "[[0.8,0],[0.48,0.36]]", "--t-span", "[0,8]"],
    ["dyn-lyapunov", "--system", "kicked_top", "--kick", "3", "--spin", "20",
     "--periods", "2000"],
    ["dyn-lyapunov", "--system", "continuous"] + _SPIN4 + ["--t-total", "4"],
    ["spec-solve", "--model", "oscillator", "--interval", "[0,10]"],
    ["lie-evolve", "--algebra", "su2_qubit", "--hamiltonian", "pauli_z",
     "--state", '{"density":[[[0.7,0],[0.15,-0.05]],[[0.15,0.05],[0.3,0]]]}',
     "--observables", '["pauli_x","pauli_y","pauli_z"]', "--t-span", "[0,6]"],
    ["causal-check", "--kernel", "lattice_weyl", "--count", "20"],
]


def _canonical_cell(cell):
    if cell in ("", "true", "false", "discrete", "continuous"):
        return cell
    try:
        return str(int(cell))
    except ValueError:
        return repr(float(cell))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_payload_is_in_canonical_form(tmp_path, monkeypatch, capsys, fmt):
    assert {args[0] for args in _README_RUNS} == set(cli.SCHEMA)
    for i, args in enumerate(_README_RUNS):
        code, _, err = run_cli(args + ["--format", fmt, "--out", f"p{i}"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0, (args, err)
        text = (tmp_path / f"p{i}").read_text()
        if fmt == "json":
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", args
        else:
            assert text.endswith("\n") and len(text.splitlines()) > 1, args
            for line in text.splitlines()[1:]:
                cells = line.split(",")
                assert cells == [_canonical_cell(c) for c in cells], (args, line)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_payload_is_hashed_as_it_is_written(tmp_path, monkeypatch, capsys, fmt):
    """No run reads its payload back: the report's sha256 is the write's own."""
    def reopened(path):
        raise AssertionError(f"{path} was read back to hash it")

    monkeypatch.setattr(artifacts, "sha256_file", reopened)
    for i, args in enumerate(_RUNS):
        code, out, err = run_cli(args + ["--format", fmt, "--out", f"p{i}"],
                                 tmp_path, monkeypatch, capsys)
        assert code == 0, (args, err)
        report = json.loads((tmp_path / json.loads(out)["report"]).read_text())
        payload = (tmp_path / f"p{i}").read_bytes()
        assert report["payload"]["sha256"] == hashlib.sha256(payload).hexdigest(), args


def test_every_report_is_json_dumps_of_the_report(tmp_path, monkeypatch, capsys):
    # the README commands, and explicit triples whose echo holds spliced floats
    triples = [[[[0, 0, 1e-5, -2.5e-7]], [[0, 9, 1e17, 0.1]], [[3, 1, -0.0, 123.25]]]]
    runs = _README_RUNS + [["causal-check", "--triples", json.dumps(triples)]]
    reports, run = [], cli.run
    monkeypatch.setattr(cli, "run", lambda config: reports.append(run(config)) or reports[-1])
    for i, args in enumerate(runs):
        code, _, err = run_cli(args + ["--out", f"r{i}"], tmp_path, monkeypatch, capsys)
        assert code == 0, (args, err)
        report = dict(reports[-1])
        text = (tmp_path / report.pop("report_path")).read_text()
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n", args


# ------------------------------------------------------------ exit codes


def test_exit_2_on_malformed_config_file(tmp_path, monkeypatch, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    code, _, err = run_cli(["kernel-eval", "--config", "broken.json"],
                           tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "config error" in err


def test_exit_2_on_missing_fields_and_bad_values(tmp_path, monkeypatch, capsys):
    cases = [
        ["kernel-eval", "--space", '{"kind":"trivial","dim":2}', "--z", "[1,0]"],
        ["kernel-eval", "--z", "[1,0]", "--z2", "[0,1]"],
        ["spec-solve", "--model", "unknown_kind", "--interval", "[0,1]"],
        ["kernel-gram", "--space", '{"kind":"trivial","dim":2}'],
        ["dyn-lyapunov", "--system", "nonsense", "--kick", "1"],
        ["lie-evolve", "--algebra", "not_in_catalog", "--hamiltonian",
         "[[0,0],[0,0],[0,0],[1,0]]", "--state", '{"form":[]}',
         "--observables", '["jz"]', "--t-span", "[0,1]"],
    ]
    for args in cases:
        code, _, err = run_cli(args, tmp_path, monkeypatch, capsys)
        assert code == 2, args
        assert "config error" in err


_COHERENT = {"space": {"kind": "spin", "exponent": 2},
             "generator": [[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]],
             "z0": [[1, 0], [0, 0]], "t_span": [0, 3]}


_SU2 = liealg.algebra_descriptor(liealg.su2_qubit()[0])
_LIE = {"hamiltonian": "pauli_z", "observables": ["pauli_z"], "t_span": [0, 1], "samples": 3,
        "state": {"form": np.stack([np.eye(4), np.zeros((4, 4))], -1).tolist()}}

_BAD_KEYS = [
    ("dyn-coherent", dict(_COHERENT, samples="abc"), "samples"),
    ("kernel-gram", {"space": {"kind": "spin", "exponent": 2}, "count": "x"}, "count"),
    ("dyn-lyapunov", {"kick": "big"}, "kick"),
    ("dyn-lyapunov", {"kick": 3.0, "spin": 4, "periods": 4, "bloch0": ["a", 1, 2]}, "bloch0"),
    ("causal-check", {"triples": 5}, "triples"),
    ("spec-solve", {"model": "oscillator", "interval": ["a", "b"]}, "interval"),
    ("dyn-coherent", dict(_COHERENT, t_spam=3), "t_spam"),
    ("dyn-coherent", dict(_COHERENT, rtol=1e-6), "rtol"),
    ("dyn-lyapunov", {"kick": 3.0, "periods": 4, "rtol": 1e-6}, "rtol"),
    ("dyn-lyapunov", {"kick": 3.0, "periods": 4, "hbar": 2.0}, "hbar"),
    # nested descriptors follow the same rule, their keys named under a prefix
    ("kernel-gram", {"space": {"kind": "klauder", "mode": 3}, "count": 2}, "space.mode"),
    ("kernel-gram", {"space": {"kind": "trivial", "dim": 2.7}, "count": 2}, "space.dim"),
    ("kernel-gram", {"space": {"kind": "power", "base": {"kind": "klauder", "mode": 2}, "n": 2},
                     "count": 2}, "space.base.mode"),
    ("kernel-gram", {"space": {"kind": "power", "base": {"kind": "trivial", "dim": 0}, "n": 2},
                     "count": 2}, "space.base.dim"),
    ("dyn-tdvp", {"space": {"kind": "spin", "exponent": 2}, "z0": [1, 0.2], "t_span": [0, 1],
                  "energy": {"kind": "spin_axis", "axis": [0, 0, 1], "coef": 5.0}}, "energy.coef"),
    ("quantize", {"space": {"kind": "trivial", "dim": 2}, "count": 4,
                  "map": dict(json.loads(_FLIP), renormalise=True)}, "map.renormalise"),
    # a 1 x 1 map on 2-d labels used to end in numpy's matmul traceback
    ("quantize", {"space": {"kind": "trivial", "dim": 2}, "count": 4,
                  "map": {"kind": "linear", "matrix": [[[1, 0]]]}}, "map.matrix"),
    ("lie-evolve", dict(_LIE, algebra=dict(_SU2, hbarr=2.0)), "algebra.hbarr"),
    ("kernel-eval", {"space": {"kind": "trivial", "dim": 1}, "z2": [0.1],
                     "z": {"coords": [0.2], "multipler": [2, 0]}}, "z.multipler"),
    ("lie-evolve", dict(_LIE, algebra=_SU2, state=dict(_LIE["state"], densty=1)), "state.densty"),
]


@pytest.mark.parametrize("command, config, key", _BAD_KEYS,
                         ids=[f"{command}-{key}" for command, _, key in _BAD_KEYS])
def test_exit_2_names_the_bad_or_unknown_key(tmp_path, monkeypatch, capsys,
                                              command, config, key):
    (tmp_path / "c.json").write_text(json.dumps(config))
    code, _, err = run_cli([command, "--config", "c.json"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("config error: ") and f"'{key}'" in err
    assert "Traceback" not in err


_DENSITY = [[[0.7, 0], [0.15, -0.05]], [[0.15, 0.05], [0.3, 0]]]


@pytest.mark.parametrize("state", [{"density": _DENSITY, "form": _LIE["state"]["form"]}, {}],
                         ids=["both", "neither"])
def test_exit_2_unless_the_state_gives_one_of_density_and_form(tmp_path, monkeypatch, capsys,
                                                               state):
    (tmp_path / "c.json").write_text(json.dumps(dict(_LIE, algebra="su2_qubit", state=state)))
    code, _, err = run_cli(["lie-evolve", "--config", "c.json"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("config error: ") and "'state'" in err


def test_exit_2_names_both_shapes_when_the_density_does_not_fit_the_rep(
        tmp_path, monkeypatch, capsys):
    density = np.stack([np.eye(3) / 3, np.zeros((3, 3))], -1).tolist()
    (tmp_path / "c.json").write_text(json.dumps(dict(_LIE, algebra="su2_qubit",
                                                     state={"density": density})))
    code, out, err = run_cli(["lie-evolve", "--config", "c.json"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == ("config error: density matrix is (3, 3); "
                   "the su2_qubit representation needs (2, 2)\n")


_NOT_BOOLS = [
    ("quantize", lambda v: {"space": {"kind": "trivial", "dim": 2}, "count": 4,
                            "map": dict(json.loads(_FLIP), renormalize=v)}, "map.renormalize"),
    ("causal-check", lambda v: {"count": 2, "nonlocal_violation": v}, "nonlocal_violation"),
]


@pytest.mark.parametrize("value", ["false", 0, "yes"])
@pytest.mark.parametrize("command, config, key", _NOT_BOOLS, ids=[c for c, _, _ in _NOT_BOOLS])
def test_exit_2_on_a_bool_field_that_is_not_a_bool(tmp_path, monkeypatch, capsys,
                                                   command, config, key, value):
    (tmp_path / "c.json").write_text(json.dumps(config(value)))
    code, _, err = run_cli([command, "--config", "c.json"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("config error: ") and f"'{key}'" in err


def test_bool_flags_are_json_bools(tmp_path, monkeypatch, capsys):
    args = ["causal-check", "--count", "4", "--out", "c.json", "--nonlocal-violation"]
    assert run_cli(args + ["false"], tmp_path, monkeypatch, capsys)[0] == 0
    assert json.loads((tmp_path / "c.json").read_text())["passed"]
    code, _, err = run_cli(args + ["0"], tmp_path, monkeypatch, capsys)
    assert code == 2 and "'nonlocal_violation'" in err


_KICKED = ["dyn-lyapunov", "--system", "kicked_top", "--periods", "10"]
_ZERO_SPINOR = ["--z0", "[[0,0],[0,0]]"]
_NO_CHART = "spin: start label [0j, 0j] has no finite chart coordinate"


@pytest.mark.parametrize("args, code, message", [
    (_KICKED + ["--kick", "3", "--bloch0", "[0,0,0]"], 1,
     "Bloch vector [0.0, 0.0, 0.0] has no direction: it needs a nonzero finite length"),
    (_KICKED + ["--kick", "3"] + _ZERO_SPINOR, 1, _NO_CHART),
    (_KICKED + ["--kick", "NaN"], 2, "'kick' must be a finite number, got nan"),
    (["dyn-tdvp"] + _SPIN4 + ["--t-span", "[0,2]"] + _ZERO_SPINOR, 1, _NO_CHART),
    (["dyn-lyapunov", "--system", "continuous"] + _SPIN4 + ["--t-total", "4"] + _ZERO_SPINOR, 1,
     _NO_CHART),
    (["dyn-tdvp"] + _SPIN4 + ["--t-span", "[0,2]", "--z0", "[NaN,1]"], 2,
     "'z0' must be a finite number, got nan"),
    (["dyn-tdvp"] + _SPIN4 + ["--t-span", "[0,2]", "--hbar", "1e999"], 2,
     "'hbar' must be a finite number, got inf"),
])
def test_a_start_without_direction_or_a_non_finite_number_fails_by_name(
        tmp_path, monkeypatch, capsys, args, code, message):
    # each of these used to end in a NaN exponent with exit 0, or in a
    # non-finite first integrator stage
    got, out, err = run_cli(args, tmp_path, monkeypatch, capsys)
    assert (got, out) == (code, "")
    if code == 2:
        assert err == f"config error: {message}\n"
    else:
        assert json.loads(err) == {"error": "invalid-point", "message": message}


@pytest.mark.parametrize("key, value", [("kick", "1e300"), ("kick", "-4503599627370496"),
                                        ("precession", "1e300")])
def test_exit_1_numerical_error_on_a_kicked_top_angle_without_correct_digits(
        tmp_path, monkeypatch, capsys, key, value):
    """At |angle| >= 2^52 the float spacing is 1 rad: refused, not written."""
    given = {"kick": "3", key: value}  # kick is required
    flags = [part for k, v in given.items() for part in (f"--{k}", v)]
    code, out, err = run_cli(_KICKED + flags, tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "numerical-error", "message": (
        f"kicked top: {key} = {float(value):.6g} reaches 2^52 rad; its float spacing there is "
        f"1 rad, so the phase has no correct digit")}
    assert list(tmp_path.iterdir()) == []


def test_a_secant_step_that_overflows_is_taken_from_the_better_end(tmp_path, monkeypatch, capsys):
    """In the bracket [0, 6.2e243] of branch 0, fb * (b - a) overflows: every
    polish step used to bisect, and 200 of them stalled with exit 1."""
    code, out, _ = run_cli(["spec-solve", "--model", "oscillator", "--interval", "[0,1e308]",
                            "--out", "osc.csv"], tmp_path, monkeypatch, capsys)
    assert code == 0
    report = json.loads((tmp_path / json.loads(out)["report"]).read_text())
    assert report["warnings"] == [
        "branches above n_max=32 may have roots in [0, 1e+308]; raise n_max"]
    header, rows = read_csv(tmp_path / "osc.csv")
    assert header == ["kind", "branch", "energy_lo", "energy_hi", "residual"]
    assert rows == [["discrete", str(n), repr(n + 0.5), repr(n + 0.5), "0.0"] for n in range(33)]


def test_a_kicked_top_above_the_monomial_degree_limit_runs(tmp_path, monkeypatch, capsys):
    """The kicked top reads only the chart metric n / (1 + |w|^2)^2, whose
    scale n cancels in the exponent, and builds no degree-n embedding."""
    exponents = []
    for spin in ("20", "2000"):
        code, out, err = run_cli(["dyn-lyapunov", "--system", "kicked_top", "--kick", "3",
                                  "--spin", spin, "--periods", "200"],
                                 tmp_path, monkeypatch, capsys)
        assert code == 0, err
        exponents.append(json.loads(out)["summary"]["exponent"])
    assert abs(exponents[1] - exponents[0]) <= 1e-12


def test_exit_2_names_the_spin_monomial_degree_limit(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["dyn-tdvp", "--space", '{"kind":"spin","exponent":1100}',
                              "--energy", '{"kind":"spin_axis","axis":[0,0,1],"coeff":1}',
                              "--z0", "[[0.8,0],[0.6,0]]", "--t-span", "[0,1]"],
                             tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == ("config error: spin monomials of degree 1100 overflow float64; the degree "
                   "limit is MONOMIAL_MAX_DEGREE = 1029\n")
    assert list(tmp_path.iterdir()) == []


def test_a_kicked_top_angle_just_below_2_to_the_52_still_runs(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(_KICKED + ["--kick", "4503599627370495"], tmp_path, monkeypatch, capsys)
    assert code == 0


def test_a_json_integer_beyond_the_float_range_is_not_a_finite_number():
    with pytest.raises(ConfigError, match="'kick' must be a finite number, got 1000"):
        cli.run({"command": "dyn-lyapunov", "kick": 10 ** 400, "periods": 10})


_CONTINUOUS = ["dyn-lyapunov", "--system", "continuous"] + _SPIN4


@pytest.mark.parametrize("args, keys", [
    # used to run 7 segments to t = 2.1
    (_CONTINUOUS + ["--t-total", "2.0", "--resample", "0.3"], ["t_total", "resample"]),
    # an infinite ratio used to end in an OverflowError traceback
    (_CONTINUOUS + ["--t-total", "1e300", "--resample", "1e-300"], ["t_total", "resample"]),
    # more segments than numpy can allocate used to end in a ValueError traceback
    (_CONTINUOUS + ["--t-total", "1e300", "--resample", "1"], ["t_total", "resample"]),
    (["dyn-lyapunov", "--kick", "3", "--periods", "100000000000000000000"], ["periods"]),
], ids=["partial", "infinite", "huge", "huge-kicked"])
def test_exit_2_on_a_partial_lyapunov_segment(tmp_path, monkeypatch, capsys, args, keys):
    code, _, err = run_cli(args, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("config error: ") and all(f"'{key}'" in err for key in keys)
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["--resample", "-1"], "'resample' must be a positive number, got -1.0"),
    (["--resample", "0"], "'resample' must be a positive number, got 0.0"),
    (["--t-total", "-200"], "'t_total' must be a positive number, got -200.0"),
    (["--t-total", "0"], "'t_total' must be a positive number, got 0.0"),
], ids=["resample-negative", "resample-0", "t-total-negative", "t-total-0"])
def test_exit_2_names_a_non_positive_lyapunov_time(tmp_path, monkeypatch, capsys, args, message):
    # each of these used to exit 2 with "need at least 4 renormalization
    # segments", which names no key
    assert run_cli(_CONTINUOUS + args, tmp_path, monkeypatch, capsys) == (
        2, "", f"config error: {message}\n")


_SPIN4_TILTED = ["dyn-lyapunov", "--system", "continuous",
                 "--space", '{"kind":"spin","exponent":4}',
                 "--energy", '{"kind":"spin_axis","axis":[1,0.3,0]}']


def test_exit_1_when_a_continuous_lyapunov_run_projects_past_its_budget(tmp_path, monkeypatch,
                                                                         capsys):
    # accepted, this run of 10^7 segments was still going when an 8 s timeout ended it
    start = time.perf_counter()
    code, out, err = run_cli(_SPIN4_TILTED + ["--z0", "[[0.8,0],[0.6,0]]", "--t-total", "1e7",
                                              "--resample", "1"], tmp_path, monkeypatch, capsys)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "integrator-failure", "message": (
        "a continuous Lyapunov run of 10000000 segments took 9 steps in its first, 90000000 "
        "projected, and 9 by segment 1: more than the budget of MAX_STEPS = 10000000 steps a "
        "run may take")}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("budget, spent", [(51, "13 by segment 1"), (52, "55 by segment 4")],
                         ids=["projected", "summed"])
def test_a_continuous_lyapunov_run_stops_when_its_steps_pass_the_budget(tmp_path, monkeypatch,
                                                                        capsys, budget, spent):
    # its four segments take 13, 15, 17 and 10 steps: the first projects 52, the run
    # sums 55, so a budget of 52 passes the projection and stops at the fourth segment
    from cohspace import chaos

    monkeypatch.setattr(chaos, "MAX_STEPS", budget)
    code, out, err = run_cli(_SPIN4_TILTED + ["--z0", "[[0.6,0],[0.8,0]]", "--t-total", "8",
                                              "--resample", "2"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "integrator-failure", "message": (
        f"a continuous Lyapunov run of 4 segments took 13 steps in its first, 52 projected, and "
        f"{spent}: more than the budget of MAX_STEPS = {budget} steps a run may take")}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [["dyn-tdvp", "--t-span", "[0,1]"],
                                  ["dyn-lyapunov", "--system", "continuous"]],
                         ids=["dyn-tdvp", "dyn-lyapunov-continuous"])
def test_exit_2_on_a_two_mode_klauder_variational_flow(tmp_path, monkeypatch, capsys, args):
    code, out, err = run_cli(args + ["--space", '{"kind":"klauder","modes":2}',
                                     "--energy", '{"kind":"matrix","matrix":[[[1,0]]]}',
                                     "--z0", "[[0.1,0],[0.5,0.2],[-0.3,0.6]]"],
                             tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == "config error: variational flows support a single Klauder mode\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("hbar", ["1e-200", "1e200"])
def test_exit_1_numerical_error_on_a_coulomb_hbar_without_a_square(
        tmp_path, monkeypatch, capsys, hbar):
    """hbar^2 underflows to 0 or overflows: k = mass alpha / hbar^2 used to end
    in a ZeroDivisionError or OverflowError traceback."""
    code, out, err = run_cli(["spec-solve", "--model", f'{{"kind":"coulomb","hbar":{hbar}}}',
                              "--interval", "[-1,-0.1]"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "numerical-error", "message": (
        f"coulomb: hbar = {float(hbar):.6g} has no nonzero finite square in float64, so "
        "k = mass alpha / hbar^2 is not defined")}
    assert list(tmp_path.iterdir()) == []


def test_exit_2_names_a_bad_model_parameter(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(["spec-solve", "--model", '{"kind":"oscillator","omega":"fast"}',
                            "--interval", "[0,2]"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("config error: ") and "omega" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("c", ["0", "-1.5"])
def test_exit_2_on_a_free_particle_speed_of_light_that_is_not_positive(
        tmp_path, monkeypatch, capsys, c):
    """c = 0 used to divide by zero in k(E) (two RuntimeWarnings, exit 0 with
    an empty spectrum), and a negative c acted as |c|."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["spec-solve", "--model", f'{{"kind":"free_particle","c":{c}}}',
                                  "--interval", "[0,10]"], tmp_path, monkeypatch, capsys)
    assert (code, out, caught) == (2, "", [])
    assert err == f"config error: 'model.c' must be a positive number, got {json.loads(c)!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model, message", [
    ('{"kind":"oscillator","omega":0}', "'model.omega' must be a positive number, got 0"),
    ('{"kind":"oscillator","omega":-1}', "'model.omega' must be a positive number, got -1"),
    ('{"kind":"free_particle","mass":-1}',
     "'model.mass' must be zero or a positive number, got -1"),
    ('{"kind":"free_particle","p_max":-10}', "'model.p_max' must be a positive number, got -10"),
    ('{"kind":"free_particle","p_max":0}', "'model.p_max' must be a positive number, got 0"),
    ('{"kind":"coulomb","mass":-1}', "'model.mass' must be a positive number, got -1"),
], ids=["omega-0", "omega-negative", "free-mass-negative", "p_max-negative", "p_max-0",
        "coulomb-mass-negative"])
def test_exit_2_on_a_model_parameter_of_the_wrong_sign(tmp_path, monkeypatch, capsys,
                                                       model, message):
    """Each exited 0: omega 0 wrote the one root 0 and omega -1 the roots
    -4.5 ... -0.5; a negative free-particle mass or p_max wrote the intervals
    of its size and p_max 0 an empty spectrum; a negative Coulomb mass wrote
    no root and no warning."""
    code, out, err = run_cli(["spec-solve", "--model", model, "--interval", "[-5,20]"],
                             tmp_path, monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"config error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt, sha256", [
    ("csv", "3ab40b46a178a807d6e01e4137acae83e5416a98654877a779007ac317acdead"),
    ("json", "7cab5f1d2d79edacc1da324aa640c8864162ce4dfdd3fc6e101a67d831be995c")])
def test_a_massless_free_particle_keeps_its_payload(tmp_path, monkeypatch, capsys, fmt, sha256):
    """mass 0 is the massless branch, one interval [-p_max c, p_max c]: the
    payload's digest is the one it had before mass was checked for sign."""
    code, _, _ = run_cli(["spec-solve", "--model", '{"kind":"free_particle","mass":0}',
                          "--interval", "[-5,20]", "--format", fmt], tmp_path, monkeypatch, capsys)
    path = tmp_path / f"cohspace-spec-solve.{fmt}"
    assert (code, hashlib.sha256(path.read_bytes()).hexdigest()) == (0, sha256)


@pytest.mark.parametrize("kind, n_max, least", [("oscillator", -5, 0), ("oscillator", -1, 0),
                                                ("coulomb", 0, 1), ("coulomb", -3, 1)])
def test_exit_2_on_an_n_max_below_the_first_branch(tmp_path, monkeypatch, capsys,
                                                   kind, n_max, least):
    """Such an n_max scanned no branch and exited 0 with no root and no warning;
    the least n_max scans one."""
    code, out, err = run_cli(["spec-solve", "--model", f'{{"kind":"{kind}","n_max":{n_max}}}',
                              "--interval", "[-1,10]"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == (f"config error: n_max is {n_max}, which leaves no branch to scan; "
                   f"the least n_max is {least}\n")
    assert list(tmp_path.iterdir()) == []
    code, _, _ = run_cli(["spec-solve", "--model", f'{{"kind":"{kind}","n_max":{least}}}',
                          "--interval", "[-1,10]", "--format", "json"], tmp_path, monkeypatch, capsys)
    payload = json.loads((tmp_path / "cohspace-spec-solve.json").read_text())
    assert (code, [r["branch"] for r in payload["discrete"]]) == (0, [least])


@pytest.mark.parametrize("grid", ["0", "-5", "1"])
def test_exit_2_on_a_grid_that_cannot_bracket(tmp_path, monkeypatch, capsys, grid):
    code, _, err = run_cli(["spec-solve", "--model", "oscillator", "--interval", "[0,10]",
                            "--grid", grid], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("config error: ") and "grid" in err
    assert "Traceback" not in err


_SPIN4_COUNT6 = ["--space", '{"kind":"spin","exponent":4}', "--count", "6"]


@pytest.mark.parametrize("args, message", [
    (["dyn-tdvp"] + _SPIN4 + ["--t-span", "[0,2]", "--hbar", "0"],
     "'hbar' must be a positive number, got 0.0"),
    (["kernel-check"] + _SPIN4_COUNT6 + ["--tol", "-1"], "'tol' must be a positive number, got -1.0"),
    (["qspace-build"] + _SPIN4_COUNT6 + ["--tol", "2"], "'tol' must lie in (0, 1), got 2.0"),
    (["dyn-tdvp"] + _SPIN4 + ["--t-span", "[0,2]", "--rtol", "-1"],
     "'rtol' must be a positive number, got -1.0"),
], ids=["dyn-tdvp-hbar-0", "kernel-check-tol-negative", "qspace-build-tol-2",
        "dyn-tdvp-rtol-negative"])
def test_exit_2_on_a_tolerance_or_hbar_out_of_range(tmp_path, monkeypatch, capsys, args, message):
    # these used to divide by zero in the chart velocity (exit 1), fail a PSD
    # Gram, keep rank 0 (both exit 0) and integrate into an energy-drift failure
    assert run_cli(args, tmp_path, monkeypatch, capsys) == (2, "", f"config error: {message}\n")


_NON_HERMITIAN = ["--space", '{"kind":"spin","exponent":1}',
                  "--energy", '{"kind":"matrix","matrix":[[[0,0],[1,0]],[[0,0],[0,0]]]}',
                  "--z0", "[[0.8,0],[0.6,0]]"]


@pytest.mark.parametrize("args", [["dyn-tdvp", "--t-span", "[0,2]"],
                                  ["dyn-lyapunov", "--system", "continuous"]],
                         ids=["dyn-tdvp", "dyn-lyapunov-continuous"])
def test_exit_2_on_a_non_hermitian_energy_matrix(tmp_path, monkeypatch, capsys, args):
    # h = <v|H|v>/<v|v> and its derivative formulas assume H = H^dagger
    code, _, err = run_cli(args + _NON_HERMITIAN, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("config error: ") and "not Hermitian" in err and "(0, 1) and (1, 0)" in err
    assert "Traceback" not in err


def test_exit_1_domain_error_as_json_on_stderr(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["qspace-build", "--space", '{"kind":"spin","exponent":0.6}',
         "--count", "10"],
        tmp_path, monkeypatch, capsys)
    assert code == 1
    diag = json.loads(err)
    assert diag["error"] == "coherence-violation"
    # wrong arity point -> domain error too
    code, _, err = run_cli(
        ["kernel-eval", "--space", '{"kind":"trivial","dim":2}',
         "--z", "[1,0,0]", "--z2", "[0,1]"],
        tmp_path, monkeypatch, capsys)
    assert code == 1
    assert json.loads(err)["error"]


def _exact_klauder_run(tmp_path, monkeypatch, capsys, coeff, t_span, *extra):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        return run_cli(
            ["dyn-coherent", "--space", '{"kind":"klauder","modes":1}',
             "--generator", "[[[0,0],[0,0]],[[0,0],[%s,0]]]" % coeff,
             "--z0", "[[0.2,0.1],[1.1,-0.4]]", "--t-span", t_span, *extra],
            tmp_path, monkeypatch, capsys)


def test_exit_1_numerical_error_on_an_overflowed_propagation(tmp_path, monkeypatch, capsys):
    # the phase 1e308 t overflows from the sample t = 1.8 on, and carries no
    # correct digit from the first sample after the start, t = 0.06
    code, _, err = _exact_klauder_run(tmp_path, monkeypatch, capsys, "1e308", "[0,6]")
    assert code == 1
    diag = json.loads(err)
    assert diag["error"] == "numerical-error" and "after a time 0.06;" in diag["message"]


@pytest.mark.parametrize("coeff", ["1e308", "1e17"])
def test_exit_1_numerical_error_on_a_phase_without_correct_digits(tmp_path, monkeypatch, capsys,
                                                                   coeff):
    """Finite phases of 1e308 t or 1e17 t are float noise: refused, not written."""
    code, _, err = _exact_klauder_run(tmp_path, monkeypatch, capsys, coeff, "[0,1.7]",
                                      "--samples", "3")
    assert code == 1 and "Traceback" not in err
    diag = json.loads(err)
    assert diag["error"] == "numerical-error"
    assert f"eigenvalue {float(coeff):.6g} reaches 2^52 rad after a time 0.85;" in diag["message"]
    assert not (tmp_path / "cohspace-dyn-coherent.csv").exists()


def test_a_phase_of_1e12_rad_still_propagates(tmp_path, monkeypatch, capsys):
    code, _, _ = _exact_klauder_run(tmp_path, monkeypatch, capsys, "1e12", "[0,1]",
                                    "--samples", "3")
    assert code == 0
    _, rows = read_csv(tmp_path / "cohspace-dyn-coherent.csv")
    z = complex(float(rows[-1][3]), float(rows[-1][4]))
    assert z == pytest.approx((1.1 - 0.4j) * np.exp(-1e12j), abs=1e-3)


@pytest.mark.parametrize("coeff, message", [
    ("1e306", "right-hand side overflowed at t0 = 0"),    # H finite, f / scale is not
    ("1e308", "the energy operator overflowed"),          # H itself is inf
], ids=["rhs-1e306", "operator-1e308"])
def test_exit_1_numerical_error_on_an_overflowed_energy(tmp_path, monkeypatch, capsys,
                                                         coeff, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        code, _, err = run_cli(
            ["dyn-tdvp", "--space", '{"kind":"spin","exponent":4}',
             "--energy", '{"kind":"spin_axis","axis":[0,0,1],"coeff":%s}' % coeff,
             "--z0", "[[0.8,0],[0.48,0.36]]", "--t-span", "[0,8]"],
            tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "Traceback" not in err
    diag = json.loads(err)
    assert diag["error"] == "numerical-error" and message in diag["message"]


_KLAUDER = '{"kind":"klauder","modes":1}'
_FAR = "[[400,0],[0,0]]"  # K(z, z) = exp(400^2) overflows
_HEISENBERG = '{"kind":"heisenberg","modes":1}'
_NEAR_LINE = '{"coords":[[0.5,0]],"multiplier":[1,0]}'
_FAR_LINE = '{"coords":[[40,0]],"multiplier":[1,0]}'  # exp(40^2) overflows, its phase is 0


@pytest.mark.parametrize("args, entry", [
    (["kernel-gram", "--space", _KLAUDER, "--points", f"[{_FAR},[[0.1,0],[0.2,0]]]"], "(0, 0)"),
    (["kernel-check", "--space", _KLAUDER, "--points", f"[{_FAR},[[0.1,0],[0.2,0]]]"], "(0, 0)"),
    (["kernel-eval", "--space", _KLAUDER, "--z", _FAR, "--z2", _FAR], "(0, 0)"),
    (["kernel-check", "--space", '{"kind":"spin","exponent":1e300}', "--count", "6"], None),
    (["kernel-eval", "--space", _HEISENBERG, "--z", _FAR_LINE, "--z2", _FAR_LINE], "(0, 0)"),
    (["kernel-gram", "--space", _HEISENBERG, "--points", f"[{_NEAR_LINE},{_FAR_LINE}]"],
     "(1, 1)"),
], ids=["klauder-gram", "klauder-check", "klauder-eval", "spin-1e300-check", "heisenberg-eval",
        "heisenberg-gram"])
def test_exit_1_numerical_error_on_an_overflowed_kernel_value(tmp_path, monkeypatch, capsys,
                                                               args, entry):
    # an inf Gram entry was written as a result, or failed the PSD test or the eigensolver
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        code, out, err = run_cli(args, tmp_path, monkeypatch, capsys)
    assert code == 1 and out == ""
    assert "Traceback" not in err and "Warning" not in err
    diag = json.loads(err)
    assert diag["error"] == "numerical-error"
    at = re.search(r"the kernel value at entry (\(\d+, \d+\)) is not finite", diag["message"])
    assert at and entry in (None, at.group(1)) and "overflowed" in diag["message"]
    assert not list(tmp_path.glob("cohspace-*"))  # no payload


# the number operator N on the 64 Fock levels of a Klauder chart: zeta(t) = zeta0 e^-it
_FOCK_N = json.dumps({"kind": "matrix", "matrix": [[[float(i) if i == j else 0.0, 0.0]
                                                    for j in range(64)] for i in range(64)]})


@pytest.mark.parametrize("zeta", [2, 5])
def test_a_klauder_flow_inside_its_fock_levels_runs(tmp_path, monkeypatch, capsys, zeta):
    # the Poisson weight beyond the 64 levels is 4e-16 and 5.2e-11
    code, _, err = run_cli(["dyn-tdvp", "--space", _KLAUDER, "--energy", _FOCK_N,
                            "--z0", f"[[0,0],[{zeta},0]]", "--t-span", "[0,1]", "--out", "k.csv"],
                           tmp_path, monkeypatch, capsys)
    assert (code, err) == (0, "")
    header, rows = read_csv(tmp_path / "k.csv")
    end = complex(float(rows[-1][header.index("c1_re")]), float(rows[-1][header.index("c1_im")]))
    assert abs(end - zeta * np.exp(-1j)) <= 5e-8


@pytest.mark.parametrize("zeta, weight", [("5.5", "6.208e-08"), ("7", "2.259e-02"),
                                          ("9", "9.774e-01")])
@pytest.mark.parametrize("args", [["dyn-tdvp", "--t-span", "[0,1]"],
                                  ["dyn-lyapunov", "--system", "continuous", "--t-total", "4"]],
                         ids=["dyn-tdvp", "dyn-lyapunov-continuous"])
def test_exit_1_numerical_error_on_a_klauder_flow_beyond_its_fock_levels(
        tmp_path, monkeypatch, capsys, args, zeta, weight):
    # these used to exit 0: zeta0 = 9 ended at (8.963, -0.820) against the exact (4.863, -7.573)
    code, out, err = run_cli(args + ["--space", _KLAUDER, "--energy", _FOCK_N,
                                     "--z0", f"[[0,0],[{zeta},0]]"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "numerical-error", "message": (
        f"the Klauder state at zeta = {zeta}+0j (t = 0) puts a Poisson weight of {weight} beyond "
        "the 64 Fock levels of its chart; the variational flow allows at most 1e-10")}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["dyn-lyapunov", "--system", "continuous", "--space", '{"kind":"spin","exponent":160}',
      "--energy", '{"kind":"spin_axis","axis":[1,0.3,0],"coeff":1}', "--z0", "[[1,0],[0,0]]",
      "--t-total", "20"],
     "the energy moments of the degree-160 spin chart overflow float64 at |w| = 1.861"),
    (["dyn-tdvp", "--space", '{"kind":"spin","exponent":800}',
      "--energy", '{"kind":"spin_axis","axis":[0,0,1],"coeff":1}', "--z0", "[[0.8,0],[0.6,0]]",
      "--t-span", "[0,0.1]", "--samples", "3"],
     "the energy moments of the degree-800 spin chart overflow float64 at |w| = 0.75"),
    (["dyn-tdvp", "--space", _KLAUDER, "--energy", _FOCK_N, "--z0", "[[200,0],[1,0]]",
      "--t-span", "[0,1]"],
     "the energy moments of the Klauder chart at z0 = 200+0j overflow float64 at |w| = 1"),
    (["dyn-tdvp", "--space", '{"kind":"spin","exponent":1029}',
      "--energy", '{"kind":"spin_axis","axis":[0,0,1],"coeff":1}', "--z0", "[[0.8,0],[0.6,0]]",
      "--t-span", "[0,0.1]", "--samples", "3"],
     "the energy forms of the degree-1029 spin chart overflow float64 (largest embedding "
     "coefficient 1.196e+154)"),
    *((["dyn-tdvp", "--space", _KLAUDER, "--energy", _FOCK_N, "--z0", f"[[{z0},0],[1,0]]",
        "--t-span", "[0,1]"],
       f"the energy forms of the Klauder chart at z0 = {z0}+0j overflow float64 (largest "
       f"embedding coefficient {e_z0})") for z0, e_z0 in ((400, "5.221e+173"), (800, "inf"))),
    # the moments are finite and products of them overflow to inf or nan without an
    # OverflowError: these used to name an RK stage ("first non-finite: stage k11", "k1")
    *((["dyn-tdvp", "--space", f'{{"kind":"spin","exponent":{n}}}',
        "--energy", '{"kind":"spin_axis","axis":[1,0.3,0.2],"coeff":1}',
        "--z0", "[[0.8,0],[0.6,0]]", "--t-span", "[0,2]"],
       f"the energy moments of the degree-{n} spin chart overflow float64 at |w| = {w}")
      for n, w in ((700, "0.80533"), (790, "0.75"))),
], ids=["dyn-lyapunov-spin160", "dyn-tdvp-spin800", "dyn-tdvp-klauder-z0-200",
        "dyn-tdvp-spin1029-forms", "dyn-tdvp-klauder-z0-400-forms",
        "dyn-tdvp-klauder-z0-800-forms", "dyn-tdvp-spin700-products", "dyn-tdvp-spin790-products"])
def test_exit_1_numerical_error_when_chart_moments_overflow(tmp_path, monkeypatch, capsys,
                                                            args, message):
    # den = (1 + |w|^2)^n or e^(2 Re z0 + |zeta|^2) overflows in den ** 3 or den ** 2:
    # each used to end in an OverflowError traceback; conj(c_a) H c_b overflows while the
    # form stack is built (the last three), where it used to warn and then fail at an RK stage
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        code, out, err = run_cli(args, tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err) == {"error": "numerical-error", "message": message}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [2, 4, 8, 40])
def test_a_flow_whose_energy_starts_at_zero_passes_its_drift_check(tmp_path, monkeypatch, capsys,
                                                                    n):
    # z0 on the equator under J_z: h0 = 0, and the check used to allow a drift
    # of 1e-6 x 1e-12, so rounding alone failed it with "tighten rtol"; the
    # drift is reported in units of 1e-3 x the spectral radius n/2, so the
    # bound below is a drift of 1e-12 x n/2
    code, out, err = run_cli(["dyn-tdvp", "--space", f'{{"kind":"spin","exponent":{n}}}',
                              "--energy", '{"kind":"spin_axis","axis":[0,0,1],"coeff":1}',
                              "--z0", "[[0.7071067811865476,0],[0.7071067811865476,0]]",
                              "--t-span", "[0,2]", "--out", "e.csv"], tmp_path, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"]["energy_drift"] <= 1e-9


# every dim and modes field of the space catalog
_SIZED = [(kind, key) for kind, (_, fields) in kernels._CATALOG.items()
          for key, _, _ in fields if key in ("dim", "modes")]


@pytest.mark.parametrize("command", ["kernel-gram", "kernel-check"])
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("kind, key", _SIZED, ids=[f"{k}.{f}" for k, f in _SIZED])
def test_exit_2_on_a_label_dimension_below_one(tmp_path, monkeypatch, capsys,
                                               kind, key, value, command):
    space = json.dumps({"kind": kind, key: value})
    code, _, err = run_cli([command, "--space", space, "--count", "3"],
                           tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith(f"config error: 'space.{key}' must be a positive integer, got {value}")
    assert "Traceback" not in err
    assert not (tmp_path / f"cohspace-{command}.json").exists()


def test_argparse_usage_error_is_exit_2(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(["no-such-command"], tmp_path, monkeypatch, capsys)
    assert code == 2
    code, _, _ = run_cli([], tmp_path, monkeypatch, capsys)
    assert code == 2


# ----------------------------------------------------- aliases + threads


def test_two_word_aliases_match_hyphenated(tmp_path, monkeypatch, capsys):
    base = ["--space", '{"kind":"spin","exponent":2}', "--count", "5",
            "--seed", "3"]
    code, _, _ = run_cli(["kernel", "gram"] + base + ["--out", "a.csv"],
                         tmp_path, monkeypatch, capsys)
    assert code == 0
    code, _, _ = run_cli(["kernel-gram"] + base + ["--out", "b.csv"],
                         tmp_path, monkeypatch, capsys)
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    code, _, _ = run_cli(
        ["spec", "solve", "--model", "oscillator", "--interval", "[0,2]",
         "--out", "s.csv"],
        tmp_path, monkeypatch, capsys)
    assert code == 0


def test_threads_env_and_flag(tmp_path, subprocess_env):
    env = dict(subprocess_env, COHSPACE_THREADS="2")
    env.pop("OMP_NUM_THREADS", None)
    probe = ("import json, os, sys\n"
             "from cohspace.cli import main\n"
             "rc = main(sys.argv[1:])\n"
             "rep = json.load(open('r.json'))\n"
             "print(json.dumps({'rc': rc, 'threads': rep['threads'],"
             " 'omp': os.environ.get('OMP_NUM_THREADS')}))\n")
    args = ["kernel-eval", "--space", '{"kind":"trivial","dim":2}',
            "--z", "[1,0]", "--z2", "[0,1]", "--report", "r.json"]
    res = subprocess.run([sys.executable, "-c", probe] + args,
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.strip().splitlines()[-1])
    assert got == {"rc": 0, "threads": 2, "omp": "2"}
    res = subprocess.run([sys.executable, "-c", probe] + args + ["--threads", "3"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.strip().splitlines()[-1])
    assert got == {"rc": 0, "threads": 3, "omp": "3"}


def test_config_threads_pin_the_pool(tmp_path, subprocess_env):
    # precedence: --threads, then the config's "threads", then COHSPACE_THREADS
    env = dict(subprocess_env, COHSPACE_THREADS="2")
    env.pop("OMP_NUM_THREADS", None)
    probe = ("import json, os, sys\n"
             "from cohspace.cli import main\n"
             "rc = main(sys.argv[1:])\n"
             "rep = json.load(open('r.json')) if rc == 0 else {}\n"
             "print(json.dumps({'rc': rc, 'threads': rep.get('threads'),"
             " 'omp': os.environ.get('OMP_NUM_THREADS')}))\n")
    (tmp_path / "four.json").write_text(json.dumps({"threads": 4}))
    (tmp_path / "zero.json").write_text(json.dumps({"threads": 0}))
    args = ["kernel-eval", "--space", '{"kind":"trivial","dim":2}',
            "--z", "[1,0]", "--z2", "[0,1]", "--report", "r.json"]
    for extra, want in ((["--config", "four.json"], {"rc": 0, "threads": 4, "omp": "4"}),
                        (["--config", "four.json", "--threads", "3"],
                         {"rc": 0, "threads": 3, "omp": "3"}),
                        (["--config", "zero.json"], {"rc": 2, "threads": None, "omp": None})):
        res = subprocess.run([sys.executable, "-c", probe] + args + extra,
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        got = json.loads(res.stdout.strip().splitlines()[-1])
        assert got == want, res.stderr


def test_installed_entry_point_runs(tmp_path, subprocess_env):
    res = subprocess.run(
        [sys.executable, "-m", "cohspace.cli", "kernel-eval",
         "--space", '{"kind":"trivial","dim":2}', "--z", "[1,0]",
         "--z2", "[1,0]"],
        cwd=tmp_path, env=subprocess_env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "cohspace-kernel-eval.json").read_text())
    assert payload == {"re": 1.0, "im": 0.0}


def test_kicked_top_run_never_imports_scipy(tmp_path, subprocess_env):
    # `python -m cohspace.cli` is runpy.run_module(..., alter_sys=True); running
    # it that way lets the child report its sys.modules after the command
    probe = ("import json, runpy, sys\n"
             "sys.argv[0] = 'cohspace.cli'\n"
             "try:\n"
             "    runpy.run_module('cohspace.cli', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    rc = exc.code\n"
             "print(json.dumps({'rc': rc, 'scipy': sorted(m for m in sys.modules\n"
             "                                            if m.split('.')[0] == 'scipy')}))\n")
    args = ["dyn-lyapunov", "--kick", "3", "--spin", "20", "--periods", "2000"]
    res = subprocess.run([sys.executable, "-c", probe] + args,
                         cwd=tmp_path, env=subprocess_env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.strip().splitlines()[-1])
    assert got == {"rc": 0, "scipy": []}
    assert (tmp_path / "cohspace-dyn-lyapunov.csv").exists()


def test_json_and_csv_formats_agree(tmp_path, monkeypatch, capsys):
    args = ["kernel-gram", "--space", '{"kind":"spin","exponent":2}',
            "--count", "4", "--seed", "9"]
    run_cli(args + ["--format", "csv", "--out", "g.csv"],
            tmp_path, monkeypatch, capsys)
    run_cli(args + ["--format", "json", "--out", "g.json"],
            tmp_path, monkeypatch, capsys)
    header, rows = read_csv(tmp_path / "g.csv")
    pairs = json.loads((tmp_path / "g.json").read_text())["gram"]
    g_json = np.array(pairs)[..., 0] + 1j * np.array(pairs)[..., 1]
    g_csv = np.array([[complex(float(r[2 * j]), float(r[2 * j + 1]))
                       for j in range(len(r) // 2)] for r in rows])
    assert np.allclose(g_csv, g_json, atol=0)
    # and the CSV numbers really are the kernel values
    space = space_from_descriptor({"kind": "spin", "exponent": 2})
    rng = np.random.default_rng(9)
    from cohspace.kernels import sample_points
    coords, _ = sample_points(space, rng, 4)
    assert g_csv[0, 1] == pytest.approx(
        complex(eval_kernel(space, label(coords[0]), label(coords[1]))), abs=1e-15)


_GRAM_SPACES = [{"kind": "spin", "exponent": 3}, {"kind": "klauder", "modes": 2},
                {"kind": "debranges"}, {"kind": "spin_t", "exponent": 2}]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_gram_bytes_match_the_format_cell_and_json_dumps_oracles(tmp_path, monkeypatch,
                                                                         fmt):
    """The bulk renderer writes each kind's Gram, Hermitian (spin, Klauder,
    de Branges) or not (spin_t), as format_cell and json.dumps write it."""
    monkeypatch.chdir(tmp_path)
    for space in _GRAM_SPACES:
        cli.run({"command": "kernel-gram", "space": space, "count": 9, "seed": 4,
                 "format": fmt, "out": f"g.{fmt}"})
        kind = space_from_descriptor(space)
        g = kernels.gram_matrix(kind, *kernels.sample_points(kind, np.random.default_rng(4), 9))
        if fmt == "csv":
            header = ",".join(f"k{j}_{part}" for j in range(9) for part in ("re", "im"))
            rows = [",".join(artifacts.format_cell(x) for z in row for x in (z.real, z.imag))
                    for row in g.tolist()]
            want = "\n".join([header, *rows]) + "\n"
        else:
            pairs = [[[z.real, z.imag] for z in row] for row in g.tolist()]
            want = json.dumps({"gram": pairs, "space": dict(kind.descriptor)},
                              indent=2, sort_keys=True) + "\n"
        assert (tmp_path / f"g.{fmt}").read_text() == want


def test_point_objects_with_multiplier(tmp_path, monkeypatch, capsys):
    z = {"coords": [[1, 0], [0, 0]], "multiplier": [0.1, 0.2]}
    code, _, _ = run_cli(
        ["kernel-eval", "--space", '{"kind":"klauder","modes":1}',
         "--z", json.dumps(z), "--z2", json.dumps(z), "--out", "k.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "k.json").read_text())
    space = space_from_descriptor({"kind": "klauder", "modes": 1})
    z_pt = label([1, 0], 0.1 + 0.2j)
    want = eval_kernel(space, z_pt, z_pt)
    assert complex(payload["re"], payload["im"]) == pytest.approx(want, rel=1e-12)


_UNIT = [1, 0]
_HUGE = "1" + "0" * 400  # 10**400 as a JSON integer
_ABOVE_MAX = str(int(sys.float_info.max) + 1)  # float() rounds it down to the largest float
_NAMED = "'points[1]' must be a finite number, got"


@pytest.mark.parametrize("space, points, code, message", [
    ("spin", f"[{_UNIT},[1,true]]", 2, f"{_NAMED} True"),
    ("spin", f"[{_UNIT},[[1,0],[true,0]]]", 2, f"{_NAMED} True"),
    ("spin", f'[{_UNIT},[1,"0"]]', 2, f"{_NAMED} '0'"),
    ("spin", f"[{_UNIT},[1,NaN]]", 2, f"{_NAMED} nan"),
    ("spin", f"[{_UNIT},[[1,Infinity],0]]", 2, f"{_NAMED} inf"),
    ("spin", f"[{_UNIT},[1,{_HUGE}]]", 2, f"{_NAMED} {_HUGE}"),
    ("spin", f"[{_UNIT},[1,{_ABOVE_MAX}]]", 2, f"{_NAMED} {_ABOVE_MAX}"),
    ("spin", f"[{_UNIT},[[1,2,3],0]]", 2, "'points[1]' must be a list of 2 numbers, got [1, 2, 3]"),
    ("spin", f"[{_UNIT},[1,0,0]]", 1, "spin: label has 3 coordinates, expected 2"),
    ("spin", "[[1,0,0],[1,0,0]]", 1, "spin: label has 3 coordinates, expected 2"),
    ("spin", f"[{_UNIT},[]]", 1, "spin: label has 0 coordinates, expected 2"),
    ("spin", "[]", 2, "'points' must be a non-empty list"),
    ("spin", f"[{_UNIT},5]", 2, "points[1]: must be a coordinate list or an object with 'coords'"),
    ("spin", f'[{_UNIT},{{"coords":3}}]', 2, "points[1]: coordinates must be a list"),
    ("spin", f'[{_UNIT},{{"multiplier":[1,0]}}]', 2, "missing required key 'points[1].coords'"),
    ("spin", f'[{_UNIT},{{"coords":[1,0],"x":1}}]', 2,
     "unknown key 'points[1].x'; accepted keys: coords, multiplier"),
    ("heisenberg", '[{"coords":[1],"multiplier":[1,0]},{"coords":[1],"multiplier":1}]', 2,
     "'points[1].multiplier' must be a list of 2 numbers, got 1"),
    ("heisenberg", '[{"coords":[1],"multiplier":[1,0]},{"coords":[1],"multiplier":[1,NaN]}]', 2,
     "'points[1].multiplier' must be a finite number, got nan"),
    ("heisenberg", '[{"coords":[1],"multiplier":[1,0]},[1]]', 1,
     "heisenberg: line-bundle point needs a multiplier"),
    ("spin", f"[{_UNIT},[0.6,0.6],[1,0,0]]", 1,
     "spin: constraint 'unit spinor norm' violated (residual 1.515e-01)"),
    ("spin", f"[{_UNIT},[1,0,0],[0.6,0.6]]", 1, "spin: label has 3 coordinates, expected 2"),
    ("spin", f"[{_UNIT},[0.6,0.6],[[0.9,0],[0,0.9]],[0.5,0]]", 1,
     "spin: constraint 'unit spinor norm' violated (residual 1.515e-01)"),
], ids=["bool", "bool-in-pair", "string", "nan", "inf", "int-beyond-float64",
        "int-just-beyond-float64", "three-numbers",
        "ragged", "wrong-dimension", "no-coordinates", "no-points", "number-point",
        "number-coords", "no-coords", "unknown-key", "bare-multiplier", "nan-multiplier",
        "no-multiplier", "off-sphere-before-ragged", "ragged-before-off-sphere",
        "first-off-sphere-row"])
def test_bad_points_fail_with_the_first_bad_entry(tmp_path, monkeypatch, capsys,
                                                  space, points, code, message):
    # exit 2 names points[i]; exit 1 is the first bad row's invalid-point diagnostic
    space = json.dumps({"spin": {"kind": "spin", "exponent": 2},
                        "heisenberg": {"kind": "heisenberg", "modes": 1}}[space])
    got, out, err = run_cli(["kernel-gram", "--space", space, "--points", points],
                            tmp_path, monkeypatch, capsys)
    assert (got, out) == (code, "")
    if code == 2:
        assert err == f"config error: {message}\n"
    else:
        assert json.loads(err) == {"error": "invalid-point", "message": message}
    assert not list(tmp_path.glob("cohspace-*"))


_FLOAT_MAX = int(sys.float_info.max)
_GOOD = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**64, 2**64),
                  st.sampled_from([-0.0, 0, 2**53 + 1, _FLOAT_MAX, -sys.float_info.max]))
_BAD = st.sampled_from([True, False, "1", None, float("nan"), float("inf"), -float("inf"),
                        10**400, _FLOAT_MAX + 1, [1.0], {"re": 1.0}])
_NUMBER = st.one_of(_GOOD, _GOOD, _GOOD, _GOOD, _GOOD, _BAD)
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)
_COORD = st.one_of(_NUMBER, _PAIR, _PAIR, _PAIR, st.lists(_GOOD, min_size=0, max_size=3))


# unit spinors written as pairs and bare reals, with signed zeros
_SPINORS = st.sampled_from([[1, 0], [0, 1.0], [0.6, 0.8], [[0.6, -0.0], [0, 0.8]],
                            [[-0.0, 0.6], -0.8], [-0.6, [0, -0.8]], [[0.0, -1.0], -0.0]])
_GOOD_PAIR = st.lists(_GOOD, min_size=2, max_size=2)


def _good_entry(space):
    """A config label entry the space accepts."""
    d = space.label_dim
    coords = (_SPINORS if space.kind == "spin" else
              st.lists(st.one_of(_GOOD, _GOOD_PAIR), min_size=d, max_size=d))
    with_mult = st.fixed_dictionaries({"coords": coords, "multiplier": _GOOD_PAIR})
    if space.projective_degree is not None:
        return with_mult
    return st.one_of(coords, coords, st.fixed_dictionaries({"coords": coords}), with_mult)


def _entry(dim):
    """A config label entry: often of the right shape, with every way it can go wrong."""
    coords = st.one_of(*[st.lists(_COORD, min_size=dim, max_size=dim)] * 6,
                       st.lists(_COORD, min_size=0, max_size=dim + 1))
    mult = st.one_of(_PAIR, _PAIR, _PAIR, _NUMBER, st.lists(_GOOD, min_size=3, max_size=3))
    return st.one_of(
        coords, coords, coords,
        st.fixed_dictionaries({"coords": coords}, optional={"multiplier": mult}),
        st.fixed_dictionaries({"coords": coords, "multiplier": mult}),
        st.fixed_dictionaries({"coords": coords, "multiplier": mult}),
        st.fixed_dictionaries({"multiplier": mult}, optional={"coords": st.one_of(_NUMBER, coords),
                                                              "other": _GOOD}),
        _NUMBER, st.text(max_size=2))


def _parsed(parse):
    """("ok", *arrays) of a parse, or (error kind, message)."""
    try:
        return ("ok",) + parse()
    except (ConfigError, ValueError) as exc:
        return "config", str(exc)
    except InvalidPointError as exc:
        return "invalid-point", str(exc)


_GOOD_ROWS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), _GOOD, _GOOD).map(list),
                      max_size=2)
# what a mutation puts in place of an item: bad numbers, odd lists and non-integral sites
_ODD = st.one_of(st.sampled_from([0.5, -2.0, 1e300, 10**300, 2**53 + 2, float("nan"), 10**400]),
                 _BAD, st.lists(_NUMBER, max_size=5), _GOOD)

# numeric field -> (its sound config values, the package's reader, the one-number-at-a-time oracle)
_FIELDS = {
    "matrix": (st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(_GOOD_PAIR, min_size=n, max_size=n), min_size=n, max_size=n)),
        lambda v: (errors.check_value("map.matrix", "matrix", v),),
        lambda v: (oracles.number_array(v, "map.matrix", (None, None, 2), True),)),
    "pairs": (st.lists(_GOOD_PAIR, max_size=3),
              lambda v: (errors.check_value("space.coeffs", "pairs", v),),
              lambda v: (oracles.number_array(v, "space.coeffs", (None, 2), True),)),
    "rows": (st.lists(st.lists(_GOOD, min_size=5, max_size=5), max_size=3),
             lambda v: (errors.check_numbers(v, "algebra.structure", (None, 5)),),
             lambda v: (oracles.number_array(v, "algebra.structure", (None, 5)),)),
    "fixed": (_GOOD_PAIR, lambda v: (errors.check_numbers(v, "t_span", (2,)),),
              lambda v: (oracles.number_array(v, "t_span", (2,)),)),
    "triples": (st.lists(st.lists(_GOOD_ROWS, min_size=3, max_size=3), max_size=3),
                lambda v: tuple(causal.triples_from_rows(v)), oracles.triples_walk),
}


def _paths(x, at=()):
    """The index path of nested lists x and of every item in them."""
    yield at
    if isinstance(x, list):
        for i, item in enumerate(x):
            yield from _paths(item, at + (i,))


def _mutated(data, value):
    """value with up to two of its items, or itself, replaced by an odd one."""
    for _ in range(data.draw(st.integers(0, 2))):
        *parent, last = data.draw(st.sampled_from(list(_paths(value))[::-1])) or [None]
        if last is None:
            value = data.draw(_ODD)
            continue
        holder = value
        for i in parent:
            holder = holder[i]
        holder[last] = data.draw(_ODD)
    return value


@given(st.sampled_from(["points"] * 6 + ["fields"]),
       st.sampled_from([{"kind": "spin", "exponent": 2}, {"kind": "heisenberg", "modes": 1},
                        {"kind": "trivial", "dim": 1}]), st.data())
@settings(max_examples=480)
def test_points_parse_as_the_per_entry_route(kind, desc, data):
    """The one-conversion parse gives the bits and the first error of the
    per-entry parse kept in oracles: label_entry, then label_stack, for
    points; number_array for each numeric field and triples_walk for triples."""
    if kind == "points":
        cases = [_parsed_points(space_from_descriptor(desc), data)]
    else:
        values = [(_mutated(data, data.draw(field[0])), field) for field in _FIELDS.values()]
        cases = [[_parsed(lambda: route(value)) for route in field[1:]] for value, field in values]
    for got, want in cases:
        assert got[0] == want[0], (got, want)
        if got[0] != "ok":
            assert got[1] == want[1]
            continue
        for a, b in zip(got[1:], want[1:]):
            assert (a is None) == (b is None)
            assert a is None or (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _parsed_points(space, data):
    """The parse of drawn points by the CLI and by the oracle."""
    line = space.projective_degree is not None
    entries = data.draw(st.lists(_good_entry(space), min_size=1, max_size=6))
    for _ in range(data.draw(st.integers(0, 2))):  # up to two entries replaced or appended
        at = data.draw(st.integers(0, len(entries)))
        entries[at:at + 1] = [data.draw(_entry(space.label_dim))]
    names = [f"points[{i}]" for i in range(len(entries))]

    def stacked():
        coords, mults = cli._points_of({"points": entries}, space)
        kernels.check_stack(space, coords, mults)  # as the Gram does
        return coords, mults if line else None  # off a line bundle no kernel reads them

    def oracle():
        labels = [oracles.label_entry(e, name) for e, name in zip(entries, names)]
        return oracles.label_stack(labels, space.label_dim, line,
                                   lambda c, m: kernels.check_stack(space, c, m))

    return _parsed(stacked), _parsed(oracle)


def _stack(d, n, data):
    """n config labels of d [re, im] pairs: floats, ints and signed zeros."""
    parts = data.draw(hnp.arrays(np.float64, (n, d, 2), elements=st.floats(
        allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0, -1.5])))
    ints = np.trunc(np.clip(parts, -2.0**62, 2.0**62)).astype(np.int64).astype(object)
    return np.where(data.draw(hnp.arrays(np.bool_, (n, d, 2))), ints,
                    parts.astype(object)).tolist()


@given(st.integers(1, 3), st.integers(1, 400), st.data())
@settings(max_examples=60)
def test_a_plain_point_stack_reads_as_one_conversion(d, n, data):
    """A stack of plain [re, im] lists is read by one check_numbers call on the
    whole nest, and gives the bits (signs of zero too) of the per-entry route,
    which one {"coords": ...} entry forces."""
    space = space_from_descriptor({"kind": "trivial", "dim": d})
    entries = _stack(d, n, data)
    at = data.draw(st.integers(0, n - 1))
    shapes = []

    def counted(value, key, shape, pairs=False):
        shapes.append(shape)
        return errors.check_numbers(value, key, shape, pairs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "check_numbers", counted)
        got = cli._points_of({"points": entries}, space)
        assert shapes == [(None, d, 2)]
        want = cli._points_of({"points": entries[:at] + [{"coords": entries[at]}]
                                         + entries[at + 1:]}, space)
        assert shapes[1:] == [(None, 2)]
    assert got[1] is None and want[1] is None
    assert (got[0].dtype, got[0].shape, got[0].tobytes()) == \
        (want[0].dtype, want[0].shape, want[0].tobytes())


_PINNED = np.random.default_rng(3).standard_normal((400, 2, 2)).tolist()


@pytest.mark.parametrize("entry, code, message", [
    ("[[1.0,NaN],[0.5,0.5]]", 2, "config error: 'points[250]' must be a finite number, got nan"),
    ("[[1.0,true],[0.5,0.5]]", 2, "config error: 'points[250]' must be a finite number, got True"),
    ('[[1.0,"0"],[0.5,0.5]]', 2, "config error: 'points[250]' must be a finite number, got '0'"),
    ("[[1.0,2.0,3.0],[0.5,0.5]]", 2,
     "config error: 'points[250]' must be a list of 2 numbers, got [1.0, 2.0, 3.0]"),
    ("[[1.0,0.0],[0.5,0.5],[0.1,0.2]]", 1,
     '{"error": "invalid-point", "message": "trivial: label has 3 coordinates, expected 2"}'),
], ids=["nan", "bool", "string", "three-numbers", "width-change"])
def test_a_bad_entry_deep_in_a_plain_stack_keeps_its_message(tmp_path, monkeypatch, capsys,
                                                             entry, code, message):
    """Entry 250 of 400 spoils the one-conversion read; the per-entry route
    then names it, with the messages it gives on its own (a width change is
    the label check's, which names the dimensions)."""
    points = [json.dumps(p) for p in _PINNED]
    points[250] = entry
    got, out, err = run_cli(["kernel-gram", "--space", '{"kind":"trivial","dim":2}',
                             "--points", f"[{','.join(points)}]"], tmp_path, monkeypatch, capsys)
    assert (got, out, err) == (code, "", message + "\n")


def test_the_report_echoes_a_400_point_config_as_json_dumps(tmp_path):
    """The report of a kernel-check on 400 labels is json.dumps's text of the
    report, the effective config included."""
    config = {"command": "kernel-check", "space": {"kind": "trivial", "dim": 2},
              "points": _PINNED, "out": str(tmp_path / "p.csv")}
    report = cli.run(config)
    report_path = report.pop("report_path")
    text = Path(report_path).read_text()
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_exit_1_names_a_span_too_long_for_the_float_resolution_of_t(tmp_path, monkeypatch,
                                                                    capsys):
    # the README variational flow: its first step, 0.04, is below the floor 1e-14 * span
    code, out, err = run_cli(
        ["dyn-tdvp", "--space", '{"kind":"spin","exponent":4}',
         "--energy", '{"kind":"spin_axis","axis":[0,0,1],"coeff":1.1}',
         "--z0", "[[0.8,0],[0.48,0.36]]", "--t-span", "[0,1e13]"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "integrator-failure",
        "message": "a span of 1e+13 is too long for the float resolution of t: the first step "
                   "h = 4.118e-02 is below the step floor 1e-14 * span = 1.000e-01"}


def test_the_second_argument_of_gram_matrix_counts_the_labels(tmp_path, monkeypatch):
    """The benchmark's tracer counts Gram entries as len(args[1]) ** 2 of
    gram_matrix: its second argument is the (n, d) label stack on every route
    that forms a Gram (the PSD checks and quantum spaces of integer spins take
    the SVD of their features instead)."""
    assert list(inspect.signature(kernels.gram_matrix).parameters)[:2] == ["space", "coords"]
    original, seen = kernels.gram_matrix, []

    def spy(*args, **kwargs):
        seen.append((len(args[1]), args[1].shape))
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "gram_matrix", spy)
    monkeypatch.chdir(tmp_path)
    spin = {"kind": "spin", "exponent": 2}
    identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    spinors = [[1, 0], [0, 1], [0.6, 0.8]]
    for config in ({"command": "kernel-gram", "space": spin, "points": spinors},
                   {"command": "kernel-check", "space": {"kind": "spin", "exponent": 2.5},
                    "count": 5},
                   {"command": "qspace-build", "space": {"kind": "klauder"}, "count": 4},
                   {"command": "quantize", "space": {"kind": "klauder"}, "count": 6,
                    "map": {"kind": "linear", "matrix": identity}}):
        cli.run(config)
    assert seen == [(3, (3, 2)), (5, (5, 2)), (4, (4, 2)), (6, (6, 2))]


_FEATURE_CHECKS = [{"kind": "trivial", "dim": 3}, {"kind": "euclidean_subset", "dim": 2},
                   "icosahedron", {"kind": "spin", "exponent": 0},
                   {"kind": "spin", "exponent": 8}, {"kind": "spin", "exponent": 40}]


def test_a_feature_kind_check_forms_no_gram_and_runs_no_eigensolver(tmp_path, monkeypatch):
    """kernel-check takes sigma^2 from the feature SVD for the feature kinds;
    a fractional spin and Klauder still form one Gram and solve it once."""
    seen = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            seen.append((name, len(args[1] if name == "gram" else args[0])))
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "gram_matrix", spy("gram", kernels.gram_matrix))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.chdir(tmp_path)
    for space in _FEATURE_CHECKS:
        cli.run({"command": "kernel-check", "space": space, "count": 12})
    assert seen == []
    for space in ({"kind": "spin", "exponent": 2.5}, {"kind": "klauder"}):
        cli.run({"command": "kernel-check", "space": space, "count": 7})
    assert seen == [("gram", 7), ("eigvalsh", 7)] * 2


@pytest.mark.parametrize("space", _FEATURE_CHECKS, ids=["trivial3", "euclidean2", "icosahedron",
                                                        "spin0", "spin8", "spin40"])
def test_kernel_check_gram_norm_is_the_first_qspace_eigenvalue_bit_for_bit(tmp_path, monkeypatch,
                                                                           space):
    monkeypatch.chdir(tmp_path)
    for command in ("kernel-check", "qspace-build"):
        cli.run({"command": command, "space": space, "count": 30, "seed": 3})
    check = json.loads((tmp_path / "cohspace-kernel-check.json").read_text())
    _, rows = read_csv(tmp_path / "cohspace-qspace-build.csv")
    assert check["passed"] and check["gram_norm"] == float(rows[0][1])


def test_exit_1_numerical_error_on_an_overflowed_feature_spectrum(tmp_path, monkeypatch, capsys):
    # the features 1e300 z are finite; sigma_max^2 = 2e600 is not
    factory, fields = kernels._CATALOG["trivial"]
    monkeypatch.setitem(kernels._CATALOG, "trivial", (
        lambda dim: dataclasses.replace(factory(dim), features=lambda a: a * 1e300), fields))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        code, out, err = run_cli(["kernel-check", "--space", '{"kind":"trivial","dim":1}',
                                  "--points", "[[1],[1]]"], tmp_path, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "numerical-error", "message": (
        "trivial: the largest Gram eigenvalue (1.414e+300)^2 is not finite; "
        "it overflowed float64")}
    assert list(tmp_path.iterdir()) == []
