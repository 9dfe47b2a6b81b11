"""End-to-end checks of the command-line front end.

Most tests drive cli.main() in-process for speed; environment handling goes
through a real subprocess.  Each case works inside tmp_path so the default
artifact names never collide.  Subprocesses get the ``subprocess_env``
fixture from tests/conftest.py, whose PYTHONPATH starts with the absolute
directory this process imported cohspace from, so they import the same
cohspace as the test process, installed or not.
"""
import json
import subprocess
import sys

import numpy as np
import pytest

from cohspace import cli
from cohspace.io import complex_to_pairs
from cohspace.kernels import eval_kernel, point, space_from_descriptor
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


def test_report_config_echo_reproduces_run(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["qspace-build", "--space", "icosahedron", "--count", "12",
         "--seed", "5", "--out", "a.csv", "--report", "a.rep.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    echoed = json.loads((tmp_path / "a.rep.json").read_text())["config"]
    echoed["out"], echoed["report"] = "b.csv", "b.rep.json"
    (tmp_path / "echo.json").write_text(json.dumps(echoed))
    code, _, _ = run_cli(["qspace-build", "--config", "echo.json"],
                         tmp_path, monkeypatch, capsys)
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
         "--state", json.dumps({"form": complex_to_pairs(np.eye(4))}),
         "--observables", '["jz"]', "--t-span", "[0,1]", "--samples", "3",
         "--format", "json", "--out", "lie.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    adesc = json.loads((tmp_path / "lie.json").read_text())["algebra"]
    alg = algebra_from_descriptor(adesc)
    assert alg.basis_names == ("unit", "jx", "jy", "jz") or \
        list(alg.basis_names) == ["unit", "jx", "jy", "jz"]


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


def test_installed_entry_point_runs(tmp_path, subprocess_env):
    res = subprocess.run(
        [sys.executable, "-m", "cohspace.cli", "kernel-eval",
         "--space", '{"kind":"trivial","dim":2}', "--z", "[1,0]",
         "--z2", "[1,0]"],
        cwd=tmp_path, env=subprocess_env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "cohspace-kernel-eval.json").read_text())
    assert payload == {"re": 1.0, "im": 0.0}


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
    pts = sample_points(space, rng, 4)
    assert g_csv[0, 1] == pytest.approx(
        complex(eval_kernel(space, pts[0], pts[1])), abs=1e-15)


def test_point_objects_with_multiplier(tmp_path, monkeypatch, capsys):
    z = {"coords": [[1, 0], [0, 0]], "multiplier": [0.1, 0.2]}
    code, _, _ = run_cli(
        ["kernel-eval", "--space", '{"kind":"klauder","modes":1}',
         "--z", json.dumps(z), "--z2", json.dumps(z), "--out", "k.json"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "k.json").read_text())
    space = space_from_descriptor({"kind": "klauder", "modes": 1})
    z_pt = point([1, 0], 0.1 + 0.2j)
    want = eval_kernel(space, z_pt, z_pt)
    assert complex(payload["re"], payload["im"]) == pytest.approx(want, rel=1e-12)
