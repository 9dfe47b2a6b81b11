"""Smoke runs of the experiment scripts in scripts/, each in a child interpreter."""

import csv
import math
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, args, cwd, env):
    res = subprocess.run([sys.executable, str(SCRIPTS / name)] + args, cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_kicked_top_scan(tmp_path, subprocess_env):
    run_script("kicked_top_scan.py", ["--periods", "50", "--kicks", "0.5:3:2", "--out", "scan.csv"],
               tmp_path, subprocess_env)
    with open(tmp_path / "scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["kick"]) for r in rows] == [0.5, 3.0]
    assert all(math.isfinite(float(v)) for r in rows for v in r.values())


def test_coulomb_levels(tmp_path, subprocess_env):
    out = run_script("coulomb_levels.py", ["--levels", "2", "--basis", "4"], tmp_path, subprocess_env)
    levels = [line.split() for line in out.splitlines() if line.split()[:1] in (["1"], ["2"])]
    assert len(levels) == 2
    assert all(float(rel) < 1e-8 for *_, rel in levels)


def test_tdvp_vs_exact(tmp_path, subprocess_env):
    out = run_script("tdvp_vs_exact.py", ["--spin", "2", "--t-final", "1", "--samples", "3"],
                     tmp_path, subprocess_env)
    exact_rows = out.split("twisting")[0].splitlines()[2:]
    deficits = [float(line.split()[1]) for line in exact_rows if line.strip()]
    assert len(deficits) == 3 and max(deficits) < 1e-10
    assert int(out.rsplit("chart switches:", 1)[1]) > 0
