"""Self-tests of the benchmark: span arithmetic, oracles, tracing, metric names.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import json
import sys

import pytest

import probe

sys.path.insert(0, str(probe.SRC))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_times_of_a_nested_tree():
    tree = [
        ("cli.run", 0.0, 10.0, -1, 0),
        ("kernels.gram", 1.0, 4.0, 0, 0),
        ("kernels.check", 2.0, 3.0, 1, 0),
        ("io.write", 5.0, 7.0, 0, 0),
        ("io.sha", 6.5, 8.0, 0, 0),   # overlaps its sibling: covered once
        ("tdvp.rhs", 9.5, 11.0, 0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 3 - 0.5, 2.0, 1.0, 2.0, 1.5, 1.5])
    # without overlap the self times partition the root exactly
    assert sum(spans.self_times(tree[:4])) == pytest.approx(10.0)


@pytest.fixture(scope="module")
def modules():
    return spans.cohspace_modules()


def _spin_points(n):
    import numpy as np

    v = np.random.default_rng(3).standard_normal((n, 4)).view(complex)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [[[c.real, c.imag] for c in row] for row in v]


def _rewrite_csv(report, edit):
    path = report["payload"]["path"]
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    report["payload"]["sha256"] = checks.sha256_file(path)  # leave it to the oracle


def test_perturbed_gram_entry_fails_its_oracle(tmp_path, modules):
    cli = modules["cli"]
    cfg = {"command": "kernel-gram", "space": {"kind": "spin", "exponent": 3},
           "points": _spin_points(6), "out": str(tmp_path / "g.csv")}
    report = cli.run(cfg)
    assert checks.check_run("gram", cfg, report) == []

    def perturb(rows):
        rows[3][4] = repr(float(rows[3][4]) + 1e-6)

    _rewrite_csv(report, perturb)
    assert any("gram" in p for p in checks.check_run("gram", cfg, report))


def test_shifted_root_fails_its_oracle(tmp_path, modules):
    cli = modules["cli"]
    cfg = {"command": "spec-solve", "model": "oscillator", "interval": [0, 4],
           "out": str(tmp_path / "s.csv")}
    report = cli.run(cfg)
    assert checks.check_run("spectrum", cfg, report) == []

    def shift(rows):
        rows[2][2] = rows[2][3] = repr(float(rows[2][2]) + 1e-6)

    _rewrite_csv(report, shift)
    assert any("roots" in p for p in checks.check_run("spectrum", cfg, report))


def test_digest_mismatch_is_caught(tmp_path, modules):
    cli = modules["cli"]
    cfg = {"command": "spec-solve", "model": "coulomb", "interval": [-0.6, -0.015],
           "out": str(tmp_path / "c.csv")}
    report = cli.run(cfg)
    with open(report["payload"]["path"], "a") as f:
        f.write("\n")
    assert checks.check_run("spectrum", cfg, report) == ["payload sha256 differs from the report"]


def _bindings(modules):
    out = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_traced_run_restores_every_wrapped_attribute_and_counts_exactly(tmp_path, modules):
    cli = modules["cli"]
    before = _bindings(modules)
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert modules["qspace"].gram_matrix is not before[("qspace", "gram_matrix")]
        n = 7
        cli.run({"command": "quantize", "space": {"kind": "trivial", "dim": 2}, "count": n,
                 "map": {"kind": "linear", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
                 "out": str(tmp_path / "q.csv")})
        cli.run({"command": "dyn-lyapunov", "system": "kicked_top", "kick": 3.0, "spin": 4,
                 "periods": 4, "out": str(tmp_path / "l.csv")})
    finally:
        tracer.restore()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    q = spans.pass_quantities(tracer)
    values = spans.layer_metrics(q, 0.0)
    assert values["qspace.grams_per_build"] == 2
    assert values["quantize.kernel_evals"] == n * n + n
    assert values["chaos.periods"] == 4
    assert values["integrate.rhs_evals"] > 0 and values["tdvp.embedding_calls"] > 0
    assert sum(values[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(
        values["cli.run_s"], rel=1e-9)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["gram", "kicked", "flows", "readme"])
def test_workloads_are_reproducible_from_the_seed(workload):
    import workloads

    a, b = workloads.build(workload, 5), workloads.build(workload, 5)
    assert json.dumps([j[1] for j in a]) == json.dumps([j[1] for j in b])
    assert json.dumps([j[1] for j in a]) != json.dumps([j[1] for j in workloads.build(workload, 6)])
    assert all(oracle in checks.CHECKS for _label, _cfg, oracle in a)
