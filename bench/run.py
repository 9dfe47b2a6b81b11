"""cohspace benchmark: real CLI runs, oracle-checked, in reference seconds.

    python3 bench/run.py --workload gram --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process each

One workload runs in this fresh process: one client in a closed loop calls
``cohspace.cli.run(config)`` (payload, report and sha256 written exactly as
the CLI writes them) over the workload's fixed batch, pass after pass, until
``--seconds`` have elapsed.  BLAS/OpenMP are pinned to one thread before
numpy loads.  Every payload is checked against an oracle from ``checks.py``
after its pass.  Times are reference seconds (``reference.py``); raw seconds
and the scale factor are printed beside each.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``spans.PER_LAYER``.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics.  Exit status: 0 when every run is
correct, 1 when a run failed (the result is still printed), 2 when set-up
failed (no result).  Outputs go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import probe

probe.pin_threads()  # before the imports below load numpy

import checks  # noqa: E402
import numpy as np  # noqa: E402
import reference  # noqa: E402
import scipy  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
LEDGER = BENCH / "ledger.json"

SETUP_PROBES = 5           # timed set-up probes per run, after one warm-up probe
REF_SAMPLES_PER_PASS = 32  # reference loops per pass, in blocks around the runs
PROBE_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("run_p50_s", "s"), ("run_p90_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class Pass:
    traced: bool
    times: list = field(default_factory=list)      # raw seconds per run
    reports: list = field(default_factory=list)    # report dict or None
    errors: list = field(default_factory=list)     # exception text or None
    blocks: list = field(default_factory=list)     # raw reference-loop seconds: one
    quantities: dict = field(default_factory=dict)  # block before each run, one after
    spans: list = field(default_factory=list)

    @property
    def wall(self):
        return sum(self.times)

    @property
    def refs(self):
        return [t for block in self.blocks for t in block]

    def scaled_times(self):
        """Run times in reference seconds, each scaled by the loops right before and after it."""
        return [t * reference.factor(self.blocks[i] + self.blocks[i + 1])
                for i, t in enumerate(self.times)]

    @property
    def factor(self):
        return sum(self.scaled_times()) / self.wall


# ----------------------------------------------------------------- set-up


def measure_setup(workload, seed):
    """Per probe: raw seconds from spawn to ready, and the reference loops after."""
    out = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise probe.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:  # the first probe warms the page cache and bytecode caches
            out.append((rec["ready"] - start, rec["ref"]))
    return out


def thread_count():
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def environment():
    np.dot(np.ones((64, 64)), np.ones((64, 64)))  # a BLAS call, so a thread pool would exist
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = thread_count()
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": threads, "pin_ok": threads == 1,
    }


# ----------------------------------------------------------------- passes


def run_pass(cli, jobs, per_point, tracer=None, modules=None):
    p = Pass(traced=tracer is not None)
    if tracer is not None:
        tracer.reset()
        tracer.install(modules)
    try:
        p.blocks.append(reference.sample(per_point))
        for _label, cfg, _oracle in jobs:
            start = time.perf_counter()
            try:
                report, error = cli.run(cfg), None
            except Exception as exc:  # a failing run is counted, the pass goes on
                report, error = None, f"{type(exc).__name__}: {exc}"
            p.times.append(time.perf_counter() - start)
            p.reports.append(report)
            p.errors.append(error)
            p.blocks.append(reference.sample(per_point))
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        p.quantities = spans.pass_quantities(tracer)
        p.spans = tracer.spans
    return p


def check_pass(jobs, p, digests):
    """One message per failed run of the pass; `digests` holds first-pass digests."""
    failures = []
    for i, ((label, cfg, oracle), report, error) in enumerate(zip(jobs, p.reports, p.errors)):
        if error is not None:
            failures.append(f"{label}: raised {error}")
            continue
        try:
            found = checks.check_run(oracle, cfg, report)
        except Exception as exc:  # an unreadable payload is a failed run
            found = [f"oracle could not read the payload: {type(exc).__name__}: {exc}"]
        digest = report["payload"]["sha256"]
        if digests.setdefault(i, digest) != digest:
            found.append("payload differs from the first pass (not deterministic)")
        if found:
            failures.append(f"{label}: {'; '.join(found)}")
    return failures


# ----------------------------------------------------------------- ledger


def config_key(cfg):
    plain = {k: v for k, v in cfg.items() if k not in ("out", "report")}
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()[:16]


def ledger_report(workload, jobs, digests, record):
    """Compare payload digests with those recorded at the seed commit."""
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    known = ledger.setdefault(workload, {})
    status = {"unchanged": [], "changed": [], "unrecorded": []}
    for i, (label, cfg, _oracle) in enumerate(jobs):
        if i not in digests:
            continue
        key, digest = config_key(cfg), digests[i][:16]
        if key not in known:
            status["unrecorded"].append(label)
        else:
            status["unchanged" if known[key] == digest else "changed"].append(label)
        if record:
            known[key] = digest
    if record:
        LEDGER.write_text(json.dumps(ledger, indent=0, sort_keys=True) + "\n")
    return status


# ---------------------------------------------------------------- metrics


def end_to_end(plain, setup, peak_rss_mb):
    """(values in reference units, raw values): medians over passes and probes."""
    scaled = [p.scaled_times() for p in plain]
    values = {
        "setup_s": statistics.median(raw * reference.factor(refs) for raw, refs in setup),
        "wall_s": statistics.median(sum(s) for s in scaled),
        "run_p50_s": statistics.median(reference.percentile(s, 50) for s in scaled),
        "run_p90_s": statistics.median(reference.percentile(s, 90) for s in scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setup),
        "wall_s": statistics.median(p.wall for p in plain),
        "run_p50_s": statistics.median(reference.percentile(p.times, 50) for p in plain),
        "run_p90_s": statistics.median(reference.percentile(p.times, 90) for p in plain),
    }
    return values, raw


def per_layer(plain, traced):
    """(per-layer values, whether every count repeated exactly across traced passes)."""
    scaled = [spans.scaled(p.quantities, p.factor) for p in traced]
    mean = {k: sum(q[k] for q in scaled) / len(scaled) for k in scaled[0]}
    overhead = (statistics.median(sum(p.scaled_times()) for p in traced)
                / statistics.median(sum(p.scaled_times()) for p in plain) - 1.0)
    counts_repeat = all(q[k] == scaled[0][k] for q in scaled for k in mean if not spans.is_time(k))
    return spans.layer_metrics(mean, overhead), counts_repeat


# ------------------------------------------------------------------ main


def run_workload(args):
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
        modules, jobs = probe.setup(args.workload, args.seed)
    except (probe.SetupError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    env = environment()
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    for i, (_label, cfg, _oracle) in enumerate(jobs):
        cfg["out"] = str(out_dir / f"{i:03d}.payload")

    cli = modules["cli"]
    per_point = -(-REF_SAMPLES_PER_PASS // (len(jobs) + 1))
    tracer = spans.Tracer() if args.trace else None
    passes, problems, digests = [], [], {}
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        p = run_pass(cli, jobs, per_point, tracer if traced else None, modules)
        if not passes:  # before any oracle has run in this process
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(p)
        problems += check_pass(jobs, p, digests)
        if time.perf_counter() >= deadline and (not args.trace or len(passes) >= 2):
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    attempted = sum(len(p.times) for p in passes)
    ledger = ledger_report(args.workload, jobs, digests, args.record_ledger)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    refs = [t for p in passes for t in p.refs]

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({len(traced)} traced)  runs/pass {len(jobs)}  attempted {attempted}  "
          f"failed {len(problems)}  failed_frac {len(problems) / attempted:.4f}")
    print(f"env: python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"{env['blas']}  nproc {env['nproc']} (affinity {env['affinity']})  "
          f"threads {env['threads']}  pin {'ok' if env['pin_ok'] else 'DID NOT TAKE'}")
    print(f"reference loop: nominal {reference.NOMINAL_REF_S * 1e3:.4f} ms, median "
          f"{statistics.median(refs) * 1e3:.4f} ms over {len(refs)} loops; "
          f"pass factors {', '.join(f'{p.factor:.3f}' for p in passes)}")
    print("raw pass walls (s) / reference-loop medians (ms): " + ", ".join(
        f"{p.wall:.3f}{'t' if p.traced else ''}/{statistics.median(p.refs) * 1e3:.3f}"
        for p in passes))
    print(f"payload digests vs seed commit: {len(ledger['unchanged'])} unchanged, "
          f"{len(ledger['changed'])} changed, {len(ledger['unrecorded'])} unrecorded"
          + (f"; changed: {', '.join(ledger['changed'])}" if ledger["changed"] else ""))
    for msg in problems[:20]:
        print(f"FAILED {msg}")
    (OUT / f"passes-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "setup": setup, "passes": [{"traced": p.traced, "times": p.times, "blocks": p.blocks}
                                   for p in passes]}))

    if args.trace:
        values, counts_repeat = per_layer(plain, traced)
        units = dict(spans.PER_LAYER)
        for name, unit in spans.PER_LAYER:
            print(f"  {name:32s} {values[name]:14.6g} {unit}")
        accounted = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        print(f"layer self times sum to {accounted:.6f} s of cli.run_s {values['cli.run_s']:.6f} s;"
              f" counts repeat exactly across traced passes: {counts_repeat}")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"passes": [{"factor": p.factor, "spans": p.spans}
                                                     for p in traced]}))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values, raw = end_to_end(plain, setup, peak_rss_mb)
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            extra = (f"raw {raw[name]:.6f} s x factor {values[name] / raw[name]:.4f}"
                     if name in raw else "ru_maxrss after the first pass, before any check")
            print(f"  {name:12s} {values[name]:12.6f} {unit:3s} ({extra})")
        print(f"  samples: {len(setup)} set-up probes, {len(plain)} passes, "
              f"{sum(len(p.times) for p in plain)} runs (run percentiles per pass, "
              f"median over passes)")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


def run_all(args):
    """Each workload in its own fresh process; non-zero if any run failed."""
    status, results = 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--record-ledger"] if args.record_ledger else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if proc.returncode in (0, 1):
            results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": status == 0 and len(results) == len(WORKLOADS),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-ledger", action="store_true",
                        help="store this run's payload digests in ledger.json")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
