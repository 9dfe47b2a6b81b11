"""Per-layer tracing from the benchmark's own files.

``Tracer.install`` wraps cohspace's public functions at every module where
they are looked up (``from .kernels import gram_matrix`` binds a second name
in ``qspace``), plus a few methods on their classes, so that each call
records a span ``(name, start, end, parent, run_id)``.  Spans stay in memory
and are written when the benchmark ends.  ``Tracer.restore`` puts every
original attribute back.

Span names are ``<layer>.<operation>``; a layer's self time is the summed
duration of its spans minus the time their child spans cover, so the self
times of all layers add up to the time spent in ``cli.run``.  RHS closures
and step hooks passed to ``solve_rk45`` are recorded under the layer of the
module that called the solver (the kicked-top tangent field in ``chaos`` is
the variational chart RHS and counts as ``tdvp``).
"""

from __future__ import annotations

import collections
import dataclasses
import importlib
import inspect
import os
import time

LAYERS = ("cli", "io", "kernels", "qspace", "quantize", "reps", "dynamics", "tdvp", "chaos",
          "integrate", "spectra", "liealg", "causal")

MODULES = ("cli", "io", "kernels", "qspace", "quantize", "reps", "dynamics", "tdvp", "chaos",
           "integrate", "spectra", "liealg", "causal")

# layer whose RHS a solver call integrates, by calling module
_RHS_LAYER = {"chaos": "tdvp", "tdvp": "tdvp", "dynamics": "dynamics", "liealg": "liealg"}

# (module, function, span name); wrapped wherever the function is bound.
# Tracer.install also wraps cli.run, gram_matrix, solve_rk45, the Lyapunov
# drivers and the spectrum solver, which count besides timing.
_SPANNED = (
    ("io", "write_csv", "io.write"),
    ("io", "write_json", "io.write"),
    ("io", "sha256_file", "io.sha"),
    ("kernels", "check_coherence", "kernels.check"),
    ("kernels", "sample_points", "kernels.sample"),
    ("qspace", "build_quantum_space", "qspace.build"),
    ("quantize", "quantize_map", "quantize.map"),
    ("reps", "propagate_eig", "reps.propagate"),
    ("dynamics", "coherent_flow", "dynamics.flow"),
    ("tdvp", "dirac_frenkel_flow", "tdvp.flow"),
    ("liealg", "evolve_expectations", "liealg.evolve"),
    ("causal", "check_causal_conditions", "causal.check"),
)

# (module, class, method, span name or None for a timed counter)
_METHODS = (
    ("chaos", "KickedTop", "period", "chaos.period"),
    ("reps", "SpinRep", "dgamma", "reps.dgamma"),
    ("tdvp", "SphereChart", "embedding", None),
    ("tdvp", "FlatChart", "embedding", None),
)

_SPECTRAL_MODELS = ("oscillator_model", "coulomb_model", "free_particle_model")


def cohspace_modules():
    return {name: importlib.import_module(f"cohspace.{name}") for name in MODULES}


class Tracer:
    """Spans and counters for one pass; ``reset`` starts the next pass."""

    def __init__(self):
        self.reset()
        self._patches = []  # (owner, attribute, original)

    def reset(self):
        self.spans = []         # (name, start, end, parent index or -1, run_id)
        self.counts = collections.Counter()
        self.timers = collections.Counter()
        self.run_id = 0
        self._stack = []        # (index, name) of the spans open right now

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span; ``before`` may rewrite the
        arguments and ``after`` sees the result once the span is closed."""

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.run_id)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def timed_counter(self, key, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.timers[key] += time.perf_counter() - start
                self.counts[key] += 1

        timed.__wrapped__ = fn
        return timed

    def counter(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -------------------------------------------------------- special sites

    def _run(self, fn):
        def after(report, args, kwargs):
            self.run_id += 1
            self.counts["io.payload_bytes"] += os.path.getsize(report["payload"]["path"])

        return self.span("cli.run", fn, after=after)

    def _gram(self, fn):
        def before(args, kwargs):
            self.counts["kernels.gram_entries"] += len(args[1]) ** 2
            return args, kwargs

        return self.span("kernels.gram", fn, before=before)

    def _eval(self, fn):
        def counted(*args, **kwargs):
            self.counts["kernels.eval_calls"] += 1
            if self._stack and self._stack[-1][1] == "quantize.map":
                self.counts["quantize.kernel_evals"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _solve(self, fn, caller):
        layer = _RHS_LAYER.get(caller, caller)
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["f"] = self.span(f"{layer}.rhs", bound.arguments["f"])
            hook = bound.arguments.get("step_hook")
            if hook is not None:
                bound.arguments["step_hook"] = self.span(f"{layer}.hook", hook)
            return bound.args, bound.kwargs

        def after(sol, args, kwargs):
            self.counts["integrate.solves"] += 1
            self.counts["integrate.steps"] += sol.stats.steps
            self.counts["integrate.rejected"] += sol.stats.rejected

        return self.span("integrate.solve", fn, before=before, after=after)

    def _lyapunov(self, fn):
        def after(res, args, kwargs):
            self.counts["chaos.chart_switches"] += res.chart_switches

        return self.span("chaos.lyapunov", fn, after=after)

    def _spectrum(self, fn):
        def after(res, args, kwargs):
            self.counts["spectra.roots"] += len(res.discrete)

        return self.span("spectra.solve", fn, after=after)

    def _model(self, fn):
        def build(*args, **kwargs):
            model = fn(*args, **kwargs)
            fields = {f: self.counter("spectra.scalar_evals", getattr(model, f))
                      for f in ("m", "k", "xi", "xi_min", "xi_max")
                      if getattr(model, f) is not None}
            return dataclasses.replace(model, **fields)

        build.__wrapped__ = fn
        return build

    def _causal_kernel(self, fn):
        def build(*args, **kwargs):
            kernel, independent = fn(*args, **kwargs)
            return self.counter("causal.kernel_calls", kernel), independent

        build.__wrapped__ = fn
        return build

    # ------------------------------------------------------- install/restore

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, home, attr, make):
        original = getattr(modules[home], attr)
        for name, module in modules.items():
            if module.__dict__.get(attr) is original:
                self._patch(module, attr, make(original, name))

    def install(self, modules):
        """Wrap every binding of the traced functions in the cohspace modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        every = self._patch_everywhere
        for home, attr, name in _SPANNED:
            every(modules, home, attr, lambda f, m, n=name: self.span(n, f))
        every(modules, "cli", "run", lambda f, m: self._run(f))
        every(modules, "kernels", "gram_matrix", lambda f, m: self._gram(f))
        every(modules, "chaos", "lyapunov_kicked", lambda f, m: self._lyapunov(f))
        every(modules, "chaos", "lyapunov_continuous", lambda f, m: self._lyapunov(f))
        every(modules, "spectra", "solve_implicit_spectrum", lambda f, m: self._spectrum(f))
        every(modules, "kernels", "eval_kernel", lambda f, m: self._eval(f))
        every(modules, "integrate", "solve_rk45", lambda f, m: self._solve(f, m))
        for attr in _SPECTRAL_MODELS:
            every(modules, "spectra", attr, lambda f, m: self._model(f))
        every(modules, "causal", "lattice_weyl_kernel", lambda f, m: self._causal_kernel(f))
        for home, cls_name, attr, name in _METHODS:
            cls = getattr(modules[home], cls_name)
            original = cls.__dict__[attr]
            if name is None:
                self._patch(cls, attr, self.timed_counter(f"{home}.{attr}", original))
            else:
                self._patch(cls, attr, self.span(name, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------ arithmetic


def self_times(spans):
    """Per span: duration minus the part of its interval its children cover."""
    children = collections.defaultdict(list)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, _run) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------- layer metrics

# Every per-layer metric the traced run reports, in output order.  Units
# "s" and "us" are reference seconds and microseconds (see reference.py).
PER_LAYER = (
    ("cli.run_s", "s"), ("cli.self_s", "s"),
    ("io.write_s", "s"), ("io.sha_s", "s"), ("io.payload_mb", "MB"),
    ("io.write_mb_per_s", "MB/s"), ("io.self_s", "s"),
    ("kernels.gram_s", "s"), ("kernels.gram_calls", "count"), ("kernels.gram_entries", "count"),
    ("kernels.us_per_entry", "us"), ("kernels.check_self_s", "s"),
    ("kernels.eval_calls", "count"), ("kernels.sample_s", "s"), ("kernels.self_s", "s"),
    ("qspace.build_s", "s"), ("qspace.self_s", "s"), ("qspace.grams_per_build", "count"),
    ("quantize.map_s", "s"), ("quantize.self_s", "s"), ("quantize.kernel_evals", "count"),
    ("reps.s", "s"), ("reps.calls", "count"), ("reps.self_s", "s"),
    ("dynamics.flow_s", "s"), ("dynamics.self_s", "s"),
    ("tdvp.flow_s", "s"), ("tdvp.rhs_evals", "count"), ("tdvp.rhs_us", "us"),
    ("tdvp.embedding_calls", "count"), ("tdvp.embedding_s", "s"), ("tdvp.self_s", "s"),
    ("chaos.periods", "count"), ("chaos.period_us", "us"), ("chaos.chart_switches", "count"),
    ("chaos.lyapunov_s", "s"), ("chaos.self_s", "s"),
    ("integrate.solves", "count"), ("integrate.steps", "count"), ("integrate.rejected", "count"),
    ("integrate.accept_ratio", "ratio"), ("integrate.rhs_evals", "count"),
    ("integrate.solve_s", "s"), ("integrate.rhs_s", "s"),
    ("integrate.overhead_us_per_step", "us"), ("integrate.self_s", "s"),
    ("spectra.solve_s", "s"), ("spectra.scalar_evals", "count"), ("spectra.roots", "count"),
    ("spectra.self_s", "s"),
    ("liealg.evolve_s", "s"), ("liealg.self_s", "s"),
    ("causal.check_s", "s"), ("causal.kernel_calls", "count"), ("causal.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def is_time(key):
    return key.endswith(("_s", ".s"))


def scaled(quantities, factor):
    """Times (keys ending in _s or .s) multiplied by factor, counts as they are."""
    return {k: v * factor if is_time(k) else v for k, v in quantities.items()}


def pass_quantities(tracer):
    """Additive quantities of one traced pass; times in raw seconds."""
    spans = tracer.spans
    total = collections.Counter()
    own = collections.Counter()
    calls = collections.Counter()
    for (name, start, end, _parent, _run), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        own[name.split(".")[0]] += self_s
        calls[name] += 1
    rhs = [n for n in calls if n.endswith(".rhs")]
    c = tracer.counts
    q = {
        "cli.run_s": total["cli.run"],
        "io.write_s": total["io.write"], "io.sha_s": total["io.sha"],
        "io.payload_bytes": c["io.payload_bytes"],
        "kernels.gram_s": total["kernels.gram"], "kernels.gram_calls": calls["kernels.gram"],
        "kernels.gram_entries": c["kernels.gram_entries"],
        "kernels.check_self_s": own["kernels.check"], "kernels.eval_calls": c["kernels.eval_calls"],
        "kernels.sample_s": total["kernels.sample"],
        "qspace.build_s": total["qspace.build"], "qspace.builds": calls["qspace.build"],
        "qspace.build_grams": sum(1 for i, s in enumerate(spans) if s[0] == "kernels.gram"
                                  and _has_ancestor(spans, i, "qspace.build")),
        "quantize.map_s": total["quantize.map"], "quantize.kernel_evals": c["quantize.kernel_evals"],
        "reps.s": total["reps.propagate"] + total["reps.dgamma"],
        "reps.calls": calls["reps.propagate"] + calls["reps.dgamma"],
        "dynamics.flow_s": total["dynamics.flow"],
        "tdvp.flow_s": total["tdvp.flow"], "tdvp.rhs_evals": calls["tdvp.rhs"],
        "tdvp.rhs_total_s": total["tdvp.rhs"], "tdvp.embedding_calls": c["tdvp.embedding"],
        "tdvp.embedding_s": tracer.timers["tdvp.embedding"],
        "chaos.periods": calls["chaos.period"], "chaos.period_total_s": total["chaos.period"],
        "chaos.chart_switches": c["chaos.chart_switches"], "chaos.lyapunov_s": total["chaos.lyapunov"],
        "integrate.solves": c["integrate.solves"], "integrate.steps": c["integrate.steps"],
        "integrate.rejected": c["integrate.rejected"],
        "integrate.rhs_evals": sum(calls[n] for n in rhs),
        "integrate.solve_s": total["integrate.solve"],
        "integrate.rhs_s": sum(total[n] for n in rhs),
        "spectra.solve_s": total["spectra.solve"], "spectra.scalar_evals": c["spectra.scalar_evals"],
        "spectra.roots": c["spectra.roots"],
        "liealg.evolve_s": total["liealg.evolve"],
        "causal.check_s": total["causal.check"], "causal.kernel_calls": c["causal.kernel_calls"],
    }
    for layer in LAYERS:
        q[f"{layer}.self_s"] = own[layer]
    return q


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(q, overhead_frac):
    """The PER_LAYER values from (averaged) pass quantities."""
    out = {name: q[name] for name, _unit in PER_LAYER if name in q}
    attempts = q["integrate.steps"] + q["integrate.rejected"]
    out.update({
        "io.payload_mb": q["io.payload_bytes"] / 1e6,
        "io.write_mb_per_s": _ratio(q["io.payload_bytes"] / 1e6, q["io.write_s"]),
        "kernels.us_per_entry": 1e6 * _ratio(q["kernels.gram_s"], q["kernels.gram_entries"]),
        "qspace.grams_per_build": _ratio(q["qspace.build_grams"], q["qspace.builds"]),
        "tdvp.rhs_us": 1e6 * _ratio(q["tdvp.rhs_total_s"], q["tdvp.rhs_evals"]),
        "chaos.period_us": 1e6 * _ratio(q["chaos.period_total_s"], q["chaos.periods"]),
        "integrate.accept_ratio": _ratio(q["integrate.steps"], attempts),
        "integrate.overhead_us_per_step": 1e6 * _ratio(q["integrate.self_s"], attempts),
        "trace.overhead_frac": overhead_frac,
    })
    return {name: out[name] for name, _unit in PER_LAYER}
