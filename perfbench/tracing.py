"""Span tracing of the tscatter layers, from outside the program.

The tracer replaces every public function of the package's layer modules,
in every ``tscatter`` module namespace where it is bound, with a wrapper
that records one span (name, start, end, parent). It wraps the
``SpdMatrix`` methods the same way. Spans live in memory while a traced
batch runs; :meth:`Tracer.uninstall` puts the original objects back, so
untraced batches run the unmodified program.

A span's self time is its duration minus the durations of its direct
children. A layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from time import perf_counter

import numpy as np

LAYERS = ("cli", "domain_check", "scatter", "locscatter", "asymptotics", "oned", "simlab", "symspace")
SPD_METHODS = ("__init__", "solve", "inv", "logdet", "quad_forms")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        # span index -> facts read from the call's arguments or result
        self.facts: dict[int, tuple] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "scatter.solve_scatter": _fit_facts,
            "domain_check.check_scatter_domain": _check_facts,
            "simlab.run_clt_experiment": _mc_facts,
        }

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack)
        facts, hook = self.facts, self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(math.nan)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                facts[idx] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("tscatter")
        modules = [package] + [importlib.import_module(f"tscatter.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = obj.__module__.split(".")
                if origin[0] != "tscatter" or len(origin) != 2 or origin[1] not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{origin[1]}.{obj.__name__}", obj)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        spd = importlib.import_module("tscatter.symspace").SpdMatrix
        for meth in SPD_METHODS:
            orig = spd.__dict__[meth]
            self._patches.append((spd, meth, orig))
            setattr(spd, meth, self._wrap(f"symspace.SpdMatrix.{meth}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def arrays(self):
        """Span table as arrays: name id, start, end, parent index (-1 for roots)."""
        return (
            np.asarray(self.span_name, dtype=np.int32),
            np.asarray(self.start, dtype=float),
            np.asarray(self.end, dtype=float),
            np.asarray(self.parent, dtype=np.int64),
        )

    def save(self, path):
        names, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=names,
                            start=start, end=end, parent=parent)


def _fit_facts(args, kwargs, result):
    sample = args[0]
    evaluations = result.iterations + (result.stop_reason != "max_iter")
    return ("fit", sample.n, sample.d, evaluations)


def _check_facts(args, kwargs, result):
    # the points are immutable, so the distinct count is taken after the run
    return ("check", args[0].points, kwargs.get("method", "exact"))


def _mc_facts(args, kwargs, result):
    return ("mc", result.reps)


def qr_subset_tests(m: int, d: int) -> int:
    """Subsets the exact check QR-tests: all sizes 2..d-1 out of m distinct points."""
    return sum(math.comb(m, size) for size in range(2, d))


def layer_metrics(tracer: Tracer, batches: int, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics, averaged per traced batch."""
    name_of = tracer.names
    nid, start, end, parent = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    span_layer = np.array([n.split(".")[0] for n in name_of], dtype=object)[nid]

    def per_batch(x):
        return float(x) / batches

    def self_of(mask):
        return per_batch(self_t[mask].sum())

    def spans_named(name):
        return nid == name_of.index(name) if name in name_of else np.zeros(nid.size, bool)

    out = {}
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = self_of(span_layer == layer)

    ingest = spans_named("cli.ingest_csv")
    out["cli.ingest_csv.self_s"] = self_of(ingest)
    out["cli.main.self_s"] = self_of((span_layer == "cli") & ~ingest)

    # domain check: split by the dimension the exact check runs in
    subsets = 0
    by_dim = {2: 0.0, 3: 0.0, 4: 0.0}
    for idx, fact in tracer.facts.items():
        if fact[0] != "check":
            continue
        points, method = fact[1], fact[2]
        d = points.shape[1]
        if d in by_dim:
            by_dim[d] += self_t[idx]
        if method == "exact" and d <= 4:
            subsets += qr_subset_tests(np.unique(points, axis=0).shape[0], d)
    for d, t in by_dim.items():
        out[f"domain_check.self_s.d{d}"] = per_batch(t)
    out["domain_check.calls"] = per_batch(spans_named("domain_check.check_scatter_domain").sum())
    out["domain_check.subsets"] = per_batch(subsets)

    # solver: time excludes the domain check it may run first
    solve = spans_named("scatter.solve_scatter")
    dc = has_parent & (span_layer == "domain_check")
    dc_child = np.bincount(parent[dc], weights=dur[dc], minlength=dur.size)
    solver_s = float((dur - dc_child)[solve].sum())
    evaluations = flops = 0
    for fact in tracer.facts.values():
        if fact[0] == "fit":
            _, n, d, ev = fact
            evaluations += ev
            # per evaluation: triangular solve n*d^2, weighted outer product 2*n*d^2,
            # quadratic forms, weights and objective about 6*n*d
            flops += ev * (3 * n * d * d + 6 * n * d)
    out["scatter.calls"] = per_batch(solve.sum())
    out["scatter.iterations"] = per_batch(evaluations)
    out["scatter.ms_per_iter"] = 1e3 * solver_s / evaluations if evaluations else 0.0
    out["scatter.gflop_per_s_computed"] = flops / solver_s / 1e9 if solver_s > 0 else 0.0

    out["symspace.spd_new.calls"] = per_batch(spans_named("symspace.SpdMatrix.__init__").sum())
    out["asymptotics.hessian.self_s"] = self_of(spans_named("asymptotics.hessian"))
    out["oned.sigma_of_mu.calls"] = per_batch(spans_named("oned.sigma_of_mu").sum())
    out["simlab.replicates"] = per_batch(
        sum(f[1] for f in tracer.facts.values() if f[0] == "mc"))
    out["trace.wall_s"] = traced_wall_s
    return out
