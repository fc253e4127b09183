"""Span tracing for the traced run, installed from outside the package.

Only the traced run imports this module.  ``Tracer.install`` replaces each
function in ``TARGETS`` by a wrapper that records a span (name, start, end,
parent) in memory.  A module-level function is replaced at every
``greensfn`` module attribute that refers to it, so calls through a
``from .quadrature import integrate_panels`` alias are traced as well.  The
integrand handed to ``integrate_panels`` is wrapped too, which gives the
number of quadrature nodes and the integrand's own time.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the run is single-threaded.  A target
that no longer exists is reported as missing, with a warning, and its
metrics are left out; so is a cache's hit ratio when the call that marks
its misses is not traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import warnings
from array import array
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path)
TARGETS = (
    ("quadrature.integrate_panels", "greensfn.quadrature", "integrate_panels"),
    ("matrices.spectral_norm", "greensfn.matrices", "spectral_norm"),
    ("matrices.eigenvalues", "greensfn.matrices", "eigenvalues"),
    ("matrices.load_matrix", "greensfn.matrices", "load_matrix"),
    ("spectrum.snap_eigenvalue_clusters", "greensfn.spectrum", "snap_eigenvalue_clusters"),
    ("spectrum.split_spectrum", "greensfn.spectrum", "split_spectrum"),
    ("divdiff.divided_differences", "greensfn.divdiff", "divided_differences"),
    ("greens.newton_form", "greensfn.greens", "newton_form"),
    ("greens.greens_function", "greensfn.greens", "greens_function"),
    ("greens.precompute_products", "greensfn.greens", "precompute_products"),
    ("greens.spectral_projectors", "greensfn.greens", "spectral_projectors"),
    ("greens.greens_central_difference", "greensfn.greens", "greens_central_difference"),
    ("greens.verify_greens", "greensfn.greens", "verify_greens"),
    ("greens.GreensEvaluator.init", "greensfn.greens", "GreensEvaluator.__init__"),
    ("greens.GreensEvaluator.green", "greensfn.greens", "GreensEvaluator.green"),
    ("greens.GreensEvaluator.green_norm", "greensfn.greens", "GreensEvaluator.green_norm"),
    ("sensitivity.condition_bound", "greensfn.sensitivity", "condition_bound"),
    ("sensitivity.differential_spectrum", "greensfn.sensitivity", "differential_spectrum"),
    ("bounded.bounded_solution", "greensfn.bounded", "bounded_solution"),
    ("bounded.forcing", "greensfn.bounded", "ForcingFunction.__call__"),
    ("cli.main", "greensfn.cli", "main"),
)
INTEGRATE = "quadrature.integrate_panels"
INTEGRAND = "quadrature.integrand"
OP = "bench.op"
# Cache lookups and the traced call that every miss makes: while that call is
# traced, a lookup span without children is a hit.
CACHED = {
    "greens.GreensEvaluator.green": "greens.greens_function",
    "greens.GreensEvaluator.green_norm": "matrices.spectral_norm",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.installed: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nodes = 0
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, integrand: bool = False):
        """``fn`` wrapped so that every call records a span called ``name``."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if integrand and args:
                args = (self._integrand(args[0]),) + args[1:]
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _integrand(self, f):
        inner = self.span(INTEGRAND, f)

        def counted(s, *args, **kwargs):
            self.nodes += int(np.size(s))
            return inner(s, *args, **kwargs)

        return counted

    def install(self) -> None:
        for metric, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                warnings.warn(f"trace target {module_name}.{path} is gone ({exc}); "
                              f"metrics {metric}.* are absent")
                continue
            wrapped = self.span(metric, original, integrand=metric == INTEGRATE)
            if outer:
                setattr(owner, attr, wrapped)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "greensfn" or mod_name.startswith("greensfn."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
            self.installed.append(metric)

    def sees_misses(self, metric: str) -> bool:
        """Whether a miss of the cached ``metric`` shows as a child span."""
        if CACHED[metric] in self.installed:
            return True
        warnings.warn(f"{CACHED[metric]} is not traced, so {metric}.hit_ratio is absent")
        return False

    def _arrays(self):
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has_child = np.zeros(len(dur), dtype=bool)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        has_child[parent[nested]] = True
        return name, dur - child, has_child

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time (s) and calls without children."""
        name, self_time, has_child = self._arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        leaves = np.bincount(name, weights=~has_child, minlength=k)
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "leaves": int(leaves[i])}
            for i, n in enumerate(self.names)
        }

    def per_op_metrics(self, ops: int) -> dict[str, dict]:
        """Per-layer metrics, normalised per op where they are counts or times."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        totals = self.totals()
        for metric in self.installed + [INTEGRAND, OP]:
            tot = totals.get(metric, {"calls": 0, "self_s": 0.0, "leaves": 0})
            put(f"{metric}.calls", tot["calls"] / ops, "count/op")
            put(f"{metric}.self_ms", 1e3 * tot["self_s"] / ops, "ms/op")
            if metric in CACHED and self.sees_misses(metric):
                put(f"{metric}.hit_ratio", tot["leaves"] / tot["calls"] if tot["calls"] else 0.0, "ratio")
            if metric == INTEGRATE:
                put(f"{metric}.nodes", self.nodes / ops, "count/op")
        return out

    def save(self, path) -> None:
        """Write the spans: name index, parent index, start and end in seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start) - t0,
            end=np.array(self.end) - t0,
        )


def hand_count(tracer: Tracer, gf) -> list[str]:
    """Counts on A = diag(-1, 1) that can be worked out by hand.

    One evaluator makes one eigenvalue and one node-product call; K distinct
    nonzero times make K green, greens_function and newton_form calls and no
    cache hit; asking for the same times again makes K hits and no new
    greens_function call.  Returns the mismatches; checks of counts that are
    not traced are skipped with a warning.
    """
    problems = []
    times = (0.5, -0.5, 1.0, -1.0, 2.0)
    k = len(times)

    def expect(label, metric, field, want):
        if metric not in tracer.installed or (field == "leaves" and not tracer.sees_misses(metric)):
            warnings.warn(f"hand count: {metric}.{field} is not traced, check '{label}' skipped")
            return
        got = tracer.totals().get(metric, {"calls": 0, "leaves": 0})[field]
        if got != want:
            problems.append(f"{label}: {metric}.{field} = {got}, expected {want}")

    tracer.reset()
    ev = gf.GreensEvaluator(np.diag([-1.0, 1.0]).astype(complex))
    expect("one evaluator", "matrices.eigenvalues", "calls", 1)
    expect("one evaluator", "greens.precompute_products", "calls", 1)
    for t in times:
        g = ev.green(t)
        want = np.diag([np.exp(-t), 0.0]) if t > 0 else np.diag([0.0, -np.exp(t)])
        if not np.allclose(g, want, rtol=1e-13, atol=1e-15):
            problems.append(f"G({t}) on diag(-1, 1) is wrong")
    expect("K distinct times", "greens.GreensEvaluator.green", "calls", k)
    expect("K distinct times", "greens.GreensEvaluator.green", "leaves", 0)
    expect("K distinct times", "greens.greens_function", "calls", k)
    expect("K distinct times", "greens.newton_form", "calls", k)
    for t in times:
        ev.green(t)
    expect("same times again", "greens.GreensEvaluator.green", "calls", 2 * k)
    expect("same times again", "greens.GreensEvaluator.green", "leaves", k)
    expect("same times again", "greens.greens_function", "calls", k)
    tracer.reset()
    return problems
