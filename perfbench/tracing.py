"""Spans around sugeo's public functions, and the per-layer metrics they give.

The tracer replaces each listed function at every sugeo module attribute
bound to it (``coords.change_matrices`` and ``geodesic.change_matrices``
alike), so calls between the library's own modules are recorded too.  A span
is (name, start, end, parent, attributes); spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
direct children.  The benchmark opens one root span per operation, so every
library span belongs to the operation whose root it descends from.
"""

from __future__ import annotations

import csv
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict

# (module, function, attributes taken from (args, kwargs, result))
TRACED = (
    ("pauli", "basis_stack", None),
    ("pauli", "pauli_matrix", None),
    ("pauli", "to_matrix", None),
    ("pauli", "project_to_pauli", None),
    ("pauli", "stabilizer_span", None),
    ("metrics", "norm", None),
    ("metrics", "implicit_norm", None),
    ("metrics", "norms_batch", lambda a, k, out: {"rows": len(out)}),
    ("metrics", "grad_f_squared", None),
    ("metrics", "hessian", None),
    ("coords", "change_matrices", lambda a, k, out: {"points": len(out)}),
    ("geodesic", "shoot_geodesic", lambda a, k, out: {
        "n": out.n, "steps": len(out.ts) - 1, "segments": len(out.segments)}),
    ("geodesic", "el_residual", lambda a, k, out: {"samples": len(a[1].ts)}),
    ("geodesic", "pauli_geodesic_curve", None),
    ("lattice", "cvp_minimal_pauli_geodesic", lambda a, k, out: {
        "n": int(round(math.log2(len(out.minimizer)))),
        "certified": bool(out.certified),
        "retry": out.window_used > k.get("window", 2)}),
    ("lattice", "monte_carlo_coverage", None),
    ("bounds", "circuit_to_curve", lambda a, k, out: {"gates": out.gate_count}),
    ("bounds", "isometry_check", lambda a, k, out: {"samples": k.get("samples", 200)}),
)

PAULI_FUNCTIONS = tuple(f"pauli.{f}" for m, f, _ in TRACED if m == "pauli")


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sugeo" or name.startswith("sugeo."))]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch the library."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, attrs)
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name, t0, t1, parent, None)
            if attrs is not None:
                spans[index] = (name, t0, t1, parent, attrs(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = _library_modules()
        for mod_name, fn_name, attrs in TRACED:
            original = getattr(importlib.import_module(f"sugeo.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def root(self, name):
        """Context manager for the span of one benchmark operation."""
        return _Root(self, name)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "attrs"])
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                out.writerow([i, name, f"{t0:.9f}", f"{t1:.9f}", parent, attrs or ""])

    def layer_metrics(self, rounds: int) -> dict:
        """{name: (value, unit)}; sums and counts are per round over ``rounds`` traced rounds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        totals = defaultdict(float)
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[i]
            durations[name].append((t1 - t0, attrs or {}))
            for key, value in (attrs or {}).items():
                if key != "n":
                    totals[f"{name}.{key}"] += float(value)

        def per_round(x):
            return x / rounds

        def median_of(name, n, scale):
            picked = [d for d, a in durations[name] if a.get("n") == n]
            return statistics.median(picked) * scale if picked else 0.0

        def per_step_ms(n):
            shots = [(d, a["steps"]) for d, a in durations["geodesic.shoot_geodesic"] if a["n"] == n]
            steps = sum(s for _, s in shots)
            return 1e3 * sum(d for d, _ in shots) / steps if steps else 0.0

        cvp = "lattice.cvp_minimal_pauli_geodesic"
        c2c = "bounds.circuit_to_curve"
        gates = totals[f"{c2c}.gates"]
        out = {
            "lattice.cvp.calls": (per_round(calls[cvp]), "count"),
            "lattice.cvp.self_s": (per_round(self_s[cvp]), "s"),
            "lattice.cvp.certified": (per_round(totals[f"{cvp}.certified"]), "count"),
            "lattice.cvp.window_retries": (per_round(totals[f"{cvp}.retry"]), "count"),
            "lattice.cvp_ms.n2": (median_of(cvp, 2, 1e3), "ms"),
            "lattice.cvp_s.n3": (median_of(cvp, 3, 1.0), "s"),
            "lattice.monte_carlo_coverage.self_s": (per_round(self_s["lattice.monte_carlo_coverage"]), "s"),
            "geodesic.shoot_geodesic.self_s": (per_round(self_s["geodesic.shoot_geodesic"]), "s"),
            "geodesic.shoot_geodesic.steps": (per_round(totals["geodesic.shoot_geodesic.steps"]), "count"),
            "geodesic.shoot_geodesic.segments": (per_round(totals["geodesic.shoot_geodesic.segments"]), "count"),
            "geodesic.step_ms.n1": (per_step_ms(1), "ms"),
            "geodesic.step_ms.n2": (per_step_ms(2), "ms"),
            "geodesic.step_ms.n3": (per_step_ms(3), "ms"),
            "geodesic.el_residual.self_s": (per_round(self_s["geodesic.el_residual"]), "s"),
            "geodesic.el_residual.samples": (per_round(totals["geodesic.el_residual.samples"]), "count"),
            "geodesic.pauli_geodesic_curve.self_s": (per_round(self_s["geodesic.pauli_geodesic_curve"]), "s"),
            "coords.change_matrices.self_s": (per_round(self_s["coords.change_matrices"]), "s"),
            "coords.change_matrices.calls": (per_round(calls["coords.change_matrices"]), "count"),
            "coords.change_matrices.points": (per_round(totals["coords.change_matrices.points"]), "count"),
            "metrics.hessian.self_s": (per_round(self_s["metrics.hessian"]), "s"),
            "metrics.hessian.calls": (per_round(calls["metrics.hessian"]), "count"),
            "metrics.implicit_norm.self_s": (per_round(self_s["metrics.implicit_norm"]), "s"),
            "metrics.implicit_norm.calls": (per_round(calls["metrics.implicit_norm"]), "count"),
            "metrics.norms_batch.self_s": (per_round(self_s["metrics.norms_batch"]), "s"),
            "metrics.norms_batch.rows": (per_round(totals["metrics.norms_batch.rows"]), "count"),
            "metrics.grad_f_squared.self_s": (per_round(self_s["metrics.grad_f_squared"]), "s"),
            "metrics.grad_f_squared.calls": (per_round(calls["metrics.grad_f_squared"]), "count"),
            "metrics.norm.self_s": (per_round(self_s["metrics.norm"]), "s"),
            "metrics.norm.calls": (per_round(calls["metrics.norm"]), "count"),
            "bounds.circuit_to_curve.self_s": (per_round(self_s[c2c]), "s"),
            "bounds.circuit_to_curve.gates": (per_round(gates), "count"),
            "bounds.circuit_to_curve.ms_per_gate": (
                1e3 * sum(d for d, _ in durations[c2c]) / gates if gates else 0.0, "ms"),
            "bounds.isometry_check.self_s": (per_round(self_s["bounds.isometry_check"]), "s"),
            "bounds.isometry_check.samples": (per_round(totals["bounds.isometry_check.samples"]), "count"),
            "pauli.self_s": (per_round(sum(self_s[f] for f in PAULI_FUNCTIONS)), "s"),
            "pauli.calls": (per_round(sum(calls[f] for f in PAULI_FUNCTIONS)), "count"),
        }
        return out


class _Root:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index] = (f"op:{self.name}", self.start, time.perf_counter(), -1, None)
        t._stack.pop()
        return False
