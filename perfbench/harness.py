"""Set-up, closed-loop rounds and the report of one benchmark run.

A run sets the workload up several times (lazy caches cleared, inputs made
from the seed, caches warmed) and reports the median set-up.  It then runs
whole rounds until the run length is reached.  A round calls every
operation in a fixed order, each starting when the previous one returns;
the small tier runs ``workloads.SMALL_PASSES`` times per round.  Only the
library calls are timed; checks run between them.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import tracing
import workloads
from reference import CheckFailed
from sugeo import coords, lattice, pauli
from workloads import LARGE, SMALL

SETUP_REPEATS = 5
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _clear_lazy_caches():
    for name, module in sorted(sys.modules.items()):
        if module is not None and name.startswith("sugeo."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _warm_lazy_caches():
    for n in (1, 2, 3):
        for mode in (pauli.SU, pauli.U):
            pauli.basis_stack(n, mode)
            d = pauli.basis_dimension(n, mode)
            coords.change_matrices(np.zeros((1, d)), n, mode)
        lattice.diagonal_to_pauli(np.zeros(2**n))


def set_up(workload: str, seed: int, quick: bool = False):
    """Fresh caches and inputs; returns (operations, seconds taken)."""
    t0 = time.perf_counter()
    _clear_lazy_caches()
    ops = workloads.build(workload, seed, quick)
    _warm_lazy_caches()
    return ops, time.perf_counter() - t0


def schedule(ops, small_passes: int) -> list:
    """A round as [(tier, ops)]: the small-tier passes with the large ops between them."""
    small = [op for op in ops if op.tier == SMALL]
    large = [op for op in ops if op.tier == LARGE]
    passes = []
    for i in range(small_passes):
        passes.append((SMALL, small))
        if i < len(large):
            passes.append((LARGE, [large[i]]))
    if large[small_passes:]:
        passes.append((LARGE, large[small_passes:]))
    return passes


class Round:
    """Pass times, failed operations and wrong outputs of one round."""

    def __init__(self):
        self.small = []  # seconds of each small-tier pass
        self.large = 0.0  # seconds of all large-tier operations
        self.failed = []  # (op, reason)
        self.wrong = []  # (op, reason)

    @property
    def total(self):
        return sum(self.small) + self.large


def run_round(passes, tracer=None) -> Round:
    result = Round()
    for tier, ops in passes:
        seconds = 0.0
        for op in ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.call()
                else:
                    with tracer.root(op.name):
                        out = op.call()
            except Exception as exc:  # a library error fails this operation, not the run
                seconds += time.perf_counter() - t0
                result.failed.append((op, f"{type(exc).__name__}: {exc}"))
                traceback.print_exc(file=sys.stderr)
                continue
            seconds += time.perf_counter() - t0
            reason = op.failure(out)
            if reason is not None:
                result.failed.append((op, reason))
            try:
                op.check(out)
            except CheckFailed as exc:
                result.wrong.append((op, str(exc)))
        if tier == SMALL:
            result.small.append(seconds)
        else:
            result.large += seconds
    return result


def measure(passes, seconds: float, tracer=None) -> tuple:
    """Whole rounds until ``seconds`` have passed.

    With a tracer, rounds alternate untraced and traced (at least one each);
    returns (untraced rounds, traced rounds).
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(untraced) > len(traced):
            tracer.install()
            try:
                traced.append(run_round(passes, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(run_round(passes))
        enough = untraced and (tracer is None or traced)
        if enough and time.perf_counter() - start >= seconds:
            return untraced, traced


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _summarise(workload, rounds) -> list:
    """One line per distinct (kind, tier, operation, reason), with its count."""
    counts = {}
    for r in rounds:
        for kind, items in (("failed", r.failed), ("wrong", r.wrong)):
            for op, reason in items:
                key = (kind, op.tier, op.name, reason)
                counts[key] = counts.get(key, 0) + 1
    return [
        {"kind": kind, "workload": workload, "tier": tier, "operation": name,
         "reason": reason, "rounds": count}
        for (kind, tier, name, reason), count in sorted(counts.items())
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        quick: bool = False, results_dir: str = RESULTS_DIR) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    setups = []
    for _ in range(SETUP_REPEATS):
        ops, took = set_up(workload, seed, quick)
        setups.append(took)
    setup_s = import_s + statistics.median(setups)
    # The inputs and closures live for the whole run; keep the collector
    # from rescanning them during the timed calls.
    gc.collect()
    gc.freeze()
    passes = schedule(ops, workloads.SMALL_PASSES.get(workload, 1))
    tracer = tracing.Tracer() if trace else None
    try:
        untraced, traced = measure(passes, seconds, tracer)
    finally:
        gc.unfreeze()
    rounds = untraced + traced
    if trace:
        metrics = {name: _metric(value, unit)
                   for name, (value, unit) in tracer.layer_metrics(len(traced)).items()}
        overhead = (statistics.median(r.total for r in traced)
                    - statistics.median(r.total for r in untraced))
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    else:
        metrics = {
            "small_s": _metric(statistics.median(t for r in untraced for t in r.small), "s"),
            "large_s": _metric(statistics.median(r.large for r in untraced), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    problems = _summarise(workload, rounds)
    result = {
        "correct": not any(r.wrong for r in rounds),
        "attempted": sum(len(p) for _, p in passes) * len(rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": metrics,
    }

    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as f:
        json.dump({
            "workload": workload, "seed": seed, "seconds": seconds,
            "rounds": len(untraced), "traced_rounds": len(traced),
            "operations_per_round": sum(len(p) for _, p in passes),
            "round_seconds": [{SMALL: r.small, LARGE: r.large} for r in rounds],
            "setup_repeats_s": setups, "import_s": import_s,
            "problems": problems, "result": result,
        }, f, indent=1)
    if trace:
        tracer.write_csv(stem + "-spans.csv")

    for p in problems:
        print(f"{p['kind']}: {p['workload']}/{p['tier']} {p['operation']!r} "
              f"in {p['rounds']} round(s): {p['reason']}")
    return result

