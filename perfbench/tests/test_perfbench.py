"""Tests of the benchmark itself: reduced passes, and checks that catch faults.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import cmath
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import reference as ref
import tracing
import workloads
from reference import CheckFailed

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = {"small_s", "large_s", "setup_s", "peak_rss_mb"}
SEED = 3


def _op(workload, name, quick=True):
    ops = [op for op in workloads.build(workload, SEED, quick) if op.name.startswith(name)]
    assert ops, f"no operation named {name!r} in {workload}"
    return ops[0]


def _rejects(op, out):
    with pytest.raises(CheckFailed):
        op.check(out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_pass(workload, tmp_path):
    result = harness.run(workload, SEED, 0.0, False, 0.0, quick=True, results_dir=str(tmp_path))
    ops = workloads.build(workload, SEED, quick=True)
    passes = harness.schedule(ops, workloads.SMALL_PASSES.get(workload, 1))
    assert result["correct"]
    assert result["attempted"] == sum(len(p) for _, p in passes)
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads((tmp_path / f"{workload}-seed{SEED}-trace0.json").read_text())
    failed = [(p["workload"], p["tier"], p["operation"]) for p in report["problems"]]
    if workload == "cvp":
        # the one known fault: window-4 enumeration cannot certify the n = 3 AND oracle
        assert failed == [("cvp", "large", "AND oracle n=3 Fp k=4")]
        assert "certified=False" in report["problems"][0]["reason"]
    else:
        assert failed == []
    assert result["failed"] == len(failed)


def test_traced_pass_reports_every_layer_metric(tmp_path):
    result = harness.run("circuit", SEED, 0.0, True, 0.0, quick=True, results_dir=str(tmp_path))
    metrics = result["metrics"]
    assert set(metrics) == set(tracing.Tracer().layer_metrics(1)) | {"trace.overhead_s"}
    assert metrics["bounds.circuit_to_curve.gates"]["value"] > 0
    assert metrics["metrics.norm.calls"]["value"] > 0
    assert metrics["bounds.isometry_check.samples"]["value"] == 20 * 200
    assert (tmp_path / f"circuit-seed{SEED}-trace1-spans.csv").exists()


def test_tracer_self_time_and_patching():
    from sugeo import coords, geodesic

    original = coords.change_matrices
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert geodesic.change_matrices is coords.change_matrices is not original
        with tracer.root("op"):
            coords.change_matrices(np.zeros((2, 3)), 1)
    finally:
        tracer.uninstall()
    assert coords.change_matrices is original and geodesic.change_matrices is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["op:op", "coords.change_matrices"]
    metrics = tracer.layer_metrics(1)
    assert metrics["coords.change_matrices.points"][0] == 2
    assert 0 < metrics["coords.change_matrices.self_s"][0] <= tracer.spans[0][2] - tracer.spans[0][1]


def test_cvp_checks_reject_perturbed_outputs():
    op = _op("cvp", "AND oracle n=2")
    res = op.call()
    op.check(res)
    _rejects(op, dataclasses.replace(res, value=res.value + 1e-6))

    op = _op("cvp", "Fq SU n=2")
    res = op.call()
    op.check(res)
    moved = res.minimizer.copy()
    moved[1] += 1
    moved[2] -= 1  # keeps the SU trace constraint
    _rejects(op, dataclasses.replace(res, minimizer=moved))  # value no longer F at minimizer
    h = ref.reduce_phases(op_theta(op))
    kind, w = ref.diagonal_weights("Fq", 2, "SU", workloads.PEN_K, workloads.PEN_CUTOFF)
    worse = float(ref.diagonal_value(kind, w, h - ref.TWO_PI * moved))
    _rejects(op, dataclasses.replace(res, minimizer=moved, value=worse))  # not the minimum

    op = _op("cvp", "random n=3 F2 U", quick=False)
    exact = ref.f2_cvp_closed_form(op_theta(op))
    fake = dataclasses.replace(res, minimizer=np.zeros(8, dtype=int), value=exact, window_used=4)
    op.check(fake)
    _rejects(op, dataclasses.replace(fake, value=exact + 1e-6))

    op = _op("cvp", "coverage n=1 F1")
    op.check(0.25)
    _rejects(op, 0.25 + 4 * np.sqrt(0.25 * 0.75 / 2000))


def op_theta(op):
    """The phases a CVP operation hands the library (read from its closure)."""
    cells = dict(zip(op.call.__code__.co_freevars, op.call.__closure__))
    return cells["theta"].cell_contents


def test_shoot_checks_reject_perturbed_outputs():
    op = _op("shoot", "n=1 Fq")
    curve = op.call()
    op.check(curve)
    phased = dataclasses.replace(curve, anchors=[a.copy() for a in curve.anchors])
    phased.anchors[-1] = phased.anchors[-1] * cmath.exp(0.1j)
    _rejects(op, phased)
    speeds = curve.speeds.copy()
    speeds[-1] *= 1 + 1e-6
    _rejects(op, dataclasses.replace(curve, speeds=speeds))

    op = _op("shoot", "n=2 Fq stabilizer")
    curve = op.call()
    op.check(curve)
    xs = curve.xs.copy()
    xs[-1, 0] += 1e-6
    _rejects(op, dataclasses.replace(curve, xs=xs))


def test_residual_and_circuit_checks_reject_perturbed_outputs():
    op = _op("residual", "n=2 Fq")
    span, residual = op.call()
    op.check((span, residual))
    _rejects(op, (span, 2e-4))
    _rejects(op, (dataclasses.replace(span, elements=span.elements[:-1]), residual))
    generic = _op("residual", "n=2 generic")
    _rejects(generic, (None, 5e-3))

    op = _op("circuit", "n=2 circuit #1 Fq")
    traj = op.call()
    op.check(traj)
    unitaries = traj.unitaries.copy()
    unitaries[-1] *= cmath.exp(1e-6j)
    _rejects(op, dataclasses.replace(traj, unitaries=unitaries))
    _rejects(op, dataclasses.replace(traj, length=traj.length + 1e-6))

    op = _op("circuit", "isometry clifford F1")
    res = op.call()
    op.check(res)
    _rejects(op, dataclasses.replace(res, max_deviation=1e-9))
    op = _op("circuit", "isometry unitary F1 breaks")
    res = op.call()
    op.check(res)
    _rejects(op, dataclasses.replace(res, counterexample=None))


def test_reference_closed_forms():
    # AND oracle at n = 2 under the default cutoff is pi for every k
    assert ref.and_oracle_length(2, 4.0) == pytest.approx(np.pi)
    # n = 1 F2 coverage: a disc of radius sqrt(2) r in the (2 pi)^2 cell
    assert ref.f2_coverage_fraction(1, 1.5) == pytest.approx(1.5**2 / (2 * np.pi))
    kind, w = ref.diagonal_weights("F2", 3, "U")
    h = np.linspace(-3, 3, 8)
    assert ref.brute_force_cvp(kind, w, h, 1) == pytest.approx(ref.f2_cvp_closed_form(h))


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cvp", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
