"""A Curve's own checks, its length, and its JSON round trip.

Curve.__post_init__ checks every curve, however it was built: a shot, a tensor product, a
Pauli geodesic, a curve built by hand or one read from JSON.  curve_length integrates the
speed over every sample, across chart joints and backwards in time.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugeo.cli import dispatch
from sugeo.errors import DimensionMismatch, NonFiniteInput, TooFewSamples
from sugeo.geodesic import (
    Curve,
    curve_length,
    el_residual,
    pauli_geodesic_curve,
    shoot_geodesic,
    tensor_product_curve,
)
from sugeo.metrics import F2, FQ, MetricSpec, PenaltyFunction, norm
from sugeo.pauli import SU, U, PauliVector, algebra

F2_SPEC = MetricSpec(F2)
FQ_SPEC = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1))
FQ100 = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=100.0, low_weight_cutoff=1))
GENERIC = PauliVector.from_terms(2, {"XI": 0.9, "ZZ": 0.7, "IY": 0.4})


def _generic_json():
    """A Pauli geodesic whose residual is far from 0 (1.98): its H0 lies in no stabilizer."""
    return pauli_geodesic_curve(FQ100, GENERIC, 1.0).to_json()


def _null_t(obj):
    obj["samples"][7]["t"] = None


def _repeated_t(obj):
    obj["samples"][7]["t"] = obj["samples"][6]["t"]


def _null_speed(obj):
    obj["samples"][7]["speed"] = None


def _missing_speed(obj):
    del obj["samples"][7]["speed"]


def _anchor(scale=1.0):
    """scale times the 4 x 4 identity, as Curve.to_json writes an anchor (UnitaryOperator's JSON)."""
    return {"n": 2, "matrix": [[[scale * (i == j), 0.0] for j in range(4)] for i in range(4)]}


def _segment_past_the_end(obj):
    obj["segments"] = [0, len(obj["samples"])]
    obj["anchors"] = [_anchor()] * 2


def _non_unitary_anchor(obj):
    obj["anchors"] = [_anchor(1.1)]


def _segments_not_from_zero(obj):
    obj["segments"] = [3]


def _segments_descending(obj):
    obj["segments"] = [0, 50, 20]
    obj["anchors"] = [_anchor()] * 3


def _anchor_missing(obj):
    obj["segments"] = [0, 50]


def _no_samples(obj):
    obj["samples"] = []


def _u_metric_of_su_samples(obj):
    obj["metric"]["mode"] = "U"


# how the JSON of a valid curve is broken, the library's error, and the CLI's exit code
BROKEN = [
    (_null_t, NonFiniteInput, 1),
    (_repeated_t, ValueError, 2),
    (_null_speed, NonFiniteInput, 1),
    (_missing_speed, KeyError, 2),
    (_segment_past_the_end, ValueError, 2),
    (_non_unitary_anchor, ValueError, 2),
    (_segments_not_from_zero, ValueError, 2),
    (_segments_descending, ValueError, 2),
    (_anchor_missing, ValueError, 2),
    (_no_samples, ValueError, 2),
    (_u_metric_of_su_samples, DimensionMismatch, 1),
]


def test_the_generic_pauli_geodesic_is_far_from_a_geodesic():
    curve = Curve.from_json(_generic_json())
    assert el_residual(FQ100, curve) == pytest.approx(1.98, abs=0.01)


@pytest.mark.parametrize("breaking, error, code", BROKEN, ids=[b.__name__[1:] for b, _, _ in BROKEN])
def test_broken_curve_json_is_refused(capsys, tmp_path, breaking, error, code):
    """Each was read before: most gave a residual (a null t even 0.0, max(0.0, nan), exit 0), no
    samples an uncaught IndexError, and SU samples under a U metric failed only in el_residual."""
    obj = _generic_json()
    breaking(obj)
    with pytest.raises(error):
        Curve.from_json(copy.deepcopy(obj))
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(obj))
    got = dispatch(["geodesic-residual", "--curve", str(path)])
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, "")
    assert captured.err.startswith(error.__name__ if code == 1 else "usage error")


def test_curve_built_by_hand_is_checked():
    ts, xs = np.linspace(0.0, 1.0, 6), np.zeros((6, 3))
    Curve(F2_SPEC, ts[::-1], xs, xs, np.ones(6))  # backwards is monotone too
    Curve(F2_SPEC, np.zeros(6), xs, xs, np.ones(6))  # zero duration: every time the same
    bad_xs = xs.copy()
    bad_xs[2, 1] = np.inf
    with pytest.raises(NonFiniteInput):
        Curve(F2_SPEC, ts, bad_xs, xs, np.ones(6))
    with pytest.raises(ValueError, match="monotone"):
        Curve(F2_SPEC, np.array([0.0, 0.2, 0.1, 0.3, 0.4, 0.5]), xs, xs, np.ones(6))
    with pytest.raises(ValueError, match="monotone"):  # one repeated time among distinct ones
        Curve(F2_SPEC, np.array([0.0, 0.1, 0.1, 0.3, 0.4, 0.5]), xs, xs, np.ones(6))
    with pytest.raises(NonFiniteInput):
        Curve(F2_SPEC, ts, xs, xs, np.ones(6), anchors=[np.full((2, 2), np.nan)])
    with pytest.raises(DimensionMismatch):  # a y of two qubits against an x of one
        Curve(F2_SPEC, ts, xs, np.zeros((6, 15)), np.ones(6))
    with pytest.raises(DimensionMismatch):  # one speed short
        Curve(F2_SPEC, ts, xs, xs, np.ones(5))
    with pytest.raises(DimensionMismatch):  # 3 coefficients fit no qubit count in U mode
        Curve(MetricSpec(F2, mode=U), ts, xs, xs, np.ones(6))
    lam, V = np.zeros((6, 2)), np.broadcast_to(np.eye(2, dtype=complex), (6, 2, 2))
    Curve(F2_SPEC, ts, xs, xs, np.ones(6), spectrum=(lam, V))  # one V for every sample
    with pytest.raises(DimensionMismatch):  # a spectrum of 5 rows for 6 samples
        Curve(F2_SPEC, ts, xs, xs, np.ones(6), spectrum=(lam[:5], V[:5]))
    with pytest.raises(DimensionMismatch):  # a V of the wrong width
        Curve(F2_SPEC, ts, xs, xs, np.ones(6), spectrum=(lam, np.zeros((6, 2, 4), dtype=complex)))
    with pytest.raises(ValueError, match="unit vector"):  # a zero V, whose residual read 0.0
        Curve(F2_SPEC, ts, xs, xs, np.ones(6), spectrum=(lam, np.zeros((6, 2, 2), dtype=complex)))


def test_qubit_count_and_mode_come_from_the_samples_and_the_metric():
    ts = np.linspace(0.0, 1.0, 6)
    for spec, d, n in ((F2_SPEC, 3, 1), (F2_SPEC, 15, 2), (MetricSpec(F2, mode=U), 4, 1),
                       (MetricSpec(F2, mode=U), 16, 2)):
        curve = Curve(spec, ts, np.zeros((6, d)), np.zeros((6, d)), np.ones(6))
        assert (curve.n, curve.mode) == (n, spec.mode)
        assert curve.anchors[0].shape == (2**n, 2**n)


def test_zero_duration_curves_build_but_have_no_residual(capsys, tmp_path):
    """t_end = 0 gives all-equal times.  el_residual returned 0.0 for such a Pauli geodesic of
    a generic H0, which read as a pass; it raises ValueError now, and the CLI exits 2."""
    still = pauli_geodesic_curve(FQ100, GENERIC, 0.0)
    assert not np.any(still.ts) and curve_length(FQ100, still) == 0.0
    with pytest.raises(ValueError, match="zero duration"):
        el_residual(FQ100, still)
    shot = shoot_geodesic(FQ_SPEC, np.zeros(15), GENERIC.entries, 0.0, steps=10)
    assert not np.any(shot.ts)
    with pytest.raises(ValueError, match="zero duration"):
        el_residual(FQ_SPEC, shot)
    with pytest.raises(TooFewSamples):  # the default: one step, two samples
        el_residual(FQ_SPEC, shoot_geodesic(FQ_SPEC, np.zeros(15), GENERIC.entries, 0.0))
    path = tmp_path / "still.json"
    path.write_text(json.dumps(still.to_json()))
    assert dispatch(["geodesic-residual", "--curve", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error")


# ---------------------------------------------------------------------------
# length


def test_length_spans_the_chart_joints():
    """Simpson over each chart apart dropped the step from a chart's last sample to the next
    anchor: 6.703732 for this 3-chart F2 shot, against the exact F(y0) t = 3 sqrt(5)."""
    y0 = np.zeros(15)
    y0[[3, 7]] = [2.0, 1.0]
    curve = shoot_geodesic(F2_SPEC, np.zeros(15), y0, 3.0)
    assert len(curve.segments) == 3
    assert curve_length(F2_SPEC, curve) == pytest.approx(3.0 * np.sqrt(5.0), rel=1e-12)


def test_backward_curves_have_positive_length():
    """A t_end = -1 shot and Pauli geodesic had length -0.5477 = -F(y0)."""
    y0 = PauliVector.from_terms(2, {"XI": 0.4, "ZZ": -0.3, "YX": 0.2}).entries
    forward = shoot_geodesic(FQ_SPEC, np.zeros(15), y0, 1.0)
    backward = shoot_geodesic(FQ_SPEC, np.zeros(15), y0, -1.0)
    assert curve_length(FQ_SPEC, backward) == pytest.approx(curve_length(FQ_SPEC, forward), rel=1e-12)
    assert curve_length(FQ_SPEC, backward) == pytest.approx(norm(FQ_SPEC, y0), rel=1e-8)
    line = pauli_geodesic_curve(FQ_SPEC, PauliVector(2, SU, y0), -1.0)
    assert curve_length(FQ_SPEC, line) == pytest.approx(norm(FQ_SPEC, y0), rel=1e-12)


# ---------------------------------------------------------------------------
# JSON round trip


def _shot(family, n, raw, charts, direction):
    """A shot from a random y0 scaled so that the top eigenvalue of H0 reaches the re-anchoring
    phase pi - 0.2 about charts - 1/2 times over |t| = 1 (exactly so under F2)."""
    spec = F2_SPEC if family == F2 else FQ_SPEC
    y0 = np.array(raw[:4**n - 1])
    if np.linalg.norm(y0) < 0.1:
        y0[0] = 1.0
    top = np.max(np.abs(np.linalg.eigvalsh(algebra(y0[None], n, SU)[0])))
    y0 *= (np.pi - 0.2) * (charts - 0.5) / top
    return spec, shoot_geodesic(spec, np.zeros(4**n - 1), y0, float(direction), steps=120)


def _tensor_product():
    spec = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=1))
    ca = shoot_geodesic(spec, np.zeros(3), np.array([0.9, 0.5, -0.3]), 2.4, steps=240)
    cb = shoot_geodesic(spec, np.zeros(3), np.array([-0.4, 0.8, 0.6]), 2.4, steps=240)
    return spec, tensor_product_curve(ca, cb, spec)


def _assert_read_back_unchanged(spec, curve):
    read = Curve.from_json(json.loads(json.dumps(curve.to_json())))
    for name in ("ts", "xs", "ys", "speeds"):
        assert np.array_equal(getattr(read, name), getattr(curve, name)), name
    assert read.segments == curve.segments
    assert len(read.anchors) == len(curve.anchors)
    assert all(np.array_equal(a, b) for a, b in zip(read.anchors, curve.anchors))
    assert curve_length(spec, read) == curve_length(spec, curve)
    # the spectrum is not written: the read curve eigensolves its xs, where the shot kept its
    # chart's, so the residual agrees to np.gradient's amplification of rounding
    stored, again = el_residual(spec, curve), el_residual(spec, read)
    assert again == pytest.approx(stored, rel=1e-6, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from([F2, FQ]),
    n=st.sampled_from([1, 2]),
    raw=st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15),
    charts=st.integers(1, 3),
    direction=st.sampled_from([1, -1]),
)
def test_every_shot_is_read_back_unchanged(family, n, raw, charts, direction):
    _assert_read_back_unchanged(*_shot(family, n, raw, charts, direction))


@pytest.mark.parametrize("charts", [1, 2, 3])
@pytest.mark.parametrize("direction", [1, -1])
def test_shots_of_one_to_three_charts_are_read_back_unchanged(charts, direction):
    raw = list(np.linspace(-1.0, 1.0, 15) + 0.1)
    spec, curve = _shot(F2, 2, raw, charts, direction)
    assert len(curve.segments) == charts
    _assert_read_back_unchanged(spec, curve)


@pytest.mark.parametrize("t_end", [1.0, -1.0])
def test_pauli_geodesics_are_read_back_unchanged(t_end):
    _assert_read_back_unchanged(FQ100, pauli_geodesic_curve(FQ100, GENERIC, t_end))


def test_a_reanchoring_tensor_product_is_read_back_unchanged():
    spec, curve = _tensor_product()
    assert len(curve.segments) >= 2
    _assert_read_back_unchanged(spec, curve)
