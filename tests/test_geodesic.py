import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugeo.coords import change_coords_forward, pauli_log, unitary_from_coords
from sugeo.errors import (
    DimensionLimit,
    DimensionMismatch,
    InconsistentPenalties,
    OutsidePatch,
    SingularHessian,
    StepLimitExceeded,
    TooFewSamples,
    UnsupportedCoefficient,
    ZeroVector,
)
from sugeo import geodesic, metrics
from sugeo.geodesic import (
    Curve,
    additive_triple_check,
    curve_length,
    el_residual,
    embed_pauli_vector,
    f_squared_gradients,
    metric_in_pauli_coords,
    pauli_geodesic,
    pauli_geodesic_curve,
    shoot_geodesic,
)
from sugeo.metrics import F1, F1DELTA, F2, FP, FPDELTA, FQ, MetricSpec, PenaltyFunction, norm
from sugeo.pauli import SU, PauliVector, stabilizer_span, to_matrix

from oracles import fd_el_residual, fd_f_squared_gradients

F2_SPEC = MetricSpec(family=F2)
PEN1 = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1)


def test_f2_straight_line_through_origin():
    y0 = np.array([0.4, -0.2, 0.3])
    curve = shoot_geodesic(F2_SPEC, np.zeros(3), y0, 1.0, steps=200)
    assert np.max(np.abs(curve.xs - np.outer(curve.ts, y0))) < 1e-8
    assert np.max(np.abs(curve.ys - y0)) < 1e-8
    assert np.max(np.abs(curve.speeds - np.linalg.norm(y0))) < 1e-8


def test_shoot_satisfies_euler_lagrange():
    spec = MetricSpec(family=FPDELTA, penalty=PenaltyFunction(kind="step", k=2.0, low_weight_cutoff=0), delta=0.05)
    rng = np.random.default_rng(5)
    y0 = rng.standard_normal(3)
    y0 += 0.3 * np.sign(y0)
    y0 = y0 / np.sum(np.abs(y0)) * 1.5
    curve = shoot_geodesic(spec, np.zeros(3), y0, 0.4, steps=800)
    assert el_residual(spec, curve) < 1e-4


def test_reanchoring_and_unitary_at():
    y0 = np.array([3.0, 0.0, 0.0])
    curve = shoot_geodesic(F2_SPEC, np.zeros(3), y0, 1.0)
    assert len(curve.segments) == 2
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    for i in (0, 400, 979, 985, 1000):
        t = curve.ts[i]
        lam, V = np.linalg.eigh(3.0 * t * sx)
        expected = V @ np.diag(np.exp(-1j * lam)) @ V.conj().T
        assert np.max(np.abs(curve.unitary_at(i) - expected)) < 1e-6


def test_step_limit():
    with pytest.raises(StepLimitExceeded):
        shoot_geodesic(F2_SPEC, np.zeros(3), np.array([3.0, 0.0, 0.0]), 3.0, max_segments=1)


def test_step_limit_stops_at_the_extra_anchor(monkeypatch):
    """x is recovered step by step, so the run stops at the first re-anchoring past the limit."""
    calls = []

    def counting_log(U, mode):
        calls.append(1)
        return pauli_log(U, mode)

    monkeypatch.setattr(geodesic, "pauli_log", counting_log)
    with pytest.raises(StepLimitExceeded):
        shoot_geodesic(F2_SPEC, np.zeros(3), np.array([3.0, 0.0, 0.0]), 3.0, max_segments=1)
    # |y0| = 3 reaches the margin pi - 0.2 at t = 0.98, step 980 of 3000
    assert 975 <= len(calls) <= 985


def test_one_norm_solve_per_right_hand_side(monkeypatch):
    """p = G h: each RK4 evaluation solves the implicit norm once, in its hessian call."""
    calls = []
    solve = metrics._implicit_norms

    def counting_solve(spec, rows):
        calls.append(len(rows))
        return solve(spec, rows)

    monkeypatch.setattr(metrics, "_implicit_norms", counting_solve)
    spec = MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-2)
    steps = 5
    y0 = np.linspace(0.5, 1.0, 15)
    shoot_geodesic(spec, np.zeros(15), y0 / np.linalg.norm(y0), 0.01, steps=steps)
    evaluations = 1 + 4 * steps  # k at h0, then k2, k3, k4 and k_next per step
    # plus F0 at the start and the batch of speeds at the end
    assert calls == [1] * (evaluations + 1) + [steps + 1]


def test_zero_velocity_rejected():
    with pytest.raises(ZeroVector):
        shoot_geodesic(F2_SPEC, np.zeros(3), np.zeros(3), 1.0)


def test_singular_hessian_detected():
    spec = MetricSpec(family=F1DELTA, delta=1e-7)
    with pytest.raises(SingularHessian, match="eigenvalue"):
        shoot_geodesic(spec, np.array([0.1, 0.2, 0.3]), np.array([1.0, 0.8, -0.5]), 0.1, steps=10)


@pytest.mark.parametrize("steps", [500, 2000])
def test_stiff_fpdelta_raises_typed(steps):
    """Past the working range (FpDelta, delta = 1e-3, generic y0 at n = 2) the shot stops typed."""
    spec = MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-3)
    y0 = np.random.default_rng(0).standard_normal(15)
    y0 /= np.linalg.norm(y0)
    with pytest.raises(SingularHessian, match="step is too long"):
        shoot_geodesic(spec, np.zeros(15), y0, 1.0, steps=steps)


def test_near_axis_drift_is_reported():
    """FpDelta, delta = 1e-2, one y0 coefficient near 0: 20 steps of 0.005 drift by ~4e-2 in F.

    The chart-Christoffel engine drifted by the same amount on this input:
    it is the RK4 error at this step, and stats makes it visible.
    """
    spec = MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-2)
    rng = np.random.default_rng(183)
    y0 = rng.standard_normal(15)
    j = rng.integers(15)
    y0[j] = 5e-4 * np.sign(y0[j])
    y0 /= np.linalg.norm(y0)
    curve = shoot_geodesic(spec, np.zeros(15), y0, 0.1, steps=20)
    drift = np.max(np.abs(curve.speeds - curve.speeds[0])) / curve.speeds[0]
    assert curve.stats["speed_drift"] == pytest.approx(drift, rel=1e-12, abs=0.0)
    assert 1e-3 < drift < 1e-1
    assert curve.stats["steps"] == 20 and curve.stats["segments"] == 1
    assert 0.0 < curve.stats["min_hessian_eig"] < np.inf
    assert shoot_geodesic(spec, np.zeros(15), y0, 0.1, steps=40).stats["speed_drift"] < 1e-4


@settings(max_examples=16, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    family=st.sampled_from([FQ, F1DELTA]),
    raw=st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15),
)
def test_random_shots_conserve_f_and_solve_euler_lagrange(n, family, raw):
    """F is conserved and el_residual, an independent check in Pauli coordinates, is small."""
    d = 4**n - 1
    y0 = np.array(raw[:d])
    if np.linalg.norm(y0) < 0.1:
        y0[0] = 1.0
    y0 /= np.linalg.norm(y0)
    # smooth enough for 80 steps over t = 0.2: P delta = 0.6 (n = 1), 0.75 (n = 2)
    spec = MetricSpec(FQ, penalty=PEN1) if family == FQ else MetricSpec(F1DELTA, delta={1: 0.2, 2: 0.05}[n])
    curve = shoot_geodesic(spec, np.zeros(d), y0, 0.2, steps=80)
    assert curve.stats["speed_drift"] < 1e-8
    assert el_residual(spec, curve) < 1e-4


@pytest.mark.parametrize("spec, y0, t_end, steps", [
    (MetricSpec(FPDELTA, penalty=PenaltyFunction(kind="step", k=2.0, low_weight_cutoff=0), delta=0.05),
     np.array([0.45, -0.35, 0.7]), 0.4, 20),
    (MetricSpec(FQ, penalty=PEN1), np.linspace(-1.0, 1.0, 15) + 0.1, 1.0, 10),
])
def test_fourth_order(spec, y0, t_end, steps):
    """Halving dt shrinks the change of the end unitary by about 2^4."""
    ends = []
    for k in (steps, 2 * steps, 4 * steps):
        curve = shoot_geodesic(spec, np.zeros(len(y0)), y0, t_end, steps=k)
        ends.append(curve.unitary_at(k))
    ratio = np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1] - ends[2]))
    assert 12.0 < ratio < 20.0


def test_f2_shot_from_nonzero_x0():
    """Under the bi-invariant F2 the geodesic is exp(-i t H0) exp(-i x0.sigma), H0 = E_x0(y0)."""
    x0 = PauliVector.from_terms(2, {"XI": 0.3, "ZZ": -0.5, "YX": 0.2})
    y0 = PauliVector.from_terms(2, {"IZ": 0.4, "XY": -0.3, "ZI": 0.2})
    curve = shoot_geodesic(F2_SPEC, x0, y0, 1.0, steps=100)
    H0 = to_matrix(change_coords_forward(x0, y0))
    U0 = unitary_from_coords(x0)
    lam, V = np.linalg.eigh(H0)
    for i in (0, 37, 100):
        expected = (V * np.exp(-1j * lam * curve.ts[i])) @ V.conj().T @ U0
        assert np.max(np.abs(curve.unitary_at(i) - expected)) < 1e-12
    assert np.max(np.abs(curve.xs[0] - x0.entries)) < 1e-14
    assert np.max(np.abs(curve.ys[0] - y0.entries)) < 1e-12


def test_shooting_cap(monkeypatch):
    monkeypatch.delenv("SUGEO_N_CAP", raising=False)
    y0 = np.zeros(63)
    y0[[0, 7, 40]] = [0.5, -0.3, 0.2]
    curve = shoot_geodesic(MetricSpec(FQ, penalty=PEN1), np.zeros(63), y0, 0.01, steps=2)
    assert curve.n == 3
    with pytest.raises(DimensionLimit):
        shoot_geodesic(F2_SPEC, np.zeros(255), np.ones(255), 0.01, steps=2)


def test_curve_json_roundtrip():
    curve = shoot_geodesic(F2_SPEC, np.zeros(3), np.array([3.0, 0.0, 0.0]), 1.0, steps=100)
    obj = curve.to_json()
    assert "stats" not in obj and curve.stats["segments"] == 2
    again = Curve.from_json(obj)
    assert np.allclose(again.ts, curve.ts)
    assert np.allclose(again.xs, curve.xs)
    assert np.allclose(again.ys, curve.ys)
    assert np.allclose(again.speeds, curve.speeds)
    assert again.segments == curve.segments
    assert len(again.anchors) == len(curve.anchors)
    for A, B in zip(again.anchors, curve.anchors):
        assert np.max(np.abs(A - B)) < 1e-15


def test_pauli_geodesic_closed_form():
    S = stabilizer_span(("Z",))
    coeffs = PauliVector.from_terms(1, {"Z": 0.7})
    op = pauli_geodesic(S, coeffs, 1.0)
    assert np.allclose(op.matrix, np.diag([np.exp(-0.7j), np.exp(0.7j)]))


def test_pauli_geodesic_rejects_outside_subgroup():
    S = stabilizer_span(("Z",))
    with pytest.raises(UnsupportedCoefficient):
        pauli_geodesic(S, PauliVector.from_terms(1, {"X": 0.5}), 1.0)


def test_pauli_geodesic_curve_leaves_patch():
    spec = MetricSpec(family=F1)
    with pytest.raises(OutsidePatch):
        pauli_geodesic_curve(spec, PauliVector.from_terms(1, {"Z": 2.0}), 2.0)


@pytest.mark.parametrize("spec", [
    MetricSpec(family=F1),
    MetricSpec(family=FQ, penalty=PEN1),
    MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-3),
], ids=lambda spec: spec.family)
def test_pauli_geodesic_curve_speeds_are_exact(spec):
    """x = t h0 commutes with y = h0, so E_x(y) = h0 and every speed is F(h0)."""
    coeffs = PauliVector.from_terms(2, {"XI": 0.5, "XX": -0.3, "IX": 0.25})
    curve = pauli_geodesic_curve(spec, coeffs, 1.0, num_samples=11)
    assert np.array_equal(curve.speeds, np.full(11, norm(spec, coeffs)))


def test_straight_curve_length_is_time_times_norm():
    spec = MetricSpec(family=FP, penalty=PEN1)
    coeffs = PauliVector.from_terms(2, {"XI": 0.5, "ZZ": 0.25})
    curve = pauli_geodesic_curve(spec, coeffs, 0.8)
    assert curve_length(spec, curve) == pytest.approx(0.8 * norm(spec, coeffs), abs=1e-10)
    assert norm(spec, coeffs) == pytest.approx(0.5 + 4.0 * 0.25)


def test_metric_in_pauli_coords_at_origin():
    spec = MetricSpec(family=FQ, penalty=PEN1)
    y = PauliVector.from_terms(2, {"XI": 1.0, "ZZ": 2.0})
    assert metric_in_pauli_coords(spec, np.zeros(15), y.entries) == pytest.approx(norm(spec, y))
    with pytest.raises(DimensionMismatch):
        metric_in_pauli_coords(spec, np.zeros(3), y.entries)


def test_embed_pauli_vector_offsets():
    v = PauliVector.from_terms(1, {"X": 1.0, "Z": 0.5})
    left = embed_pauli_vector(v, 2, 0)
    right = embed_pauli_vector(v, 2, 1)
    assert left.terms() == {"XI": 1.0, "ZI": 0.5}
    assert right.terms() == {"IX": 1.0, "IZ": 0.5}


def test_additive_triple_penalty_mismatch():
    pen_a = PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=0)
    pen_ab = PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=1)
    spec_a = MetricSpec(family=FQ, penalty=pen_a)
    spec_ab = MetricSpec(family=FQ, penalty=pen_ab)
    with pytest.raises(InconsistentPenalties):
        additive_triple_check(spec_a, spec_a, spec_ab)


def test_additive_triple_identity_holds():
    pen = PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=1)
    spec_1 = MetricSpec(family=FQ, penalty=pen)
    spec_2 = MetricSpec(family=FQ, penalty=pen)
    residual = additive_triple_check(spec_1, spec_1, spec_2, num_samples=20)
    assert residual < 1e-10


def test_el_residual_needs_five_samples_in_a_segment():
    spec = MetricSpec(FQ, penalty=PEN1)
    curve = pauli_geodesic_curve(spec, PauliVector.from_terms(1, {"Z": 0.5}), 0.3, num_samples=4)
    with pytest.raises(TooFewSamples):
        el_residual(spec, curve)
    curve = pauli_geodesic_curve(spec, PauliVector.from_terms(1, {"Z": 0.5}), 0.3, num_samples=5)
    assert el_residual(spec, curve) < 1e-12


@pytest.mark.parametrize("spec, coeffs, t_end, stabilizer", [
    (MetricSpec(FPDELTA, penalty=PEN1, delta=1e-4), {"XX": 0.5, "ZZ": -0.4, "YY": 0.3}, 1.0, True),
    (MetricSpec(FQ, penalty=PEN1), {"ZI": 0.7, "IZ": 0.2, "ZZ": -0.3}, 1.0, True),
    (MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=100.0, low_weight_cutoff=1)),
     {"XI": 0.9, "ZZ": 0.7, "IY": 0.4}, 1.0, False),
])
def test_el_residual_matches_fd_oracle_on_exponentials(spec, coeffs, t_end, stabilizer):
    curve = pauli_geodesic_curve(spec, PauliVector.from_terms(2, coeffs), t_end, num_samples=101)
    exact, fd = el_residual(spec, curve), fd_el_residual(spec, curve)
    if stabilizer:
        assert exact < 1e-9 and fd < 1e-6
    else:
        assert exact > 1e-2 and exact == pytest.approx(fd, rel=1e-6)


def test_el_residual_matches_fd_oracle_on_shot_curves():
    """On a shot curve the residual is the sampling error of d/dt, which both routes share."""
    spec = MetricSpec(FPDELTA, penalty=PenaltyFunction(kind="step", k=2.0, low_weight_cutoff=0), delta=0.05)
    curve = shoot_geodesic(spec, np.zeros(3), np.array([0.45, -0.35, 0.7]), 0.4, steps=200)
    assert el_residual(spec, curve) == pytest.approx(fd_el_residual(spec, curve), rel=1e-5)
    spec = MetricSpec(FQ, penalty=PEN1)
    curve = shoot_geodesic(spec, np.zeros(15), 2.0 * (np.linspace(-1.0, 1.0, 15) + 0.1), 1.0, steps=200)
    assert len(curve.segments) == 3
    assert el_residual(spec, curve) == pytest.approx(fd_el_residual(spec, curve), rel=1e-6)


GRADIENT_SPECS = {
    FQ: MetricSpec(FQ, penalty=PEN1),
    F1DELTA: MetricSpec(F1DELTA, delta=0.05),
    FPDELTA: MetricSpec(FPDELTA, penalty=PEN1, delta=0.02),
}


def _assert_gradients_match_fd(spec, x, y):
    gx, gy = f_squared_gradients(spec, x[None, :], y[None, :])
    fx, fy = fd_f_squared_gradients(spec, x, y, h=1e-6)
    for exact, fd in ((gx[0], fx), (gy[0], fy)):
        assert np.max(np.abs(exact - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    family=st.sampled_from(sorted(GRADIENT_SPECS)),
    raw_x=st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15),
    raw_y=st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15),
    degenerate=st.booleans(),
)
def test_adjoint_gradients_match_finite_differences(n, family, raw_x, raw_y, degenerate):
    """Exact dF^2/dx and dF^2/dy against central differences of metric_in_pauli_coords**2."""
    d = 4**n - 1
    spec = GRADIENT_SPECS[family]
    x, y = np.array(raw_x[:d]), np.array(raw_y[:d])
    if degenerate:  # x on one commuting Pauli string: a doubly degenerate spectrum
        x[1:] = 0.0
    x *= 2.5 / max(np.abs(np.linalg.eigvalsh(to_matrix(PauliVector(n, SU, x)))).max(), 1.0)
    if np.linalg.norm(y) < 0.1:
        y[0] = 1.0
    _assert_gradients_match_fd(spec, x, y)


def test_adjoint_gradients_at_degenerate_stabilizer_point_n3():
    """x on a stabilizer group at n = 3 (eigenvalues of multiplicity up to 4), y generic."""
    x = PauliVector.from_terms(3, {"ZII": 0.4, "IZI": -0.3, "ZZI": 0.25, "IIZ": 0.1}).entries
    y = np.random.default_rng(31).standard_normal(63)
    for spec in (MetricSpec(FQ, penalty=PEN1), MetricSpec(FPDELTA, penalty=PEN1, delta=1e-3)):
        _assert_gradients_match_fd(spec, x, y)
